"""Link prediction over relational knowledge bases.

Learns first-order rules separately from positive and negative example
densities, turns satisfied-grounding counts into a dense feature matrix,
derives a pairwise-distance propagation structure, and trains a graph
convolutional network on it.
"""

from .errors import ConfigError, DataError, NumericalError, ParseError, RelgcnError
from .kb import (
    Atom,
    Constant,
    KnowledgeBase,
    PredicateSchema,
    Targets,
    Variable,
    parse_facts,
    parse_ground_atoms,
)
from .grounding import (
    Clause,
    count_satisfied_groundings,
    sample_negatives,
)
from .rulelearn import (
    LearnConfig,
    RuleSet,
    candidate_literals,
    learn_ruleset,
    learn_tree,
    parse_rules,
    serialize_rules,
)
from .featurize import (
    PropagationMatrix,
    adjacency_approximation,
    build_rule_matrix,
    normalize_propagation,
    pairwise_distances,
    propagation_matrix,
)
from .gcn import (
    GCNModel,
    SplitMasks,
    TrainConfig,
    adam_step,
    gcn_backward,
    gcn_forward,
    glorot_init,
    predict,
    train,
)
from .metrics import MetricsReport, auc_pr, confusion_metrics, split_examples
from .pipeline import PipelineConfig, run_pipeline, sensitivity_sweep
from .synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
