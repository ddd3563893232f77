"""Synthetic co-authorship data with planted conjunctive rules.

Entities are persons, universities and topics; every person gets one
affiliation and one research topic.  A pair of persons is a planted
positive when it satisfies one of the planted rule bodies (shared
affiliation; with two rules, also shared topic).  Negatives are sampled
closed-world from the non-satisfying pairs.  Noise replaces a fraction of
the positives with structure-violating pairs; negatives stay clean, since
label-flipped negatives would be feature-identical to positives and make
any downstream evaluation target unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .grounding import Clause
from .kb import Atom, KnowledgeBase, PredicateSchema, Targets
from .rulelearn import make_head

PERSON = "person"
UNIVERSITY = "university"
TOPIC = "topic"

TARGET_PREDICATE = "CoAuthor"


@dataclass
class SyntheticSpec:
    n_persons: int = 60
    n_universities: int = 5
    n_topics: int = 8
    n_rules: int = 2
    noise_rate: float = 0.0
    n_positives: int | None = None  # None: every rule-satisfying pair
    n_negatives: int = 600
    seed: int = 0

    def __post_init__(self):
        for name in ("n_persons", "n_universities", "n_topics"):
            if getattr(self, name) < 1:
                raise ConfigError("an int >= 1", name, getattr(self, name))
        if self.n_rules not in (1, 2):
            raise ConfigError("1 or 2", "n_rules", self.n_rules)
        if not (0.0 <= self.noise_rate < 1.0):
            raise ConfigError("a float in [0, 1)", "noise_rate", self.noise_rate)
        for name in ("n_positives", "n_negatives", "seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError("an int >= 0", name, value)


@dataclass
class SyntheticData:
    kb: KnowledgeBase
    positives: Targets
    negatives: Targets
    planted_rules: list[Clause]


def planted_rules(kb: KnowledgeBase, n_rules: int = 2) -> list[Clause]:
    head = make_head(kb, TARGET_PREDICATE)
    p1, p2 = head.args
    u1 = "university1"
    rules = [
        Clause(head, (Atom("Affiliation", (p1, u1)), Atom("Affiliation", (p2, u1))))
    ]
    if n_rules >= 2:
        t1 = "topic1"
        rules.append(
            Clause(
                head,
                (Atom("ResearchTopic", (p1, t1)), Atom("ResearchTopic", (p2, t1))),
            )
        )
    return rules


def generate_synthetic(
    spec: SyntheticSpec, out_dir: str | Path | None = None
) -> SyntheticData:
    """Build the knowledge base and example sets; optionally write
    facts.txt / pos.txt / neg.txt under out_dir.  Deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    persons = [f"P{i:03d}" for i in range(spec.n_persons)]
    unis = [f"U{i}" for i in range(spec.n_universities)]
    topics = [f"T{i}" for i in range(spec.n_topics)]

    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("Affiliation", (PERSON, UNIVERSITY)))
    kb.declare_schema(PredicateSchema("ResearchTopic", (PERSON, TOPIC)))
    kb.declare_schema(PredicateSchema(TARGET_PREDICATE, (PERSON, PERSON)))

    # Balanced round-robin assignment over shuffled persons.
    shuffled = list(persons)
    rng.shuffle(shuffled)
    affiliation = {p: unis[i % len(unis)] for i, p in enumerate(shuffled)}
    rng.shuffle(shuffled)
    topic_of = {p: topics[i % len(topics)] for i, p in enumerate(shuffled)}
    for p in persons:
        kb.add_fact("Affiliation", (p, affiliation[p]))
        kb.add_fact("ResearchTopic", (p, topic_of[p]))

    satisfying = []
    violating = []
    for i, a in enumerate(persons):
        for b in persons[i + 1 :]:
            hit = affiliation[a] == affiliation[b]
            if spec.n_rules >= 2:
                hit = hit or topic_of[a] == topic_of[b]
            (satisfying if hit else violating).append((a, b))

    n_pos = len(satisfying) if spec.n_positives is None else spec.n_positives
    if n_pos > len(satisfying):
        raise DataError(
            f"requested {n_pos} positives but only {len(satisfying)} "
            f"rule-satisfying pairs exist"
        )
    n_noise = int(round(spec.noise_rate * n_pos))
    if spec.n_negatives + n_noise > len(violating):
        raise DataError(
            f"requested {spec.n_negatives} negatives plus {n_noise} noisy "
            f"positives but only {len(violating)} non-satisfying pairs exist"
        )

    sat_idx = rng.permutation(len(satisfying))
    vio_idx = rng.permutation(len(violating))
    clean_pos = [satisfying[i] for i in sorted(sat_idx[: n_pos - n_noise].tolist())]
    neg_pairs = [violating[i] for i in sorted(vio_idx[: spec.n_negatives].tolist())]
    noisy_pos = [
        violating[i]
        for i in sorted(vio_idx[spec.n_negatives : spec.n_negatives + n_noise].tolist())
    ]

    positives = kb.targets(TARGET_PREDICATE, clean_pos + noisy_pos, True)
    negatives = kb.targets(TARGET_PREDICATE, neg_pairs, False)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "facts.txt").write_text(kb.to_text(), encoding="utf-8")
        for name, examples in (("pos.txt", positives), ("neg.txt", negatives)):
            atoms = kb.atom_texts(TARGET_PREDICATE, examples.ids)
            (out / name).write_text("".join(f"{atom}.\n" for atom in atoms), encoding="utf-8")

    return SyntheticData(kb, positives, negatives, planted_rules(kb, spec.n_rules))
