"""One-class first-order rule learning via iterated relational regression trees.

Each tree is a left spine of literal tests: the true branch is grown,
every false branch is a leaf (those paths carry negations and are never
extracted).  The spine is found by beam search minimizing weighted squared
error; the conjunction of spine literals is the rule ``learn_tree``
returns, with the mask of the examples it covers.  Iterating, with the
covering step down-weighting the examples in that mask, yields a rule
set, one rule per tree.

Learning from a single class would make the squared-error criterion
degenerate (all regression targets equal), so each rule set is fit against
a seeded closed-world contrast sample of target tuples outside the class,
carrying regression value 0.

Coverage is computed set-at-a-time: each beam spine keeps a
`BindingTable` of its satisfied groundings over the examples it covers,
and a candidate literal's coverage is one vectorized semi-join with that
table, for every example at once.  The semi-join probes the kb's sorted
index of the literal's fact pattern, which every spine and tree of the
search shares, so the facts are filtered and sorted once per pattern, not
once per candidate.  A spine's table is built from its parent's only when
the spine is expanded, so at most ``beam_width`` tables are built per
depth; a table's memory grows with the groundings of the covered
examples, which each fresh variable can multiply.

The trees of one rule set share their joins, as query packs share the
work of queries with a common prefix (Blockeel et al. 2002, "Improving
the efficiency of inductive logic programming through the use of query
packs").  Every tree runs over the same examples and only the weights
change between trees, so a spine body's table, its candidate literals and
their coverage masks are the same in every tree.  `learn_ruleset` keeps
them in one `JoinMemo`, keyed by body, for as long as the call runs, and
a tree joins only the bodies no earlier tree of the set has expanded; the
split scoring, the density guard, the sort and the beam still run on each
tree's own weights.  Besides the tables the memo holds one n-bool mask
per candidate of every expanded body, where n counts the examples and
the contrast; most of its bytes are the tables.  It peaks at 4.4 MB per
rule set on the benchmark's ``sampled-topics`` workload and at 2.6 MB on
``planted-750``.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .grounding import (
    BindingTable,
    Clause,
    NEGATIVE_DENSITY,
    POSITIVE_DENSITY,
    # Unused here; the benchmark traces coverage at this name as `rulelearn.cover`.
    count_satisfied_groundings,
    sample_negatives,
)
from .kb import Atom, Constant, KnowledgeBase, Targets, Variable, _read_atom

log = logging.getLogger(__name__)

_BEST_TOL = 1e-12


# Kept for `.rules`, which the benchmark's `learn_ruleset` hook reads.
@dataclass
class RuleSet:
    rules: list[Clause]


@dataclass
class LearnConfig:
    """The ``learn.*`` settings, one field per key; an out-of-range field
    is a ConfigError whose ``key`` is the field."""

    max_body_length: int = 4
    beam_width: int = 5
    min_examples_per_leaf: int = 2
    covering_discount: float = 0.1
    seed: int = 7
    # Constant-grounded candidate literals are generated for argument
    # positions whose type has at most this many constants; 0 disables them.
    max_constants_for_grounding: int = 50
    # Size of the closed-world contrast sample relative to the class size.
    contrast_ratio: float = 1.0

    def __post_init__(self):
        for name in ("max_body_length", "beam_width", "min_examples_per_leaf"):
            if getattr(self, name) < 1:
                raise ConfigError("an int >= 1", name, getattr(self, name))
        for name in ("seed", "max_constants_for_grounding"):
            if getattr(self, name) < 0:
                raise ConfigError("an int >= 0", name, getattr(self, name))
        if not 0.0 <= self.covering_discount <= 1.0:
            raise ConfigError("a float in [0, 1]", "covering_discount", self.covering_discount)
        if self.contrast_ratio <= 0:
            raise ConfigError("a float > 0", "contrast_ratio", self.contrast_ratio)


def make_head(kb: KnowledgeBase, predicate: str) -> Atom:
    """Canonical head atom with distinct typed variables, named type1, type2, ..."""
    args: list[Variable] = []
    for t in kb.schema(predicate).arg_types:
        args.append(Variable(_fresh_name(t, {a.name for a in args})))
    return Atom(predicate, tuple(args))


def _typed_variables(kb: KnowledgeBase, head: Atom, body: tuple[Atom, ...]) -> dict[str, str]:
    """Variable name -> type, collected from the head and the body literals."""
    out: dict[str, str] = {}
    for atom in (head, *body):
        for t, a in zip(kb.schema(atom.predicate).arg_types, atom.args):
            if isinstance(a, Variable):
                out.setdefault(a.name, t)
    return out


def _fresh_name(type_name: str, used: set[str]) -> str:
    i = 1
    while f"{type_name}{i}" in used:
        i += 1
    return f"{type_name}{i}"


def candidate_literals(
    kb: KnowledgeBase,
    head: Atom,
    body: tuple[Atom, ...],
    max_constants_for_grounding: int = 50,
) -> list[Atom]:
    """Refinement candidates for extending a left spine.

    Each argument slot takes, in order, an existing clause variable of the
    slot's type (in name order), the type's one fresh variable, or a
    constant of the type when it has at most ``max_constants_for_grounding``
    of them; a candidate is one choice per slot with at most one fresh
    variable and at least one existing one (connectedness).  The target
    predicate itself is excluded (no recursive clauses), and so are the
    literals already in the body.  Sorted by text, stably, for determinism.
    """
    var_types = _typed_variables(kb, head, body)
    used_names = set(var_types)
    by_type: dict[str, list[Variable]] = {}
    for name in sorted(used_names):
        by_type.setdefault(var_types[name], []).append(Variable(name))

    existing = set(body)
    out = []
    for pred in sorted(kb.schemas):
        if pred == head.predicate:
            continue
        slot_options = []
        for t in kb.schemas[pred].arg_types:
            domain = kb.constants_of_type(t)
            consts = sorted(domain) if len(domain) <= max_constants_for_grounding else []
            slot_options.append(
                by_type.get(t, [])
                + [Variable(_fresh_name(t, used_names))]
                + [Constant(c, t) for c in consts]
            )
        for args in itertools.product(*slot_options):
            names = [a.name for a in args if isinstance(a, Variable)]
            reused = sum(name in used_names for name in names)
            atom = Atom(pred, args)
            if reused >= 1 and len(names) - reused <= 1 and atom not in existing:
                out.append(atom)
    out.sort(key=str)
    return out


def _branch_fit(
    values: np.ndarray, weights: np.ndarray, mask: np.ndarray
) -> tuple[float, float]:
    """The masked branch's weighted mean, clipped to [0, 1], and its
    weighted squared error around the unclipped mean; (0, 0) for a branch
    without examples or weight."""
    v, w = values[mask], weights[mask]
    total = float(w.sum())
    if total <= 0.0:
        return 0.0, 0.0
    mean = float(np.dot(w, v)) / total
    return min(1.0, max(0.0, mean)), float(np.dot(w, (v - mean) ** 2))


@dataclass
class _Spine:
    """What the joins of one spine body give every tree of a rule set: the
    body's binding table, its candidate literals with their texts, and
    each candidate's coverage mask."""

    table: BindingTable
    candidates: list[Atom]
    texts: list[str]
    masks: list[np.ndarray]


class JoinMemo:
    """What the trees of one rule set search: the kb, the examples and the
    `LearnConfig`, with the joins of every spine body a tree has expanded,
    keyed by body: its binding table, its candidate literals and their
    coverage masks, joined by the first tree to expand it.  ``nbytes``
    counts the tables and masks."""

    def __init__(self, kb: KnowledgeBase, examples: Targets, config: LearnConfig):
        self.kb = kb
        self.examples = examples
        self.config = config
        self.head = make_head(kb, examples.predicate)
        self.spines: dict[tuple[Atom, ...], _Spine] = {}
        self.nbytes = 0

    def spine(self, body: tuple[Atom, ...]) -> _Spine:
        """The joins of `body`, made on first use; the table of a nonempty
        body extends that of the body one literal shorter, which the tree
        expanding `body` has already joined."""
        if body in self.spines:
            return self.spines[body]
        kb, n = self.kb, len(self.examples)
        if body:
            table = self.spines[body[:-1]].table.extend(body[-1], kb)
        else:
            table = BindingTable.for_head(self.head, self.examples, kb)
        max_constants = self.config.max_constants_for_grounding
        candidates = candidate_literals(kb, self.head, body, max_constants)
        masks = [table.covered(lit, kb, n) for lit in candidates]
        spine = _Spine(table, candidates, [str(lit) for lit in candidates], masks)
        self.spines[body] = spine
        self.nbytes += table.rows.nbytes + n * len(masks)
        return spine


@dataclass
class _SpineState:
    literals: tuple[Atom, ...]
    texts: tuple[str, ...]  # the literals' texts, for the tie-break
    left: np.ndarray  # bool mask of examples routed left through the whole spine
    acc_right_sse: float
    total_sse: float

    @property
    def sort_key(self):
        return (self.total_sse, self.texts)


def learn_tree(
    memo: JoinMemo, values: np.ndarray, weights: np.ndarray
) -> tuple[Clause, np.ndarray]:
    """Grow one left-spine tree over ``memo``'s kb and examples, under its
    config, by beam search over spine prefixes, fitting ``values`` under
    ``weights``, and return its rule, the conjunction of the spine
    literals, with the bool mask of the examples it covers.

    Each level extends every beam spine with every candidate literal and
    keeps the ``beam_width`` lowest-error spines.  The rule's body is the
    best strict-improvement prefix seen; ties break lexicographically on
    the literal strings, so learning is deterministic.

    A candidate's coverage comes from one semi-join of the literal with the
    spine's binding table, for all examples at once; a beam spine's table
    is built from its parent's when the spine is expanded.  Those joins
    depend on the body and the examples only, not on ``values`` or
    ``weights``, so they go into ``memo``, and a tree given the memo of
    earlier trees joins only the bodies none of them expanded.  The memo
    holds an n-bool mask per candidate of every expanded body besides its
    tables.
    """
    config = memo.config
    n = len(memo.examples)
    if n == 0:
        raise DataError("examples must be nonempty")
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    if values.shape != (n,) or weights.shape != (n,):
        raise DataError(
            f"values {values.shape} and weights {weights.shape} must hold one "
            f"number per example ({n})"
        )
    everything = np.ones(n, dtype=bool)
    root = _SpineState((), (), everything, 0.0, _branch_fit(values, weights, everything)[1])
    largest_table = 0
    scored_per_depth: list[int] = []
    reused = 0
    best = root
    beam = [root]
    for _depth in range(config.max_body_length):
        expansions: list[_SpineState] = []
        scored = 0
        for state in beam:
            if int(state.left.sum()) < config.min_examples_per_leaf:
                continue
            joined = state.literals in memo.spines
            spine = memo.spine(state.literals)
            largest_table = max(largest_table, len(spine.table.rows))
            scored += len(spine.candidates)
            reused += len(spine.candidates) if joined else 0
            for lit, text, new_left in zip(spine.candidates, spine.texts, spine.masks):
                if int(new_left.sum()) < config.min_examples_per_leaf:
                    continue
                left_mean, left_sse = _branch_fit(values, weights, new_left)
                right_mean, right_sse = _branch_fit(values, weights, state.left & ~new_left)
                # The spine describes the class density: accept only splits
                # whose covered side is at least as class-dense as what it
                # peels off (an empty side has mean 0), or the left path would
                # characterize the contrast instead of the class.
                if left_mean < right_mean - _BEST_TOL:
                    continue
                acc_right = state.acc_right_sse + right_sse
                expansions.append(
                    _SpineState(
                        state.literals + (lit,),
                        state.texts + (text,),
                        new_left,
                        acc_right,
                        acc_right + left_sse,
                    )
                )
        scored_per_depth.append(scored)
        if not expansions:
            break
        expansions.sort(key=lambda s: s.sort_key)
        beam = expansions[: config.beam_width]
        if beam[0].total_sse < best.total_sse - _BEST_TOL:
            best = beam[0]

    log.info(
        "learned a depth-%d tree for %s; candidate literals scored per beam "
        "depth: %s; largest binding table: %d rows; candidates from the join "
        "memo: %d of %d (memo %d bytes); join indexes held: %d (%d bytes)",
        len(best.literals),
        memo.head.predicate,
        scored_per_depth,
        largest_table,
        reused,
        sum(scored_per_depth),
        memo.nbytes,
        *memo.kb.join_index_memory(),
    )
    return Clause(memo.head, best.literals), best.left


# -- iterated rule-set learning -------------------------------------------


def learn_ruleset(
    kb: KnowledgeBase,
    examples: Targets,
    config: LearnConfig,
    k: int,
    contrast: Targets | None = None,
    symmetric: bool = True,
) -> RuleSet:
    """Learn k rules from a one-class example set.

    Class examples start with regression target 1 and unit weight.  Each
    iteration learns a tree's left-spine rule, then multiplies the weight
    of every class example the tree covered by ``covering_discount`` and
    renormalizes, steering later trees toward uncovered examples.  The
    closed-world ``contrast`` sample (value 0, weight 1, drawn outside the
    class when not supplied, under ``sample_negatives``' ``symmetric``)
    gives the criterion something to separate.
    Learning stops early, with a warning, on a duplicate consecutive rule;
    an empty-body rule (a constant feature) is kept with a warning.
    """
    if len(examples) == 0:
        raise DataError("examples must be nonempty")
    if examples.positive.any() != examples.positive.all():
        raise DataError("learn_ruleset expects a one-class example set")
    source = POSITIVE_DENSITY if examples.positive[0] else NEGATIVE_DENSITY
    if k < 1:
        raise DataError("k must be >= 1")

    if contrast is None:
        schema = kb.schema(examples.predicate)
        contrast = sample_negatives(
            kb, schema, examples, config.contrast_ratio, config.seed, symmetric=symmetric
        )

    n = len(examples)
    targets = examples + contrast
    values = np.concatenate([np.ones(n), np.zeros(len(contrast))])
    weights = np.ones(len(targets))
    class_weights = weights[:n]  # a view: the contrast keeps weight 1
    memo = JoinMemo(kb, targets, config)
    rules: list[Clause] = []
    for it in range(k):
        rule, covered = learn_tree(memo, values, weights)
        rule = replace(rule, source=source, iteration=it)
        if not rule.body:
            log.warning(
                "learned an empty-body rule (depth-0 tree) for %s; the resulting "
                "feature column is constant",
                rule.head,
            )
        if rules and rule.body == rules[-1].body:
            log.warning(
                "duplicate consecutive rule at iteration %d; stopping early "
                "with %d rules",
                it,
                len(rules),
            )
            break
        rules.append(rule)
        class_weights[covered[:n]] *= config.covering_discount
        total = float(class_weights.sum())
        if total > 0:
            class_weights *= n / total
    return RuleSet(rules)


# -- rule file round-trip --------------------------------------------------

_RULE_RE = re.compile(
    r"^\s*(\w+)\s*\(([^()]*)\)\s*:-\s*(.*?)\s*\.\s*"
    r"(?:%\s*source=(\S+)\s+iter=(\d+)\s*)?$"
)
_LIT_RE = re.compile(r"(\w+)\s*\(([^()]*)\)")
# A body other than ``true``: comma-separated literals and nothing else.
_BODY_RE = re.compile(r"\w+\s*\([^()]*\)(?:\s*,\s*\w+\s*\([^()]*\))*")


def _fmt_atom(a: Atom) -> str:
    args = (f'"{t.name}"' if isinstance(t, Constant) else t.name for t in a.args)
    return f"{a.predicate}({', '.join(args)})"


def serialize_rules(rules: list[Clause]) -> str:
    """One rule per line; constants are quoted so the reader can tell them
    from variables without relying on casing."""
    lines = []
    for r in rules:
        body = ", ".join(_fmt_atom(a) for a in r.body) if r.body else "true"
        lines.append(
            f"{_fmt_atom(r.head)} :- {body}. % source={r.source} iter={r.iteration}"
        )
    return "\n".join(lines) + "\n"


def _parse_rule_atom(pred: str, argstr: str, kb: KnowledgeBase, lineno: int) -> Atom:
    schema, toks = _read_atom(pred, argstr, kb, lineno, "rule")
    args = [
        Constant(tok[1:-1], t) if len(tok) >= 2 and tok[0] == tok[-1] == '"' else Variable(tok)
        for t, tok in zip(schema.arg_types, toks)
    ]
    return Atom(pred, tuple(args))


def parse_rules(text: str, kb: KnowledgeBase) -> list[Clause]:
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        m = _RULE_RE.match(line)
        if m is None:
            raise ParseError(f"malformed rule line: {raw!r}", lineno)
        head_pred, head_args, body_str, source, it = m.groups()
        if source not in (None, POSITIVE_DENSITY, NEGATIVE_DENSITY):
            raise ParseError(
                f"unknown rule source {source!r}, expected {POSITIVE_DENSITY!r} "
                f"or {NEGATIVE_DENSITY!r}",
                lineno,
            )
        head = _parse_rule_atom(head_pred, head_args, kb, lineno)
        body: tuple[Atom, ...] = ()
        if body_str != "true":
            if _BODY_RE.fullmatch(body_str) is None:
                raise ParseError(f"malformed rule body: {raw!r}", lineno)
            literals = _LIT_RE.findall(body_str)
            body = tuple(_parse_rule_atom(pred, args, kb, lineno) for pred, args in literals)
        rules.append(Clause(head, body, source or POSITIVE_DENSITY, int(it or 0)))
    return rules
