"""One-class first-order rule learning via iterated relational regression trees.

Each tree is a left spine of literal tests: the true branch is grown,
every false branch is a leaf (those paths carry negations and are never
extracted).  The spine is found by beam search minimizing weighted squared
error; the conjunction of spine literals is the rule ``learn_tree``
returns.  Iterating with covering-style down-weighting yields a rule set,
one rule per tree.

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
    POSITIVE,
    POSITIVE_DENSITY,
    TargetExample,
    count_satisfied_groundings,
    sample_negatives,
)
from .kb import Atom, Constant, KnowledgeBase, Variable, _read_atom

log = logging.getLogger(__name__)

_BEST_TOL = 1e-12


@dataclass
class RuleSet:
    rules: list[Clause]
    source: str


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


def _branch_sse(values: np.ndarray, weights: np.ndarray) -> float:
    total = float(weights.sum())
    if total <= 0.0 or len(values) == 0:
        return 0.0
    mean = float(np.dot(weights, values)) / total
    return float(np.dot(weights, (values - mean) ** 2))


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total = float(weights.sum())
    if total <= 0.0 or len(values) == 0:
        return 0.0
    return min(1.0, max(0.0, float(np.dot(weights, values)) / total))


@dataclass
class _SpineState:
    literals: tuple[Atom, ...]
    left: np.ndarray  # bool mask of examples routed left through the whole spine
    acc_right_sse: float
    total_sse: float
    parent: _SpineState | None = None  # the spine one literal shorter
    # Satisfied groundings of the spine, built only when the state is expanded.
    table: BindingTable | None = None

    @property
    def sort_key(self):
        return (self.total_sse, tuple(str(a) for a in self.literals))


def learn_tree(
    kb: KnowledgeBase,
    weighted_examples: list[tuple[TargetExample, float, float]],
    config: LearnConfig,
) -> Clause:
    """Grow one left-spine tree by beam search over spine prefixes and
    return its rule, the conjunction of the spine literals.

    Each level extends every beam spine with every candidate literal and
    keeps the ``beam_width`` lowest-error spines.  The rule's body is the
    best strict-improvement prefix seen; ties break lexicographically on
    the literal strings, so learning is deterministic.

    A candidate's coverage comes from one semi-join of the literal with the
    spine's binding table, for all examples at once; a beam spine's table
    is built from its parent's when the spine is expanded.
    """
    if not weighted_examples:
        raise DataError("weighted_examples must be nonempty")
    preds = {ex.atom.predicate for ex, _, _ in weighted_examples}
    if len(preds) != 1:
        raise DataError("all examples must share the target predicate")
    predicate = preds.pop()
    head = make_head(kb, predicate)
    examples = [ex for ex, _, _ in weighted_examples]
    values = np.array([v for _, v, _ in weighted_examples], dtype=float)
    weights = np.array([w for _, _, w in weighted_examples], dtype=float)
    n = len(examples)

    root = _SpineState(
        literals=(),
        left=np.ones(n, dtype=bool),
        acc_right_sse=0.0,
        total_sse=_branch_sse(values, weights),
        table=BindingTable.for_head(head, examples, kb),
    )
    largest_table = len(root.table.rows)
    scored_per_depth: list[int] = []
    best = root
    beam = [root]
    for _depth in range(config.max_body_length):
        expansions: list[_SpineState] = []
        scored = 0
        for state in beam:
            if int(state.left.sum()) < config.min_examples_per_leaf:
                continue
            if state.table is None:
                state.table = state.parent.table.extend(state.literals[-1], kb)
                largest_table = max(largest_table, len(state.table.rows))
            for lit in candidate_literals(
                kb, head, state.literals, config.max_constants_for_grounding
            ):
                scored += 1
                body = state.literals + (lit,)
                new_left = state.table.covered(lit, kb, n)
                if int(new_left.sum()) < config.min_examples_per_leaf:
                    continue
                right_group = state.left & ~new_left
                # The spine describes the class density: only accept splits
                # whose covered side is at least as class-dense as the
                # examples it peels off, otherwise the left path would end
                # up characterizing the contrast instead of the class.
                if right_group.any():
                    left_mean = _weighted_mean(values[new_left], weights[new_left])
                    right_mean = _weighted_mean(
                        values[right_group], weights[right_group]
                    )
                    if left_mean < right_mean - _BEST_TOL:
                        continue
                acc_right = state.acc_right_sse + _branch_sse(
                    values[right_group], weights[right_group]
                )
                total = acc_right + _branch_sse(values[new_left], weights[new_left])
                expansions.append(_SpineState(body, new_left, acc_right, total, state))
        scored_per_depth.append(scored)
        if not expansions:
            break
        expansions.sort(key=lambda s: s.sort_key)
        beam = expansions[: config.beam_width]
        if beam[0].total_sse < best.total_sse - _BEST_TOL:
            best = beam[0]

    log.info(
        "learned a depth-%d tree for %s; candidate literals scored per beam "
        "depth: %s; largest binding table: %d rows; join indexes held: %d "
        "(%d bytes)",
        len(best.literals),
        predicate,
        scored_per_depth,
        largest_table,
        *kb.join_index_memory(),
    )
    return Clause(head, best.literals)


# -- iterated rule-set learning -------------------------------------------


def learn_ruleset(
    kb: KnowledgeBase,
    examples: list[TargetExample],
    config: LearnConfig,
    k: int,
    contrast: list[TargetExample] | None = None,
) -> RuleSet:
    """Learn k rules from a one-class example set.

    Class examples start with regression target 1 and unit weight.  Each
    iteration learns a tree's left-spine rule, then multiplies
    the weight of every covered class example by ``covering_discount`` and
    renormalizes, steering later trees toward uncovered examples.  The
    closed-world ``contrast`` sample (value 0, drawn outside the class when
    not supplied) gives the squared-error criterion something to separate.
    Learning stops early, with a warning, on a duplicate consecutive rule;
    an empty-body rule (a constant feature) is kept with a warning.
    """
    if not examples:
        raise DataError("examples must be nonempty")
    labels = {ex.label for ex in examples}
    if len(labels) != 1:
        raise DataError("learn_ruleset expects a one-class example set")
    label = labels.pop()
    source = POSITIVE_DENSITY if label == POSITIVE else NEGATIVE_DENSITY
    if k < 1:
        raise DataError("k must be >= 1")

    schema = kb.schema(examples[0].atom.predicate)
    if contrast is None:
        contrast = sample_negatives(
            kb, schema, examples, config.contrast_ratio, config.seed
        )

    n = len(examples)
    weights = np.ones(n, dtype=float)
    rules: list[Clause] = []
    for it in range(k):
        weighted = [(ex, 1.0, float(w)) for ex, w in zip(examples, weights)] + [
            (ex, 0.0, 1.0) for ex in contrast
        ]
        rule = replace(learn_tree(kb, weighted, config), source=source, iteration=it)
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
        covered = count_satisfied_groundings(rule, examples, kb, cap=1) > 0
        weights[covered] *= config.covering_discount
        total = float(weights.sum())
        if total > 0:
            weights *= n / total
    return RuleSet(rules, source)


# -- rule file round-trip --------------------------------------------------

_RULE_RE = re.compile(
    r"^\s*(\w+)\s*\(([^()]*)\)\s*:-\s*(.*?)\s*\.\s*"
    r"(?:%\s*source=(\S+)\s+iter=(\d+)\s*)?$"
)
_LIT_RE = re.compile(r"(\w+)\s*\(([^()]*)\)")


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
        if body_str.strip() != "true":
            consumed = _LIT_RE.findall(body_str)
            if not consumed:
                raise ParseError(f"malformed rule body: {raw!r}", lineno)
            body = tuple(_parse_rule_atom(pred, args, kb, lineno) for pred, args in consumed)
        rules.append(Clause(head, body, source or POSITIVE_DENSITY, int(it or 0)))
    return rules
