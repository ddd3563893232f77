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
a closed-world contrast sample of target tuples outside the class,
carrying regression value 0.  The caller draws it (the pipeline's learn
stage, with its seed and ratio); this module only fits rules.

Coverage is computed set-at-a-time: each beam spine keeps a
`BindingTable` of its satisfied groundings over the examples it covers,
stored column by column, and a candidate literal's coverage is one
vectorized semi-join with that table, for every example at once, that
reads the table's key columns in place.  The semi-join probes the kb's
sorted index of the literal's fact pattern, which every spine and tree
of the search shares, so the facts are filtered and sorted once per
pattern, not once per candidate.  A spine's table extends its parent's,
each of its columns written once; its memory grows with the groundings
of the covered examples, which each fresh variable can multiply.  A
candidate that does not use the spine's *leaf*, the fresh variable of its
last literal, is probed on the parent table's rows that the last literal
extends instead, the semi-join remedy of probing the smallest relation
that binds the key (Yannakakis 1981, "Algorithms for acyclic database
schemes"): every row of the spine's table copies one of them, so the
coverage is the same.  Coverage needs only existence, so a spine with a
leaf stays factorized, the parent's rows with each row's run of facts of
the last literal (Olteanu & Závodný 2015, "Size bounds for factorised
representations of query results"), and a candidate keyed on the leaf
alone is probed on the facts of the runs.  When a candidate ties the
leaf to an older variable, the candidates that use the leaf are probed
on the spine's table, gathered from the runs and dropped once scored.  A leaf
spine's table is held only once a tree expands the spine, which gathers
it again, so a tree adds at most ``beam_width`` of them per depth.

The trees of one rule set share their joins, as query packs share the
work of queries with a common prefix (Blockeel et al. 2002, "Improving
the efficiency of inductive logic programming through the use of query
packs").  Every tree runs over the same examples and only the weights
change between trees, so a spine body's table, its candidate literals and
their coverage masks are the same in every tree.  `learn_ruleset` keeps
them in one `JoinMemo`, keyed by body, for as long as the call runs, and
a tree joins only the bodies no earlier tree of the set has expanded; the
split scoring, the density guard, the sort and the beam still run on each
tree's own weights.  Candidates with equal masks split the examples the
same way, so a spine keeps its distinct masks, its splits, and a beam
state fits both branches of each split once for all the candidates that
share it.  Besides the tables held, and a factorized spine's run starts
and counts, the memo holds one n-bool mask per split of every expanded
body, where n counts the examples and the contrast.  It peaks at 0.14 MB
per rule set on the benchmark's ``sampled-topics`` workload and at 0.38
MB on ``planted-750``; the largest table gathered only to score, 12,138
rows (0.58 MB) on ``sampled-topics``, lives while its spine is scored.
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
    # Unused here; the benchmark traces draws at this name as well as in `pipeline`.
    sample_negatives,
)
from .kb import Atom, KnowledgeBase, Targets, _read_atom

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
    # Size of the closed-world contrast sample relative to the class size.
    contrast_ratio: float = 1.0

    def __post_init__(self):
        for name in ("max_body_length", "beam_width", "min_examples_per_leaf"):
            if getattr(self, name) < 1:
                raise ConfigError("an int >= 1", name, getattr(self, name))
        if self.seed < 0:
            raise ConfigError("an int >= 0", "seed", self.seed)
        if not 0.0 <= self.covering_discount <= 1.0:
            raise ConfigError("a float in [0, 1]", "covering_discount", self.covering_discount)
        if self.contrast_ratio <= 0:
            raise ConfigError("a float > 0", "contrast_ratio", self.contrast_ratio)


def make_head(kb: KnowledgeBase, predicate: str) -> Atom:
    """Canonical head atom with distinct typed variables, named type1, type2, ..."""
    args: list[str] = []
    for t in kb.schema(predicate).arg_types:
        args.append(_fresh_name(t, set(args)))
    return Atom(predicate, tuple(args))


def _typed_variables(kb: KnowledgeBase, head: Atom, body: tuple[Atom, ...]) -> dict[str, str]:
    """Variable name -> type, collected from the head and the body literals."""
    out: dict[str, str] = {}
    for atom in (head, *body):
        for t, var in zip(kb.schema(atom.predicate).arg_types, atom.args):
            out.setdefault(var, t)
    return out


def _fresh_name(type_name: str, used: set[str]) -> str:
    i = 1
    while f"{type_name}{i}" in used:
        i += 1
    return f"{type_name}{i}"


def candidate_literals(kb: KnowledgeBase, head: Atom, body: tuple[Atom, ...]) -> list[Atom]:
    """Refinement candidates for extending a left spine.

    Each argument slot takes, in order, the name of an existing clause
    variable of the slot's type (in name order) or the type's one fresh
    variable name; a candidate is one choice per slot with at most one
    fresh variable and at least one existing one (connectedness).  The target predicate
    itself is excluded (no recursive clauses), and so are the literals
    already in the body.  Sorted by text, stably, for determinism.
    """
    var_types = _typed_variables(kb, head, body)
    used_names = set(var_types)
    by_type: dict[str, list[str]] = {}
    for name in sorted(used_names):
        by_type.setdefault(var_types[name], []).append(name)

    existing = set(body)
    out = []
    for pred in sorted(kb.schemas):
        if pred == head.predicate:
            continue
        slot_options = [
            by_type.get(t, []) + [_fresh_name(t, used_names)]
            for t in kb.schemas[pred].arg_types
        ]
        for args in itertools.product(*slot_options):
            reused = sum(var in used_names for var in args)
            atom = Atom(pred, args)
            if reused >= 1 and len(args) - reused <= 1 and atom not in existing:
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
    body's binding table, its candidate literals with their texts, each
    candidate's coverage mask, and the distinct masks among them, the
    spine's splits, with each split's example count.  Candidates whose
    masks are equal share one array: ``masks[i]`` is
    ``splits[split_of[i]]``.  When the last literal binds a fresh
    variable, the leaf, the table is held only once a tree expands the
    body; until then ``table`` is None and ``runs`` holds the shorter
    body's table, the last literal and that table's
    `BindingTable.matches` of it.  ``tied_rows`` counts the rows of the
    table gathered only while the candidates that tie the leaf to an
    older variable were scored, 0 if none did."""

    table: BindingTable | None
    runs: tuple[BindingTable, Atom, np.ndarray, np.ndarray] | None
    candidates: list[Atom]
    texts: list[str]
    masks: list[np.ndarray]
    splits: list[np.ndarray]
    sizes: list[int]
    split_of: list[int]
    tied_rows: int = 0

    def built(self, kb: KnowledgeBase) -> BindingTable:
        """The body's table, gathered from ``runs`` on first use."""
        if self.table is None:
            parent, last, starts, counts = self.runs
            self.table, self.runs = parent.gather(last, kb, starts, counts), None
        return self.table


class JoinMemo:
    """What the trees of one rule set search: the kb, the examples and the
    `LearnConfig`, with the joins of every spine body a tree has expanded,
    keyed by body: its binding table, or the runs of a factorized spine
    until a tree expands the body (see `_Spine`), its candidate literals
    and their coverage masks, joined by the first tree to expand it.  A
    table gathered only to score a spine's candidates is not held."""

    def __init__(self, kb: KnowledgeBase, examples: Targets, config: LearnConfig):
        self.kb = kb
        self.examples = examples
        self.config = config
        self.head = make_head(kb, examples.predicate)
        self.spines: dict[tuple[Atom, ...], _Spine] = {}

    @property
    def nbytes(self) -> int:
        """The tables held, the start and count arrays of the runs, and
        each spine's distinct masks, its splits."""
        held = ((*(s.runs[2:] if s.runs else [s.table.columns]), *s.splits)
                for s in self.spines.values())
        return sum(a.nbytes for arrays in held for a in arrays)

    def spine(self, body: tuple[Atom, ...]) -> _Spine:
        """The joins of `body`, made on first use; a nonempty body's rows
        extend the table of the body one literal shorter, which this builds
        if the spine of that body is still factorized.  A candidate that
        does not use the leaf of ``body[-1]`` is probed on the shorter
        body's rows that ``body[-1]`` extends, the body's own table when
        ``body[-1]`` binds no fresh variable.  One keyed on the leaf alone
        is probed on the facts of ``body[-1]``'s join index, and a row is
        covered when one fact of its run passes.  If one ties the leaf to an
        older variable, every candidate that uses the leaf is probed on the
        body's table instead, gathered from the runs and dropped on return."""
        if body in self.spines:
            return self.spines[body]
        kb, n = self.kb, len(self.examples)
        candidates = candidate_literals(kb, self.head, body)
        if body:
            parent = self.spines[body[:-1]].built(kb)
            starts, counts = parent.matches(body[-1], kb)
            # The parent's rows that body[-1] extends: each row of the
            # body's table copies one of them, so a literal keyed on their
            # variables alone covers the same examples on either table.
            base = BindingTable(parent.variables, parent.columns.compress(counts > 0, axis=1))
        else:
            base = BindingTable.for_head(self.head, self.examples)
        older = set(base.variables)
        leaf = set(body[-1].args).difference(older) if body else set()
        runs = (parent, body[-1], starts, counts) if leaf else None
        spine = _Spine(None if leaf else base, runs, candidates,
                       [str(lit) for lit in candidates], [], [], [], [])
        tied = None  # the body's table, only while its candidates are scored
        if any(leaf.intersection(lit.args) and older.intersection(lit.args) for lit in candidates):
            tied = parent.gather(body[-1], kb, starts, counts)  # a candidate ties the leaf
            spine.tied_rows = tied.columns.shape[1]
        elif leaf:  # the leaf at each fact of body[-1]'s index
            at, _, fresh = kb.join_index(body[-1], older)
            on_facts = BindingTable(tuple(fresh), np.vstack(
                [np.arange(len(at.facts)), at.facts[:, list(fresh.values())].T]))
        index: dict[bytes, int] = {}  # a mask's bytes -> its split's index
        for lit in candidates:
            if not leaf.intersection(lit.args):
                mask = base.covered(lit, kb, n)
            elif tied is not None:
                mask = tied.covered(lit, kb, n)
            else:  # keyed on the leaf alone
                # Prefix sums of the facts that pass, read at each run's ends.
                passed = np.concatenate([[0], np.cumsum(
                    on_facts.covered(lit, kb, on_facts.columns.shape[1]))])
                mask = np.zeros(n, dtype=bool)
                mask[parent.columns[0][passed[starts + counts] > passed[starts]]] = True
            spine.split_of.append(index.setdefault(mask.tobytes(), len(spine.splits)))
            if spine.split_of[-1] == len(spine.splits):
                spine.splits.append(mask)
        spine.masks = [spine.splits[i] for i in spine.split_of]
        spine.sizes = [int(split.sum()) for split in spine.splits]
        self.spines[body] = spine
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
    spine's rows, for all examples at once; a beam spine's table is built
    from its parent's when needed (see `JoinMemo.spine`).  Those joins
    depend on the body and the examples only, not on ``values`` or
    ``weights``, so they go into ``memo``, and a tree given the memo of
    earlier trees joins only the bodies none of them expanded.  The memo
    holds an n-bool mask per split, a distinct mask, of every expanded
    body besides its tables, and each beam state fits both branches of
    each split once, for every candidate whose mask it is.
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
    visited: list[_Spine] = []
    scored_per_depth: list[int] = []
    fitted_per_depth: list[int] = []
    reused = 0
    best = root
    beam = [root]
    for _depth in range(config.max_body_length):
        expansions: list[_SpineState] = []
        scored = fitted = 0
        for state in beam:
            if int(state.left.sum()) < config.min_examples_per_leaf:
                continue
            joined = state.literals in memo.spines
            spine = memo.spine(state.literals)
            visited.append(spine)
            scored += len(spine.candidates)
            reused += len(spine.candidates) if joined else 0
            # Both branches of each split, fitted once for all its candidates.
            fits = [
                (_branch_fit(values, weights, split),
                 _branch_fit(values, weights, state.left & ~split))
                if size >= config.min_examples_per_leaf else None
                for split, size in zip(spine.splits, spine.sizes)
            ]
            fitted += sum(fit is not None for fit in fits)
            candidates = zip(spine.candidates, spine.texts, spine.masks, spine.split_of)
            for lit, text, new_left, i in candidates:
                if fits[i] is None:
                    continue
                (left_mean, left_sse), (right_mean, right_sse) = fits[i]
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
        fitted_per_depth.append(fitted)
        if not expansions:
            break
        expansions.sort(key=lambda s: s.sort_key)
        beam = expansions[: config.beam_width]
        if beam[0].total_sse < best.total_sse - _BEST_TOL:
            best = beam[0]

    tied = [spine.tied_rows for spine in visited if spine.tied_rows]
    log.info(
        "learned a depth-%d tree for %s; candidate literals scored per beam "
        "depth: %s; distinct splits fitted per depth: %s; largest binding "
        "table: %d rows; tables gathered only to score tying candidates: %d "
        "(%d rows); spines kept factorized: %d of %d; candidates from the "
        "join memo: %d of %d (memo %d bytes); join indexes held: %d (%d bytes)",
        len(best.literals),
        memo.head.predicate,
        scored_per_depth,
        fitted_per_depth,
        max((s.tied_rows if s.table is None else s.table.columns.shape[1] for s in visited),
            default=0),
        len(tied),
        sum(tied),
        sum(spine.table is None for spine in visited),
        len(visited),
        reused,
        sum(scored_per_depth),
        memo.nbytes,
        *memo.kb.join_index_memory(),
    )
    return Clause(memo.head, best.literals), best.left


# -- iterated rule-set learning -------------------------------------------


def learn_ruleset(
    kb: KnowledgeBase, examples: Targets, contrast: Targets, config: LearnConfig, k: int
) -> RuleSet:
    """Learn k rules from a one-class example set against ``contrast``.

    Class examples start with regression target 1 and unit weight.  Each
    iteration learns a tree's left-spine rule, then multiplies the weight
    of every class example the tree covered by ``covering_discount`` and
    renormalizes, steering later trees toward uncovered examples.  The
    closed-world ``contrast`` sample (value 0, weight 1), drawn by the
    caller outside the class, gives the criterion something to separate.
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


def serialize_rules(rules: list[Clause]) -> str:
    """One rule per line, its source and iteration in a trailing comment."""
    return "\n".join(f"{r} % source={r.source} iter={r.iteration}" for r in rules) + "\n"


def _parse_rule_atom(
    pred: str, argstr: str, kb: KnowledgeBase, lineno: int, types: dict[str, str]
) -> Atom:
    """The atom ``pred(argstr)`` of a rule whose variables so far have the
    ``types``, which it extends by its own.  A quoted constant, or a
    variable at an argument of another type than before, is a ParseError
    at ``lineno``."""
    schema, toks = _read_atom(pred, argstr, kb, lineno, "rule")
    for t, tok in zip(schema.arg_types, toks):
        if '"' in tok:
            raise ParseError(
                f"constant {tok} in {pred}({argstr}): a rule holds variables only", lineno
            )
        if types.setdefault(tok, t) != t:
            raise ParseError(
                f"variable {tok!r} is a {types[tok]}, but a {t} in {pred}({argstr})", lineno
            )
    return Atom(pred, tuple(toks))


def parse_rules(text: str, kb: KnowledgeBase) -> list[Clause]:
    """The rules of a rule file, one per line; blank and ``%`` lines are
    skipped.  A malformed line, or a head that repeats a variable, is a
    ParseError at its line."""
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
        types: dict[str, str] = {}  # variable -> its type in this rule
        head = _parse_rule_atom(head_pred, head_args, kb, lineno, types)
        body: tuple[Atom, ...] = ()
        if body_str != "true":
            if _BODY_RE.fullmatch(body_str) is None:
                raise ParseError(f"malformed rule body: {raw!r}", lineno)
            literals = _LIT_RE.findall(body_str)
            body = tuple(
                _parse_rule_atom(pred, args, kb, lineno, types) for pred, args in literals
            )
        try:
            rules.append(Clause(head, body, source or POSITIVE_DENSITY, int(it or 0)))
        except DataError as exc:
            raise ParseError(str(exc), lineno) from exc
    return rules
