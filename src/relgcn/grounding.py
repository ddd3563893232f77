"""Clause grounding: satisfiability, satisfied-grounding counts, negative sampling.

Two engines compute satisfied groundings.  `count_satisfied_groundings`
counts them for one (clause, target) pair by a backtracking join over the
body literals.  Bindings map variable names to constant names.  At every
step each pending literal's candidate facts under the current bindings are
looked up once, and the literal with the fewest is expanded from that same
set, so selective literals prune early.  The count is over distinct
complete substitutions of the free body variables.

`BindingTable` works set-at-a-time, as FOIL's tuple extension does
(Quinlan 1990, "Learning logical definitions from relations"): it holds
the satisfied groundings of a body prefix for every example at once, as
rows of interned constant ids, and one sort + `searchsorted` join on a
literal's bound columns extends it or tells which examples the literal
keeps covered.  Its memory is one int64 per row for the example and for
each variable, and the rows are the prefix's satisfied groundings over
the covered examples, so each fresh variable can multiply them.  Rule learning scores candidate
literals with it; the per-pair count serves featurization and the
covering step and is the second oracle in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kb import Atom, Constant, KnowledgeBase, PredicateSchema, Substitution, Variable

POSITIVE = "positive"
NEGATIVE = "negative"

POSITIVE_DENSITY = "positive-density"
NEGATIVE_DENSITY = "negative-density"


@dataclass(frozen=True)
class Clause:
    """A first-order rule: target head atom plus a conjunctive body.

    The body may introduce variables not occurring in the head
    (range-restriction is not required).
    """

    head: Atom
    body: tuple[Atom, ...]
    source: str = POSITIVE_DENSITY
    iteration: int = 0

    def __post_init__(self):
        head_vars = [v.name for v in self.head.variables()]
        if len(head_vars) != len(set(head_vars)):
            raise DataError(f"head variables must be distinct: {self.head}")

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body) if self.body else "true"
        return f"{self.head} :- {body}."


@dataclass(frozen=True)
class TargetExample:
    atom: Atom
    label: str  # POSITIVE or NEGATIVE

    def __post_init__(self):
        if not self.atom.is_ground():
            raise DataError(f"target example must be ground: {self.atom}")
        if self.label not in (POSITIVE, NEGATIVE):
            raise DataError(f"bad label {self.label!r}")


# Optional limit on enumerated groundings per (clause, target) pair.
CountCap = int | None


def body_satisfied(ground_body: list[Atom], kb: KnowledgeBase) -> bool:
    """True iff every ground atom is a fact in kb (closed world)."""
    for atom in ground_body:
        if not atom.is_ground():
            raise DataError(f"body_satisfied requires ground atoms, got {atom}")
        if not kb.has_fact(atom):
            return False
    return True


def _head_binding(
    clause: Clause, target: TargetExample, kb: KnowledgeBase
) -> Substitution | None:
    """Bind head variables to the target's constants; None if a head constant
    disagrees with the target (no grounding can exist)."""
    if target.atom.predicate != clause.head.predicate:
        raise DataError(
            f"target predicate {target.atom.predicate} does not match "
            f"clause head {clause.head.predicate}"
        )
    schema = kb.schema(clause.head.predicate)
    theta: Substitution = {}
    for pos, (hv, tc) in enumerate(zip(clause.head.args, target.atom.args)):
        assert isinstance(tc, Constant)
        if tc.type != schema.arg_types[pos]:
            raise DataError(
                f"target constant {tc.name!r} has type {tc.type!r}, "
                f"expected {schema.arg_types[pos]!r} at position {pos} of "
                f"{clause.head.predicate}"
            )
        if isinstance(hv, Variable):
            theta[hv.name] = tc
        elif hv.name != tc.name:
            return None
    return theta


def count_satisfied_groundings(
    clause: Clause,
    target: TargetExample,
    kb: KnowledgeBase,
    cap: CountCap = None,
) -> int:
    """Number of distinct substitutions of the free body variables under
    which every body literal is a fact in kb, head variables bound to the
    target's constants.  Saturates at `cap` when given.
    """
    if cap is not None and cap < 1:
        raise DataError("cap must be >= 1 when present")
    theta = _head_binding(clause, target, kb)
    if theta is None:
        return 0

    for atom in clause.body:
        kb.schema(atom.predicate)  # validates predicate
    return _join(clause.body, {v: c.name for v, c in theta.items()}, kb, cap)


def _join(
    pending: tuple[Atom, ...], binding: dict[str, str], kb: KnowledgeBase, cap: CountCap
) -> int:
    """Backtracking join: the number of extensions of `binding` (variable
    name -> constant name) under which every pending literal is a fact,
    saturating at `cap`."""
    if not pending:
        return 1
    # Most selective literal first; its candidate set is the one expanded.
    best_i, best = -1, None
    for i, atom in enumerate(pending):
        bound = {}
        for pos, a in enumerate(atom.args):
            if isinstance(a, Constant):
                bound[pos] = a.name
            elif a.name in binding:
                bound[pos] = binding[a.name]
        cands = kb.candidates(atom.predicate, bound)
        if best is None or len(cands) < len(best):
            best_i, best = i, cands
    atom = pending[best_i]
    rest = pending[:best_i] + pending[best_i + 1 :]
    free = [
        (pos, a.name)
        for pos, a in enumerate(atom.args)
        if isinstance(a, Variable) and a.name not in binding
    ]
    count = 0
    for tup in best:
        new = dict(binding)
        # A variable repeated in the literal must take one value.
        if all(new.setdefault(name, tup[pos]) == tup[pos] for pos, name in free):
            count += _join(rest, new, kb, None if cap is None else cap - count)
            if cap is not None and count >= cap:
                break
    return count


@dataclass(frozen=True)
class BindingTable:
    """The satisfied groundings of a clause body prefix, for a list of
    target examples at once.

    ``rows[:, 0]`` is an example's index in that list and ``rows[:, 1 + j]``
    the id (`KnowledgeBase.constant_id`) of the constant bound to
    ``variables[j]``; the head variables come first.  The rows are the
    distinct substitutions under which every literal of the prefix is a
    fact, so the table is restricted to the examples the prefix covers: an
    example's row count is its `count_satisfied_groundings` and an example
    without rows is not covered.
    """

    variables: tuple[str, ...]
    rows: np.ndarray

    @classmethod
    def for_head(
        cls, head: Atom, examples: list[TargetExample], kb: KnowledgeBase
    ) -> BindingTable:
        """The empty prefix: one row per example whose constants agree with
        the head's, binding the head variables."""
        clause = Clause(head, ())
        variables = tuple(v.name for v in head.variables())
        rows = []
        for i, ex in enumerate(examples):
            theta = _head_binding(clause, ex, kb)
            if theta is not None:
                rows.append([i, *(kb.constant_id(theta[v].name) for v in variables)])
        return cls(
            variables, np.array(rows, dtype=np.int64).reshape(-1, 1 + len(variables))
        )

    def extend(self, literal: Atom, kb: KnowledgeBase) -> BindingTable:
        """The table of the prefix followed by `literal`."""
        row_code, fact_code, facts, fresh = self._match(literal, kb)
        starts = np.searchsorted(fact_code, row_code, side="left")
        counts = np.searchsorted(fact_code, row_code, side="right") - starts
        parent = np.repeat(np.arange(len(self.rows)), counts)
        # Row i's matches are facts[starts[i] : starts[i] + counts[i]].
        offsets = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        matched = facts[np.repeat(starts, counts) + offsets]
        rows = np.hstack([self.rows[parent], matched[:, list(fresh.values())]])
        return BindingTable(self.variables + tuple(fresh), rows)

    def covered(self, literal: Atom, kb: KnowledgeBase, n: int) -> np.ndarray:
        """Bool mask over the n examples: those the prefix followed by
        `literal` covers (a semi-join; no table is built)."""
        row_code, fact_code, _, _ = self._match(literal, kb)
        mask = np.zeros(n, dtype=bool)
        if len(fact_code):
            at = np.minimum(np.searchsorted(fact_code, row_code), len(fact_code) - 1)
            mask[self.rows[fact_code[at] == row_code, 0]] = True
        return mask

    def _match(
        self, literal: Atom, kb: KnowledgeBase
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int]]:
        """The join keys of the rows and of `literal`'s consistent facts.

        Returns the rows' key codes, the facts' key codes in sorted order,
        the facts in that order, and each fresh variable's first position
        in the literal.  A key is the constants at the literal's bound
        variables.
        """
        facts = kb.fact_array(literal.predicate)
        column = {v: 1 + j for j, v in enumerate(self.variables)}
        bound: dict[str, int] = {}  # table variable -> first position
        fresh: dict[str, int] = {}  # new variable -> first position
        keep = np.ones(len(facts), dtype=bool)
        for pos, term in enumerate(literal.args):
            if isinstance(term, Constant):
                keep &= facts[:, pos] == kb.constant_id(term.name)
                continue
            first = bound.get(term.name, fresh.get(term.name))
            if first is not None:
                # A variable repeated in the literal takes one value.
                keep &= facts[:, pos] == facts[:, first]
            elif term.name in column:
                bound[term.name] = pos
            else:
                fresh[term.name] = pos
        facts = facts[keep]
        row_code, fact_code = _key_codes(
            self.rows[:, [column[v] for v in bound]], facts[:, list(bound.values())]
        )
        order = np.argsort(fact_code)
        return row_code, fact_code[order], facts[order], fresh


def _key_codes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One int per row of the (r, k) constant-id arrays a and b, equal
    exactly where the rows are equal: the rows read as numbers in base
    (largest id + 1)."""
    keys = np.concatenate([a, b])
    code = np.zeros(len(keys), dtype=np.int64)
    if keys.size:
        radix = int(keys.max()) + 1
        for col in keys.T:
            if int(code.max()) >= np.iinfo(np.int64).max // radix:
                # Dense ranks of the columns so far keep the next step in int64.
                code = np.unique(code, return_inverse=True)[1].reshape(-1)
            code = code * radix + col
    return code[: len(a)], code[len(a) :]


def brute_force_count(
    clause: Clause, target: TargetExample, kb: KnowledgeBase
) -> int:
    """Independent oracle: enumerate the full cross-product of typed domains
    for the free body variables and test each substitution with body_satisfied.
    Exponential; only usable on small instances.
    """
    theta = _head_binding(clause, target, kb)
    if theta is None:
        return 0
    var_types: dict[str, str] = {}
    for atom in clause.body:
        schema = kb.schema(atom.predicate)
        for pos, a in enumerate(atom.args):
            if isinstance(a, Variable) and a.name not in theta:
                var_types.setdefault(a.name, schema.arg_types[pos])
    names = sorted(var_types)
    domains = [sorted(kb.constants_of_type(var_types[v])) for v in names]
    count = 0
    for combo in itertools.product(*domains):
        binding = dict(theta)
        for v, c in zip(names, combo):
            binding[v] = Constant(c, var_types[v])
        ground = [
            Atom(
                a.predicate,
                tuple(
                    binding[t.name] if isinstance(t, Variable) else t for t in a.args
                ),
            )
            for a in clause.body
        ]
        if body_satisfied(ground, kb):
            count += 1
    return count


def sample_negatives(
    kb: KnowledgeBase,
    target_schema: PredicateSchema,
    positives: list[TargetExample],
    ratio: float,
    seed: int,
    symmetric: bool = True,
) -> list[TargetExample]:
    """Closed-world negative sampling.

    Draws ceil(ratio * |positives|) distinct ground target atoms uniformly
    (seeded) from the typed cross-product of the argument domains,
    excluding all positives (both orders in symmetric mode) and reflexive
    pairs.  Deterministic for a fixed seed.
    """
    if ratio <= 0:
        raise DataError("ratio must be > 0")
    if not positives:
        raise DataError("positives must be nonempty")
    domains = [sorted(kb.constants_of_type(t)) for t in target_schema.arg_types]
    sizes = [len(d) for d in domains]
    # keep[i0, i1, ...] says whether (domains[0][i0], domains[1][i1], ...) is
    # a candidate; its row-major flat order is itertools.product's order.
    keep = np.ones(sizes, dtype=bool)
    if target_schema.arity == 2 and len(set(target_schema.arg_types)) == 1:
        # One sorted domain: equal names share an index and name order is
        # index order, so drop reflexive pairs and, when symmetric, keep
        # only the canonical (lexicographically ordered) pair.
        np.fill_diagonal(keep, False)
        if symmetric:
            keep = np.triu(keep)
    index = [{c: i for i, c in enumerate(d)} for d in domains]
    cleared = []
    for ex in positives:
        tup = ex.atom.constant_names()
        for t in (tup, tup[::-1]) if symmetric and len(tup) == 2 else (tup,):
            if len(t) == len(index) and all(c in ix for c, ix in zip(t, index)):
                cleared.append([ix[c] for c, ix in zip(t, index)])
    if cleared:
        keep.flat[np.ravel_multi_index(np.array(cleared).T, sizes)] = False
    candidates = np.flatnonzero(keep)
    want = math.ceil(ratio * len(positives))
    if want > len(candidates):
        raise DataError(
            f"requested {want} negatives but only {len(candidates)} "
            f"non-positive tuples are available"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(candidates), size=want, replace=False)
    drawn = np.unravel_index(candidates[np.sort(idx)], sizes)
    out = []
    for k in range(want):
        atom = Atom(
            target_schema.name,
            tuple(
                Constant(domains[p][int(drawn[p][k])], t)
                for p, t in enumerate(target_schema.arg_types)
            ),
        )
        out.append(TargetExample(atom, NEGATIVE))
    return out
