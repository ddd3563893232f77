"""Clause grounding: satisfiability, satisfied-grounding counts, negative sampling.

Counting works by a backtracking join over the body literals.  Bindings
map variable names to constant names.  At every step each pending
literal's candidate facts under the current bindings are looked up once,
and the literal with the fewest is expanded from that same set, so
selective literals prune early.  The count is over distinct complete
substitutions of the free body variables.
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


def enumerate_target_tuples(
    kb: KnowledgeBase,
    target_schema: PredicateSchema,
    symmetric: bool = True,
) -> list[tuple[str, ...]]:
    """All candidate ground-argument tuples for the target predicate.

    For binary predicates over a single type, reflexive pairs are dropped
    and, in symmetric mode, only the lexicographically canonical order of
    each pair is kept.
    """
    domains = [sorted(kb.constants_of_type(t)) for t in target_schema.arg_types]
    same_type = len(set(target_schema.arg_types)) == 1 and target_schema.arity == 2
    out = []
    for tup in itertools.product(*domains):
        if same_type and tup[0] == tup[1]:
            continue
        if same_type and symmetric and tup[0] > tup[1]:
            continue
        out.append(tup)
    return out


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
    pos_tuples = set()
    for ex in positives:
        tup = ex.atom.constant_names()
        pos_tuples.add(tup)
        if symmetric and len(tup) == 2:
            pos_tuples.add((tup[1], tup[0]))
    candidates = [
        t
        for t in enumerate_target_tuples(kb, target_schema, symmetric=symmetric)
        if t not in pos_tuples
    ]
    want = math.ceil(ratio * len(positives))
    if want > len(candidates):
        raise DataError(
            f"requested {want} negatives but only {len(candidates)} "
            f"non-positive tuples are available"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(candidates), size=want, replace=False)
    out = []
    for i in sorted(int(j) for j in idx):
        tup = candidates[i]
        atom = Atom(
            target_schema.name,
            tuple(
                Constant(c, target_schema.arg_types[p]) for p, c in enumerate(tup)
            ),
        )
        out.append(TargetExample(atom, NEGATIVE))
    return out
