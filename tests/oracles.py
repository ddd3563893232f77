"""Reference implementations the tests compare the package against."""

import itertools
import math

import numpy as np

from relgcn.grounding import NEGATIVE, TargetExample
from relgcn.kb import Atom, Constant, KnowledgeBase, PredicateSchema


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


def sample_negatives_by_enumeration(
    kb: KnowledgeBase,
    target_schema: PredicateSchema,
    positives: list[TargetExample],
    ratio: float,
    seed: int,
    symmetric: bool = True,
) -> list[TargetExample]:
    """`sample_negatives`' draw over the enumerated list of candidate tuples."""
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
    idx = np.random.default_rng(seed).choice(len(candidates), size=want, replace=False)
    return [
        TargetExample(
            Atom(
                target_schema.name,
                tuple(
                    Constant(c, target_schema.arg_types[p])
                    for p, c in enumerate(candidates[i])
                ),
            ),
            NEGATIVE,
        )
        for i in sorted(int(j) for j in idx)
    ]
