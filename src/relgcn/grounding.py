"""Clause grounding: satisfied-grounding counts and negative sampling.

One engine computes satisfied groundings.  `BindingTable` works
set-at-a-time, as FOIL's tuple extension does (Quinlan 1990, "Learning
logical definitions from relations"): it holds the satisfied groundings
of a body prefix for every example at once, as rows of interned constant
ids, and one join on a literal's bound columns extends it or tells which
examples the literal keeps covered.  Targets are stored as ids too
(`Targets`), so the table of the empty prefix is a column select of
them, and `sample_negatives` draws its negatives as ids.  Rule learning
scores candidate literals with the tables, and `count_satisfied_groundings`
extends one table by every body literal of a clause, so a rule's counts
for all targets come from one call: the number of rows per example.

Both joins probe the kb's `JoinIndex` for the literal's fact pattern
(`KnowledgeBase.join_index`), the facts that fit the literal's constants
and repeated variables, sorted by the code of their bound columns.
Candidate literals of one pattern share that one sort, the shared work of
query packs (Blockeel et al. 2002, "Improving the efficiency of inductive
logic programming through the use of query packs"); `extend` finds each
row's run of facts with `searchsorted`, and `covered` is a gather from the
index's membership vector when the key is one column, a `searchsorted`
otherwise.

A table's memory is one int64 per row for the example and one for each
variable, and its rows are the prefix's satisfied groundings over the
covered examples, so each fresh variable can multiply them.  On the
benchmark's workloads the largest table built for featurization had 773
rows (``sampled-topics``) and at most one row per target elsewhere, below
the tables rule learning builds.  The indexes live as long as their kb:
per (predicate, pattern) used, one sorted copy of the facts that fit plus
one int64 code per fact, and for a one-column key radix + 1 bytes, where
radix is the number of constant ids.  On ``sampled-topics`` learning
builds 6 indexes (0.76 MB) for its 315 joins.  Inside `run_pipeline`
featurization runs on learning's kb, reuses those 6 and builds none;
featurization run alone builds 4 (0.51 MB) for its 12.

`sample_negatives` never builds the typed product it draws from.  It
numbers the candidates by rank, their row-major order in the product:
for a one-type pair i < j (symmetric) the rank is i(2m - i - 1)/2 +
j - i - 1 over a domain of m constants, for an ordered one-type pair
i(m - 1) + j - [j > i], and otherwise the flat index.  The positives'
ranks are excluded; the seeded draw picks positions among the remaining
candidates, and each position k steps past the excluded ranks at or below
it and maps back to indices by the row starts, a divmod or the flat
shape.  Memory is O(m + |positives| + drawn): one symmetric draw of
2,000 negatives over 50,000 persons peaks at 3.2 MiB traced, where the
product's mask alone would take 2.5 GB.  A product past int64 ranks is a
DataError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kb import Atom, JoinIndex, KnowledgeBase, PredicateSchema, Targets, Variable

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


def count_satisfied_groundings(
    clause: Clause, targets: Targets, kb: KnowledgeBase
) -> np.ndarray:
    """Per target, the number of distinct substitutions of the free body
    variables under which every body literal is a fact in kb, head
    variables bound to the target's constants.  One binding table extended
    by each body literal serves every target.
    """
    for atom in clause.body:
        kb.schema(atom.predicate)  # validates predicate
    table = BindingTable.for_head(clause.head, targets, kb)
    for literal in clause.body:
        table = table.extend(literal, kb)
    return np.bincount(table.rows[:, 0], minlength=len(targets))


@dataclass(frozen=True)
class BindingTable:
    """The satisfied groundings of a clause body prefix, for a batch of
    target examples at once.

    ``rows[:, 0]`` is an example's row in that batch and ``rows[:, 1 + j]``
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
    def for_head(cls, head: Atom, examples: Targets, kb: KnowledgeBase) -> BindingTable:
        """The empty prefix: one row per example whose constants agree with
        the head's, binding the head variables."""
        if examples.predicate != head.predicate:
            raise DataError(
                f"target predicate {examples.predicate} does not match "
                f"clause head {head.predicate}"
            )
        agree = np.ones(len(examples), dtype=bool)
        columns = []
        for pos, term in enumerate(head.args):
            if isinstance(term, Variable):
                columns.append(pos)
            else:
                agree &= examples.ids[:, pos] == kb.constant_id(term.name)
        rows = np.hstack([np.flatnonzero(agree)[:, None], examples.ids[agree][:, columns]])
        return cls(tuple(v.name for v in head.variables()), rows)

    def extend(self, literal: Atom, kb: KnowledgeBase) -> BindingTable:
        """The table of the prefix followed by `literal`."""
        index, keys, fresh = self._match(literal, kb)
        row_code = index.key_codes(keys)
        starts = np.searchsorted(index.codes, row_code, side="left")
        counts = np.searchsorted(index.codes, row_code, side="right") - starts
        parent = np.repeat(np.arange(len(self.rows)), counts)
        # Row i's matches are index.facts[starts[i] : starts[i] + counts[i]].
        offsets = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        matched = index.facts[np.repeat(starts, counts) + offsets]
        rows = np.hstack([self.rows[parent], matched[:, list(fresh.values())]])
        return BindingTable(self.variables + tuple(fresh), rows)

    def covered(self, literal: Atom, kb: KnowledgeBase, n: int) -> np.ndarray:
        """Bool mask over the n examples: those the prefix followed by
        `literal` covers (a semi-join; no table is built)."""
        index, keys, _ = self._match(literal, kb)
        mask = np.zeros(n, dtype=bool)
        mask[self.rows[index.contains(keys), 0]] = True
        return mask

    def _match(
        self, literal: Atom, kb: KnowledgeBase
    ) -> tuple[JoinIndex, np.ndarray, dict[str, int]]:
        """The kb's index of `literal`'s fact pattern, the rows' join keys
        (the constants of the literal's bound variables, in argument
        order) and each fresh variable's first position in the literal."""
        column = {v: 1 + j for j, v in enumerate(self.variables)}
        index, key, fresh = kb.join_index(literal, column)
        return index, self.rows[:, [column[v] for v in key]], fresh


def sample_negatives(
    kb: KnowledgeBase,
    target_schema: PredicateSchema,
    positives: Targets,
    ratio: float,
    seed: int,
    symmetric: bool = True,
) -> Targets:
    """Closed-world negative sampling.

    Draws ceil(ratio * |positives|) distinct ground target atoms uniformly
    (seeded) from the typed cross-product of the argument domains,
    excluding all positives (both orders in symmetric mode) and reflexive
    pairs.  Deterministic for a fixed seed.
    """
    if ratio <= 0:
        raise DataError("ratio must be > 0")
    if len(positives) == 0:
        raise DataError("positives must be nonempty")
    if positives.predicate != target_schema.name:
        raise DataError(
            f"positives of {positives.predicate} given to sample {target_schema.name}"
        )
    # Each position's domain as ids, in name order, built once per type.
    by_type = {
        t: np.array([kb.constant_id(c) for c in sorted(kb.constants_of_type(t))], dtype=np.int64)
        for t in dict.fromkeys(target_schema.arg_types)
    }
    domains = [by_type[t] for t in target_schema.arg_types]
    sizes = [len(d) for d in domains]
    product = math.prod(sizes)
    if product > np.iinfo(np.int64).max:
        raise DataError(
            f"cannot sample negatives of {target_schema.name}: its domains of sizes "
            f"{' x '.join(map(str, sizes))} hold {product} tuples, more than an int64 "
            f"rank can number"
        )
    cleared = positives.ids
    if symmetric and target_schema.arity == 2:
        cleared = np.vstack([cleared, cleared[:, ::-1]])
    # slot[p, i]: the index of constant id i in domains[p], or -1.
    top = max(int(cleared.max()), *(int(d.max(initial=0)) for d in domains))
    slot = np.full((len(domains), top + 1), -1)
    for p, d in enumerate(domains):
        slot[p, d] = np.arange(len(d))
    at = slot[np.arange(len(domains))[:, None], cleared.T]
    at = at[:, (at >= 0).all(axis=0)]
    # Candidates are numbered by rank, their row-major order in the typed
    # product (itertools.product's order); each cleared tuple that is a
    # candidate excludes its rank.
    pairs = target_schema.arity == 2 and len(by_type) == 1
    if pairs:
        # One sorted domain: equal names share an index and name order is
        # index order, so reflexive pairs are no candidates and, when
        # symmetric, only the canonical (lexicographically ordered) pair is.
        m = sizes[0]
        i, j = at
        if symmetric:
            i, j = i[i < j], j[i < j]
            ranks = i * (2 * m - i - 1) // 2 + j - i - 1
            total = m * (m - 1) // 2
        else:
            i, j = i[i != j], j[i != j]
            ranks = i * (m - 1) + j - (j > i)
            total = m * (m - 1)
    else:
        ranks = np.ravel_multi_index(tuple(at), sizes)
        total = product
    # Sorted and distinct.  Not np.unique: its hash table costs about 1 MB
    # of resident memory on its first call in a process.
    ranks = np.sort(ranks)
    excluded = ranks[np.diff(ranks, prepend=-1) != 0]
    available = total - len(excluded)
    want = math.ceil(ratio * len(positives))
    if want > available:
        raise DataError(
            f"requested {want} negatives but only {available} "
            f"non-positive tuples are available"
        )
    rng = np.random.default_rng(seed)
    k = np.sort(rng.choice(available, size=want, replace=False))
    # The k-th candidate's rank is k plus the number of excluded ranks below
    # it, which is the number of t with excluded[t] - t <= k.
    rank = k + np.searchsorted(excluded - np.arange(len(excluded)), k, side="right")
    if not pairs:
        drawn = np.unravel_index(rank, sizes)
    elif symmetric:
        row = np.arange(m)
        starts = row * (2 * m - row - 1) // 2
        i = np.searchsorted(starts, rank, side="right") - 1
        drawn = (i, rank - starts[i] + i + 1)
    else:
        i, q = np.divmod(rank, m - 1)
        drawn = (i, q + (q >= i))
    ids = np.column_stack([d[i] for d, i in zip(domains, drawn)])
    return Targets(target_schema.name, ids, np.zeros(want, dtype=bool))
