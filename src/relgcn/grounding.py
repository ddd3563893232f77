"""Clause grounding: satisfied-grounding counts and negative sampling.

One engine computes satisfied groundings.  `BindingTable` works
set-at-a-time, as FOIL's tuple extension does (Quinlan 1990, "Learning
logical definitions from relations"): it holds the satisfied groundings
of a body prefix for every example at once, one row of interned constant
ids per grounding, and one join on a literal's bound columns extends it
or tells which examples the literal keeps covered.  Targets are stored
as ids too (`Targets`), so the table of the empty prefix is a column
select of them, and `sample_negatives` draws its negatives as ids.  Rule
learning scores candidate literals with the tables, and
`count_satisfied_groundings` extends one table by every body literal of
a clause, so a rule's counts for all targets come from one call: the
number of rows per example.

Both joins probe the kb's `JoinIndex` for the literal's fact pattern
(`KnowledgeBase.join_index`), the facts that fit the literal's repeated
variables, sorted by the code of their bound columns.
Candidate literals of one pattern share that one sort, the shared work of
query packs (Blockeel et al. 2002, "Improving the efficiency of inductive
logic programming through the use of query packs"); `extend` finds each
row's run of facts with `searchsorted`, and `covered` is a gather from the
index's `member` vector when the key is one column, a `searchsorted`
otherwise.

A table is stored column-major, as in a column store (Abadi et al.
2008, "Column-stores vs. row-stores: how different are they really?"):
one int64 array with a row per column of the table, the example and then
each variable, and an entry per grounding.  A join hands the index its
key columns as views.  `extend` is `matches`, each row's start and
count of matching facts in the index, then `gather`, which allocates the
extended table once and fills each column with one gather: a copied
column at each new row's parent row, a fresh variable's column from the
index's facts at the matched positions.  Its peak is that output plus
two int64 arrays of its length, the parent rows and the fact positions:
1.4 times the output's bytes for a 720,642-row table on
``sampled-topics``.  A table's rows are the prefix's satisfied
groundings over the covered examples, so each fresh variable can
multiply them.  Every row of an extended table copies the row it
extends; rule learning uses the counts to probe a literal keyed only on
older variables on the rows that were extended, not on their copies,
and the runs to probe one keyed only on a fresh variable on the index's
facts, without a gather.  On the benchmark's workloads the largest table
built for featurization had 773 rows (``sampled-topics``) and at most
one row per target elsewhere, below the tables rule learning gathers
(12,138 rows on ``sampled-topics``, where the 47 gathers of one learn
and featurize write 46,573 rows; 43,048 in 39 when learning held every
table it gathered, 183,955 when it built every spine's table).  The
indexes live as long as their kb: per (predicate, pattern) used, one
sorted copy of the facts that fit plus one int64 code per fact, and for
a one-column key radix + 1 bytes, where radix is the number of constant
ids.  On ``sampled-topics`` learning builds 6 indexes
(0.76 MB) for its 315 joins, 277 of them semi-joins that probe 174,511
rows in all, 41,916 of them index facts (412,757 with every table built,
1,371,738 if each probed the table of its own spine).  Inside
`run_pipeline` featurization runs on learning's kb, reuses those 6 and
builds none; featurization run alone builds 4 (0.51 MB) for its 12.

`sample_negatives` never builds the typed product it draws from.  It
numbers the candidates by rank, their row-major order in the product:
for a one-type pair i < j (symmetric) the rank is i(2m - i - 1)/2 +
j - i - 1 over a domain of m constants, and otherwise the flat index.
The positives' ranks are excluded, and for an ordered one-type pair the
m reflexive ranks i(m + 1); the seeded draw picks positions among the
rest, and each position k steps past the excluded ranks at or below it
and maps back to indices by the triangle's row starts or the flat shape.
Memory is O(m + |positives| + drawn): one draw of 2,000 negatives over
50,000 persons peaks at 2.2 MiB traced (2.8 MiB ordered), where the
product's mask alone would take 2.5 GB.  A product past int64 ranks is a
DataError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kb import Atom, JoinIndex, KnowledgeBase, PredicateSchema, Targets

POSITIVE_DENSITY = "positive-density"
NEGATIVE_DENSITY = "negative-density"


@dataclass(frozen=True)
class Clause:
    """A first-order rule: target head atom plus a conjunctive body, both
    of variables only, each given by its name.

    The head's variables are distinct; the body may introduce variables
    not occurring in the head (range-restriction is not required).
    """

    head: Atom
    body: tuple[Atom, ...]
    source: str = POSITIVE_DENSITY
    iteration: int = 0

    def __post_init__(self):
        if len(self.head.args) != len(set(self.head.args)):
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
    table = BindingTable.for_head(clause.head, targets)
    for literal in clause.body:
        table = table.extend(literal, kb)
    return np.bincount(table.columns[0], minlength=len(targets))


@dataclass(frozen=True)
class BindingTable:
    """The satisfied groundings of a clause body prefix, for a batch of
    target examples at once.

    The table is stored column by column, as one C-contiguous
    (1 + len(variables)) x rows int64 array ``columns``: ``columns[0]``
    holds each row's example, its row in that batch, and ``columns[1 + j]``
    the id (`KnowledgeBase.constant_id`) of the constant bound to
    ``variables[j]``; the head variables come first.  The rows are the
    distinct substitutions under which every literal of the prefix is a
    fact, so the table is restricted to the examples the prefix covers: an
    example's row count is its `count_satisfied_groundings` and an example
    without rows is not covered.
    """

    variables: tuple[str, ...]
    columns: np.ndarray

    @classmethod
    def for_head(cls, head: Atom, examples: Targets) -> BindingTable:
        """The empty prefix: one row per example, binding the head's
        distinct variables to the example's constants."""
        if examples.predicate != head.predicate:
            raise DataError(
                f"target predicate {examples.predicate} does not match "
                f"clause head {head.predicate}"
            )
        columns = np.vstack([np.arange(len(examples)), examples.ids.T])
        return cls(head.args, np.ascontiguousarray(columns))

    def extend(self, literal: Atom, kb: KnowledgeBase) -> BindingTable:
        """The table of the prefix followed by `literal`."""
        return self.gather(literal, kb, *self.matches(literal, kb))

    def matches(self, literal: Atom, kb: KnowledgeBase) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the start and count of its run of matching facts in the
        kb's index of `literal`'s pattern: row i joins the facts
        ``index.facts[starts[i] : starts[i] + counts[i]]``."""
        index, keys, _ = self._match(literal, kb)
        row_code = index.key_codes(keys, self.columns.shape[1])
        starts = np.searchsorted(index.codes, row_code, side="left")
        return starts, np.searchsorted(index.codes, row_code, side="right") - starts

    def gather(
        self, literal: Atom, kb: KnowledgeBase, starts: np.ndarray, counts: np.ndarray
    ) -> BindingTable:
        """The table of the prefix followed by `literal`, from the runs
        `matches` found: row i copied once per fact of its run, the
        literal's fresh variables after its columns."""
        index, _, fresh = self._match(literal, kb)
        parent = np.repeat(np.arange(len(counts)), counts)
        # Row i's first row here is at output position cumsum(counts)[i] -
        # counts[i], matching fact starts[i]; each later one steps one on.
        matched = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        matched += np.arange(len(matched))
        columns = np.empty((len(self.columns) + len(fresh), len(parent)), dtype=np.int64)
        # One gather per output column.  Mode "clip" writes into `out` in
        # place (the default "raise" buffers it); every index is in range.
        for column, out in zip(self.columns, columns):
            np.take(column, parent, out=out, mode="clip")
        for pos, out in zip(fresh.values(), columns[len(self.columns) :]):
            np.take(index.facts[:, pos], matched, out=out, mode="clip")
        return BindingTable(self.variables + tuple(fresh), columns)

    def covered(self, literal: Atom, kb: KnowledgeBase, n: int) -> np.ndarray:
        """Bool mask over the n examples: those the prefix followed by
        `literal` covers (a semi-join; no table is built)."""
        index, keys, _ = self._match(literal, kb)
        mask = np.zeros(n, dtype=bool)
        mask[self.columns[0][index.contains(keys, self.columns.shape[1])]] = True
        return mask

    def _match(
        self, literal: Atom, kb: KnowledgeBase
    ) -> tuple[JoinIndex, list[np.ndarray], dict[str, int]]:
        """The kb's index of `literal`'s fact pattern, the table's join key
        columns as views (the columns of the literal's bound variables, in
        argument order; none when it shares no variable with the prefix)
        and each fresh variable's first position in the literal."""
        column = {v: 1 + j for j, v in enumerate(self.variables)}
        index, key, fresh = kb.join_index(literal, column)
        return index, [self.columns[column[v]] for v in key], fresh


def sample_negatives(
    kb: KnowledgeBase,
    target_schema: PredicateSchema,
    positives: Targets,
    ratio: float,
    seed: int,
    symmetric: bool,
) -> Targets:
    """Closed-world negative sampling.

    Draws ceil(ratio * |positives|) distinct ground target atoms uniformly
    (seeded) from the typed cross-product of the argument domains,
    excluding all positives (both orders in symmetric mode) and the
    reflexive pairs of a one-type pair.  Deterministic for a fixed seed.
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
    # product (itertools.product's order), and a cleared candidate's rank is
    # excluded.  A one-type pair has one sorted domain of m names, in index
    # order: symmetric, only the pair i < j is a candidate, ranked in the
    # strict upper triangle; otherwise the flat index ranks all m x m pairs
    # and the m reflexive ones are excluded.
    same_type = target_schema.arity == 2 and len(by_type) == 1
    triangle = same_type and symmetric
    m = sizes[0]
    if triangle:
        i, j = at[:, at[0] < at[1]]
        ranks = i * (2 * m - i - 1) // 2 + j - i - 1
        total = m * (m - 1) // 2
    else:
        ranks = np.ravel_multi_index(tuple(at), sizes)
        if same_type:
            ranks = np.concatenate([ranks, np.arange(m) * (m + 1)])
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
    if triangle:
        row = np.arange(m)
        starts = row * (2 * m - row - 1) // 2
        i = np.searchsorted(starts, rank, side="right") - 1
        drawn = (i, rank - starts[i] + i + 1)
    else:
        drawn = np.unravel_index(rank, sizes)
    ids = np.column_stack([d[i] for d, i in zip(domains, drawn)])
    return Targets(target_schema.name, ids, np.zeros(want, dtype=bool))
