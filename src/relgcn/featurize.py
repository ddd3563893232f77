"""Rule-count features, pairwise distances and the GCN propagation matrix.

The secondary graph gives every pair of targets a distance, which is
rescaled by the mean pairwise distance, clipped and inverted into an
adjacency-like matrix, then symmetrically normalized with self loops.
Targets with equal rows of X have equal distances to every target, so the
graph is built on the u distinct rows of X, and the n x n propagation
matrix is kept as its partition into those row classes: O(n·u + u²)
memory, with no n x n array.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .grounding import Clause, count_satisfied_groundings
from .kb import KnowledgeBase, Targets

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"
CHEBYSHEV = "chebyshev"
METRICS = (EUCLIDEAN, MANHATTAN, CHEBYSHEV)


@dataclass
class PropagationMatrix:
    """The n x n propagation matrix P = G C Gᵀ, kept as its row-class
    partition.

    G is the n x u indicator of each target's class (``index``), Gᵀ is
    ``members`` and C is u x u.  It stands in for the dense matrix through
    ``P @ H`` (O(n·u·h + u²·h) for an n x h matrix H) and ``P.shape``; the
    GCN runs on the classes themselves, through C, ``index``, Gᵀ and the
    number of targets in each class (``counts``).
    """

    classes: np.ndarray  # C
    index: np.ndarray  # the class of each target
    threshold: float  # adjacency threshold t, recorded for audit
    members: np.ndarray = field(init=False, repr=False)  # Gᵀ, u x n
    counts: np.ndarray = field(init=False, repr=False)  # targets per class, a float column

    def __post_init__(self):
        u = self.classes.shape[0]
        self.members = (np.arange(u)[:, None] == self.index[None, :]).astype(float)
        self.counts = np.bincount(self.index, minlength=u)[:, None].astype(float)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.index.size, self.index.size)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.classes, self.index, self.members, self.counts))

    def __matmul__(self, H: np.ndarray) -> np.ndarray:
        return (self.classes @ (self.members @ H))[self.index]


def build_rule_matrix(rules: list[Clause], targets: Targets, kb: KnowledgeBase) -> np.ndarray:
    """X[i][j] = satisfied-grounding count of rules[j] for targets[i].  The
    counts are neither clipped nor scaled: row i is target i's point in R^m,
    between which the secondary graph takes its distances."""
    if not rules:
        raise DataError("rules must contain at least one rule")
    X = np.zeros((len(targets), len(rules)), dtype=float)
    for j, rule in enumerate(rules):
        X[:, j] = count_satisfied_groundings(rule, targets, kb)
    return X


def pairwise_distances(X: np.ndarray, metric: str = EUCLIDEAN) -> np.ndarray:
    """Pairwise row distances under the chosen metric.

    Every metric reduces coordinate differences, so the euclidean path
    needs no clamping, and for finite X the result is exactly symmetric
    with a zero diagonal: X[j] - X[i] is exactly -(X[i] - X[j]), its
    square or absolute value is exactly that of X[i] - X[j], and both
    entries reduce the same k values in the same order; X[i] - X[i] is 0.
    """
    if X.size == 0:
        raise DataError("cannot compute distances of an empty matrix")
    if metric not in METRICS:
        raise DataError(f"unknown metric {metric!r}; choose one of {METRICS}")
    diff = X[:, None, :] - X[None, :, :]
    # Squared or absolute in place: the difference is the largest array
    # built here (u x u x k for the u distinct rows the graph is built on).
    if metric == EUCLIDEAN:
        return np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
    if metric == MANHATTAN:
        return np.sum(np.abs(diff, out=diff), axis=2)
    return np.max(np.abs(diff, out=diff), axis=2)


def adjacency_approximation(
    D: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Turn distances into an adjacency-like matrix.

    D holds the distances between u distinct rows and ``counts`` the number
    of targets sharing each row (one each when omitted, so D is over the
    targets themselves).  t is the mean distance over the n(n-1)/2 pairs of
    targets, each pair of rows weighted by the product of their counts;
    distances are divided by t, clipped at 1 and subtracted from 1, so
    entries lie in [0, 1] with 1 on the diagonal and 0 for any pair at or
    beyond the average distance.  Returns (A_hat, t).
    """
    u = D.shape[0]
    counts = np.ones(u, dtype=int) if counts is None else counts
    n = int(counts.sum())
    if n < 2:
        raise DataError("adjacency approximation needs at least 2 nodes")
    iu = np.triu_indices(u, k=1)
    t = float((counts[iu[0]] * counts[iu[1]]) @ D[iu]) / (n * (n - 1) / 2)
    if t == 0.0:
        raise NumericalError(
            "all pairwise distances are zero: every target has an identical "
            "feature row; inspect the learned rules for degeneracy"
        )
    d_hat = np.minimum(D / t, 1.0)
    return 1.0 - d_hat, t


def normalize_propagation(
    A_hat: np.ndarray,
    threshold: float = 0.0,
    counts: np.ndarray | None = None,
    index: np.ndarray | None = None,
) -> PropagationMatrix:
    """Symmetric normalization with self loops.

    A_hat is over the u distinct rows; ``counts`` and ``index`` give the
    number of targets in each row class and the class of each target (one
    target per row when omitted).  Over the targets the matrix is
    G A_hat Gᵀ, whose diagonal is A_hat's; Kipf & Welling's Ã = A + I
    resets that diagonal to 0 and adds the identity, so with the unit
    diagonal a distance-derived A_hat has (every row is at distance 0 from
    itself), Ã is G A_hat Gᵀ itself.  Any other diagonal is a DataError.
    Normalizing by the class degrees d = A_hat @ counts gives C.
    """
    A = np.asarray(A_hat, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError("A_hat must be square")
    if np.max(np.abs(A - A.T)) > 1e-12:
        raise DataError("A_hat must be symmetric within 1e-12")
    if np.min(A) < 0:
        raise DataError("A_hat entries must be nonnegative")
    off = np.flatnonzero(np.diag(A) != 1.0)
    if off.size:
        i = int(off[0])
        raise DataError(
            "A_hat must have 1 on its diagonal, as every row is at distance 0 "
            f"from itself; A_hat[{i}, {i}] is {float(A[i, i])!r}"
        )
    u = A.shape[0]
    counts = np.ones(u, dtype=int) if counts is None else counts
    index = np.repeat(np.arange(u), counts) if index is None else index
    inv_sqrt = 1.0 / np.sqrt(A @ counts)
    C = inv_sqrt[:, None] * A * inv_sqrt[None, :]
    return PropagationMatrix(C, index, threshold)


def propagation_matrix(X: np.ndarray, metric: str = EUCLIDEAN) -> PropagationMatrix:
    """The secondary graph of X: distances between its distinct rows, the
    adjacency approximation, then normalization.  A fixed function of X,
    so it is rebuilt where it is used rather than persisted."""
    rows, index, counts = np.unique(
        X, axis=0, return_inverse=True, return_counts=True
    )
    A_hat, t = adjacency_approximation(pairwise_distances(rows, metric), counts)
    return normalize_propagation(A_hat, t, counts, index.reshape(-1))


# -- persistence -----------------------------------------------------------


def write_matrix_csv(
    path: str | Path, M: np.ndarray, row_ids: list[str], col_ids: list[str]
) -> None:
    M = np.asarray(M)
    if M.shape != (len(row_ids), len(col_ids)):
        raise DataError("matrix shape does not match the id lists")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id"] + list(col_ids))
        for rid, row in zip(row_ids, M):
            writer.writerow([rid] + [repr(float(v)) for v in row])


def read_matrix_csv(
    path: str | Path, columns: list[str] | None = None
) -> tuple[np.ndarray, list[str], list[str]]:
    """The matrix, row ids and column ids written by ``write_matrix_csv``;
    a row of the wrong length or a cell that is not a finite float is a
    DataError that names the file and line, and so, when ``columns`` is
    given, is a header other than ``id`` and ``columns``."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path} is empty, expected a header row")
        if columns is not None and header != ["id", *columns]:
            expected = ",".join(["id", *columns])
            raise DataError(f"{path}: expected the header {expected!r}, got {header!r}")
        col_ids = header[1:]
        row_ids = []
        rows = []
        for parts in reader:
            try:
                if len(parts) != len(header):
                    raise ValueError(f"{len(parts)} cells, expected {len(header)}")
                row = [float(v) for v in parts[1:]]
                if not all(map(math.isfinite, row)):
                    bad = next(v for v, x in zip(parts[1:], row) if not math.isfinite(x))
                    raise ValueError(f"cell {bad!r} is not a finite float")
                rows.append(row)
            except ValueError as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc
            row_ids.append(parts[0])
    return np.array(rows, dtype=float).reshape(len(rows), len(col_ids)), row_ids, col_ids
