"""Rule-count features, pairwise distances and the GCN propagation matrix.

The secondary graph gives every pair of targets a distance, which is
rescaled by the mean pairwise distance, clipped and inverted into an
adjacency-like matrix, then symmetrically normalized with self loops.
Targets with equal rows of X have equal distances to every target, so the
graph is built on the u distinct rows of X, and the n x n propagation
matrix is kept as an exact operator over those row classes: O(n·u + u²)
memory, with no n x n array.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .grounding import Clause, CountCap, TargetExample, count_satisfied_groundings
from .kb import KnowledgeBase

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"
CHEBYSHEV = "chebyshev"
METRICS = (EUCLIDEAN, MANHATTAN, CHEBYSHEV)


@dataclass
class PropagationMatrix:
    """The n x n propagation matrix P = G C Gᵀ + diag(e[index]).

    G is the n x u indicator of each target's distinct feature row
    (``index``), C is u x u and e holds one normalized self-loop term per
    distinct row.  It stands in for the dense matrix through ``P @ H``
    (O(n·u·h + u²·h) for an n x h matrix H), ``P.T`` and ``P.shape``; when
    e is zero the GCN runs on the row classes instead, through C, ``index``
    and the indicator Gᵀ (``members``).
    """

    classes: np.ndarray  # C
    diagonal: np.ndarray  # e
    index: np.ndarray  # the distinct row of each target
    threshold: float  # adjacency threshold t, recorded for audit
    members: np.ndarray = field(init=False, repr=False)  # Gᵀ, u x n
    _self_loops: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        u = self.classes.shape[0]
        self.members = (np.arange(u)[:, None] == self.index[None, :]).astype(float)
        # e is 0 under the default self-loop reset: that term is skipped.
        self._self_loops = (
            self.diagonal[self.index][:, None] if self.diagonal.any() else None
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.index.size, self.index.size)

    @property
    def T(self) -> "PropagationMatrix":
        return self  # P is symmetric

    @property
    def nbytes(self) -> int:
        arrays = [self.classes, self.diagonal, self.index, self.members]
        if self._self_loops is not None:
            arrays.append(self._self_loops)
        return sum(a.nbytes for a in arrays)

    def __matmul__(self, H: np.ndarray) -> np.ndarray:
        out = (self.classes @ (self.members @ H))[self.index]
        if self._self_loops is not None:
            out += self._self_loops * H
        return out


def build_rule_matrix(
    rules: list[Clause],
    targets: list[TargetExample],
    kb: KnowledgeBase,
    cap: CountCap = None,
) -> np.ndarray:
    """X[i][j] = satisfied-grounding count of rules[j] for targets[i]."""
    if not rules:
        raise DataError("rules must contain at least one rule")
    X = np.zeros((len(targets), len(rules)), dtype=float)
    for j, rule in enumerate(rules):
        X[:, j] = count_satisfied_groundings(rule, targets, kb, cap)
    return X


def zscale_columns(X: np.ndarray) -> np.ndarray:
    """Per-column standardization; constant columns are left at zero."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd


def _mirror_upper(D: np.ndarray) -> np.ndarray:
    """Exact symmetry: compute from the upper triangle and mirror it."""
    U = np.triu(D, k=1)
    out = U + U.T
    return out


def pairwise_distances(X: np.ndarray, metric: str = EUCLIDEAN) -> np.ndarray:
    """Pairwise row distances under the chosen metric.

    The euclidean path uses coordinate differences, which needs no
    clamping; symmetry and a zero diagonal are enforced exactly.
    """
    if X.size == 0:
        raise DataError("cannot compute distances of an empty matrix")
    if metric not in METRICS:
        raise DataError(f"unknown metric {metric!r}; choose one of {METRICS}")
    diff = X[:, None, :] - X[None, :, :]
    # Squared or absolute in place: the difference is the largest array
    # built here (u x u x k for the u distinct rows the graph is built on).
    if metric == EUCLIDEAN:
        D = np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
    elif metric == MANHATTAN:
        D = np.sum(np.abs(diff, out=diff), axis=2)
    else:
        D = np.max(np.abs(diff, out=diff), axis=2)
    return _mirror_upper(D)


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
    literal_self_loops: bool = False,
    counts: np.ndarray | None = None,
    index: np.ndarray | None = None,
) -> PropagationMatrix:
    """Symmetric normalization with self loops.

    A_hat is over the u distinct rows; ``counts`` and ``index`` give the
    number of targets in each row class and the class of each target (one
    target per row when omitted).  The unnormalized matrix is G A_hat Gᵀ
    plus a per-class diagonal term: by default the diagonal of A_hat is
    reset to 0 before the identity is added, keeping the self-loop weight
    at 1 (a term of 1 - diag(A_hat), which is 0 for a distance-derived
    A_hat); ``literal_self_loops`` keeps the diagonal produced by the
    adjacency approximation (a term of 1, making it 2).  Normalizing by
    the class degrees d turns these into C and the operator's e = term / d.
    """
    A = np.asarray(A_hat, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError("A_hat must be square")
    if np.max(np.abs(A - A.T)) > 1e-12:
        raise DataError("A_hat must be symmetric within 1e-12")
    if np.min(A) < 0:
        raise DataError("A_hat entries must be nonnegative")
    u = A.shape[0]
    counts = np.ones(u, dtype=int) if counts is None else counts
    index = np.repeat(np.arange(u), counts) if index is None else index
    self_loops = np.ones(u) if literal_self_loops else 1.0 - np.diag(A)
    degrees = A @ counts + self_loops
    inv_sqrt = 1.0 / np.sqrt(degrees)
    C = inv_sqrt[:, None] * A * inv_sqrt[None, :]
    return PropagationMatrix(C, self_loops / degrees, index, threshold)


def propagation_matrix(
    X: np.ndarray, metric: str = EUCLIDEAN, literal_self_loops: bool = False
) -> PropagationMatrix:
    """The secondary graph of X: distances between its distinct rows, the
    adjacency approximation, then normalization.  A fixed function of X,
    so it is rebuilt where it is used rather than persisted."""
    rows, index, counts = np.unique(
        X, axis=0, return_inverse=True, return_counts=True
    )
    A_hat, t = adjacency_approximation(pairwise_distances(rows, metric), counts)
    return normalize_propagation(A_hat, t, literal_self_loops, counts, index.reshape(-1))


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


def read_matrix_csv(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        col_ids = header[1:]
        row_ids = []
        rows = []
        for parts in reader:
            row_ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    return np.array(rows, dtype=float), row_ids, col_ids
