"""Rule-count features, pairwise distances and the GCN propagation matrix.

The secondary graph is dense by construction: every pair of targets gets a
distance, which is rescaled by the mean off-diagonal distance, clipped and
inverted into an adjacency-like matrix, then symmetrically normalized with
self loops.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .grounding import Clause, CountCap, TargetExample, count_satisfied_groundings
from .kb import KnowledgeBase
from .rulelearn import RuleSet

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"
CHEBYSHEV = "chebyshev"
METRICS = (EUCLIDEAN, MANHATTAN, CHEBYSHEV)


@dataclass
class RuleMatrix:
    """n targets x k rules matrix of satisfied-grounding counts.

    Columns follow the fixed concatenation: positive-density rules first,
    then negative-density rules."""

    values: np.ndarray
    targets: list[TargetExample]
    rules: list[Clause]

    def __post_init__(self):
        n, k = self.values.shape
        if n != len(self.targets) or k != len(self.rules):
            raise DataError("rule matrix shape does not match its index lists")


@dataclass
class DistanceMatrix:
    values: np.ndarray
    metric: str


@dataclass
class PropagationMatrix:
    values: np.ndarray
    threshold: float  # adjacency threshold t, recorded for audit


def build_rule_matrix(
    rulesets: list[RuleSet],
    targets: list[TargetExample],
    kb: KnowledgeBase,
    cap: CountCap = None,
) -> RuleMatrix:
    """X[i][j] = satisfied-grounding count of rule j for target i."""
    if not rulesets or not any(rs.rules for rs in rulesets):
        raise DataError("rulesets must contain at least one rule")
    preds = {t.atom.predicate for t in targets}
    if len(preds) > 1:
        raise DataError("all targets must share the target predicate")
    rules = [r for rs in rulesets for r in rs.rules]
    X = np.zeros((len(targets), len(rules)), dtype=float)
    for j, rule in enumerate(rules):
        for i, target in enumerate(targets):
            X[i, j] = count_satisfied_groundings(rule, target, kb, cap)
    return RuleMatrix(X, list(targets), rules)


def zscale_columns(X: np.ndarray) -> np.ndarray:
    """Per-column standardization; constant columns are left at zero."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd


def naive_euclidean_distances(X: np.ndarray) -> np.ndarray:
    """Direct norm-expansion form sqrt(|xi|^2 + |xj|^2 - 2 xi.xj), with the
    radicand clamped at zero.  Kept as the cross-check for the stable path."""
    sq = np.sum(X * X, axis=1)
    radicand = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    D = np.sqrt(np.clip(radicand, 0.0, None))
    np.fill_diagonal(D, 0.0)
    return _mirror_upper(D)


def _mirror_upper(D: np.ndarray) -> np.ndarray:
    """Exact symmetry: compute from the upper triangle and mirror it."""
    U = np.triu(D, k=1)
    out = U + U.T
    return out


def pairwise_distances(X: np.ndarray | RuleMatrix, metric: str = EUCLIDEAN) -> DistanceMatrix:
    """Pairwise row distances under the chosen metric.

    The euclidean path uses coordinate differences, which needs no
    clamping; symmetry and a zero diagonal are enforced exactly.
    """
    if isinstance(X, RuleMatrix):
        X = X.values
    if X.size == 0:
        raise DataError("cannot compute distances of an empty matrix")
    if metric not in METRICS:
        raise DataError(f"unknown metric {metric!r}; choose one of {METRICS}")
    diff = X[:, None, :] - X[None, :, :]
    # Squared or absolute in place: the n x n x k difference is the
    # largest array built from X, and train and eval rebuild it too.
    if metric == EUCLIDEAN:
        D = np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
    elif metric == MANHATTAN:
        D = np.sum(np.abs(diff, out=diff), axis=2)
    else:
        D = np.max(np.abs(diff, out=diff), axis=2)
    return DistanceMatrix(_mirror_upper(D), metric)


def adjacency_approximation(D: np.ndarray | DistanceMatrix) -> tuple[np.ndarray, float]:
    """Turn distances into an adjacency-like matrix.

    t is the mean of the strict upper triangle; distances are divided by t,
    clipped at 1 and subtracted from 1, so entries lie in [0, 1] with 1 on
    the diagonal and 0 for any pair at or beyond the average distance.
    Returns (A_hat, t).
    """
    if isinstance(D, DistanceMatrix):
        D = D.values
    n = D.shape[0]
    if n < 2:
        raise DataError("adjacency approximation needs at least 2 nodes")
    iu = np.triu_indices(n, k=1)
    t = float(D[iu].mean())
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
) -> PropagationMatrix:
    """Symmetric normalization with self loops.

    By default the diagonal of A_hat is reset to 0 before the identity is
    added, keeping the self-loop weight at 1; ``literal_self_loops`` keeps
    the diagonal produced by the adjacency approximation (making it 2).
    """
    A = np.asarray(A_hat, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError("A_hat must be square")
    if np.max(np.abs(A - A.T)) > 1e-12:
        raise DataError("A_hat must be symmetric within 1e-12")
    if np.min(A) < 0:
        raise DataError("A_hat entries must be nonnegative")
    D_hat = A.copy()
    if not literal_self_loops:
        np.fill_diagonal(D_hat, 0.0)
    D_hat = D_hat + np.eye(A.shape[0])
    degrees = D_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    P = inv_sqrt[:, None] * D_hat * inv_sqrt[None, :]
    return PropagationMatrix(P, threshold)


def propagation_matrix(
    X: np.ndarray, metric: str = EUCLIDEAN, literal_self_loops: bool = False
) -> PropagationMatrix:
    """The secondary graph of X: distances, adjacency approximation, then
    normalization.  A fixed function of X, so it is rebuilt where it is used
    rather than persisted."""
    A_hat, t = adjacency_approximation(pairwise_distances(X, metric))
    return normalize_propagation(A_hat, t, literal_self_loops=literal_self_loops)


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
