"""Distances, adjacency approximation, normalization and matrix persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relgcn.errors import DataError, NumericalError
from relgcn.featurize import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    METRICS,
    RuleMatrix,
    adjacency_approximation,
    build_rule_matrix,
    naive_euclidean_distances,
    normalize_propagation,
    pairwise_distances,
    read_matrix_csv,
    write_matrix_csv,
    zscale_columns,
)
from relgcn.grounding import Clause, POSITIVE_DENSITY, NEGATIVE_DENSITY
from relgcn.kb import Atom, Variable
from relgcn.rulelearn import RuleSet, make_head

from conftest import example


def count_matrices(n_max=8, k_max=5):
    return arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, n_max), st.integers(1, k_max)),
        elements=st.integers(0, 20).map(float),
    )


# -- pairwise distances ----------------------------------------------------


def test_euclidean_hand_triangle():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    D = pairwise_distances(X, EUCLIDEAN).values
    assert D[0, 1] == pytest.approx(5.0)


def test_manhattan_and_chebyshev_hand_values():
    X = np.array([[1.0, 2.0], [4.0, 6.0]])
    assert pairwise_distances(X, MANHATTAN).values[0, 1] == pytest.approx(7.0)
    assert pairwise_distances(X, CHEBYSHEV).values[0, 1] == pytest.approx(4.0)


def test_identical_rows_zero_for_every_metric():
    X = np.array([[2.0, 3.0], [2.0, 3.0], [1.0, 1.0]])
    for metric in METRICS:
        D = pairwise_distances(X, metric).values
        assert D[0, 1] == 0.0
        assert D[1, 0] == 0.0


def test_pairwise_distances_bad_inputs():
    with pytest.raises(DataError):
        pairwise_distances(np.empty((0, 0)), EUCLIDEAN)
    with pytest.raises(DataError):
        pairwise_distances(np.ones((2, 2)), "cosine")


@settings(max_examples=60, deadline=None)
@given(count_matrices())
def test_distance_matrix_invariants(X):
    for metric in METRICS:
        D = pairwise_distances(X, metric).values
        assert np.array_equal(D, D.T), "symmetry must be exact"
        assert np.all(np.diag(D) == 0.0)
        assert np.all(D >= 0.0)


@settings(max_examples=60, deadline=None)
@given(count_matrices(n_max=6))
def test_l2_triangle_inequality(X):
    D = pairwise_distances(X, EUCLIDEAN).values
    n = D.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert D[i, j] <= D[i, k] + D[k, j] + 1e-9


@settings(max_examples=80, deadline=None)
@given(count_matrices())
def test_naive_and_stable_euclidean_agree(X):
    stable = pairwise_distances(X, EUCLIDEAN).values
    naive = naive_euclidean_distances(X)
    denom = np.maximum(np.abs(stable), 1.0)
    assert np.max(np.abs(stable - naive) / denom) < 1e-9


def test_zscale_columns():
    X = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
    Z = zscale_columns(X)
    assert Z[:, 0].mean() == pytest.approx(0.0)
    assert Z[:, 0].std() == pytest.approx(1.0)
    # Constant columns stay at zero instead of dividing by zero.
    assert np.all(Z[:, 1] == 0.0)


# -- adjacency approximation ----------------------------------------------


def test_adjacency_two_node_hand_example():
    D = np.array([[0.0, 4.0], [4.0, 0.0]])
    A_hat, t = adjacency_approximation(D)
    assert t == pytest.approx(4.0)
    assert np.allclose(A_hat, np.eye(2))


def test_adjacency_three_node_hand_example():
    D = np.array(
        [
            [0.0, 2.0, 4.0],
            [2.0, 0.0, 6.0],
            [4.0, 6.0, 0.0],
        ]
    )
    A_hat, t = adjacency_approximation(D)
    assert t == pytest.approx(4.0)
    assert A_hat[0, 1] == pytest.approx(0.5)  # 1 - 2/4
    assert A_hat[0, 2] == pytest.approx(0.0)  # 1 - min(4/4, 1)
    assert A_hat[1, 2] == pytest.approx(0.0)  # 1 - min(6/4 -> 1)
    assert np.all(np.diag(A_hat) == 1.0)


def test_adjacency_zero_distances_error():
    with pytest.raises(NumericalError):
        adjacency_approximation(np.zeros((3, 3)))
    with pytest.raises(DataError):
        adjacency_approximation(np.zeros((1, 1)))


@settings(max_examples=60, deadline=None)
@given(count_matrices(n_max=7))
def test_adjacency_properties(X):
    D = pairwise_distances(X, EUCLIDEAN).values
    iu = np.triu_indices(D.shape[0], k=1)
    if D[iu].sum() == 0.0:
        return  # degenerate case covered by the error test
    A_hat, t = adjacency_approximation(D)
    assert np.all((A_hat >= 0.0) & (A_hat <= 1.0))
    assert np.array_equal(A_hat, A_hat.T)
    # Order reversal: smaller distance, larger adjacency.
    flat_d = D[iu]
    flat_a = A_hat[iu]
    order = np.argsort(flat_d)
    assert np.all(np.diff(flat_a[order]) <= 1e-12)
    # Scale invariance: t scales with D.
    for c in (0.25, 3.0):
        A_scaled, t_scaled = adjacency_approximation(c * D)
        assert t_scaled == pytest.approx(c * t)
        assert np.allclose(A_scaled, A_hat, atol=1e-12)


# -- normalization ---------------------------------------------------------


def test_normalize_identity_is_identity():
    P = normalize_propagation(np.eye(2)).values
    assert np.allclose(P, np.eye(2))


def test_normalize_all_ones_gives_half():
    P = normalize_propagation(np.ones((2, 2))).values
    assert np.allclose(P, 0.5)


def test_normalize_literal_self_loops_changes_diagonal():
    A = np.array([[1.0, 0.5], [0.5, 1.0]])
    default = normalize_propagation(A).values
    literal = normalize_propagation(A, literal_self_loops=True).values
    # Default resets diag(A) to 0 before adding I: self-loop weight 1.
    assert default[0, 0] == pytest.approx(1.0 / 1.5)
    # Literal mode keeps the diagonal from the approximation: weight 2.
    assert literal[0, 0] == pytest.approx(2.0 / 2.5)


def test_normalize_rejects_bad_matrices():
    with pytest.raises(DataError):
        normalize_propagation(np.ones((2, 3)))
    asym = np.array([[1.0, 0.2], [0.4, 1.0]])
    with pytest.raises(DataError):
        normalize_propagation(asym)
    with pytest.raises(DataError):
        normalize_propagation(np.array([[1.0, -0.1], [-0.1, 1.0]]))


def _spectral_radius(P, iters=200):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(P.shape[0])
    for _ in range(iters):
        v = P @ v
        v /= np.linalg.norm(v)
    return float(abs(v @ P @ v))


@settings(max_examples=40, deadline=None)
@given(count_matrices(n_max=7))
def test_normalize_elementwise_and_spectral_radius(X):
    D = pairwise_distances(X, EUCLIDEAN).values
    if D[np.triu_indices(D.shape[0], k=1)].sum() == 0.0:
        return
    A_hat, _ = adjacency_approximation(D)
    P = normalize_propagation(A_hat).values
    # Independent elementwise recomputation.
    D_hat = A_hat.copy()
    np.fill_diagonal(D_hat, 0.0)
    D_hat += np.eye(A_hat.shape[0])
    deg = D_hat.sum(axis=1)
    for i in range(P.shape[0]):
        for j in range(P.shape[1]):
            assert abs(P[i, j] - D_hat[i, j] / np.sqrt(deg[i] * deg[j])) < 1e-12
    assert _spectral_radius(P) <= 1.0 + 1e-9


# -- rule matrix -----------------------------------------------------------


def test_build_rule_matrix_columns_follow_ruleset_order(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    p1, p2 = head.args
    t1, u1 = Variable("topic1"), Variable("university1")
    topic_rule = Clause(
        head,
        (Atom("ResearchTopic", (p1, t1)), Atom("ResearchTopic", (p2, t1))),
        source=POSITIVE_DENSITY,
    )
    uni_rule = Clause(
        head,
        (Atom("Affiliation", (p1, u1)), Atom("Affiliation", (p2, u1))),
        source=NEGATIVE_DENSITY,
    )
    targets = [example("ann", "bob"), example("ann", "cara"), example("cara", "dan")]
    rm = build_rule_matrix(
        [RuleSet([topic_rule], POSITIVE_DENSITY), RuleSet([uni_rule], NEGATIVE_DENSITY)],
        targets,
        coauthor_kb,
    )
    assert rm.values.shape == (3, 2)
    # Column 0 is the positive-density topic rule, column 1 the negative one.
    assert rm.values[:, 0].tolist() == [2.0, 0.0, 1.0]
    assert rm.values[:, 1].tolist() == [1.0, 0.0, 0.0]
    capped = build_rule_matrix(
        [RuleSet([topic_rule], POSITIVE_DENSITY)], targets, coauthor_kb, cap=1
    )
    assert capped.values[:, 0].tolist() == [1.0, 0.0, 1.0]


def test_build_rule_matrix_rejects_empty(coauthor_kb):
    with pytest.raises(DataError):
        build_rule_matrix([RuleSet([], POSITIVE_DENSITY)], [example("ann", "bob")], coauthor_kb)


def test_rule_matrix_shape_validation(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    rule = Clause(head, ())
    with pytest.raises(DataError):
        RuleMatrix(np.zeros((2, 1)), [example("ann", "bob")], [rule])


# -- persistence -----------------------------------------------------------


def test_matrix_csv_roundtrip_with_commas_in_ids(tmp_path):
    M = np.array([[1.5, -2.0], [0.0, 3.25]])
    row_ids = ["CoAuthor(P001, P002)", "CoAuthor(P001, P003)"]
    col_ids = ["rule0", "rule1"]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, row_ids, col_ids)
    back, rows, cols = read_matrix_csv(path)
    assert np.array_equal(back, M)
    assert rows == row_ids
    assert cols == col_ids


def test_matrix_csv_shape_mismatch(tmp_path):
    with pytest.raises(DataError):
        write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)), ["a"], ["x", "y"])
