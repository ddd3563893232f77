"""Distances, adjacency approximation, normalization, the propagation
operator and matrix persistence."""

import tracemalloc

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
    adjacency_approximation,
    build_rule_matrix,
    normalize_propagation,
    pairwise_distances,
    propagation_matrix,
    read_matrix_csv,
    write_matrix_csv,
)
from relgcn.gcn import TrainConfig, init_model, predict
from relgcn.grounding import Clause, POSITIVE_DENSITY, NEGATIVE_DENSITY
from relgcn.kb import Atom
from relgcn.rulelearn import make_head

from conftest import coauthors
from oracles import as_operator, dense_propagation_matrix, naive_euclidean_distances


def count_matrices(n_max=8, k_max=5):
    return arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, n_max), st.integers(1, k_max)),
        elements=st.integers(0, 20).map(float),
    )


# -- pairwise distances ----------------------------------------------------


def test_euclidean_hand_triangle():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    D = pairwise_distances(X, EUCLIDEAN)
    assert D[0, 1] == pytest.approx(5.0)


def test_manhattan_and_chebyshev_hand_values():
    X = np.array([[1.0, 2.0], [4.0, 6.0]])
    assert pairwise_distances(X, MANHATTAN)[0, 1] == pytest.approx(7.0)
    assert pairwise_distances(X, CHEBYSHEV)[0, 1] == pytest.approx(4.0)


def test_identical_rows_zero_for_every_metric():
    X = np.array([[2.0, 3.0], [2.0, 3.0], [1.0, 1.0]])
    for metric in METRICS:
        D = pairwise_distances(X, metric)
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
        D = pairwise_distances(X, metric)
        assert np.array_equal(D, D.T), "symmetry must be exact"
        assert np.all(np.diag(D) == 0.0)
        assert np.all(D >= 0.0)


def test_distances_of_real_rows_are_exactly_symmetric():
    """Each entry and its mirror reduce the same k differences, negated, in
    the same order, so they are equal to the bit without any mirroring."""
    rng = np.random.default_rng(14)
    for _ in range(150):
        n, k = rng.integers(2, 40), rng.integers(1, 100)
        X = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, k))
        for metric in METRICS:
            D = pairwise_distances(X, metric)
            assert np.array_equal(D, D.T)
            assert not np.diag(D).any()


@settings(max_examples=60, deadline=None)
@given(count_matrices(n_max=6))
def test_l2_triangle_inequality(X):
    D = pairwise_distances(X, EUCLIDEAN)
    n = D.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert D[i, j] <= D[i, k] + D[k, j] + 1e-9


@settings(max_examples=80, deadline=None)
@given(count_matrices())
def test_naive_and_stable_euclidean_agree(X):
    stable = pairwise_distances(X, EUCLIDEAN)
    naive = naive_euclidean_distances(X)
    denom = np.maximum(np.abs(stable), 1.0)
    assert np.max(np.abs(stable - naive) / denom) < 1e-9


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
    D = pairwise_distances(X, EUCLIDEAN)
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
    P = normalize_propagation(np.eye(2)) @ np.eye(2)
    assert np.allclose(P, np.eye(2))


def test_normalize_all_ones_gives_half():
    P = normalize_propagation(np.ones((2, 2))) @ np.eye(2)
    assert np.allclose(P, 0.5)


@pytest.mark.parametrize("diagonal", [0.0, 2.0, np.nextafter(1.0, 0.0), np.nan])
def test_normalize_rejects_a_diagonal_other_than_one(diagonal):
    """The self-loop reset replaces a unit diagonal, the one a
    distance-derived A_hat has; any other A_hat is refused, naming the
    entry and why."""
    A = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]])
    A[1, 1] = diagonal
    with pytest.raises(DataError) as info:
        normalize_propagation(A)
    assert str(info.value) == (
        "A_hat must have 1 on its diagonal, as every row is at distance 0 "
        f"from itself; A_hat[1, 1] is {float(diagonal)!r}"
    )


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
    D = pairwise_distances(X, EUCLIDEAN)
    if D[np.triu_indices(D.shape[0], k=1)].sum() == 0.0:
        return
    A_hat, _ = adjacency_approximation(D)
    P = normalize_propagation(A_hat) @ np.eye(A_hat.shape[0])
    # Independent elementwise recomputation.
    D_hat = A_hat.copy()
    np.fill_diagonal(D_hat, 0.0)
    D_hat += np.eye(A_hat.shape[0])
    deg = D_hat.sum(axis=1)
    for i in range(P.shape[0]):
        for j in range(P.shape[1]):
            assert abs(P[i, j] - D_hat[i, j] / np.sqrt(deg[i] * deg[j])) < 1e-12
    assert _spectral_radius(P) <= 1.0 + 1e-9


# -- propagation operator -------------------------------------------------


def _feature_rows(rng, repeated):
    """A random X with at least two distinct rows: drawn from a few base
    rows when ``repeated`` (u < n), else continuous (u = n)."""
    n, k = int(rng.integers(5, 30)), int(rng.integers(1, 5))
    while True:
        if repeated:
            base = rng.integers(0, 4, size=(int(rng.integers(2, 5)), k)).astype(float)
            X = base[rng.integers(0, len(base), size=n)]
        else:
            X = rng.random((n, k))
        if len(np.unique(X, axis=0)) >= 2:
            return X


def _relative_error(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("repeated", [True, False], ids=["u<n", "u=n"])
def test_propagation_operator_matches_dense_oracle(repeated, metric):
    """P @ H, t and predict's scores agree with the dense n x n chain to
    1e-12 relative, and the class counts are the targets of each class."""
    rng = np.random.default_rng(METRICS.index(metric))
    for trial in range(20):
        X = _feature_rows(rng, repeated)
        n = X.shape[0]
        dense, t = dense_propagation_matrix(X, metric)
        P = propagation_matrix(X, metric)
        assert P.shape == (n, n)
        assert (P.classes.shape[0] < n) == repeated
        assert P.counts[:, 0].tolist() == np.bincount(P.index).tolist()
        assert P.threshold == pytest.approx(t, rel=1e-12)
        H = rng.standard_normal((n, 7))
        assert _relative_error(P @ H, dense @ H) < 1e-12
        model = init_model(X.shape[1], TrainConfig(hidden_size=6, num_layers=3, seed=trial))
        scores, _ = predict(model, P, X)
        dense_scores, _ = predict(model, as_operator(dense), X)
        assert np.max(np.abs(scores - dense_scores) / dense_scores) < 1e-12


def test_propagation_matrix_memory_is_linear_in_targets():
    """50,000 targets over 5 distinct rows: the dense P alone would take
    20 GB; the operator and one product with it stay under 50 MB."""
    rng = np.random.default_rng(0)
    rows = np.arange(15.0).reshape(5, 3)
    X = rows[rng.integers(0, 5, size=50_000)]
    tracemalloc.start()
    try:
        P = propagation_matrix(X)
        PX = P @ X
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.classes.shape == (5, 5)
    assert PX.shape == X.shape
    assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"


# -- rule matrix -----------------------------------------------------------


def test_build_rule_matrix_columns_follow_ruleset_order(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    p1, p2 = head.args
    t1, u1 = "topic1", "university1"
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
    targets = coauthors(coauthor_kb, "ann bob", "ann cara", "cara dan")
    X = build_rule_matrix([topic_rule, uni_rule], targets, coauthor_kb)
    assert X.shape == (3, 2)
    # Column 0 is the positive-density topic rule, column 1 the negative one.
    assert X[:, 0].tolist() == [2.0, 0.0, 1.0]
    assert X[:, 1].tolist() == [1.0, 0.0, 0.0]


def test_build_rule_matrix_rejects_empty(coauthor_kb):
    with pytest.raises(DataError):
        build_rule_matrix([], coauthors(coauthor_kb, "ann bob"), coauthor_kb)


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


@pytest.mark.parametrize(
    "M",
    [
        np.array([[True], [False]]),
        np.array([[3, 0], [-7, 2**40]]),
        np.array([[0.1, 1 / 3], [1e-300, -2.5e17]], dtype=np.float32),
        np.array([[0.1, 1 / 3], [1e-300, -2.5e17]]),
    ],
)
def test_matrix_csv_cells_are_the_repr_of_each_float(tmp_path, M):
    """Bools, ints, float32 and float64 cells are written as the repr of
    the Python float of each value, byte for byte."""
    row_ids = ["CoAuthor(P001, P002)", "b"]
    col_ids = [f"rule{j}" for j in range(M.shape[1])]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, row_ids, col_ids)
    want = ["id," + ",".join(col_ids)]
    for rid, row in zip(row_ids, M):
        want.append(",".join([f'"{rid}"' if "," in rid else rid, *(repr(float(v)) for v in row)]))
    assert path.read_bytes() == ("\r\n".join(want) + "\r\n").encode()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_matrix_csv_rejects_a_non_finite_cell(tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"id,rule0,rule1\na,1.0,2.0\nb,0.5,{cell}\n")
    with pytest.raises(DataError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"{path}, line 3: cell {cell!r} is not a finite float"


def test_matrix_csv_shape_mismatch(tmp_path):
    with pytest.raises(DataError):
        write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)), ["a"], ["x", "y"])
