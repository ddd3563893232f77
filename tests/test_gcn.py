"""GCN forward/backward, Adam, training loop and checkpointing."""

import struct

import numpy as np
import pytest

from relgcn.errors import ConfigError, DataError, NumericalError
from relgcn.featurize import propagation_matrix
from relgcn.gcn import (
    AdamState,
    GCNModel,
    SplitMasks,
    TrainConfig,
    adam_step,
    gcn_backward,
    gcn_forward,
    glorot_init,
    init_model,
    load_checkpoint,
    nll_loss,
    predict,
    save_checkpoint,
    row_classes,
    train,
)

from oracles import dense_propagation_matrix, per_target_gcn_backward, per_target_gcn_forward


def make_masks(n):
    idx = np.arange(n)
    return SplitMasks(idx[: n // 2], idx[n // 2 : n // 2 + n // 4], idx[n // 2 + n // 4 :])


def tiny_problem(n=8, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    A = rng.random((n, n))
    A = (A + A.T) / 2.0
    deg = A.sum(axis=1) + 1.0
    P = (A + np.eye(n)) / np.sqrt(np.outer(deg, deg))
    labels = rng.integers(0, 2, size=n)
    return P, X, labels


# -- initialization --------------------------------------------------------


def test_glorot_bounds_and_determinism():
    W1 = glorot_init(40, 60, seed=3)
    W2 = glorot_init(40, 60, seed=3)
    bound = np.sqrt(6.0 / 100.0)
    assert np.array_equal(W1, W2)
    assert np.all(np.abs(W1) <= bound)
    assert W1.shape == (40, 60)
    # Different seeds decorrelate.
    assert not np.array_equal(W1, glorot_init(40, 60, seed=4))
    with pytest.raises(ConfigError):
        glorot_init(0, 4, seed=0)


def test_glorot_is_roughly_centered():
    W = glorot_init(200, 200, seed=11)
    bound = np.sqrt(6.0 / 400.0)
    assert abs(W.mean()) < 0.1 * bound


def test_init_model_dims():
    config = TrainConfig(hidden_size=7, num_layers=3, seed=5)
    model = init_model(4, config)
    assert model.dims == [4, 7, 7, 2]
    assert [W.shape for W in model.weights] == [(4, 7), (7, 7), (7, 2)]


def test_train_config_validation():
    """Each out-of-range field is a ConfigError that names the field."""
    for field, value in [
        ("epochs", 0),
        ("learning_rate", 0.0),
        ("num_layers", 0),
        ("hidden_size", 0),
        ("dropout_rate", -0.1),
        ("dropout_rate", 1.0),
        ("seed", -1),
        ("patience", -1),
        ("weight_decay", -1e-4),
    ]:
        with pytest.raises(ConfigError, match=f"for {field!r}, got {str(value)!r}$") as info:
            TrainConfig(**{field: value})
        assert (info.value.key, info.value.got) == (field, value)


def test_split_masks_must_be_disjoint():
    with pytest.raises(DataError):
        SplitMasks(np.array([0, 1]), np.array([1, 2]), np.array([3]))


# -- forward ---------------------------------------------------------------


def test_forward_hand_computed_single_layer():
    """One conv layer, P = I: log-softmax of X @ W, computable by hand."""
    X = np.array([[1.0, 2.0]])
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = GCNModel([W])
    log_probs, _ = gcn_forward(np.eye(1), X, model)
    z = np.array([1.0, 2.0])
    expected = z - np.log(np.exp(z).sum())
    assert np.allclose(log_probs[0], expected)
    assert np.allclose(np.exp(log_probs).sum(axis=1), 1.0)


def test_forward_rows_are_distributions():
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig(hidden_size=5, num_layers=3))
    log_probs, caches = gcn_forward(P, X, model)
    assert np.allclose(np.exp(log_probs).sum(axis=1), 1.0)
    assert len(caches.propagated) == 3


def test_forward_eval_ignores_dropout_train_uses_it():
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig())
    e1, _ = gcn_forward(P, X, model)
    e2, _ = gcn_forward(P, X, model)
    assert np.array_equal(e1, e2)
    rng = np.random.default_rng(0)
    t1, _ = gcn_forward(P, X, model, dropout_rate=0.5, rng=rng)
    t2, _ = gcn_forward(P, X, model, dropout_rate=0.5, rng=rng)
    # Fresh masks each call from the same stream: outputs differ.
    assert not np.array_equal(t1, t2)


def test_forward_mask_reuse_reproduces_output():
    """A generator seeded alike draws the same masks: the same output."""
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig())
    out1, _ = gcn_forward(P, X, model, 0.4, np.random.default_rng(2))
    out2, _ = gcn_forward(P, X, model, 0.4, np.random.default_rng(2))
    assert np.array_equal(out1, out2)


def test_forward_shape_errors():
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig())
    with pytest.raises(DataError):
        gcn_forward(P[:4, :4], X, model)
    with pytest.raises(DataError):
        gcn_forward(P, X[:, :2], model)


# -- loss and gradients ----------------------------------------------------


def test_nll_loss_hand_value():
    log_probs = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
    labels = np.array([0, 1])
    mask = np.array([0, 1])
    expected = -(np.log(0.9) + np.log(0.8)) / 2.0
    assert nll_loss(log_probs, labels, mask) == pytest.approx(expected)
    # First-layer weight decay adds wd/2 * ||W0||^2.
    model = GCNModel([np.full((2, 2), 2.0)])
    with_reg = nll_loss(log_probs, labels, mask, model, weight_decay=0.1)
    assert with_reg == pytest.approx(expected + 0.05 * 16.0)
    with pytest.raises(DataError):
        nll_loss(log_probs, labels, np.array([], dtype=int))


def finite_difference_grads(
    P, X, labels, mask, model, seed, wd, dropout_rate=0.0, eps=1e-6
):
    """Central differences of nll_loss at ``dropout_rate``, each forward
    pass drawing its masks from a generator freshly seeded with ``seed``."""
    grads = []
    for W in model.weights:
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + eps
            lp, _ = gcn_forward(P, X, model, dropout_rate, np.random.default_rng(seed))
            hi = nll_loss(lp, labels, mask, model, wd)
            W[idx] = orig - eps
            lp, _ = gcn_forward(P, X, model, dropout_rate, np.random.default_rng(seed))
            lo = nll_loss(lp, labels, mask, model, wd)
            W[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


@pytest.mark.parametrize("wd", [0.0, 5e-4])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_gradients_match_finite_differences(wd, dropout):
    P, X, labels = tiny_problem(n=6, d=4, seed=1)
    model = init_model(4, TrainConfig(hidden_size=5, seed=3))
    mask = np.array([0, 2, 4])
    _, caches = gcn_forward(P, X, model, dropout, np.random.default_rng(7))
    analytic = gcn_backward(P, caches, labels, mask, model, wd)
    numeric = finite_difference_grads(P, X, labels, mask, model, 7, wd, dropout)
    assert max_relative_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("literal_self_loops", [False, True])
@pytest.mark.parametrize("repeated", [True, False], ids=["u<n", "u=n"])
def test_gradients_through_propagation_operator(repeated, literal_self_loops):
    """Criterion 5's check with the class operator the pipeline trains on,
    three layers so that P.T also reaches a hidden layer."""
    rng = np.random.default_rng(4)
    X = rng.random((9, 4))
    if repeated:
        X = X[[0, 1, 2, 0, 1, 2, 0, 0, 1]]
    P = propagation_matrix(X, literal_self_loops=literal_self_loops)
    assert (P.classes.shape[0] < 9) == repeated
    labels = rng.integers(0, 2, size=9)
    mask = np.array([0, 2, 3, 5, 7])
    model = init_model(4, TrainConfig(hidden_size=5, num_layers=3, seed=2))
    _, caches = gcn_forward(P, X, model, 0.5, np.random.default_rng(5))
    analytic = gcn_backward(P, caches, labels, mask, model, 5e-4)
    numeric = finite_difference_grads(P, X, labels, mask, model, 5, 5e-4, 0.5)
    assert max_relative_error(analytic, numeric) < 1e-4


def _relative_error(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _class_problem(repeated, n=11, k=4, seed=0):
    """X with repeated rows (u < n) or with every row distinct (u = n)."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, k))
    if repeated:
        X = X[np.concatenate([np.arange(4), rng.integers(0, 4, size=n - 4)])]
    labels = rng.integers(0, 2, size=n)
    return X, labels


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("literal_self_loops", [False, True])
@pytest.mark.parametrize("repeated", [True, False], ids=["u<n", "u=n"])
def test_forward_backward_match_per_target_oracle(
    repeated, literal_self_loops, num_layers, dropout
):
    """Log-probabilities and gradients equal the n-row propagation's to
    1e-12 relative, with dropout and without, for the class operator and
    for the dense P it stands for.  The oracle draws its masks from the
    same seed: an n x h draw per hidden layer, in layer order."""
    X, labels = _class_problem(repeated, seed=num_layers)
    operator = propagation_matrix(X, literal_self_loops=literal_self_loops)
    dense, _ = dense_propagation_matrix(X, "euclidean", literal_self_loops)
    u = row_classes(operator).counts.shape[0]
    assert u == (X.shape[0] if literal_self_loops or not repeated else 4)
    model = init_model(
        X.shape[1],
        TrainConfig(hidden_size=5, num_layers=num_layers, seed=1),
    )
    mask = np.array([0, 1, 3, 4, 6, 9])
    for P in (operator, dense):
        for rate in (dropout, 0.0):
            log_probs, caches = gcn_forward(P, X, model, rate, np.random.default_rng(3))
            rng = np.random.default_rng(3)
            masks = [rng.random((X.shape[0], 5)) >= rate for _ in model.weights[:-1]]
            expected, layers = per_target_gcn_forward(P, X, model, rate, masks)
            assert _relative_error(log_probs, expected) < 1e-12
            grads = gcn_backward(P, caches, labels, mask, model, 5e-4)
            oracle = per_target_gcn_backward(
                P, expected, layers, labels, mask, model, 5e-4, rate
            )
            for g, o in zip(grads, oracle):
                assert g.shape == o.shape
                assert _relative_error(g, o) < 1e-12


def test_forward_draws_the_per_target_mask_stream():
    """The masks are n x h draws from the training stream whatever the
    number of row classes, so the random stream does not depend on u: a
    forward pass leaves the generator where two n x h draws leave it."""
    X, _ = _class_problem(repeated=True)
    P = propagation_matrix(X)
    model = init_model(X.shape[1], TrainConfig(hidden_size=5, num_layers=3, seed=2))
    used = np.random.default_rng(8)
    gcn_forward(P, X, model, 0.5, used)
    rng = np.random.default_rng(8)
    for _ in range(2):
        rng.random((X.shape[0], 5))
    assert used.random() == rng.random()


def test_train_on_operator_matches_dense_propagation():
    """200 epochs on the class operator and on the dense P it stands for
    run the same number of epochs with histories within 1e-10."""
    rng = np.random.default_rng(6)
    rows = rng.random((5, 3))
    cls = rng.integers(0, 5, size=40)
    X = rows[cls]
    labels = (cls % 2 == 0).astype(int)
    labels[:3] = 1 - labels[:3]  # a little label noise inside the classes
    masks = make_masks(40)
    dense, _ = dense_propagation_matrix(X, "euclidean")
    config = TrainConfig(epochs=200, patience=200, seed=4)
    model_op, hist_op = train(propagation_matrix(X), X, labels, masks, config)
    model_dense, hist_dense = train(dense, X, labels, masks, config)
    assert len(hist_op) == len(hist_dense) == 200
    for a, b in zip(hist_op, hist_dense):
        assert a.train_loss == pytest.approx(b.train_loss, rel=1e-10, abs=0)
        assert a.val_loss == pytest.approx(b.val_loss, rel=1e-10, abs=0)
        assert a.val_f1 == b.val_f1
    for W1, W2 in zip(model_op.weights, model_dense.weights):
        assert _relative_error(W1, W2) < 1e-10


def test_predict_scores_are_constant_on_row_classes():
    """One score per distinct row, bitwise equal across the class, so
    auc_pr's exact tie grouping sees u distinct scores."""
    X, _ = _class_problem(repeated=True, n=30)
    P = propagation_matrix(X)
    model = init_model(X.shape[1], TrainConfig(hidden_size=6, num_layers=3, seed=5))
    scores, hard = predict(model, P, X)
    _, index = np.unique(X, axis=0, return_inverse=True)
    index = index.reshape(-1)
    for c in range(4):
        assert len(set(scores[index == c].tolist())) == 1
    assert len(np.unique(scores)) == 4
    assert np.array_equal(hard, (scores >= 0.5).astype(int))


# -- Adam ------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    """With zeroed state the bias-corrected first step is lr * sign(g)
    up to the epsilon regularizer."""
    W = np.array([[1.0, -1.0]])
    g = np.array([[0.3, -0.7]])
    state = AdamState.zeros_like([W])
    adam_step([W], [g], state, lr=0.01)
    assert state.t == 1
    expected = np.array([[1.0 - 0.01 * 0.3 / (0.3 + 1e-8), -1.0 + 0.01 * 0.7 / (0.7 + 1e-8)]])
    assert np.allclose(W, expected)


def test_adam_shape_mismatch():
    W = np.ones((2, 2))
    state = AdamState.zeros_like([W])
    with pytest.raises(DataError):
        adam_step([W], [np.ones((2, 3))], state, lr=0.1)
    with pytest.raises(DataError):
        adam_step([W], [], state, lr=0.1)


# -- training --------------------------------------------------------------


def test_train_is_deterministic_and_learns():
    P, X, labels = tiny_problem(n=12, d=3, seed=5)
    # Make the problem learnable: features carry the label.
    X[:, 0] = labels
    masks = make_masks(12)
    config = TrainConfig(epochs=80, hidden_size=8, dropout_rate=0.2, seed=1)
    model1, hist1 = train(P, X, labels, masks, config)
    model2, hist2 = train(P, X, labels, masks, config)
    for W1, W2 in zip(model1.weights, model2.weights):
        assert np.array_equal(W1, W2)
    assert [h.val_loss for h in hist1] == [h.val_loss for h in hist2]
    assert hist1[-1].train_loss < hist1[0].train_loss


def test_train_early_stopping_restores_best():
    P, X, labels = tiny_problem(n=12, d=3, seed=5)
    masks = make_masks(12)
    config = TrainConfig(epochs=300, patience=3, seed=0)
    model, history = train(P, X, labels, masks, config)
    assert len(history) <= 300
    best_epoch = int(np.argmin([h.val_loss for h in history]))
    # No more than patience+1 epochs ran past the best validation loss.
    assert len(history) - 1 - best_epoch <= config.patience + 1
    eval_lp, _ = gcn_forward(P, X, model)
    restored_val = nll_loss(eval_lp, labels, masks.validation, model, config.weight_decay)
    assert restored_val == pytest.approx(min(h.val_loss for h in history))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverging_inputs_raise():
    P, X, labels = tiny_problem(n=8, d=3)
    X = X * np.inf
    masks = make_masks(8)
    with pytest.raises(NumericalError):
        train(P, X, labels, masks, TrainConfig(epochs=5))


def test_predict_scores_and_hard_labels():
    P, X, labels = tiny_problem(n=8, d=3)
    model = init_model(3, TrainConfig())
    scores, hard = predict(model, P, X)
    assert scores.shape == (8,)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert np.array_equal(hard, (scores >= 0.5).astype(int))


# -- checkpointing ---------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = init_model(5, TrainConfig(hidden_size=4, num_layers=3, seed=9))
    path = tmp_path / "model.rdgw"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.dims == model.dims
    for W1, W2 in zip(model.weights, back.weights):
        assert np.array_equal(W1, W2)


def test_checkpoint_rejects_corruption(tmp_path):
    model = init_model(3, TrainConfig())
    path = tmp_path / "model.rdgw"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    (tmp_path / "bad.rdgw").write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "bad.rdgw")
    (tmp_path / "short.rdgw").write_bytes(raw[:-16])
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "short.rdgw")
    # Cut inside the 13-byte header, inside the dims vector, at the first
    # weight, or followed by trailing bytes: each names the file.
    for name, damaged in [
        ("cut10", raw[:10]),
        ("cut20", raw[:20]),
        ("cut30", raw[:30]),
        ("cut37", raw[:37]),
        ("trailing", raw + b"\x00" * 8),
    ]:
        path = tmp_path / f"{name}.rdgw"
        path.write_bytes(damaged)
        with pytest.raises(DataError, match=str(path)):
            load_checkpoint(path)
    # Files of the right length for their dims: a zero dimension, an output
    # dimension other than 2, and the version-1 layout (dropout rate and
    # seed after the version byte).
    for name, damaged, reason in [
        ("zero", struct.pack("<4sBQ3Q", b"RDGW", 2, 3, 3, 0, 2), "zero layer dimension"),
        (
            "out3",
            struct.pack("<4sBQ2Q", b"RDGW", 2, 2, 3, 3) + bytes(8 * 9),
            "output dimension 3",
        ),
        ("v1", struct.pack("<4sBdqQ", b"RDGW", 1, 0.5, 0, 3) + raw[13:], "version 1"),
    ]:
        path = tmp_path / f"{name}.rdgw"
        path.write_bytes(damaged)
        with pytest.raises(DataError, match=f"{reason}.*{path}|{path}.*{reason}"):
            load_checkpoint(path)
