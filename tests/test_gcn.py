"""GCN forward/backward, Adam, training loop and checkpointing."""

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
    train,
)


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


def test_model_validation():
    with pytest.raises(ConfigError):
        GCNModel([np.zeros((3, 3))], [3, 3])  # output dim must be 2
    with pytest.raises(ConfigError):
        GCNModel([np.zeros((3, 2))], [3, 2], dropout_rate=1.0)
    with pytest.raises(ConfigError):
        GCNModel([np.zeros((4, 2))], [3, 2])


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(num_layers=0)
    with pytest.raises(ConfigError, match="^hidden_size"):
        TrainConfig(hidden_size=0)
    for rate in (-0.1, 1.0):
        with pytest.raises(ConfigError, match="^dropout_rate"):
            TrainConfig(dropout_rate=rate)
    with pytest.raises(ConfigError, match="^early_stopping_patience"):
        TrainConfig(early_stopping_patience=-1)
    with pytest.raises(ConfigError, match="^weight_decay"):
        TrainConfig(weight_decay=-1e-4)


def test_split_masks_must_be_disjoint():
    with pytest.raises(DataError):
        SplitMasks(np.array([0, 1]), np.array([1, 2]), np.array([3]))


# -- forward ---------------------------------------------------------------


def test_forward_hand_computed_single_layer():
    """One conv layer, P = I: log-softmax of X @ W, computable by hand."""
    X = np.array([[1.0, 2.0]])
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = GCNModel([W], [2, 2], dropout_rate=0.0)
    log_probs, _ = gcn_forward(np.eye(1), X, model, mode="eval")
    z = np.array([1.0, 2.0])
    expected = z - np.log(np.exp(z).sum())
    assert np.allclose(log_probs[0], expected)
    assert np.allclose(np.exp(log_probs).sum(axis=1), 1.0)


def test_forward_rows_are_distributions():
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig(hidden_size=5, num_layers=3))
    log_probs, caches = gcn_forward(P, X, model, mode="eval")
    assert np.allclose(np.exp(log_probs).sum(axis=1), 1.0)
    assert len(caches.propagated) == 3
    assert caches.dropout_masks == [None, None, None]


def test_forward_eval_ignores_dropout_train_uses_it():
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig(dropout_rate=0.5))
    e1, _ = gcn_forward(P, X, model, mode="eval")
    e2, _ = gcn_forward(P, X, model, mode="eval")
    assert np.array_equal(e1, e2)
    rng = np.random.default_rng(0)
    t1, caches = gcn_forward(P, X, model, mode="train", rng=rng)
    assert caches.dropout_masks[0] is not None
    t2, _ = gcn_forward(P, X, model, mode="train", rng=rng)
    # Fresh masks each call from the same stream: outputs differ.
    assert not np.array_equal(t1, t2)


def test_forward_mask_reuse_reproduces_output():
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig(dropout_rate=0.4))
    rng = np.random.default_rng(2)
    out1, caches = gcn_forward(P, X, model, mode="train", rng=rng)
    out2, _ = gcn_forward(
        P, X, model, mode="train", dropout_masks=caches.dropout_masks
    )
    assert np.array_equal(out1, out2)


def test_forward_shape_errors():
    P, X, _ = tiny_problem()
    model = init_model(X.shape[1], TrainConfig())
    with pytest.raises(ConfigError):
        gcn_forward(P, X, model, mode="predict")
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
    model = GCNModel([np.full((2, 2), 2.0)], [2, 2], dropout_rate=0.0)
    with_reg = nll_loss(log_probs, labels, mask, model, weight_decay=0.1)
    assert with_reg == pytest.approx(expected + 0.05 * 16.0)
    with pytest.raises(DataError):
        nll_loss(log_probs, labels, np.array([], dtype=int))


def finite_difference_grads(P, X, labels, mask, model, caches, wd, eps=1e-6):
    grads = []
    for l, W in enumerate(model.weights):
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + eps
            lp, _ = gcn_forward(
                P, X, model, mode="train", dropout_masks=caches.dropout_masks
            )
            hi = nll_loss(lp, labels, mask, model, wd)
            W[idx] = orig - eps
            lp, _ = gcn_forward(
                P, X, model, mode="train", dropout_masks=caches.dropout_masks
            )
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
    model = init_model(4, TrainConfig(hidden_size=5, dropout_rate=dropout, seed=3))
    mask = np.array([0, 2, 4])
    rng = np.random.default_rng(7)
    _, caches = gcn_forward(P, X, model, mode="train", rng=rng)
    analytic = gcn_backward(P, caches, labels, mask, model, wd)
    numeric = finite_difference_grads(P, X, labels, mask, model, caches, wd)
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
    model = init_model(4, TrainConfig(hidden_size=5, num_layers=3, dropout_rate=0.5, seed=2))
    _, caches = gcn_forward(P, X, model, mode="train", rng=rng)
    analytic = gcn_backward(P, caches, labels, mask, model, 5e-4)
    numeric = finite_difference_grads(P, X, labels, mask, model, caches, 5e-4)
    assert max_relative_error(analytic, numeric) < 1e-4


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
    config = TrainConfig(epochs=300, early_stopping_patience=3, seed=0)
    model, history = train(P, X, labels, masks, config)
    assert len(history) <= 300
    best_epoch = int(np.argmin([h.val_loss for h in history]))
    # No more than patience+1 epochs ran past the best validation loss.
    assert len(history) - 1 - best_epoch <= config.early_stopping_patience + 1
    eval_lp, _ = gcn_forward(P, X, model, mode="eval")
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
    assert back.dropout_rate == model.dropout_rate
    assert back.rng_seed == model.rng_seed
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
