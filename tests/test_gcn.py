"""GCN forward/backward, Adam, training loop and prediction."""

import numpy as np
import pytest

from relgcn.errors import ConfigError, DataError, NumericalError
from relgcn.featurize import propagation_matrix
from relgcn.gcn import (
    AdamState,
    GCNModel,
    SplitMasks,
    TrainConfig,
    _first_layer_decay,
    adam_step,
    gcn_backward,
    gcn_forward,
    glorot_init,
    init_model,
    label_table,
    predict,
    train,
)

from oracles import (
    as_operator,
    dense_propagation_matrix,
    per_target_gcn_backward,
    per_target_gcn_forward,
    per_target_train,
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
    return as_operator(P), X, labels


def objective(log_probs, labels, mask, P, model=None, weight_decay=0.0):
    """``train``'s loss: the mean NLL of the masked targets from the class
    rows of the log-probabilities, plus first-layer decay."""
    return label_table(labels, mask, P).loss(log_probs) + _first_layer_decay(model, weight_decay)


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
    log_probs, _ = gcn_forward(as_operator(np.eye(1)), X, model)
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
        gcn_forward(as_operator(P.classes[:4, :4]), X, model)
    with pytest.raises(DataError):
        gcn_forward(P, X[:, :2], model)


# -- loss and gradients ----------------------------------------------------


def test_nll_loss_hand_value():
    log_probs = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
    labels = np.array([0, 1])
    mask = np.array([0, 1])
    P = as_operator(np.eye(2))
    expected = -(np.log(0.9) + np.log(0.8)) / 2.0
    assert objective(log_probs, labels, mask, P) == pytest.approx(expected)
    # First-layer weight decay adds wd/2 * ||W0||^2.
    model = GCNModel([np.full((2, 2), 2.0)])
    with_reg = objective(log_probs, labels, mask, P, model, weight_decay=0.1)
    assert with_reg == pytest.approx(expected + 0.05 * 16.0)
    with pytest.raises(DataError):
        objective(log_probs, labels, np.array([], dtype=int), P)


@pytest.mark.parametrize(
    "mask,problem",
    [
        (np.array([False, False, True, True]), "integer indices"),
        (np.array([2.0, 3.0]), "integer indices"),
        (np.array([[2, 3]]), "integer indices"),
        (np.array([2, 4]), r"in \[0, 4\)"),
        (np.array([-1, 2]), r"in \[0, 4\)"),
        (np.array([2, 2]), "repeats"),
    ],
    ids=["bool", "float", "2-D", "past-end", "negative", "repeated"],
)
def test_masks_must_be_index_masks(mask, problem):
    """A bool mask would read rows 0 and 1 as indices, a float mask would be
    truncated, and an out-of-range or repeated index would read another
    target or count one twice: each is a DataError in the loss, in the
    backward pass and in training."""
    log_probs = np.log(np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.4, 0.6]]))
    labels = np.array([0, 0, 1, 1])
    P = as_operator(np.full((4, 4), 0.25))
    with pytest.raises(DataError, match=problem):
        objective(log_probs, labels, mask, P)
    X = np.arange(8.0).reshape(4, 2)
    model = init_model(2, TrainConfig(hidden_size=3))
    _, caches = gcn_forward(P, X, model)
    with pytest.raises(DataError, match=problem):
        gcn_backward(P, caches, labels, mask, model)
    if mask.ndim == 1 and mask.dtype.kind == "i":
        masks = SplitMasks(mask, np.array([0]), np.array([1]))
        with pytest.raises(DataError, match=problem):
            train(P, X, labels, masks, TrainConfig(epochs=1))


def test_labels_must_be_binary():
    with pytest.raises(DataError, match="0 or 1"):
        label_table(np.array([0, 2, 1]), np.array([0, 1]), as_operator(np.eye(3)))


def test_label_table_counts_targets_per_class_and_label():
    """counts[c, y] counts the masked targets of class c with label y; a
    cell that counts nothing adds nothing to the loss even at log 0."""
    X, _ = _class_problem(repeated=True, n=11)
    P = propagation_matrix(X)
    labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1])
    mask = np.array([0, 2, 3, 5, 8, 10])
    table = label_table(labels, mask, P)
    expected = np.zeros((4, 2))
    for i in mask:
        expected[P.index[i], labels[i]] += 1
    assert np.array_equal(table.counts, expected)
    log_probs = np.log(np.full((4, 2), 0.5))
    log_probs[table.counts == 0] = -np.inf
    assert table.loss(log_probs) == pytest.approx(np.log(2.0))
    per_target = log_probs[P.index]
    per_target[per_target == -np.inf] = np.log(0.5)
    per_target_table = label_table(labels, mask, as_operator(np.eye(11)))
    assert table.loss(log_probs) == per_target_table.loss(per_target)


def finite_difference_grads(
    P, X, labels, mask, model, seed, wd, dropout_rate=0.0, eps=1e-6
):
    """Central differences of ``objective`` at ``dropout_rate``, each
    forward pass drawing its masks from a generator freshly seeded with
    ``seed``."""

    def loss():
        lp, _ = gcn_forward(P, X, model, dropout_rate, np.random.default_rng(seed))
        return objective(lp, labels, mask, P, model, wd)

    grads = []
    for W in model.weights:
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + eps
            hi = loss()
            W[idx] = orig - eps
            lo = loss()
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


@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("repeated", [True, False], ids=["u<n", "u=n"])
def test_gradients_through_propagation_operator(repeated, dropout):
    """Criterion 5's check with the class operator the pipeline trains on,
    three layers so that Pᵀ also reaches a hidden layer, without dropout
    and with the pooled masks of a 0.5 rate."""
    rng = np.random.default_rng(4)
    X = rng.random((9, 4))
    if repeated:
        X = X[[0, 1, 2, 0, 1, 2, 0, 0, 1]]
    P = propagation_matrix(X)
    assert (P.classes.shape[0] < 9) == repeated
    labels = rng.integers(0, 2, size=9)
    mask = np.array([0, 2, 3, 5, 7])
    model = init_model(4, TrainConfig(hidden_size=5, num_layers=3, seed=2))
    rate = 0.5 if dropout else 0.0
    _, caches = gcn_forward(P, X, model, rate, np.random.default_rng(5))
    analytic = gcn_backward(P, caches, labels, mask, model, 5e-4)
    numeric = finite_difference_grads(P, X, labels, mask, model, 5, 5e-4, rate)
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
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("repeated", [True, False], ids=["u<n", "u=n"])
def test_forward_backward_match_per_target_oracle(repeated, dense, num_layers, dropout):
    """Log-probabilities and gradients equal the n-row propagation's to
    1e-12 relative, with dropout and without, for the class operator or
    for the dense P it stands for.  The oracle draws its masks from the
    same seed: an n x h draw per hidden layer, in layer order."""
    X, labels = _class_problem(repeated, seed=num_layers)
    operator = propagation_matrix(X)
    assert operator.classes.shape[0] == (4 if repeated else X.shape[0])
    P = as_operator(dense_propagation_matrix(X, "euclidean")[0]) if dense else operator
    model = init_model(
        X.shape[1],
        TrainConfig(hidden_size=5, num_layers=num_layers, seed=1),
    )
    mask = np.array([0, 1, 3, 4, 6, 9])
    for rate in (dropout, 0.0):
        log_probs, caches = gcn_forward(P, X, model, rate, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        masks = [rng.random((X.shape[0], 5)) >= rate for _ in model.weights[:-1]]
        expected, layers = per_target_gcn_forward(P, X, model, rate, masks)
        assert _relative_error(log_probs[P.index], expected) < 1e-12
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
    model_dense, hist_dense = train(as_operator(dense), X, labels, masks, config)
    assert len(hist_op) == len(hist_dense) == 200
    for a, b in zip(hist_op, hist_dense):
        assert a.train_loss == pytest.approx(b.train_loss, rel=1e-10, abs=0)
        assert a.val_loss == pytest.approx(b.val_loss, rel=1e-10, abs=0)
        assert a.val_f1 == b.val_f1
    for W1, W2 in zip(model_op.weights, model_dense.weights):
        assert _relative_error(W1, W2) < 1e-10


def _train_problem(seed, n=40):
    """Five distinct feature rows over n targets with noisy labels, split
    so that one row class has no train target and another no validation
    target."""
    rng = np.random.default_rng(seed)
    rows = rng.random((5, 3))
    cls = np.concatenate([np.arange(5), rng.integers(0, 5, size=n - 5)])
    X = rows[cls]
    labels = (cls % 2 == 0).astype(int)
    flip = rng.random(n) < 0.2  # label noise inside the classes
    labels[flip] = 1 - labels[flip]
    no_train, no_validation = np.flatnonzero(cls == 3), np.flatnonzero(cls == 4)
    rest = rng.permutation(np.setdiff1d(np.arange(n), np.concatenate([no_train, no_validation])))
    k = rest.size // 3
    masks = SplitMasks(
        np.concatenate([rest[:k], no_validation[::2]]),
        np.concatenate([rest[k : 2 * k], no_train[::2]]),
        np.concatenate([rest[2 * k :], no_train[1::2], no_validation[1::2]]),
    )
    return X, labels, masks


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("num_layers", [2, 3])
@pytest.mark.parametrize("graph", ["operator", "dense"])
def test_train_matches_per_target_oracle(graph, num_layers, dropout):
    """`train` on label tables over the row classes runs the epochs of the
    n-row loop, with losses and weights within 1e-10 relative and the same
    validation F1, on the class operator and the dense P it stands for.
    Early stopping ends these runs before the 100th epoch, after the
    validation F1 has taken several values."""
    X, labels, masks = _train_problem(seed=num_layers + int(10 * dropout))
    P = {
        "operator": lambda: propagation_matrix(X),
        "dense": lambda: as_operator(dense_propagation_matrix(X, "euclidean")[0]),
    }[graph]()
    config = TrainConfig(
        epochs=100, patience=40, learning_rate=0.05, hidden_size=6,
        num_layers=num_layers, dropout_rate=dropout, seed=3,
    )
    model, history = train(P, X, labels, masks, config)
    oracle_model, oracle_history = per_target_train(P, X, labels, masks, config)
    assert len(history) == len(oracle_history) < config.epochs
    assert len({rec.val_f1 for rec in history}) > 1
    for rec, (train_loss, val_loss, val_f1) in zip(history, oracle_history):
        assert rec.train_loss == pytest.approx(train_loss, rel=1e-10, abs=0)
        assert rec.val_loss == pytest.approx(val_loss, rel=1e-10, abs=0)
        assert rec.val_f1 == val_f1
    for W, O in zip(model.weights, oracle_model.weights):
        assert _relative_error(W, O) < 1e-10


def test_forward_returns_class_rows_and_predict_gathers_them():
    """On the operator, gcn_forward returns one row per row class, and
    predict the n targets' scores, those of the per-target propagation
    to 1e-12 relative."""
    X, _ = _class_problem(repeated=True, n=30)
    P = propagation_matrix(X)
    model = init_model(X.shape[1], TrainConfig(hidden_size=6, num_layers=3, seed=7))
    log_probs, _ = gcn_forward(P, X, model)
    assert log_probs.shape == (P.classes.shape[0], 2) == (4, 2)
    scores, _ = predict(model, P, X)
    expected, _ = per_target_gcn_forward(P, X, model)
    assert scores.shape == (30,)
    assert _relative_error(scores, np.exp(expected[:, 1])) < 1e-12


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
    restored_val = objective(eval_lp, labels, masks.validation, P, model, config.weight_decay)
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
