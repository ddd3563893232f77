"""Graph convolutional network with explicit forward/backward passes.

Trained transductively, full batch, for binary link prediction: relu
between graph convolutions, inverted dropout between them while training
(at ``TrainConfig.dropout_rate``), log-softmax over two output logits,
Adam with first-layer weight decay.  Everything is seeded and bitwise
reproducible.

Every layer runs on the row classes of ``featurize.PropagationMatrix``,
P = G C Gᵀ over the u distinct feature rows: P @ H depends on H only
through the class sums Gᵀ H, so every propagated matrix, pre-activation
and logit has one row per class.  A dropout mask is per target, but it
enters the next layer only through its class column sums Gᵀ M; the eval
pass uses the class counts in their place.  ``train`` pools Gᵀ X and
builds a u x 2 label table of the train and of the validation targets
once per call (``label_table``); each epoch's losses, output gradient
and validation F1 are read off the class rows of the log-probabilities
and those tables.  Per epoch that is O(n·h) to draw the masks and
O(n·u·h) to pool them (one BLAS product with the u x n indicator), plus
O(u·h² + u²·h) for the layers, losses, gradient and F1: the mask draw is
the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .featurize import PropagationMatrix


@dataclass
class GCNModel:
    """The weights of a GCN, one matrix per graph-convolutional layer:
    layer l maps ``dims[l]`` features to ``dims[l + 1]``."""

    weights: list[np.ndarray]

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]


@dataclass
class TrainConfig:
    """The ``train.*`` settings, one field per key; an out-of-range field
    is a ConfigError whose ``key`` is the field."""

    epochs: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    dropout_rate: float = 0.5
    seed: int = 0
    patience: int = 10  # epochs without a lower validation loss before stopping
    hidden_size: int = 16
    num_layers: int = 2  # graph-convolutional layers in total

    def __post_init__(self):
        for name in ("epochs", "hidden_size", "num_layers"):
            if getattr(self, name) < 1:
                raise ConfigError("an int >= 1", name, getattr(self, name))
        for name in ("seed", "patience"):
            if getattr(self, name) < 0:
                raise ConfigError("an int >= 0", name, getattr(self, name))
        if self.learning_rate <= 0:
            raise ConfigError("a float > 0", "learning_rate", self.learning_rate)
        if self.weight_decay < 0:
            raise ConfigError("a float >= 0", "weight_decay", self.weight_decay)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("a float in [0, 1)", "dropout_rate", self.dropout_rate)


@dataclass
class SplitMasks:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        sets = [set(self.train.tolist()), set(self.validation.tolist()), set(self.test.tolist())]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise DataError("split masks must be disjoint")


def glorot_init(fan_in: int, fan_out: int, seed: int) -> np.ndarray:
    """Uniform(-b, b) with b = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ConfigError("fan dimensions must be positive")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(input_dim: int, config: TrainConfig) -> GCNModel:
    dims = [input_dim] + [config.hidden_size] * (config.num_layers - 1) + [2]
    return GCNModel(
        [glorot_init(dims[l], dims[l + 1], config.seed + l) for l in range(len(dims) - 1)]
    )


@dataclass
class LabelTable:
    """How many targets of an index mask each row class holds, per label:
    ``counts[c, y]``.  The mean negative log-likelihood over the mask, its
    gradient with respect to the logits and the binary F1 of the mask all
    follow from the class rows of the log-probabilities and these u x 2
    cells; a cell that counts no target contributes nothing."""

    counts: np.ndarray  # u x 2, float
    total: float = field(init=False)  # targets in the mask
    sizes: np.ndarray = field(init=False)  # targets of the mask per class, a column
    positives: float = field(init=False)  # targets of the mask labelled 1
    cells: tuple[np.ndarray, np.ndarray] = field(init=False)  # the nonzero cells
    weights: np.ndarray = field(init=False)  # their counts

    def __post_init__(self):
        self.total = float(self.counts.sum())
        self.sizes = self.counts.sum(axis=1, keepdims=True)
        self.positives = float(self.counts[:, 1].sum())
        self.cells = np.nonzero(self.counts)
        self.weights = self.counts[self.cells]

    def loss(self, log_probs: np.ndarray) -> float:
        """Mean negative log-likelihood over the mask, from the class rows
        of the log-probabilities."""
        return -float(self.weights @ log_probs[self.cells]) / self.total

    def output_gradient(self, log_probs: np.ndarray) -> np.ndarray:
        """Gᵀ dZ of ``loss``: per class, probs · n_c − counts, over the
        targets in the mask."""
        return (np.exp(log_probs) * self.sizes - self.counts) / self.total

    def f1(self, log_probs: np.ndarray) -> float:
        """Binary F1 of the mask, each class predicted positive when its
        positive-class probability is at least 0.5."""
        positive = np.exp(log_probs[:, 1]) >= 0.5
        fp, tp = positive @ self.counts
        fn = self.positives - tp
        if 2 * tp + fp + fn == 0:
            return 0.0
        return float(2 * tp / (2 * tp + fp + fn))


def label_table(labels: np.ndarray, mask: np.ndarray, P: PropagationMatrix) -> LabelTable:
    """The label table of ``mask`` over the row classes of ``P``.
    ``mask`` must be a nonempty 1-D array of distinct integer indices into
    ``labels`` and the labels it selects 0 or 1; anything else (a bool
    mask, which would index rows 0 and 1, included) is a DataError."""
    mask = np.asarray(mask)
    n = len(labels)
    if mask.ndim != 1 or mask.dtype.kind not in "iu":
        raise DataError(
            f"a split mask must be a 1-D array of integer indices, got a "
            f"{mask.ndim}-D {mask.dtype} array"
        )
    if mask.size == 0:
        raise DataError("loss mask must be nonempty")
    if mask.min() < 0 or mask.max() >= n:
        raise DataError(
            f"split mask indices must lie in [0, {n}), got {mask.min()}..{mask.max()}"
        )
    if np.bincount(mask).max() > 1:
        raise DataError("split mask repeats an index")
    picked = np.asarray(labels)[mask]
    if np.any((picked != 0) & (picked != 1)):
        raise DataError("labels must be 0 or 1")
    u = P.counts.shape[0]
    counts = np.bincount(2 * P.index[mask] + picked.astype(int), minlength=2 * u)
    return LabelTable(counts.reshape(u, 2).astype(float))


@dataclass
class ForwardCaches:
    """Per layer and on the row classes: the propagated input to W, the
    pre-activation and, for hidden layers, what multiplies the relu before
    it is propagated (Gᵀ M / (1 - rate) in training, the class counts
    otherwise).  Also the class rows of the log-probabilities."""

    propagated: list[np.ndarray]
    pre_activations: list[np.ndarray]
    kept: list[np.ndarray]
    log_probs: np.ndarray = field(default=None)  # one row per class, filled by gcn_forward


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    m = Z.max(axis=1, keepdims=True)
    shifted = Z - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def gcn_forward(
    P: PropagationMatrix,
    X: np.ndarray,
    model: GCNModel,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    pooled: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCaches]:
    """Layer-wise propagation: hidden layers relu(P H W), output row-wise
    log-softmax of P H W_last, computed and returned on the row classes of
    P (``P.index`` gathers the n target rows).  With ``dropout_rate > 0``
    (training) an n x h inverted-dropout mask is drawn from ``rng`` after
    each hidden activation, so a generator seeded alike draws the same
    masks.  ``pooled`` is Gᵀ X, for a caller that makes many passes to
    pool once."""
    if P.shape[0] != X.shape[0]:
        raise DataError("P must be n x n and X n x input_dim")
    if X.shape[1] != model.dims[0]:
        raise DataError(
            f"X has {X.shape[1]} features, model expects {model.dims[0]}"
        )
    caches = ForwardCaches([], [], [])
    if pooled is None:
        pooled = P.members @ X  # Gᵀ H of each layer's input H
    for W in model.weights[:-1]:
        S = P.classes @ pooled
        A = S @ W
        kept = P.counts
        if dropout_rate > 0.0:
            # The mask as float 0/1 in the draw's own array, so the pool
            # casts no n x h bool array.
            mask = rng.random((X.shape[0], A.shape[1]))
            np.greater_equal(mask, dropout_rate, out=mask)
            kept = (P.members @ mask) / (1.0 - dropout_rate)
        pooled = np.maximum(A, 0.0) * kept
        caches.propagated.append(S)
        caches.pre_activations.append(A)
        caches.kept.append(kept)
    S = P.classes @ pooled
    Z = S @ model.weights[-1]
    caches.propagated.append(S)
    caches.pre_activations.append(Z)
    caches.log_probs = _log_softmax(Z)
    return caches.log_probs, caches


def _first_layer_decay(model: GCNModel, weight_decay: float) -> float:
    if weight_decay == 0.0:
        return 0.0
    return 0.5 * weight_decay * float(np.sum(model.weights[0] ** 2))


def gcn_backward(
    P: PropagationMatrix,
    caches: ForwardCaches,
    labels: np.ndarray,
    mask: np.ndarray,
    model: GCNModel,
    weight_decay: float = 0.0,
    table: LabelTable | None = None,
) -> list[np.ndarray]:
    """Exact gradients of the label-table loss of ``mask`` plus the
    first-layer decay (``train``'s objective) w.r.t. every weight matrix,
    on the row classes of P and the pooled dropout masks the caches of P's
    forward pass recorded.  The output gradient comes pooled from the label table
    of ``mask`` (``table``, for a caller that makes many passes to build
    once); from there each dH holds the gradient every target of a class
    shares, and each dA the class sum of the per-target gradients."""
    if table is None:
        table = label_table(labels, mask, P)
    operator_T = P.classes.T
    n_layers = len(model.weights)
    dZ = table.output_gradient(caches.log_probs)

    grads: list[np.ndarray] = [None] * n_layers
    grads[-1] = caches.propagated[-1].T @ dZ
    dH = (operator_T @ dZ) @ model.weights[-1].T
    for l in range(n_layers - 2, -1, -1):
        dA = dH * caches.kept[l] * (caches.pre_activations[l] > 0.0)
        grads[l] = caches.propagated[l].T @ dA
        if l > 0:
            dH = (operator_T @ dA) @ model.weights[l].T
    if weight_decay > 0.0:
        grads[0] = grads[0] + weight_decay * model.weights[0]
    return grads


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, weights: list[np.ndarray]) -> "AdamState":
        return cls(
            [np.zeros_like(W) for W in weights],
            [np.zeros_like(W) for W in weights],
        )


def adam_step(
    weights: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place."""
    if len(weights) != len(grads):
        raise DataError("weights/grads length mismatch")
    state.t += 1
    for W, g, m, v in zip(weights, grads, state.m, state.v):
        if W.shape != g.shape:
            raise DataError("weight/gradient shape mismatch")
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1**state.t)
        v_hat = v / (1 - beta2**state.t)
        W -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_f1: float


def train(
    P: PropagationMatrix,
    X: np.ndarray,
    labels: np.ndarray,
    masks: SplitMasks,
    config: TrainConfig,
) -> tuple[GCNModel, list[EpochRecord]]:
    """Full-batch transductive training with early stopping on validation
    loss; the best-validation weights are restored before returning.  Gᵀ X
    and the label tables of the train and the validation mask are built
    once, before the first epoch; a mask that is not an index mask into
    ``labels`` is a DataError there."""
    model = init_model(X.shape[1], config)
    state = AdamState.zeros_like(model.weights)
    rng = np.random.default_rng(config.seed)
    pooled = P.members @ X
    fit = label_table(labels, masks.train, P)
    held_out = label_table(labels, masks.validation, P)
    history: list[EpochRecord] = []
    best_val = np.inf
    best_weights = [W.copy() for W in model.weights]
    stale = 0
    # The decay of the current weights: epoch e's validation decay is epoch
    # e + 1's training decay.
    decay = _first_layer_decay(model, config.weight_decay)
    for epoch in range(config.epochs):
        log_probs, caches = gcn_forward(
            P, X, model, config.dropout_rate, rng, pooled=pooled
        )
        train_loss = fit.loss(log_probs) + decay
        if not np.isfinite(train_loss):
            raise NumericalError(
                f"training diverged at epoch {epoch}: loss={train_loss}"
            )
        grads = gcn_backward(
            P, caches, labels, masks.train, model, config.weight_decay, table=fit
        )
        adam_step(model.weights, grads, state, config.learning_rate)

        decay = _first_layer_decay(model, config.weight_decay)
        eval_lp, _ = gcn_forward(P, X, model, pooled=pooled)
        val_loss = held_out.loss(eval_lp) + decay
        val_f1 = held_out.f1(eval_lp)
        history.append(EpochRecord(epoch, train_loss, val_loss, val_f1))

        if val_loss < best_val:
            best_val = val_loss
            best_weights = [W.copy() for W in model.weights]
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    model.weights = best_weights
    return model, history


def predict(
    model: GCNModel, P: PropagationMatrix, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positive-class probabilities and argmax hard labels of the n
    targets, without dropout; equal within a row class."""
    log_probs, _ = gcn_forward(P, X, model)
    log_probs = log_probs[P.index]
    return np.exp(log_probs[:, 1]), np.argmax(log_probs, axis=1)
