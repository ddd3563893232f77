"""Graph convolutional network with explicit forward/backward passes.

Trained transductively, full batch, for binary link prediction: relu
between graph convolutions, log-softmax over two output logits, Adam with
first-layer weight decay.  The initial weights are seeded, and training is
bitwise reproducible.

Every layer runs on the row classes of ``featurize.PropagationMatrix``,
P = G C Gᵀ over the u distinct feature rows: P @ H depends on H only
through the class sums Gᵀ H, so every propagated matrix, pre-activation
and logit has one row per class, and a hidden layer's class sums are its
class rows times the class counts.  ``train`` computes the first
layer's propagated input C Gᵀ X and builds a u x 2 label table of the
train and of the validation targets once per call (``label_table``);
each epoch's losses, output gradient and validation F1 are read off the
class rows of the log-probabilities, their exponentials and those
tables.  An epoch is O(u·h² + u²·h), whatever the number of
targets n.
"""

from __future__ import annotations

import math
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
    seed: int = 0  # of the initial weights
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

    def output_gradient(self, probs: np.ndarray) -> np.ndarray:
        """Gᵀ dZ of ``loss``: per class, probs · n_c − counts, over the
        targets in the mask; ``probs`` are the class rows of the
        probabilities."""
        return (probs * self.sizes - self.counts) / self.total

    def f1(self, probs: np.ndarray) -> float:
        """Binary F1 of the mask, each class predicted positive when its
        positive-class probability, in the class rows ``probs``, is at
        least 0.5."""
        positive = probs[:, 1] >= 0.5
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
    """Per layer and on the row classes: the propagated input to W and the
    pre-activation.  Also the class rows of the log-probabilities and of
    their exponentials, the probabilities."""

    propagated: list[np.ndarray]
    pre_activations: list[np.ndarray]
    log_probs: np.ndarray = field(default=None)  # one row per class, filled by gcn_forward
    probs: np.ndarray = field(default=None)  # np.exp(log_probs), filled by gcn_forward


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    m = Z.max(axis=1, keepdims=True)
    shifted = Z - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def gcn_forward(
    P: PropagationMatrix,
    X: np.ndarray,
    model: GCNModel,
    propagated: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCaches]:
    """Layer-wise propagation: hidden layers relu(P H W), output row-wise
    log-softmax of P H W_last, computed and returned on the row classes of
    P (``P.index`` gathers the n target rows).  ``propagated`` is the
    first layer's input C Gᵀ X, which depends on X alone, for a caller
    that makes many passes to compute it once."""
    if P.shape[0] != X.shape[0]:
        raise DataError("P must be n x n and X n x input_dim")
    if X.shape[1] != model.weights[0].shape[0]:
        raise DataError(
            f"X has {X.shape[1]} features, model expects {model.weights[0].shape[0]}"
        )
    caches = ForwardCaches([], [])
    S = P.classes @ P.pool(X) if propagated is None else propagated
    for W in model.weights[:-1]:
        A = S @ W
        caches.propagated.append(S)
        caches.pre_activations.append(A)
        # The next layer's input is relu(A) on every target of a class, so
        # its class sums are relu(A) times the class counts.
        S = P.classes @ (np.maximum(A, 0.0) * P.counts)
    Z = S @ model.weights[-1]
    caches.propagated.append(S)
    caches.pre_activations.append(Z)
    caches.log_probs = _log_softmax(Z)
    caches.probs = np.exp(caches.log_probs)
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
    on the row classes of P and the caches of P's forward pass.  The output
    gradient comes pooled from the label table of ``mask`` (``table``, for
    a caller that makes many passes to build once); from there each dH
    holds the gradient every target of a class shares, and each dA the
    class sum of the per-target gradients."""
    if table is None:
        table = label_table(labels, mask, P)
    operator_T = P.classes.T
    n_layers = len(model.weights)
    dZ = table.output_gradient(caches.probs)

    grads: list[np.ndarray] = [None] * n_layers
    grads[-1] = caches.propagated[-1].T @ dZ
    dH = (operator_T @ dZ) @ model.weights[-1].T
    for l in range(n_layers - 2, -1, -1):
        dA = dH * P.counts * (caches.pre_activations[l] > 0.0)
        grads[l] = caches.propagated[l].T @ dA
        if l > 0:
            dH = (operator_T @ dA) @ model.weights[l].T
    if weight_decay > 0.0:
        grads[0] = grads[0] + weight_decay * model.weights[0]
    return grads


class AdamState:
    """Adam's step count ``t`` and moments for a list of weight matrices,
    with scratch space for `adam_step`.

    The first and second moments of every weight lie in two flat vectors,
    matrix after matrix, and ``m`` and ``v`` hold each matrix's view of
    them, so a step runs each operation once over all the weights, not once
    per matrix.  Three more flat vectors hold the gathered gradients and the
    step's numerator and denominator.
    """

    def __init__(self, shapes: list[tuple[int, ...]]):
        self.t = 0
        self.shapes = [tuple(shape) for shape in shapes]
        sizes = [math.prod(shape) for shape in self.shapes]
        self.moments, self.scratch = np.zeros((2, sum(sizes))), np.empty((3, sum(sizes)))

        def views(flat: np.ndarray) -> list[np.ndarray]:
            parts = np.split(flat, np.cumsum(sizes)[:-1])
            return [part.reshape(shape) for part, shape in zip(parts, self.shapes)]

        self.m, self.v = views(self.moments[0]), views(self.moments[1])
        self.steps = views(self.scratch[1])

    @classmethod
    def zeros_like(cls, weights: list[np.ndarray]) -> "AdamState":
        return cls([W.shape for W in weights])


def adam_step(
    weights: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place.

    ``W -= lr * m_hat / (sqrt(v_hat) + eps)`` is evaluated in the state's
    flat vectors, each operation in the formula's order, so the weights and
    moments are bitwise those of the formula written out per matrix with
    temporaries; the bias corrections are computed once per step.
    """
    if len(weights) != len(grads):
        raise DataError("weights/grads length mismatch")
    if len(weights) != len(state.shapes):
        raise DataError("weight/gradient shape mismatch")
    for W, grad, shape in zip(weights, grads, state.shapes):
        if W.shape != shape or grad.shape != shape:
            raise DataError("weight/gradient shape mismatch")
    state.t += 1
    correction1 = 1 - beta1**state.t
    correction2 = 1 - beta2**state.t
    m, v = state.moments
    g, step, denom = state.scratch
    np.concatenate([grad.ravel() for grad in grads], out=g)
    m *= beta1
    np.multiply(g, 1 - beta1, step)
    m += step
    v *= beta2
    np.multiply(g, g, denom)
    denom *= 1 - beta2
    v += denom
    np.divide(m, correction1, step)
    step *= lr
    np.divide(v, correction2, denom)
    np.sqrt(denom, denom)
    denom += eps
    step /= denom
    for W, part in zip(weights, state.steps):
        W -= part


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
    """Full-batch transductive training, stopped once ``patience + 1``
    epochs in a row fail to lower the validation loss; the model returned
    holds the last epoch's weights.  The first layer's input C Gᵀ X and the
    label tables of the train and the validation mask are built once,
    before the first epoch; a mask that is not an index mask into
    ``labels`` is a DataError there.  Each epoch makes one forward pass, on
    the weights its Adam step left; its log-probabilities give the epoch's
    validation loss and the next epoch's training loss and gradients."""
    model = init_model(X.shape[1], config)
    state = AdamState.zeros_like(model.weights)
    propagated = P.classes @ P.pool(X)
    fit = label_table(labels, masks.train, P)
    held_out = label_table(labels, masks.validation, P)
    history: list[EpochRecord] = []
    best_val = np.inf
    stale = 0
    # The forward pass and the decay of the current weights: epoch e's
    # validation pass is epoch e + 1's training pass.
    log_probs, caches = gcn_forward(P, X, model, propagated=propagated)
    decay = _first_layer_decay(model, config.weight_decay)
    for epoch in range(config.epochs):
        train_loss = fit.loss(log_probs) + decay
        if not math.isfinite(train_loss):
            raise NumericalError(
                f"training diverged at epoch {epoch}: loss={train_loss}"
            )
        grads = gcn_backward(
            P, caches, labels, masks.train, model, config.weight_decay, table=fit
        )
        adam_step(model.weights, grads, state, config.learning_rate)

        log_probs, caches = gcn_forward(P, X, model, propagated=propagated)
        decay = _first_layer_decay(model, config.weight_decay)
        val_loss = held_out.loss(log_probs) + decay
        val_f1 = held_out.f1(caches.probs)
        history.append(EpochRecord(epoch, train_loss, val_loss, val_f1))

        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return model, history


def predict(
    model: GCNModel, P: PropagationMatrix, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positive-class probabilities and argmax hard labels of the n
    targets; equal within a row class."""
    log_probs, _ = gcn_forward(P, X, model)
    log_probs = log_probs[P.index]
    return np.exp(log_probs[:, 1]), np.argmax(log_probs, axis=1)
