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

``train`` allocates what every epoch reuses once per call: the weights,
Adam's two moments and the gradients each lie in one flat vector, with a
view per weight matrix (``flat_views``).  ``GCNModel`` owns the weights'
vector, and ``AdamState`` takes the model and allocates the rest.  Each
epoch ``gcn_backward`` writes the gradients into their views and
``adam_step`` updates every weight with one pass of flat operations.
What an epoch still allocates is u-row: the forward pass's propagated
inputs, pre-activations and probabilities, the backward pass's dZ, dH
and dA, and the first layer's decay terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .featurize import PropagationMatrix


@dataclass
class GCNModel:
    """The weights of a GCN, one matrix per graph-convolutional layer:
    layer l maps ``dims[l]`` features to ``dims[l + 1]``.  The model
    allocates them zeroed, one after another in one flat vector, ``flat``,
    whose per-layer views are ``weights`` (`flat_views`)."""

    dims: list[int]
    flat: np.ndarray = field(init=False)
    weights: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.flat, self.weights = flat_views(list(zip(self.dims[:-1], self.dims[1:])))


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


def flat_views(shapes: list[tuple[int, ...]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One zeroed float64 vector with room for an array of each shape, the
    arrays lying one after another, and each array's C-order view of it."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.zeros(sum(sizes))
    ends = itertools.accumulate(sizes)
    views = [flat[end - size : end].reshape(shape) for size, end, shape in zip(sizes, ends, shapes)]
    return flat, views


def init_model(input_dim: int, config: TrainConfig) -> GCNModel:
    """A `GCNModel` whose layer l holds the glorot matrix seeded
    ``config.seed + l``."""
    model = GCNModel([input_dim] + [config.hidden_size] * (config.num_layers - 1) + [2])
    for l, W in enumerate(model.weights):
        W[...] = glorot_init(*W.shape, config.seed + l)
    return model


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
    cells: np.ndarray = field(init=False)  # the nonzero cells, as flat indices into a u x 2 array
    weights: np.ndarray = field(init=False)  # their counts

    def __post_init__(self):
        self.total = float(self.counts.sum())
        self.sizes = self.counts.sum(axis=1, keepdims=True)
        self.positives = float(self.counts[:, 1].sum())
        self.cells = np.flatnonzero(self.counts)
        self.weights = self.counts.take(self.cells)

    def loss(self, log_probs: np.ndarray) -> float:
        """Mean negative log-likelihood over the mask, from the class rows
        of the log-probabilities."""
        return -float(self.weights @ log_probs.take(self.cells)) / self.total

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
        # Sums of whole counts, exact in any order; as Python floats.
        fp, tp = positive.dot(self.counts).tolist()
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
    pre-activation.  Also the class rows of the probabilities, the
    exponentials of the log-probabilities `gcn_forward` returns."""

    propagated: list[np.ndarray]
    pre_activations: list[np.ndarray]
    probs: np.ndarray  # one row per class


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
    that makes many passes to compute it once: a first pass's
    ``caches.propagated[0]``.  X is checked against P and the model in the
    pass that computes it."""
    weights = model.weights
    if propagated is None:
        if P.shape[0] != X.shape[0]:
            raise DataError("P must be n x n and X n x input_dim")
        if X.shape[1] != weights[0].shape[0]:
            raise DataError(
                f"X has {X.shape[1]} features, model expects {weights[0].shape[0]}"
            )
        propagated = P.classes @ P.pool(X)
    classes, counts = P.classes, P.counts
    S = propagated
    inputs, pre_activations = [], []
    for W in weights[:-1]:
        A = S @ W
        inputs.append(S)
        pre_activations.append(A)
        # The next layer's input is relu(A) on every target of a class, so
        # its class sums are relu(A) times the class counts.
        S = classes @ (np.maximum(A, 0.0) * counts)
    Z = S @ weights[-1]
    inputs.append(S)
    pre_activations.append(Z)
    log_probs = _log_softmax(Z)
    return log_probs, ForwardCaches(inputs, pre_activations, np.exp(log_probs))


def _first_layer_decay(model: GCNModel, weight_decay: float) -> float:
    if weight_decay == 0.0:
        return 0.0
    # np.sum's own reduction, np.add.reduce over every axis, without its
    # wrapper; np.square is what ``** 2`` computes.
    return 0.5 * weight_decay * float(np.add.reduce(np.square(model.weights[0]), None))


def gcn_backward(
    P: PropagationMatrix,
    caches: ForwardCaches,
    labels: np.ndarray,
    mask: np.ndarray,
    model: GCNModel,
    weight_decay: float = 0.0,
    table: LabelTable | None = None,
    *,
    out: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Exact gradients of the label-table loss of ``mask`` plus the
    first-layer decay (``train``'s objective) w.r.t. every weight matrix,
    on the row classes of P and the caches of P's forward pass.  The output
    gradient comes pooled from the label table of ``mask`` (``table``, for
    a caller that makes many passes to build once); from there each dH
    holds the gradient every target of a class shares, and each dA the
    class sum of the per-target gradients.

    Each matrix's gradient is written into ``out``, one C-contiguous
    float64 array per weight matrix and of its shape (``AdamState.grads``,
    for a caller that steps many times), or into fresh arrays when ``out``
    is None; the decay is added in place.  Returns those arrays."""
    if table is None:
        table = label_table(labels, mask, P)
    weights = model.weights
    if out is None:
        out = [np.empty(W.shape) for W in weights]
    operator_T, counts = P.classes.T, P.counts
    inputs, pre_activations = caches.propagated, caches.pre_activations
    dZ = table.output_gradient(caches.probs)

    np.matmul(inputs[-1].T, dZ, out[-1])
    dH = (operator_T @ dZ) @ weights[-1].T
    for l in range(len(weights) - 2, -1, -1):
        dA = dH * counts * (pre_activations[l] > 0.0)
        np.matmul(inputs[l].T, dA, out[l])
        if l > 0:
            dH = (operator_T @ dA) @ weights[l].T
    if weight_decay > 0.0:
        out[0] += weight_decay * weights[0]
    return out


class AdamState:
    """Adam's step count ``t`` and moments for the weights of ``model``,
    with their gradients and scratch space for `adam_step`.

    The state keeps the model's flat weight vector, ``flat``, and its
    per-matrix views, ``weights``, and allocates five more vectors of its
    length, once: the first and second moments, ``first`` and ``second``,
    whose per-matrix views are ``m`` and ``v``; the gradients,
    ``gradient``, whose per-matrix views ``grads`` `gcn_backward` writes
    into; and the step's numerator and denominator.  A step then runs each
    operation once over all the weights, not once per matrix.
    """

    def __init__(self, model: GCNModel):
        self.t = 0
        self.flat, self.weights = model.flat, model.weights
        shapes = [W.shape for W in self.weights]
        self.first, self.m = flat_views(shapes)
        self.second, self.v = flat_views(shapes)
        self.gradient, self.grads = flat_views(shapes)
        self.scratch = np.empty((2, self.flat.size))


def adam_step(
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update of the state's weights by the
    gradients in ``state.grads``, in place.

    ``W -= lr * m_hat / (sqrt(v_hat) + eps)`` is evaluated once over the
    state's flat vectors, each operation in the formula's order, so the
    weights and moments are bitwise those of the formula written out per
    matrix with temporaries; the bias corrections are computed once per
    step.
    """
    state.t += 1
    correction1 = 1 - beta1**state.t
    correction2 = 1 - beta2**state.t
    m, v, g = state.first, state.second, state.gradient
    step, denom = state.scratch
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
    state.flat -= step


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
    holds the last epoch's weights.  Before the first epoch, once per call:
    the model allocates its weights in one flat vector (`GCNModel`), and
    its `AdamState` the moments and the gradients, each in one more; the
    label tables of the train and the validation mask are built, and a
    mask that is not an index mask into ``labels`` is a DataError there; a
    first forward pass checks X and computes the first layer's input
    C Gᵀ X, which every later pass is handed.  Each epoch makes one
    forward pass, on the weights its Adam step left; its log-probabilities
    give the epoch's validation loss and the next epoch's training loss
    and gradients, which `gcn_backward` writes into the state's gradient
    views."""
    model = init_model(X.shape[1], config)
    state = AdamState(model)
    fit = label_table(labels, masks.train, P)
    held_out = label_table(labels, masks.validation, P)
    train_mask, weight_decay, lr = masks.train, config.weight_decay, config.learning_rate
    fit_loss, held_out_loss, held_out_f1 = fit.loss, held_out.loss, held_out.f1
    history: list[EpochRecord] = []
    best_val = np.inf
    stale, patience = 0, config.patience
    # The forward pass and the decay of the current weights: epoch e's
    # validation pass is epoch e + 1's training pass.
    log_probs, caches = gcn_forward(P, X, model)
    propagated = caches.propagated[0]
    decay = _first_layer_decay(model, weight_decay)
    for epoch in range(config.epochs):
        train_loss = fit_loss(log_probs) + decay
        if not math.isfinite(train_loss):
            raise NumericalError(
                f"training diverged at epoch {epoch}: loss={train_loss}"
            )
        gcn_backward(P, caches, labels, train_mask, model, weight_decay, table=fit, out=state.grads)
        adam_step(state, lr)

        log_probs, caches = gcn_forward(P, X, model, propagated)
        decay = _first_layer_decay(model, weight_decay)
        val_loss = held_out_loss(log_probs) + decay
        history.append(EpochRecord(epoch, train_loss, val_loss, held_out_f1(caches.probs)))

        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale > patience:
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
