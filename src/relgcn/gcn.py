"""Graph convolutional network with explicit forward/backward passes.

Trained transductively, full batch, for binary link prediction: relu
between graph convolutions, inverted dropout between them while training
(at ``TrainConfig.dropout_rate``), log-softmax over two output logits,
Adam with first-layer weight decay.  Everything is seeded and bitwise
reproducible.

Every layer runs on a partition of the targets into row classes
(``row_classes``).  The pipeline passes ``featurize.PropagationMatrix``,
P = G C Gᵀ over the u distinct feature rows; with no per-target
self-loop term (the default), P @ H depends on H only through the class
sums Gᵀ H, so every propagated matrix, pre-activation and logit has one
row per class.  A dropout mask is per target, but it enters the next
layer only through its class column sums Gᵀ M; the eval pass uses the
class counts in their place.  Per epoch that is O(n·h) to draw the masks
and O(n·u·h) to pool them (one BLAS product with the u x n indicator),
plus O(u·h² + u²·h) for the layers; the log-probabilities are gathered
to the n targets at the end.  Any other P (a dense n x n
array, or an operator with a per-target term) runs the same code on the
trivial partition, one class per target, propagated by ``P @``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

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
class RowClasses:
    """A partition of the n targets on whose classes every layer's rows
    are constant, and the operator that propagates between the classes:
    the class rows of ``P @ H`` are ``operator @ pool(H)``."""

    index: np.ndarray  # the class of each target
    operator: np.ndarray | PropagationMatrix
    members: np.ndarray | None = None  # Gᵀ, u x n; None for one class per target
    counts: np.ndarray = field(init=False)  # targets per class, a float column

    def __post_init__(self):
        counts = np.bincount(self.index, minlength=self.operator.shape[0])
        self.counts = counts[:, None].astype(float)

    def pool(self, rows: np.ndarray) -> np.ndarray:
        """Gᵀ rows: the sum of each class's rows (O(n·u·d))."""
        return rows if self.members is None else self.members @ rows


def row_classes(P: np.ndarray | PropagationMatrix) -> RowClasses:
    """The u distinct feature rows of a class operator with no per-target
    term, propagated by its u x u C; otherwise one class per target,
    propagated by P itself."""
    if isinstance(P, PropagationMatrix) and not P.diagonal.any():
        return RowClasses(P.index, P.classes, P.members)
    return RowClasses(np.arange(P.shape[0]), P)


@dataclass
class ForwardCaches:
    """Per layer and on the row classes: the propagated input to W, the
    pre-activation and, for hidden layers, what multiplies the relu before
    it is propagated (Gᵀ M / (1 - rate) in training, the class counts
    otherwise)."""

    propagated: list[np.ndarray]
    pre_activations: list[np.ndarray]
    kept: list[np.ndarray]
    log_probs: np.ndarray = field(default=None)  # n rows, filled by gcn_forward


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    m = Z.max(axis=1, keepdims=True)
    shifted = Z - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def gcn_forward(
    P: np.ndarray | PropagationMatrix,
    X: np.ndarray,
    model: GCNModel,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCaches]:
    """Layer-wise propagation: hidden layers relu(P H W), output row-wise
    log-softmax of P H W_last, computed on the row classes of P and
    returned for all n targets.  With ``dropout_rate > 0`` (training) an
    n x h inverted-dropout mask is drawn from ``rng`` after each hidden
    activation, so a generator seeded alike draws the same masks."""
    if P.shape[0] != P.shape[1] or P.shape[0] != X.shape[0]:
        raise DataError("P must be n x n and X n x input_dim")
    if X.shape[1] != model.dims[0]:
        raise DataError(
            f"X has {X.shape[1]} features, model expects {model.dims[0]}"
        )
    classes = row_classes(P)
    caches = ForwardCaches([], [], [])
    pooled = classes.pool(X)  # Gᵀ H of each layer's input H
    for W in model.weights[:-1]:
        S = classes.operator @ pooled
        A = S @ W
        kept = classes.counts
        if dropout_rate > 0.0:
            mask = rng.random((X.shape[0], A.shape[1])) >= dropout_rate
            kept = classes.pool(mask) / (1.0 - dropout_rate)
        pooled = np.maximum(A, 0.0) * kept
        caches.propagated.append(S)
        caches.pre_activations.append(A)
        caches.kept.append(kept)
    S = classes.operator @ pooled
    Z = S @ model.weights[-1]
    caches.propagated.append(S)
    caches.pre_activations.append(Z)
    log_probs = _log_softmax(Z)[classes.index]
    caches.log_probs = log_probs
    return log_probs, caches


def nll_loss(
    log_probs: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    model: GCNModel | None = None,
    weight_decay: float = 0.0,
) -> float:
    """Mean negative log-likelihood over the masked nodes, plus
    weight_decay/2 * ||W0||^2 (first-layer decay only)."""
    mask = np.asarray(mask, dtype=int)
    if mask.size == 0:
        raise DataError("loss mask must be nonempty")
    data = -float(log_probs[mask, labels[mask]].mean())
    reg = 0.0
    if model is not None and weight_decay > 0.0:
        reg = 0.5 * weight_decay * float(np.sum(model.weights[0] ** 2))
    return data + reg


def gcn_backward(
    P: np.ndarray | PropagationMatrix,
    caches: ForwardCaches,
    labels: np.ndarray,
    mask: np.ndarray,
    model: GCNModel,
    weight_decay: float = 0.0,
) -> list[np.ndarray]:
    """Exact gradients of nll_loss w.r.t. every weight matrix, reusing the
    pooled dropout masks recorded in the caches.  The output gradient is
    pooled onto the row classes once (Gᵀ dZ); from there each dH holds
    the gradient every target of a class shares, and each dA the class sum
    of the per-target gradients."""
    classes = row_classes(P)
    operator_T = classes.operator.T
    mask = np.asarray(mask, dtype=int)
    n_layers = len(model.weights)
    probs = np.exp(caches.log_probs)
    dZ = np.zeros_like(probs)
    dZ[mask] = probs[mask]
    dZ[mask, labels[mask]] -= 1.0
    dZ = classes.pool(dZ) / mask.size

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


def _binary_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_f1: float


def train(
    P: np.ndarray | PropagationMatrix,
    X: np.ndarray,
    labels: np.ndarray,
    masks: SplitMasks,
    config: TrainConfig,
) -> tuple[GCNModel, list[EpochRecord]]:
    """Full-batch transductive training with early stopping on validation
    loss; the best-validation weights are restored before returning."""
    model = init_model(X.shape[1], config)
    state = AdamState.zeros_like(model.weights)
    rng = np.random.default_rng(config.seed)
    history: list[EpochRecord] = []
    best_val = np.inf
    best_weights = [W.copy() for W in model.weights]
    stale = 0
    for epoch in range(config.epochs):
        log_probs, caches = gcn_forward(P, X, model, config.dropout_rate, rng)
        train_loss = nll_loss(
            log_probs, labels, masks.train, model, config.weight_decay
        )
        if not np.isfinite(train_loss):
            raise NumericalError(
                f"training diverged at epoch {epoch}: loss={train_loss}"
            )
        grads = gcn_backward(
            P, caches, labels, masks.train, model, config.weight_decay
        )
        adam_step(model.weights, grads, state, config.learning_rate)

        eval_lp, _ = gcn_forward(P, X, model)
        val_loss = nll_loss(eval_lp, labels, masks.validation, model, config.weight_decay)
        val_pred = (np.exp(eval_lp[masks.validation, 1]) >= 0.5).astype(int)
        val_f1 = _binary_f1(val_pred, labels[masks.validation])
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
    model: GCNModel, P: np.ndarray | PropagationMatrix, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positive-class probabilities and argmax hard labels, without dropout."""
    log_probs, _ = gcn_forward(P, X, model)
    scores = np.exp(log_probs[:, 1])
    hard = np.argmax(log_probs, axis=1)
    return scores, hard


# -- checkpointing ---------------------------------------------------------

_MAGIC = b"RDGW"
_VERSION = 2
_HEADER = struct.Struct("<4sBQ")  # magic, version, len(dims)


def save_checkpoint(path: str | Path, model: GCNModel) -> None:
    """Binary container: magic, version, len(dims), the dims vector, then
    the row-major float64 weight payloads."""
    dims = model.dims
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, len(dims)))
        f.write(struct.pack(f"<{len(dims)}Q", *dims))
        for W in model.weights:
            f.write(np.ascontiguousarray(W, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> GCNModel:
    """The model saved by ``save_checkpoint``; a file that is not exactly
    one checkpoint (bad magic, another version, a zero dimension, an output
    dimension other than 2, cut short anywhere, or followed by more bytes)
    is a DataError that names it."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise DataError(f"bad magic bytes in checkpoint {path}")
    if len(data) < _HEADER.size:
        raise DataError(f"truncated checkpoint {path}: {len(data)} bytes")
    _, version, ndims = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise DataError(f"unsupported checkpoint version {version} in {path}")
    if ndims < 2:
        raise DataError(f"checkpoint {path} holds {ndims} layer dimensions, needs >= 2")
    offset = _HEADER.size + 8 * ndims
    if len(data) < offset:
        raise DataError(f"truncated checkpoint {path}: {len(data)} bytes")
    dims = list(struct.unpack_from(f"<{ndims}Q", data, _HEADER.size))
    if 0 in dims:
        raise DataError(f"checkpoint {path} has a zero layer dimension: {dims}")
    if dims[-1] != 2:
        raise DataError(
            f"checkpoint {path} has output dimension {dims[-1]}, expected 2 "
            "(binary log-softmax)"
        )
    expected = offset + 8 * sum(a * b for a, b in zip(dims, dims[1:]))
    if len(data) != expected:
        problem = "truncated" if len(data) < expected else "trailing bytes in"
        raise DataError(
            f"{problem} checkpoint {path}: {len(data)} bytes, expected {expected}"
        )
    weights = []
    for a, b in zip(dims, dims[1:]):
        weights.append(np.frombuffer(data, "<f8", a * b, offset).reshape(a, b).copy())
        offset += 8 * a * b
    return GCNModel(weights)
