"""Reference implementations the tests compare the package against."""

import itertools
import math

import numpy as np

from relgcn.errors import DataError, NumericalError, ParseError
from relgcn.featurize import PropagationMatrix
from relgcn.gcn import (
    AdamState,
    EpochRecord,
    GCNModel,
    adam_step,
    glorot_init,
    init_model,
    label_table,
)
from relgcn.grounding import Clause
from relgcn.kb import (
    _FACT_RE,
    _SCHEMA_RE,
    KnowledgeBase,
    PredicateSchema,
    Targets,
    _read_atom,
    _split_args,
    _strip_comment,
)
from relgcn.rulelearn import _BEST_TOL, JoinMemo, _branch_fit, _SpineState


def has_fact(kb: KnowledgeBase, predicate: str, names: tuple[str, ...]) -> bool:
    """Closed-world membership of a ground atom, given by its predicate
    and the names of its constants: some row of the predicate's fact
    array holds their ids."""
    ids = [kb.constant_id(name) for name in names]
    return bool((kb.fact_array(predicate) == ids).all(axis=1).any())


class FactSetOracle:
    """A fact store of constant-name tuples: per predicate the set of its
    distinct facts, and per type the set of names registered into it.
    `KnowledgeBase` keeps interned ids instead; decoded, its distinct
    fact rows, counts, domains and text must equal these."""

    def __init__(self, schemas: dict[str, PredicateSchema]):
        self.schemas = dict(schemas)
        self.facts: dict[str, set[tuple[str, ...]]] = {name: set() for name in schemas}
        self.domains: dict[str, set[str]] = {
            t: set() for schema in schemas.values() for t in schema.arg_types
        }

    def add_fact(self, predicate: str, args) -> None:
        tup = tuple(args)
        self.facts[predicate].add(tup)
        for t, name in zip(self.schemas[predicate].arg_types, tup):
            self.domains[t].add(name)

    def register_constant(self, type_name: str, name: str) -> None:
        self.domains.setdefault(type_name, set()).add(name)

    def fact_count(self, predicate: str | None = None) -> int:
        if predicate is not None:
            return len(self.facts[predicate])
        return sum(len(facts) for facts in self.facts.values())

    def to_text(self) -> str:
        lines = [
            f"@predicate {name}({', '.join(self.schemas[name].arg_types)})"
            for name in sorted(self.schemas)
        ]
        for name in sorted(self.facts):
            lines.extend(f"{name}({', '.join(tup)})." for tup in sorted(self.facts[name]))
        return "\n".join(lines) + "\n"


def body_satisfied(ground_body: list[tuple[str, tuple[str, ...]]], kb: KnowledgeBase) -> bool:
    """True iff every ground atom, a predicate with the names of its
    constants, is a fact in kb (closed world)."""
    return all(has_fact(kb, predicate, names) for predicate, names in ground_body)


def brute_force_count(clause: Clause, target: tuple[str, ...], kb: KnowledgeBase) -> int:
    """`count_satisfied_groundings` for one target, given by the names of
    its constants, by enumeration: every substitution from the full
    cross-product of typed domains for the free body variables is tested
    with body_satisfied.  Exponential; only usable on small instances.
    """
    theta = dict(zip(clause.head.args, target))
    var_types: dict[str, str] = {}
    for atom in clause.body:
        schema = kb.schema(atom.predicate)
        for pos, var in enumerate(atom.args):
            if var not in theta:
                var_types.setdefault(var, schema.arg_types[pos])
    names = sorted(var_types)
    domains = [sorted(kb.constants_of_type(var_types[v])) for v in names]
    count = 0
    for combo in itertools.product(*domains):
        binding = {**theta, **dict(zip(names, combo))}
        ground = [(a.predicate, tuple(binding[var] for var in a.args)) for a in clause.body]
        if body_satisfied(ground, kb):
            count += 1
    return count


def squared_error_score(
    values: np.ndarray, weights: np.ndarray, left_mask: np.ndarray
) -> float:
    """Weighted squared error of a true/false partition: per-branch SSE
    around the branch's weighted mean, summed over both branches.  The
    split criterion `learn_tree` minimizes; an empty example set is a
    DataError."""
    if len(values) == 0:
        raise DataError("cannot score an empty example set")
    left = np.asarray(left_mask, dtype=bool)
    total = 0.0
    for side in (left, ~left):
        v, w = values[side], weights[side]
        if w.sum() > 0.0:
            mean = np.dot(w, v) / w.sum()
            total += float(np.dot(w, (v - mean) ** 2))
    return total


def naive_euclidean_distances(X: np.ndarray) -> np.ndarray:
    """Direct norm-expansion form sqrt(|xi|^2 + |xj|^2 - 2 xi.xj), with the
    radicand clamped at zero, the diagonal zeroed and the upper triangle
    mirrored.  The cross-check for `pairwise_distances`' euclidean path."""
    sq = np.sum(X * X, axis=1)
    radicand = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    U = np.triu(np.sqrt(np.clip(radicand, 0.0, None)), k=1)
    return U + U.T


def dense_propagation_matrix(X: np.ndarray, metric: str) -> tuple[np.ndarray, float]:
    """The n x n propagation matrix of X and its threshold t, built densely
    over every pair of targets: n x n x k coordinate differences, t as the
    mean of the strict upper triangle, and the self-loop reset and
    symmetric normalization on the full matrix.  The cross-check for
    `propagation_matrix`' class operator."""
    diff = np.abs(X[:, None, :] - X[None, :, :])
    if metric == "euclidean":
        D = np.sqrt(np.sum(diff * diff, axis=2))
    elif metric == "manhattan":
        D = np.sum(diff, axis=2)
    else:
        D = np.max(diff, axis=2)
    U = np.triu(D, k=1)
    D = U + U.T
    n = X.shape[0]
    t = float(D[np.triu_indices(n, k=1)].mean())
    D_hat = 1.0 - np.minimum(D / t, 1.0)
    np.fill_diagonal(D_hat, 0.0)
    D_hat += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(D_hat.sum(axis=1))
    return inv_sqrt[:, None] * D_hat * inv_sqrt[None, :], t


def as_operator(P: np.ndarray) -> PropagationMatrix:
    """A dense n x n P as the operator with one row class per target, in
    target order (C = P), so that the GCN runs on it unchanged."""
    return PropagationMatrix(P, np.arange(P.shape[0]), 0.0)


def per_target_gcn_forward(P, X, model):
    """`gcn_forward` with an n-row activation per target through every
    layer: S = P @ H, then relu.  Returns the n x 2 log-probabilities and
    the per-layer (S, A) caches."""
    layers = []
    H = X
    for W in model.weights[:-1]:
        S = P @ H
        A = S @ W
        H = np.maximum(A, 0.0)
        layers.append((S, A))
    S = P @ H
    Z = S @ model.weights[-1]
    layers.append((S, Z))
    shifted = Z - Z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return log_probs, layers


def per_target_gcn_backward(P, log_probs, layers, labels, mask, model, weight_decay=0.0):
    """`gcn_backward` on the n-row caches of `per_target_gcn_forward`,
    propagated back by the transpose of the dense matrix P stands for."""
    P_T = (P @ np.eye(P.shape[0])).T
    probs = np.exp(log_probs)
    dZ = np.zeros_like(probs)
    dZ[mask] = probs[mask]
    dZ[mask, labels[mask]] -= 1.0
    dZ /= len(mask)
    grads = [None] * len(model.weights)
    grads[-1] = layers[-1][0].T @ dZ
    dH = (P_T @ dZ) @ model.weights[-1].T
    for l in range(len(model.weights) - 2, -1, -1):
        S, A = layers[l]
        dA = dH * (A > 0.0)
        grads[l] = S.T @ dA
        if l > 0:
            dH = (P_T @ dA) @ model.weights[l].T
    if weight_decay > 0.0:
        grads[0] = grads[0] + weight_decay * model.weights[0]
    return grads


def per_target_train(P, X, labels, masks, config):
    """`train` as an n-row epoch loop: per epoch a `per_target_gcn_forward`
    training pass, the per-target mean NLL over the train targets plus
    first-layer decay, `per_target_gcn_backward`, an Adam step, an eval
    pass, and the mean NLL and binary F1 over the validation targets; the
    loop stops once ``patience + 1`` epochs in a row fail to lower the
    validation loss, keeping the last epoch's weights.  Returns the model
    and one (train_loss, val_loss, val_f1) tuple per epoch."""
    model = init_model(X.shape[1], config)
    state = AdamState(model)

    def objective(log_probs, mask):
        data = -float(log_probs[mask, labels[mask]].mean())
        return data + 0.5 * config.weight_decay * float(np.sum(model.weights[0] ** 2))

    history = []
    best_val, stale = np.inf, 0
    for _ in range(config.epochs):
        log_probs, layers = per_target_gcn_forward(P, X, model)
        train_loss = objective(log_probs, masks.train)
        grads = per_target_gcn_backward(
            P, log_probs, layers, labels, masks.train, model, config.weight_decay
        )
        for view, grad in zip(state.grads, grads):
            view[...] = grad
        adam_step(state, config.learning_rate)
        eval_lp, _ = per_target_gcn_forward(P, X, model)
        val_loss = objective(eval_lp, masks.validation)
        pred = np.exp(eval_lp[masks.validation, 1]) >= 0.5
        truth = labels[masks.validation] == 1
        tp = int(np.sum(pred & truth))
        fp = int(np.sum(pred & ~truth))
        fn = int(np.sum(~pred & truth))
        val_f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
        history.append((train_loss, val_loss, val_f1))
        if val_loss < best_val:
            best_val, stale = val_loss, 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return model, history


def per_candidate_learn_tree(
    memo: JoinMemo, values: np.ndarray, weights: np.ndarray, ties: list[int] | None = None
) -> tuple[Clause, np.ndarray]:
    """`learn_tree`'s beam search with both branches of every candidate
    fitted, one `_branch_fit` pair per candidate, over the candidate masks
    of ``memo``'s spines: the rule and the mask of the examples it covers.
    ``ties``, when given, gets, per depth that expanded, the number of
    expansions whose total error equals the lowest one's, minus one."""
    config = memo.config
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    everything = np.ones(len(memo.examples), dtype=bool)
    root = _SpineState((), (), everything, 0.0, _branch_fit(values, weights, everything)[1])
    best, beam = root, [root]
    for _ in range(config.max_body_length):
        expansions = []
        for state in beam:
            if int(state.left.sum()) < config.min_examples_per_leaf:
                continue
            spine = memo.spine(state.literals)
            for lit, text, new_left in zip(spine.candidates, spine.texts, spine.masks):
                if int(new_left.sum()) < config.min_examples_per_leaf:
                    continue
                left_mean, left_sse = _branch_fit(values, weights, new_left)
                right_mean, right_sse = _branch_fit(values, weights, state.left & ~new_left)
                if left_mean < right_mean - _BEST_TOL:
                    continue
                acc_right = state.acc_right_sse + right_sse
                expansions.append(_SpineState(
                    state.literals + (lit,), state.texts + (text,), new_left,
                    acc_right, acc_right + left_sse,
                ))
        if not expansions:
            break
        expansions.sort(key=lambda s: s.sort_key)
        if ties is not None:
            ties.append(sum(s.total_sse == expansions[0].total_sse for s in expansions) - 1)
        beam = expansions[: config.beam_width]
        if beam[0].total_sse < best.total_sse - _BEST_TOL:
            best = beam[0]
    return Clause(memo.head, best.literals), best.left


def enumerate_target_tuples(
    kb: KnowledgeBase,
    target_schema: PredicateSchema,
    symmetric: bool = True,
) -> list[tuple[str, ...]]:
    """All candidate ground-argument tuples for the target predicate.

    For binary predicates over a single type, reflexive pairs are dropped
    and, in symmetric mode, only the lexicographically canonical order of
    each pair is kept.
    """
    domains = [sorted(kb.constants_of_type(t)) for t in target_schema.arg_types]
    same_type = len(set(target_schema.arg_types)) == 1 and target_schema.arity == 2
    out = []
    for tup in itertools.product(*domains):
        if same_type and tup[0] == tup[1]:
            continue
        if same_type and symmetric and tup[0] > tup[1]:
            continue
        out.append(tup)
    return out


def sample_negatives_by_enumeration(
    kb: KnowledgeBase,
    target_schema: PredicateSchema,
    positives: list[tuple[str, ...]],
    ratio: float,
    seed: int,
    symmetric: bool = True,
) -> list[str]:
    """`sample_negatives`' draw over the enumerated list of candidate
    tuples, given the positives' names, as atom texts."""
    pos_tuples = set()
    for tup in positives:
        pos_tuples.add(tup)
        if symmetric and len(tup) == 2:
            pos_tuples.add((tup[1], tup[0]))
    candidates = [
        t
        for t in enumerate_target_tuples(kb, target_schema, symmetric=symmetric)
        if t not in pos_tuples
    ]
    want = math.ceil(ratio * len(positives))
    idx = np.random.default_rng(seed).choice(len(candidates), size=want, replace=False)
    return [
        f"{target_schema.name}({', '.join(candidates[i])})" for i in sorted(int(j) for j in idx)
    ]


def auc_pr_by_tie_groups(scores: np.ndarray, labels: np.ndarray) -> float:
    """`metrics.auc_pr` as a loop over the groups of tied scores, highest
    first: each group adds (R_i - R_{i-1}) * P_i to the area."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise DataError("auc_pr requires at least one positive label")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    area = 0.0
    prev_recall = 0.0
    tp = 0
    seen = 0
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp += int(np.sum(y[i:j] == 1))
        seen += j - i
        recall = tp / n_pos
        precision = tp / seen
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(area)


def adam_step_by_formula(state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """`adam_step` as the bias-corrected Adam formula reads, one full-size
    temporary per operation and both corrections per weight matrix, on the
    state's weight and gradient views; the package's in-place step must
    give bitwise the same weights and moments."""
    state.t += 1
    for W, g, m, v in zip(state.weights, state.grads, state.m, state.v):
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1**state.t)
        v_hat = v / (1 - beta2**state.t)
        W -= lr * m_hat / (np.sqrt(v_hat) + eps)


def train_per_matrix(P, X, labels, masks, config, beta1=0.9, beta2=0.999, eps=1e-8):
    """`train` with one array per weight matrix: separate glorot matrices,
    a forward pass whose caches are appended layer by layer, the losses
    read off the label tables by 2-D fancy indexing, the validation F1 by
    a matrix product, the decay by ``np.sum(W ** 2)``, a fresh gradient
    list each epoch with the decay added out of place, and an Adam step
    that gathers the gradients with `np.concatenate`, runs the flat
    operations and subtracts the step matrix by matrix.  Returns the
    weights copied into a `GCNModel` and the `EpochRecord` history."""
    dims = [X.shape[1]] + [config.hidden_size] * (config.num_layers - 1) + [2]
    weights = [glorot_init(dims[l], dims[l + 1], config.seed + l) for l in range(len(dims) - 1)]
    sizes = [W.size for W in weights]
    moments, scratch = np.zeros((2, sum(sizes))), np.empty((3, sum(sizes)))
    steps = [
        part.reshape(W.shape)
        for part, W in zip(np.split(scratch[1], np.cumsum(sizes)[:-1]), weights)
    ]
    propagated = P.classes @ P.pool(X)
    fit = label_table(labels, masks.train, P)
    held_out = label_table(labels, masks.validation, P)

    def forward():
        S, layers = propagated, []
        for W in weights[:-1]:
            A = S @ W
            layers.append((S, A))
            S = P.classes @ (np.maximum(A, 0.0) * P.counts)
        Z = S @ weights[-1]
        layers.append((S, Z))
        shifted = Z - Z.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return log_probs, np.exp(log_probs), layers

    def loss(table, log_probs):
        cells = np.nonzero(table.counts)
        return -float(table.counts[cells] @ log_probs[cells]) / table.total

    def f1(probs):
        fp, tp = (probs[:, 1] >= 0.5) @ held_out.counts
        fn = held_out.positives - tp
        if 2 * tp + fp + fn == 0:
            return 0.0
        return float(2 * tp / (2 * tp + fp + fn))

    def decay():
        if config.weight_decay == 0.0:
            return 0.0
        return 0.5 * config.weight_decay * float(np.sum(weights[0] ** 2))

    def backward(probs, layers):
        dZ = (probs * fit.sizes - fit.counts) / fit.total
        grads = [None] * len(weights)
        grads[-1] = layers[-1][0].T @ dZ
        dH = (P.classes.T @ dZ) @ weights[-1].T
        for l in range(len(weights) - 2, -1, -1):
            dA = dH * P.counts * (layers[l][1] > 0.0)
            grads[l] = layers[l][0].T @ dA
            if l > 0:
                dH = (P.classes.T @ dA) @ weights[l].T
        if config.weight_decay > 0.0:
            grads[0] = grads[0] + config.weight_decay * weights[0]
        return grads

    def adam(grads, t):
        m, v = moments
        g, step, denom = scratch
        np.concatenate([grad.ravel() for grad in grads], out=g)
        m *= beta1
        np.multiply(g, 1 - beta1, step)
        m += step
        v *= beta2
        np.multiply(g, g, denom)
        denom *= 1 - beta2
        v += denom
        np.divide(m, 1 - beta1**t, step)
        step *= config.learning_rate
        np.divide(v, 1 - beta2**t, denom)
        np.sqrt(denom, denom)
        denom += eps
        step /= denom
        for W, part in zip(weights, steps):
            W -= part

    history = []
    best_val, stale = np.inf, 0
    log_probs, probs, layers = forward()
    penalty = decay()
    for epoch in range(config.epochs):
        train_loss = loss(fit, log_probs) + penalty
        if not math.isfinite(train_loss):
            raise NumericalError(f"training diverged at epoch {epoch}: loss={train_loss}")
        adam(backward(probs, layers), epoch + 1)
        log_probs, probs, layers = forward()
        penalty = decay()
        val_loss = loss(held_out, log_probs) + penalty
        history.append(EpochRecord(epoch, train_loss, val_loss, f1(probs)))
        if val_loss < best_val:
            best_val, stale = val_loss, 0
        else:
            stale += 1
            if stale > config.patience:
                break
    model = GCNModel(dims)
    for view, W in zip(model.weights, weights):
        view[...] = W
    return model, history


def parse_facts_line_by_line(text: str) -> KnowledgeBase:
    """`parse_facts` with every line read by the per-line branch: comment
    cut, stripped, then a schema or a fact; each fact's stripped tokens are
    gathered per predicate and interned once the text is read."""
    kb = KnowledgeBase()
    read: dict[str, list[str]] = {}  # predicate -> the arguments of its facts, flat
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("@predicate"):
            m = _SCHEMA_RE.match(line)
            if m is None:
                raise ParseError(f"malformed schema declaration: {raw!r}", lineno)
            name = m.group(1)
            types = _split_args(m.group(2), f"@predicate {name}", lineno)
            if not types:
                raise ParseError(f"schema {name!r} declares no argument types", lineno)
            try:
                kb.declare_schema(PredicateSchema(name, tuple(types)))
            except DataError as exc:
                raise ParseError(str(exc), lineno) from exc
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed fact line: {raw!r}", lineno)
        schema, names = _read_atom(m.group(1), m.group(2), kb, lineno, "fact")
        read.setdefault(schema.name, []).extend(names)
    for name, names in read.items():
        kb._fact_ids[name].extend(kb._intern(kb.schemas[name], names))
    return kb


def parse_ground_atoms_line_by_line(text: str, kb: KnowledgeBase, positive) -> Targets:
    """`parse_ground_atoms` with every line read by the per-line branch."""
    predicate = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed example line: {raw!r}", lineno)
        schema, names = _read_atom(m.group(1), m.group(2), kb, lineno, "example")
        predicate = predicate or schema.name
        if schema.name != predicate:
            raise ParseError(f"{schema.name} example among {predicate} examples", lineno)
        rows.append(names)
    if predicate is None:
        raise ParseError("no example atoms")
    return kb.targets(predicate, rows, positive)
