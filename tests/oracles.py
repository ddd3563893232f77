"""Reference implementations the tests compare the package against."""

import itertools
import math

import numpy as np

from relgcn.errors import DataError
from relgcn.featurize import PropagationMatrix
from relgcn.gcn import AdamState, adam_step, init_model
from relgcn.grounding import Clause
from relgcn.kb import Atom, Constant, KnowledgeBase, PredicateSchema, Variable


def has_fact(kb: KnowledgeBase, atom: Atom) -> bool:
    """Closed-world membership of a ground atom: some row of the
    predicate's fact array holds the ids of its constants."""
    ids = [kb.constant_id(a.name) for a in atom.args]
    return bool((kb.fact_array(atom.predicate) == ids).all(axis=1).any())


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


def body_satisfied(ground_body: list[Atom], kb: KnowledgeBase) -> bool:
    """True iff every ground atom is a fact in kb (closed world)."""
    for atom in ground_body:
        if not all(isinstance(a, Constant) for a in atom.args):
            raise DataError(f"body_satisfied requires ground atoms, got {atom}")
        if not has_fact(kb, atom):
            return False
    return True


def brute_force_count(clause: Clause, target: tuple[str, ...], kb: KnowledgeBase) -> int:
    """`count_satisfied_groundings` for one target, given by the names of
    its constants, by enumeration: every substitution from the full
    cross-product of typed domains for the free body variables is tested
    with body_satisfied.  Exponential; only usable on small instances.
    """
    theta: dict[str, Constant] = {}
    head_types = kb.schema(clause.head.predicate).arg_types
    for term, name, t in zip(clause.head.args, target, head_types):
        if isinstance(term, Variable):
            theta[term.name] = Constant(name, t)
        elif term.name != name:
            return 0
    var_types: dict[str, str] = {}
    for atom in clause.body:
        schema = kb.schema(atom.predicate)
        for pos, a in enumerate(atom.args):
            if isinstance(a, Variable) and a.name not in theta:
                var_types.setdefault(a.name, schema.arg_types[pos])
    names = sorted(var_types)
    domains = [sorted(kb.constants_of_type(var_types[v])) for v in names]
    count = 0
    for combo in itertools.product(*domains):
        binding = dict(theta)
        for v, c in zip(names, combo):
            binding[v] = Constant(c, var_types[v])
        ground = [
            Atom(
                a.predicate,
                tuple(
                    binding[t.name] if isinstance(t, Variable) else t for t in a.args
                ),
            )
            for a in clause.body
        ]
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


def per_target_gcn_forward(P, X, model, dropout_rate=0.0, dropout_masks=None):
    """`gcn_forward` with an n-row activation per target through every
    layer: S = P @ H, relu, and the dropout mask applied to the n x h
    activation.  A dropout rate above 0 needs ``dropout_masks``.  Returns
    the n x 2 log-probabilities and the per-layer (S, A, mask) caches."""
    layers = []
    H = X
    for l, W in enumerate(model.weights[:-1]):
        S = P @ H
        A = S @ W
        H = np.maximum(A, 0.0)
        mask = None
        if dropout_rate > 0.0:
            mask = dropout_masks[l]
            H = H * mask / (1.0 - dropout_rate)
        layers.append((S, A, mask))
    S = P @ H
    Z = S @ model.weights[-1]
    layers.append((S, Z, None))
    shifted = Z - Z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return log_probs, layers


def per_target_gcn_backward(
    P, log_probs, layers, labels, mask, model, weight_decay=0.0, dropout_rate=0.0
):
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
        S, A, drop = layers[l]
        if drop is not None:
            dH = dH * drop / (1.0 - dropout_rate)
        dA = dH * (A > 0.0)
        grads[l] = S.T @ dA
        if l > 0:
            dH = (P_T @ dA) @ model.weights[l].T
    if weight_decay > 0.0:
        grads[0] = grads[0] + weight_decay * model.weights[0]
    return grads


def per_target_train(P, X, labels, masks, config):
    """`train` as an n-row epoch loop: per epoch a `per_target_gcn_forward`
    training pass whose masks are drawn from the seeded stream (one n x h
    draw per hidden layer, in layer order), the per-target mean NLL over
    the train targets plus first-layer decay, `per_target_gcn_backward`,
    an Adam step, an eval pass, and the mean NLL and binary F1 over the
    validation targets; early stopping on the validation loss restores
    the best weights.  Returns the model and one (train_loss, val_loss,
    val_f1) tuple per epoch."""
    model = init_model(X.shape[1], config)
    state = AdamState.zeros_like(model.weights)
    rng = np.random.default_rng(config.seed)
    rate = config.dropout_rate

    def objective(log_probs, mask):
        data = -float(log_probs[mask, labels[mask]].mean())
        return data + 0.5 * config.weight_decay * float(np.sum(model.weights[0] ** 2))

    history = []
    best_val, best_weights, stale = np.inf, [W.copy() for W in model.weights], 0
    for _ in range(config.epochs):
        drops = None
        if rate > 0.0:
            drops = [rng.random((X.shape[0], W.shape[1])) >= rate for W in model.weights[:-1]]
        log_probs, layers = per_target_gcn_forward(P, X, model, rate, drops)
        train_loss = objective(log_probs, masks.train)
        grads = per_target_gcn_backward(
            P, log_probs, layers, labels, masks.train, model, config.weight_decay, rate
        )
        adam_step(model.weights, grads, state, config.learning_rate)
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
            best_val, best_weights, stale = val_loss, [W.copy() for W in model.weights], 0
        else:
            stale += 1
            if stale > config.patience:
                break
    model.weights = best_weights
    return model, history


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
