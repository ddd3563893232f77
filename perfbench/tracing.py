"""Per-layer tracing of the relgcn modules, installed from the benchmark.

Every traced function is replaced at the name its caller looks it up by
(for example ``count_satisfied_groundings`` separately in ``rulelearn``,
``featurize`` and ``pipeline``; ``gcn_forward`` inside ``gcn``), so the
package itself is not edited.  Spans are aggregated in memory per name:
calls, total time and self time (total minus the time covered by traced
calls made from inside the span).  A layer's self time is the sum of the
self times of its spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

LAYERS = ("kb", "grounding", "rulelearn", "featurize", "gcn", "metrics", "pipeline")
STAGES = ("learn", "featurize", "train", "eval")

# (module looked up in, attribute, span name, layer)
PLAN = [
    ("pipeline", "parse_facts", "kb.parse_facts", "kb"),
    ("pipeline", "parse_ground_atoms", "kb.parse_ground_atoms", "kb"),
    ("pipeline", "sample_negatives", "grounding.sample_negatives", "grounding"),
    ("rulelearn", "sample_negatives", "grounding.sample_negatives", "grounding"),
    ("rulelearn", "count_satisfied_groundings", "rulelearn.cover", "grounding"),
    ("featurize", "count_satisfied_groundings", "featurize.count", "grounding"),
    ("pipeline", "count_satisfied_groundings", "pipeline.count", "grounding"),
    ("pipeline", "learn_ruleset", "rulelearn.learn_ruleset", "rulelearn"),
    ("rulelearn", "learn_tree", "rulelearn.learn_tree", "rulelearn"),
    ("rulelearn", "candidate_literals", "rulelearn.candidate_literals", "rulelearn"),
    ("featurize", "build_rule_matrix", "featurize.rule_matrix", "featurize"),
    ("featurize", "pairwise_distances", "featurize.distances", "featurize"),
    ("featurize", "adjacency_approximation", "featurize.adjacency", "featurize"),
    ("featurize", "normalize_propagation", "featurize.normalize", "featurize"),
    ("featurize", "write_matrix_csv", "featurize.csv_write", "featurize"),
    ("featurize", "read_matrix_csv", "featurize.csv_read", "featurize"),
    ("gcn", "train", "gcn.train", "gcn"),
    ("gcn", "gcn_forward", "gcn.forward", "gcn"),
    ("gcn", "gcn_backward", "gcn.backward", "gcn"),
    ("gcn", "adam_step", "gcn.adam", "gcn"),
    ("gcn", "predict", "gcn.predict", "gcn"),
    ("metrics", "split_examples", "metrics.split", "metrics"),
    ("metrics", "confusion_metrics", "metrics.confusion", "metrics"),
    ("metrics", "auc_pr", "metrics.auc_pr", "metrics"),
] + [("pipeline", f"stage_{s}", f"pipeline.{s}", "pipeline") for s in STAGES]


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _sample_pool(args, kwargs) -> int:
    """Size of the typed cross-product sample_negatives enumerates."""
    kb, schema = args[0], args[1]
    symmetric = _arg(args, kwargs, 5, "symmetric", True)
    sizes = [len(kb.constants_of_type(t)) for t in schema.arg_types]
    if schema.arity == 2 and len(set(schema.arg_types)) == 1:
        m = sizes[0]
        return m * (m - 1) // 2 if symmetric else m * (m - 1)
    pool = 1
    for s in sizes:
        pool *= s
    return pool


def _forward_flops(args, kwargs) -> int:
    # One P @ H product per layer, H having dims[l] columns.
    P, model = args[0], args[2]
    n = P.shape[0]
    return 2 * n * n * sum(model.dims[:-1])


def _backward_flops(args, kwargs) -> int:
    # P.T @ dZ for the output layer, then P.T @ dA for hidden layers l > 0.
    P, model = args[0], args[4]
    n, dims = P.shape[0], model.dims
    L = len(dims) - 1
    return 2 * n * n * (dims[L] + sum(dims[2:L]))


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _pool_hook(counters, args, kwargs, result) -> None:
    pool = _sample_pool(args, kwargs)
    counters["grounding.sample_pool"] = max(counters.get("grounding.sample_pool", 0), pool)


def _file_bytes_hook(key: str):
    def hook(counters, args, kwargs, result) -> None:
        _add(counters, key, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return hook


# span name -> hook(counters, args, kwargs, result), run after the span ends.
HOOKS = {
    "grounding.sample_negatives": _pool_hook,
    "rulelearn.candidate_literals": lambda c, a, k, r: _add(c, "rulelearn.candidates", len(r)),
    "rulelearn.learn_ruleset": lambda c, a, k, r: _add(c, "rulelearn.rules_kept", len(r.rules)),
    "featurize.csv_write": _file_bytes_hook("featurize.csv_write_bytes"),
    "featurize.csv_read": _file_bytes_hook("featurize.csv_read_bytes"),
    "gcn.forward": lambda c, a, k, r: _add(c, "gcn.propagate_flops", _forward_flops(a, k)),
    "gcn.backward": lambda c, a, k, r: _add(c, "gcn.propagate_flops", _backward_flops(a, k)),
}


class Tracer:
    """Aggregated spans and counters for one traced call."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.layer_of: dict[str, str] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, module, attr: str, name: str, layer: str) -> None:
        fn = getattr(module, attr)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        hook = HOOKS.get(name)
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - covered[0]
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def install(self) -> None:
        for mod_name, attr, name, layer in PLAN:
            self._wrap(importlib.import_module(f"relgcn.{mod_name}"), attr, name, layer)
        # run_pipeline iterates this list rather than looking the stages up.
        pipeline = importlib.import_module("relgcn.pipeline")
        self._patches.append((pipeline, "_STAGES", pipeline._STAGES))
        pipeline._STAGES = [(s, getattr(pipeline, f"stage_{s}")) for s, _ in pipeline._STAGES]

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if self.layer_of[n] == layer)


MEASURED = "measured"
COMPUTED = "computed"


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced call: name -> (value, unit, kind)."""
    c = t.counters
    count_spans = ("rulelearn.cover", "featurize.count", "pipeline.count")
    trees = t.calls("rulelearn.learn_tree")
    kept = c.get("rulelearn.rules_kept", 0)
    m: dict[str, tuple[float, str, str]] = {
        "kb.parse_facts_s": (t.total("kb.parse_facts"), "s", MEASURED),
        "kb.parse_facts_calls": (t.calls("kb.parse_facts"), "count", MEASURED),
        "kb.parse_ground_atoms_s": (t.total("kb.parse_ground_atoms"), "s", MEASURED),
        "kb.parse_ground_atoms_calls": (t.calls("kb.parse_ground_atoms"), "count", MEASURED),
        "grounding.sample_negatives_s": (t.total("grounding.sample_negatives"), "s", MEASURED),
        "grounding.sample_negatives_calls": (
            t.calls("grounding.sample_negatives"), "count", MEASURED),
        "grounding.sample_pool": (c.get("grounding.sample_pool", 0), "count", COMPUTED),
        "grounding.count_calls": (sum(t.calls(n) for n in count_spans), "count", MEASURED),
        "grounding.count_s": (sum(t.total(n) for n in count_spans), "s", MEASURED),
        "rulelearn.learn_ruleset_s": (t.total("rulelearn.learn_ruleset"), "s", MEASURED),
        "rulelearn.learn_tree_calls": (trees, "count", MEASURED),
        "rulelearn.learn_tree_s": (t.total("rulelearn.learn_tree"), "s", MEASURED),
        "rulelearn.candidate_literals_calls": (
            t.calls("rulelearn.candidate_literals"), "count", MEASURED),
        "rulelearn.candidates": (c.get("rulelearn.candidates", 0), "count", MEASURED),
        "rulelearn.cover_calls": (t.calls("rulelearn.cover"), "count", MEASURED),
        "rulelearn.cover_s": (t.total("rulelearn.cover"), "s", MEASURED),
        "rulelearn.rules_kept": (kept, "count", MEASURED),
        "rulelearn.rules_kept_ratio": (kept / trees if trees else 0.0, "ratio", COMPUTED),
        "featurize.rule_matrix_s": (t.total("featurize.rule_matrix"), "s", MEASURED),
        "featurize.count_calls": (t.calls("featurize.count"), "count", MEASURED),
        "featurize.count_s": (t.total("featurize.count"), "s", MEASURED),
        "featurize.distances_s": (t.total("featurize.distances"), "s", MEASURED),
        "featurize.adjacency_s": (t.total("featurize.adjacency"), "s", MEASURED),
        "featurize.normalize_s": (t.total("featurize.normalize"), "s", MEASURED),
        "featurize.csv_write_s": (t.total("featurize.csv_write"), "s", MEASURED),
        "featurize.csv_write_bytes": (c.get("featurize.csv_write_bytes", 0), "B", MEASURED),
        "featurize.csv_read_s": (t.total("featurize.csv_read"), "s", MEASURED),
        "featurize.csv_read_bytes": (c.get("featurize.csv_read_bytes", 0), "B", MEASURED),
        "gcn.train_s": (t.total("gcn.train"), "s", MEASURED),
        "gcn.forward_calls": (t.calls("gcn.forward"), "count", MEASURED),
        "gcn.forward_s": (t.total("gcn.forward"), "s", MEASURED),
        "gcn.backward_s": (t.total("gcn.backward"), "s", MEASURED),
        "gcn.adam_s": (t.total("gcn.adam"), "s", MEASURED),
        "gcn.predict_s": (t.total("gcn.predict"), "s", MEASURED),
        "gcn.propagate_flops": (c.get("gcn.propagate_flops", 0), "flop", COMPUTED),
        "metrics.s": (
            sum(t.total(n) for n, l in t.layer_of.items() if l == "metrics"), "s", MEASURED),
    }
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = (t.total(f"pipeline.{stage}"), "s", MEASURED)
        m[f"pipeline.{stage}_self_s"] = (t.self_time(f"pipeline.{stage}"), "s", COMPUTED)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.layer_self(layer), "s", COMPUTED)
    return m
