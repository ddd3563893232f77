"""The benchmark wraps package functions by name and reads their
arguments: every name it traces or probes must resolve, and its counters
must accept the arguments the pipeline passes, so an API change that
would break a traced run fails here and not only in the benchmark's own
suite.  The benchmark's files are read, not changed."""

import ast
import importlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from relgcn import gcn, pipeline
from relgcn.cli import main as cli_main
from relgcn.featurize import propagation_matrix
from relgcn.pipeline import (
    PipelineConfig,
    default_values,
    run_pipeline,
    run_stages,
    sensitivity_sweep,
    stage_train,
)
from relgcn.synth import SyntheticSpec, generate_synthetic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _probe_points() -> list[tuple[str, str]]:
    """PROBE_POINTS of harness.py, read from its source: importing harness
    would import the benchmark's other modules."""
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROBE_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("harness.py defines no PROBE_POINTS")


def _wrapped_names() -> list[tuple[str, str]]:
    plan = runpy.run_path(str(PERFBENCH / "tracing.py"))["PLAN"]
    return sorted({(module, attr) for module, attr, _, _ in plan} | set(_probe_points()))


@pytest.mark.parametrize("module,attr", _wrapped_names())
def test_benchmark_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"relgcn.{module}"), attr, None))


def _small_overrides(tmp_path) -> dict[str, str]:
    """The config keys of a 65-target planted run directory, trained for
    2 epochs."""
    spec = SyntheticSpec(
        n_persons=16, n_universities=3, n_topics=3, n_positives=25, n_negatives=40, seed=0
    )
    generate_synthetic(spec, tmp_path / "data")
    return {
        **{k: str(tmp_path / "data" / f"{k}.txt") for k in ("facts", "pos", "neg")},
        "out": str(tmp_path / "out"),
        "learn.k_pos": "2",
        "learn.k_neg": "2",
        "train.epochs": "2",
    }


def _small_config(tmp_path) -> PipelineConfig:
    return PipelineConfig.from_overrides(_small_overrides(tmp_path))


def test_benchmark_stage_names_are_the_pipeline_stages():
    """The benchmark reports a time per name of its STAGES, each traced at
    the ``stage_<name>`` attribute it rebuilds ``_STAGES`` from."""
    stages = runpy.run_path(str(PERFBENCH / "tracing.py"))["STAGES"]
    assert [s for s, _ in pipeline._STAGES] == list(stages)


def test_benchmark_config_keys_are_config_keys():
    """Every key the benchmark's workloads override is a config key, so
    deleting or renaming one fails here and not only in a benchmark run."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    keys = default_values()
    for table in ("PLANTED_OVERRIDES", "SWEEP_OVERRIDES", "TOPICS_OVERRIDES"):
        for key in workloads[table]:
            assert key in keys, f"the benchmark sets {key!r} ({table}), which is not a config key"


def test_constants_key_lives_as_long_as_the_benchmark_sets_it():
    """``learn.max_constants_for_grounding`` accepts only 0 and is kept
    because the benchmark's workloads set it: it is a config key exactly
    while one of their override tables sets it, so the change that drops
    those overrides deletes the key too."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    key = "learn.max_constants_for_grounding"
    tables = ("PLANTED_OVERRIDES", "SWEEP_OVERRIDES", "TOPICS_OVERRIDES")
    assert (key in default_values()) == any(key in workloads[table] for table in tables)


def test_every_entry_point_runs_its_stages_through_the_stage_list(tmp_path, monkeypatch):
    """The benchmark traces and probes the stages by replacing the
    functions in ``_STAGES``, so the pipeline, a sweep and every stage
    command must run their stages from that list."""
    ran = []

    def recorder(name, fn):
        def recorded(*args, **kwargs):
            ran.append(name)
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(
        pipeline, "_STAGES", [(s, recorder(s, fn)) for s, fn in pipeline._STAGES]
    )
    overrides = _small_overrides(tmp_path)
    config = PipelineConfig.from_overrides(overrides)
    run_pipeline(config)
    assert ran == ["learn", "featurize", "train", "eval"]
    swept = PipelineConfig.from_overrides({**overrides, "out": str(tmp_path / "swept")})
    ran.clear()
    sensitivity_sweep(swept, "hidden_size", values=[4, 8])
    assert ran == ["learn", "featurize"] + ["train", "eval"] * 2
    flags = [arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}")]
    for command in ("learn", "featurize", "train", "eval"):
        ran.clear()
        assert cli_main([command, *flags]) == 0
        assert ran == [command]


def test_benchmark_tracer_counts_a_pipeline_run(tmp_path):
    """The benchmark's hooks read return values (`learn_ruleset`'s rules)
    and arguments (`gcn_forward`'s model) of a traced run, learn's
    counters read their recorded values, and uninstalling puts every
    wrapped name back."""
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    config = _small_config(tmp_path)
    originals = [
        (m, a, getattr(importlib.import_module(f"relgcn.{m}"), a)) for m, a in _wrapped_names()
    ]
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        run_pipeline(config)
    finally:
        tracer.uninstall()
    for module, attr, fn in originals:
        assert getattr(importlib.import_module(f"relgcn.{module}"), attr) is fn
    metrics = tracing["layer_metrics"](tracer)
    assert metrics["rulelearn.rules_kept"][0] > 0
    assert metrics["gcn.forward_calls"][0] > 0
    # Learn's counters, pinned so that a change to how learn scores its
    # candidates keeps the traces before and after it comparable: one span
    # per tree, one listing per joined body, the candidates listed.
    learn_counters = ("learn_tree_calls", "candidate_literals_calls", "candidates")
    assert [metrics[f"rulelearn.{name}"][0] for name in learn_counters] == [4, 37, 262]


def test_benchmark_tracer_counts_a_run_that_samples_its_negatives(tmp_path):
    """Without a neg file the pipeline samples the negatives, so the
    benchmark's `_pool_hook` reads that call's arguments as well as the
    two contrast calls'; pos.txt is parsed once, and targets.csv not at
    all, as learn hands its targets to featurize."""
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    config = PipelineConfig.from_overrides({**_small_config(tmp_path).values, "neg": ""})
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        run_pipeline(config)
    finally:
        tracer.uninstall()
    metrics = tracing["layer_metrics"](tracer)
    assert metrics["kb.parse_ground_atoms_calls"][0] == 1
    assert metrics["grounding.sample_negatives_calls"][0] == 3
    assert metrics["grounding.sample_pool"][0] == 16 * 15 // 2


def test_benchmark_flop_counters_read_stage_train_arguments(tmp_path, monkeypatch):
    """`_forward_flops` and `_backward_flops` take n from the first
    argument's shape and the model from a fixed position."""
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    config = _small_config(tmp_path)
    run_stages(config, ("learn", "featurize"))
    calls = {}
    for name in ("gcn_forward", "gcn_backward"):
        def recorded(*args, _fn=getattr(gcn, name), _name=name, **kwargs):
            calls.setdefault(_name, (args, kwargs))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gcn, name, recorded)
    stage_train(config)
    n = 65
    args, kwargs = calls["gcn_forward"]
    dims = args[2].dims
    assert tracing["_forward_flops"](args, kwargs) == 2 * n * n * sum(dims[:-1])
    args, kwargs = calls["gcn_backward"]
    assert tracing["_backward_flops"](args, kwargs) == 2 * n * n * dims[-1]


def test_train_calls_each_traced_gcn_function_once_per_epoch(monkeypatch):
    """The benchmark's ``gcn.forward``, ``gcn.backward`` and ``gcn.adam``
    spans wrap `gcn_forward`, `gcn_backward` and `adam_step` as module
    attributes, and its flop counters read P at position 0 and the model
    at position 2 (forward) and 4 (backward).  One `train` of E epochs
    looks each up through the module: E + 1 forward passes, E backward
    passes and E Adam steps, so inlining one into the loop fails here
    rather than emptying its span."""
    calls = {name: [] for name in ("gcn_forward", "gcn_backward", "adam_step")}
    for name, seen in calls.items():
        def recorded(*args, _fn=getattr(gcn, name), _seen=seen, **kwargs):
            _seen.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gcn, name, recorded)
    tracer = runpy.run_path(str(PERFBENCH / "tracing.py"))["Tracer"]()
    X = np.repeat(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [0.0, 3.0]]), 6, axis=0)
    labels = np.tile([0, 1, 1], 8)
    P = propagation_matrix(X)
    masks = gcn.SplitMasks(np.arange(12), np.arange(12, 18), np.arange(18, 24))
    epochs = 7
    tracer.install()
    try:
        model, history = gcn.train(
            P, X, labels, masks, gcn.TrainConfig(epochs=epochs, patience=epochs)
        )
    finally:
        tracer.uninstall()
    assert len(history) == epochs
    assert [len(seen) for seen in calls.values()] == [epochs + 1, epochs, epochs]
    assert [tracer.stats[name][0] for name in ("gcn.forward", "gcn.backward", "gcn.adam")] == [
        epochs + 1, epochs, epochs
    ]
    assert all(args[0] is P and args[2] is model for args in calls["gcn_forward"])
    assert all(args[0] is P and args[4] is model for args in calls["gcn_backward"])


@pytest.fixture
def score_probe(monkeypatch):
    """checks.py's ScoreProbe, installed on `gcn.predict`; the original
    is put back after the test."""
    monkeypatch.setattr(gcn, "predict", gcn.predict)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports tracing.py
    try:
        probe = runpy.run_path(str(PERFBENCH / "checks.py"))["ScoreProbe"]()
    finally:
        sys.modules.pop("tracing", None)
    probe.install()
    return probe


@pytest.mark.parametrize("sweep", [False, True], ids=["pipeline", "sweep"])
def test_benchmark_score_probe_sees_every_trained_model(tmp_path, score_probe, sweep):
    """The benchmark fails a call whose probe saw no `gcn.predict` call, so
    each train must score through that module attribute."""
    config = _small_config(tmp_path)
    if sweep:
        sensitivity_sweep(config, "hidden_size", values=[4, 8])
    else:
        run_pipeline(config)
    assert score_probe.calls == (2 if sweep else 1)
    assert score_probe.scores_finite
