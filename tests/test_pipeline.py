"""Pipeline staging, config handling, sweeps and the CLI."""

import ast
import dataclasses
import json
import logging
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from relgcn.cli import main as cli_main
from relgcn import featurize as fz
from relgcn.errors import ConfigError, DataError, NumericalError, ParseError
from relgcn.gcn import TrainConfig
from relgcn.grounding import sample_negatives
from relgcn.kb import parse_facts
from relgcn import pipeline
from relgcn.pipeline import (
    PipelineConfig,
    default_values,
    rule_coverage_report,
    run_pipeline,
    sensitivity_sweep,
    stage_eval,
    stage_featurize,
    stage_learn,
    stage_train,
)
from relgcn.rulelearn import LearnConfig
from relgcn.synth import SyntheticSpec, generate_synthetic


SMALL_SPEC = SyntheticSpec(
    n_persons=16, n_universities=3, n_topics=3, n_positives=25, n_negatives=40, seed=0
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One fully executed pipeline on a small planted dataset."""
    root = tmp_path_factory.mktemp("small_run")
    data_dir = root / "data"
    generate_synthetic(SMALL_SPEC, data_dir)
    config = _config(data_dir, root / "out")
    report = run_pipeline(config)
    return {"root": root, "data": data_dir, "config": config, "report": report}


def _config(data_dir, out_dir, **extra):
    overrides = {
        "facts": str(data_dir / "facts.txt"),
        "pos": str(data_dir / "pos.txt"),
        "neg": str(data_dir / "neg.txt"),
        "out": str(out_dir),
        "learn.k_pos": "2",
        "learn.k_neg": "2",
        "learn.max_constants_for_grounding": "0",
        "train.epochs": "40",
    }
    overrides.update(extra)
    return PipelineConfig.from_overrides(overrides)


def _clone_run(small_run, tmp_path, **extra):
    """Copy persisted artifacts so a test can rerun later stages in isolation."""
    out = tmp_path / "out"
    shutil.copytree(small_run["config"].out_dir(), out)
    return _config(small_run["data"], out, **extra)


# -- config handling -------------------------------------------------------


def test_config_defaults_and_coercion():
    config = PipelineConfig.from_overrides({"train.epochs": "13", "split.stratified": "no"})
    assert config["train.epochs"] == 13
    assert config["split.stratified"] is False
    assert config["featurize.metric"] == "euclidean"


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig.from_overrides({"train.momentum": "0.9"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_overrides({"split.stratified": "maybe"})
    # The target predicate is the one the positives file holds.
    with pytest.raises(ConfigError, match="unknown config key 'target'"):
        PipelineConfig.from_overrides({"target": "CoAuthor"})


def test_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\ntrain.epochs = 50\nfeaturize.metric = manhattan\n"
    )
    config = PipelineConfig.from_file(cfg_path, {"train.epochs": "7"})
    assert config["train.epochs"] == 7  # flags win
    assert config["featurize.metric"] == "manhattan"
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)


def test_config_hash_tracks_values():
    a = PipelineConfig.from_overrides({})
    b = PipelineConfig.from_overrides({})
    c = PipelineConfig.from_overrides({**a.values, "train.epochs": 99})
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    with pytest.raises(ConfigError):
        PipelineConfig.from_overrides({**a.values, "bogus.key": 1})


def test_config_schema_is_the_dataclasses():
    """Every ``learn.*``/``train.*`` key but ``learn.k_pos``/``k_neg`` is a
    field of LearnConfig/TrainConfig, every field has its key, and the
    defaults are the dataclasses' defaults."""
    keys = set(default_values())
    for prefix, cls in [("learn.", LearnConfig), ("train.", TrainConfig)]:
        section = {k[len(prefix):] for k in keys if k.startswith(prefix)}
        assert section - {"k_pos", "k_neg"} == {f.name for f in dataclasses.fields(cls)}
    config = PipelineConfig.from_overrides({})
    assert config.learn == LearnConfig()
    assert config.train == TrainConfig()


def test_config_coerces_values_that_are_not_strings():
    config = PipelineConfig.from_overrides(
        {"train.epochs": 13, "negatives.ratio": 2, "split.stratified": False}
    )
    assert config["train.epochs"] == config.train.epochs == 13
    assert config["negatives.ratio"] == 2.0 and isinstance(config["negatives.ratio"], float)
    assert config["split.stratified"] is False
    with pytest.raises(ConfigError, match="'train.epochs', got '1.5'"):
        PipelineConfig.from_overrides({"train.epochs": 1.5})


# -- stages ----------------------------------------------------------------


# Every file a pipeline run leaves in its run directory, as README lists
# them.  The propagation matrix is rebuilt from X where it is used and the
# trained weights are not persisted, so neither is among them.
RUN_ARTIFACTS = {
    "targets.csv",
    "rules.txt",
    "X.csv",
    "threshold.json",
    "history.csv",
    "splits.json",
    "test_scores.csv",
    "metrics.txt",
    "metrics.csv",
    "manifest.json",
}


def test_pipeline_artifacts_and_manifest(small_run):
    out = small_run["config"].out_dir()
    assert {p.name for p in out.iterdir()} == RUN_ARTIFACTS
    assert all((out / name).is_file() for name in RUN_ARTIFACTS)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == small_run["config"].hash()
    assert set(manifest["stage_times_s"]) == {"learn", "featurize", "train", "eval"}
    # Every seed the pipeline can draw from is recorded.
    assert {"learn.seed", "negatives.seed", "split.seed", "train.seed"} <= set(
        manifest["seeds"]
    )


def test_stage_eval_reproduces_pipeline_metrics(small_run, tmp_path):
    config = _clone_run(small_run, tmp_path)
    report = stage_eval(config)
    assert report.to_csv_row() == small_run["report"].to_csv_row()


def test_stage_train_then_eval_reproduces_metrics(small_run, tmp_path):
    # Train and eval read labels from targets.csv; they need no facts file.
    config = _clone_run(small_run, tmp_path, facts=str(tmp_path / "nowhere"))
    stage_train(config)
    report = stage_eval(config)
    assert report.to_csv_row() == small_run["report"].to_csv_row()


def test_full_rerun_is_deterministic(small_run, tmp_path):
    config = _config(small_run["data"], tmp_path / "out")
    report = run_pipeline(config)
    assert report.to_csv_row() == small_run["report"].to_csv_row()
    first = json.loads((small_run["config"].out_dir() / "manifest.json").read_text())
    second = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # Identical configs except the output path produce identical seed sets.
    assert first["seeds"] == second["seeds"]


def test_missing_facts_path_names_the_field(tmp_path):
    config = _config(tmp_path / "nowhere", tmp_path / "out")
    with pytest.raises(DataError, match="facts"):
        stage_learn(config)


def test_stage_failure_names_the_stage(tmp_path):
    config = _config(tmp_path / "nowhere", tmp_path / "out")
    with pytest.raises(DataError, match="stage 'learn'"):
        run_pipeline(config)


def test_stage_failure_keeps_parse_error_position(tmp_path):
    facts = tmp_path / "facts.txt"
    facts.write_text("@predicate P(t)\nnot a fact\n")
    config = _config(tmp_path, tmp_path / "out")
    with pytest.raises(ParseError, match="stage 'learn'") as info:
        run_pipeline(config)
    assert info.value.line == 2
    assert isinstance(info.value.__cause__, ParseError)


@pytest.mark.parametrize(
    "facts, message, line",
    [
        ("@predicate P(t, t)\nP(a, b).\nP(a, ).\n", "empty argument 2", 3),
        ("@predicate P(t, t)\n@predicate P(t, u)\n", "conflicting schema", 2),
    ],
)
def test_stage_failure_names_the_facts_line(tmp_path, caplog, facts, message, line):
    """An empty argument or a conflicting redeclaration in facts.txt is a
    ParseError of stage learn at its line, and the CLI exits 2."""
    (tmp_path / "facts.txt").write_text(facts)
    config = _config(tmp_path, tmp_path / "out")
    with pytest.raises(ParseError, match=f"stage 'learn' failed: {message}") as info:
        run_pipeline(config)
    assert info.value.line == line
    assert cli_main(["pipeline", "--out", str(tmp_path / "cli"), "--set",
                     f"facts={tmp_path / 'facts.txt'}"]) == 2
    assert message in caplog.text


def _count_parses(monkeypatch) -> list[int]:
    """Count the calls of ``parse_facts`` at the name the pipeline calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return parse_facts(*args, **kwargs)

    monkeypatch.setattr("relgcn.pipeline.parse_facts", counted)
    return calls


def test_run_pipeline_parses_the_facts_once_per_call(small_run, tmp_path, monkeypatch):
    """Learn and featurize share one parse of facts.txt, and nothing of it
    outlives the call: a second run parses again."""
    calls = _count_parses(monkeypatch)
    config = _config(small_run["data"], tmp_path / "out")
    run_pipeline(config)
    assert len(calls) == 1
    assert run_pipeline(config).to_csv_row() == small_run["report"].to_csv_row()
    assert len(calls) == 2


def test_sweep_from_an_empty_run_directory_parses_the_facts_once(
    small_run, tmp_path, monkeypatch
):
    calls = _count_parses(monkeypatch)
    config = _config(small_run["data"], tmp_path / "out")
    sensitivity_sweep(config, "hidden_size", values=[8])
    assert len(calls) == 1
    assert (tmp_path / "out" / "X.csv").read_bytes() == (
        small_run["config"].out_dir() / "X.csv"
    ).read_bytes()


def test_learn_contrast_follows_negatives_symmetric(small_run, tmp_path, monkeypatch):
    """Without a neg file, the run's negatives and both rule sets' contrast
    samples are drawn under ``negatives.symmetric``."""
    seen = []

    def recorded(*args, **kwargs):
        seen.append(kwargs.get("symmetric", args[5] if len(args) > 5 else True))
        return sample_negatives(*args, **kwargs)

    monkeypatch.setattr("relgcn.pipeline.sample_negatives", recorded)
    monkeypatch.setattr("relgcn.rulelearn.sample_negatives", recorded)
    config = _config(
        small_run["data"], tmp_path / "out", neg="", **{"negatives.symmetric": "false"}
    )
    run_pipeline(config)
    assert seen == [False, False, False]


def test_featurize_on_the_kb_learn_used_matches_a_standalone_featurize(small_run, tmp_path):
    """Featurize reuses learn's kb, with the join indexes learn built; X.csv
    is byte-identical to one from a kb parsed afresh."""
    config = _config(small_run["data"], tmp_path / "out")
    kb = parse_facts((small_run["data"] / "facts.txt").read_text())
    stage_learn(config, kb)
    assert kb.join_index_memory()[0] > 0
    stage_featurize(config, kb)
    shared = (tmp_path / "out" / "X.csv").read_bytes()
    stage_featurize(config)
    assert (tmp_path / "out" / "X.csv").read_bytes() == shared
    assert shared == (small_run["config"].out_dir() / "X.csv").read_bytes()


def test_featurize_reads_only_the_run_directory_and_the_facts(small_run, tmp_path):
    """X.csv is the raw rule counts: under a config that differs in the
    metric, the threshold and split and train keys, featurize reads no key
    but ``out`` and ``facts`` and writes the same bytes."""
    out = _clone_run(small_run, tmp_path).out_dir()
    (out / "X.csv").unlink()
    other = _config(
        small_run["data"], out,
        **{
            "featurize.metric": "chebyshev", "eval.threshold": "0.3",
            "split.train": "0.5", "split.val": "0.2", "split.seed": "4",
            "split.stratified": "false", "train.epochs": "3", "train.seed": "9",
            "train.hidden_size": "5",
        },
    )
    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    stage_featurize(dataclasses.replace(other, values=Reads(other.values)))
    assert (out / "X.csv").read_bytes() == (small_run["config"].out_dir() / "X.csv").read_bytes()
    assert read == {"out", "facts"}


@pytest.mark.parametrize("neg", [True, False], ids=["neg-file", "sampled"])
def test_targets_csv_reads_back_the_ids_and_labels_learn_wrote(small_run, tmp_path, neg):
    config = _config(small_run["data"], tmp_path / "out")
    if not neg:
        config = PipelineConfig.from_overrides({**config.values, "neg": ""})
    kb = parse_facts((small_run["data"] / "facts.txt").read_text())
    positives, negatives = pipeline._load_examples(config, kb)
    stage_learn(config, kb)
    read = pipeline._read_targets(config.out_dir() / "targets.csv", kb)
    learned = positives + negatives
    assert read.predicate == learned.predicate
    assert read.ids.tolist() == learned.ids.tolist()
    assert read.positive.tolist() == [True] * len(positives) + [False] * len(negatives)


@pytest.mark.parametrize(
    "key, edit, reason, line",
    [
        pytest.param("pos", lambda lines: [], "no example atoms", None, id="empty-pos"),
        pytest.param("neg", lambda lines: [], "no example atoms", None, id="empty-neg"),
        pytest.param(
            "pos",
            lambda lines: lines[:1] + ["Affiliation(P000, U0).\n"] + lines[1:],
            "Affiliation example among CoAuthor examples",
            2,
            id="other-predicate",
        ),
        pytest.param(
            "pos",
            lambda lines: lines[:2] + ["CoAuthor(P000 P001).\n"] + lines[2:],
            "arity mismatch for CoAuthor",
            3,
            id="arity",
        ),
        pytest.param(
            "neg",
            lambda lines: ["Affiliation(P000, U0).\n"],
            "holds Affiliation examples, not CoAuthor",
            None,
            id="neg-of-another-predicate",
        ),
    ],
)
def test_cli_bad_example_file_fails_before_learning(
    small_run, tmp_path, caplog, key, edit, reason, line
):
    """An example file without atoms, with an atom of another predicate or
    arity, or a neg file of another predicate than pos is a data error
    that names the config key and the path, and the line where one
    applies, raised before targets.csv is written or a rule learned."""
    data = small_run["data"]
    path = tmp_path / f"{key}.txt"
    lines = (data / f"{key}.txt").read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    out = tmp_path / "out"
    argv = ["pipeline", "--out", str(out), "--set", f"{key}={path}"]
    for other in {"facts", "pos", "neg"} - {key}:
        argv += ["--set", f"{other}={data / (other + '.txt')}"]
    assert cli_main(argv) == 2
    assert f"{path} (config key {key!r})" in caplog.text
    assert reason in caplog.text
    assert ("(line" in caplog.text) == (line is not None)
    if line is not None:
        assert f"(line {line})" in caplog.text
    assert not (out / "targets.csv").exists()
    assert not (out / "rules.txt").exists()


def test_labels_reject_unknown_values(small_run, tmp_path):
    config = _clone_run(small_run, tmp_path)
    targets = config.out_dir() / "targets.csv"
    lines = targets.read_text().splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",maybe\n"
    targets.write_text("".join(lines))
    with pytest.raises(DataError, match=r"targets\.csv, line 3"):
        stage_train(config)


def test_identical_feature_rows_fail_in_train(small_run, tmp_path):
    config = _clone_run(small_run, tmp_path)
    X, rows, cols = fz.read_matrix_csv(config.out_dir() / "X.csv")
    fz.write_matrix_csv(config.out_dir() / "X.csv", np.ones_like(X), rows, cols)
    with pytest.raises(NumericalError, match="identical feature row"):
        stage_train(config)


def _logged_graph(config, caplog) -> str:
    """Train on the run directory of ``config``: it logs one graph INFO
    line, which matches the graph rebuilt from X.csv, with the edges
    counted over the dense adjacency of the targets themselves."""
    with caplog.at_level(logging.INFO, logger="relgcn.pipeline"):
        stage_train(config)
    X, _, _ = fz.read_matrix_csv(config.out_dir() / "X.csv")
    prop = fz.propagation_matrix(X)
    t = json.loads((config.out_dir() / "threshold.json").read_text())["t"]
    _, row = np.unique(X, axis=0, return_inverse=True)
    u, n = int(row.max()) + 1, len(X)
    A, _ = fz.adjacency_approximation(fz.pairwise_distances(X))
    apart = row[:, None] != row[None, :]
    joined = (A > 0) & apart
    edges = {(row[i], row[j]) for i, j in zip(*np.nonzero(joined))}
    line = (
        f"graph over {n} targets with {u} distinct feature rows: metric euclidean, "
        f"t={t!r}, {len(edges)} of {u * u - u} off-diagonal entries of C nonzero, "
        f"joining {int(joined.sum()) / int(apart.sum())!r} of the target pairs in "
        f"different rows, propagation operator {prop.nbytes} bytes"
    )
    graph_lines = [
        r.getMessage() for r in caplog.records if r.getMessage().startswith("graph over")
    ]
    assert graph_lines == [line]
    assert prop.nbytes < 8 * n * n
    return line


def test_graph_build_is_logged(small_run, tmp_path, caplog):
    """The planted run's graph has no edge between distinct rows."""
    line = _logged_graph(_clone_run(small_run, tmp_path), caplog)
    assert "with 4 distinct feature rows" in line
    assert ", 0 of 12 off-diagonal entries of C nonzero, joining 0.0 of " in line


def test_graph_edges_are_logged(small_run, tmp_path, caplog):
    """One count column taking 0-4, 13 targets each: t is 3380/2080 =
    1.625, so only rows 1 apart are joined, 8 ordered row pairs, which join
    8 * 13 * 13 of the 65 * 65 - 5 * 13 * 13 target pairs in different
    rows, 0.4."""
    config = _clone_run(small_run, tmp_path)
    _, rows, _ = fz.read_matrix_csv(config.out_dir() / "X.csv")
    X = (np.arange(65) % 5).astype(float)[:, None]
    fz.write_matrix_csv(config.out_dir() / "X.csv", X, rows, ["rule0"])
    line = _logged_graph(config, caplog)
    assert ", t=1.625, 8 of 20 off-diagonal entries of C nonzero, joining 0.4 of " in line


def test_train_summary_is_logged(small_run, tmp_path, caplog):
    """One INFO line with the epochs run, the best epoch and the rows each
    layer ran on: the u distinct rows of X."""
    config = _clone_run(small_run, tmp_path)
    with caplog.at_level(logging.INFO, logger="relgcn.pipeline"):
        _, history = stage_train(config)
    X, _, _ = fz.read_matrix_csv(config.out_dir() / "X.csv")
    rows = len(np.unique(X, axis=0))
    val_losses = [rec.val_loss for rec in history]
    best = int(np.argmin(val_losses))
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("trained")] == [
        f"trained {len(history)} epochs, best epoch {best} (val_loss={val_losses[best]!r}); "
        f"each layer ran on {rows} rows for 65 targets"
    ]
    assert rows < 65


def test_eval_logs_what_it_scored(small_run, tmp_path, caplog):
    """One INFO line: the test targets scored, the threshold used and the
    scores file; eval builds no graph, so it logs none."""
    config = _clone_run(small_run, tmp_path, **{"eval.threshold": "0.3"})
    with caplog.at_level(logging.INFO, logger="relgcn.pipeline"):
        report = stage_eval(config)
    n = report.tp + report.fp + report.tn + report.fn
    assert [r.getMessage() for r in caplog.records] == [
        f"scored {n} test targets at threshold 0.3 "
        f"from {config.out_dir() / 'test_scores.csv'}"
    ]


def test_rule_coverage_report_lists_all_rules(small_run):
    text = rule_coverage_report(small_run["config"])
    lines = [l for l in text.splitlines() if l.strip()]
    rules = (small_run["config"].out_dir() / "rules.txt").read_text()
    n_rules = len([l for l in rules.splitlines() if l.strip()])
    assert len(lines) == n_rules
    assert all("covers" in l for l in lines)


# -- sweeps ----------------------------------------------------------------


def test_hidden_size_sweep_reuses_features(small_run, tmp_path):
    config = _clone_run(small_run, tmp_path)
    x_before = (config.out_dir() / "X.csv").read_bytes()
    results = sensitivity_sweep(config, "hidden_size", values=[8, 16])
    assert [v for v, _ in results] == [8, 16]
    assert all(r.auc_pr is not None for _, r in results)
    assert (config.out_dir() / "X.csv").read_bytes() == x_before
    sweep_csv = (config.out_dir() / "sweep_hidden_size.csv").read_text()
    assert len(sweep_csv.splitlines()) == 3  # header + 2 rows


def test_metric_sweep_runs_all_three(small_run, tmp_path, monkeypatch):
    config = _clone_run(small_run, tmp_path)
    x_before = (config.out_dir() / "X.csv").read_bytes()
    built = []
    build_rule_matrix = fz.build_rule_matrix

    def counting_build_rule_matrix(*args, **kwargs):
        built.append(args)
        return build_rule_matrix(*args, **kwargs)

    monkeypatch.setattr(fz, "build_rule_matrix", counting_build_rule_matrix)
    results = sensitivity_sweep(config, "metric")
    assert [v for v, _ in results] == ["manhattan", "euclidean", "chebyshev"]
    csv_text = (config.out_dir() / "sweep_metric.csv").read_text()
    for metric in ("manhattan", "euclidean", "chebyshev"):
        assert metric in csv_text
    # The metric only changes the propagation matrix: X is neither rebuilt
    # nor rewritten.
    assert built == []
    assert (config.out_dir() / "X.csv").read_bytes() == x_before


def test_staged_metric_reproduces_sweep_row(small_run, tmp_path):
    # Three rules per class give a graph that depends on the metric.
    rules = {"learn.k_pos": "3", "learn.k_neg": "3"}
    swept = _config(small_run["data"], tmp_path / "swept", **rules)
    run_pipeline(swept)
    euclidean_history = (swept.out_dir() / "history.csv").read_bytes()
    shutil.copytree(swept.out_dir(), tmp_path / "staged")
    [(_, report)] = sensitivity_sweep(swept, "metric", values=["manhattan"])
    staged = _config(
        small_run["data"], tmp_path / "staged", **rules, **{"featurize.metric": "manhattan"}
    )
    stage_train(staged)
    assert stage_eval(staged).to_csv_row() == report.to_csv_row()
    # Both trained on the manhattan graph: the loss curves agree exactly,
    # and differ from the euclidean run's.
    history = (staged.out_dir() / "history.csv").read_bytes()
    assert history == (swept.out_dir() / "history.csv").read_bytes()
    assert history != euclidean_history
    # threshold.json describes the graph the model was trained on.
    X, _, _ = fz.read_matrix_csv(staged.out_dir() / "X.csv")
    threshold = json.loads((staged.out_dir() / "threshold.json").read_text())
    assert threshold == {
        "metric": "manhattan",
        "t": fz.propagation_matrix(X, "manhattan").threshold,
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging loss overflows
def test_sweep_failure_names_the_stage_and_the_value(small_run, tmp_path, caplog):
    """A stage that fails in a sweep is named with the swept value; the
    error keeps its type, and the CLI its exit code."""
    config = _clone_run(small_run, tmp_path, **{"train.learning_rate": "1e300"})
    with pytest.raises(
        NumericalError, match="^stage 'train' failed at hidden_size=8: training diverged"
    ) as info:
        sensitivity_sweep(config, "hidden_size", values=[8])
    assert isinstance(info.value.__cause__, NumericalError)
    argv = ["sweep", "--axis", "hidden_size", "--out", str(config.out_dir()),
            "--set", "train.learning_rate=1e300"]
    assert cli_main(argv) == 3
    assert "stage 'train' failed at hidden_size=16: training diverged" in caplog.text


def test_sweep_unknown_axis(small_run):
    with pytest.raises(ConfigError):
        sensitivity_sweep(small_run["config"], "learning_rate")


# -- CLI -------------------------------------------------------------------


def test_cli_synth_and_pipeline(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = cli_main(
        [
            "synth",
            "--persons", "16",
            "--universities", "3",
            "--topics", "3",
            "--positives", "25",
            "--negatives", "40",
            "--out", str(data_dir),
        ]
    )
    assert rc == 0
    assert (data_dir / "facts.txt").is_file()

    rc = cli_main(
        [
            "pipeline",
            "--out", str(tmp_path / "out"),
            "--set", f"facts={data_dir / 'facts.txt'}",
            "--set", f"pos={data_dir / 'pos.txt'}",
            "--set", f"neg={data_dir / 'neg.txt'}",
            "--set", "learn.k_pos=2",
            "--set", "learn.k_neg=2",
            "--set", "learn.max_constants_for_grounding=0",
            "--set", "train.epochs=40",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "f1:" in out and "auc_pr:" in out

    rc = cli_main(
        [
            "inspect-rules",
            "--out", str(tmp_path / "out"),
            "--set", f"facts={data_dir / 'facts.txt'}",
        ]
    )
    assert rc == 0
    assert "covers" in capsys.readouterr().out


def test_cli_featurize_writes_only_x(small_run, tmp_path, capsys):
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    x_before = (out / "X.csv").read_bytes()
    (out / "X.csv").unlink()
    (out / "threshold.json").unlink()
    facts = small_run["data"] / "facts.txt"
    assert cli_main(["featurize", "--out", str(out), "--set", f"facts={facts}"]) == 0
    n_rules = len((out / "rules.txt").read_text().splitlines())
    assert f"65 targets x {n_rules} rules" in capsys.readouterr().out
    assert (out / "X.csv").read_bytes() == x_before
    # The graph's threshold is recorded by train, which builds the graph.
    assert not (out / "threshold.json").exists()


def test_cli_exit_codes(tmp_path):
    # Unknown config key: usage error.
    assert cli_main(["pipeline", "--set", "bogus=1"]) == 1
    # Malformed --set.
    assert cli_main(["pipeline", "--set", "no-equals"]) == 1
    # Missing facts file: data error.
    assert (
        cli_main(
            [
                "learn",
                "--out", str(tmp_path / "out"),
                "--set", f"facts={tmp_path / 'missing.txt'}",
            ]
        )
        == 2
    )
    # Unknown subcommand: argparse usage error.
    assert cli_main(["frobnicate"]) == 1


def _assert_removed_key(tmp_path, caplog, source, key, value):
    """Naming ``key``, by a flag or by a config file line, is a config
    error before anything runs."""
    out = tmp_path / "out"
    argv = ["train", "--out", str(out)]
    if source == "set":
        argv += ["--set", f"{key}={value}"]
    else:
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config_file)]
    assert cli_main(argv) == 1
    assert f"unknown config key {key!r}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("source", ["set", "config"])
def test_cli_removed_self_loop_key_is_unknown(tmp_path, caplog, source):
    """featurize.literal_self_loops is no longer a key."""
    _assert_removed_key(tmp_path, caplog, source, "featurize.literal_self_loops", "true")


@pytest.mark.parametrize("source", ["set", "config"])
@pytest.mark.parametrize("key, value", [("featurize.cap", "1"), ("featurize.zscale", "true")])
def test_cli_removed_count_rewrite_keys_are_unknown(tmp_path, caplog, source, key, value):
    """X.csv is the raw rule counts: neither clipping nor scaling them is
    a key."""
    _assert_removed_key(tmp_path, caplog, source, key, value)


def test_cli_removed_split_test_key_is_unknown(tmp_path, caplog):
    """The test share is what train and validation leave: it is no key."""
    _assert_removed_key(tmp_path, caplog, "set", "split.test", "0.3")


def test_cli_train_share_alone_leaves_the_rest_to_test(small_run, tmp_path):
    """``split.train=0.7`` needs no other split key: validation keeps its
    default 0.1 and the 65 targets leave 0.2 of them, 13, to test."""
    out = _clone_run(small_run, tmp_path).out_dir()
    assert cli_main(["train", "--out", str(out), "--set", "split.train=0.7"]) == 0
    splits = json.loads((out / "splits.json").read_text())
    assert [len(splits[part]) for part in ("train", "validation", "test")] == [46, 6, 13]


def test_readme_lists_exactly_the_run_artifacts():
    """README's list of what a pipeline run leaves in its run directory is
    the set a run writes, so a removed or added artifact cannot go
    undocumented."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("leaves all artifacts in `runs/demo`:")
    listing = readme[start : readme.index("\n\n", start)]
    named = set(re.findall(r"`([\w.]+\.(?:csv|txt|json))`", listing))
    assert named == RUN_ARTIFACTS


def test_readme_names_only_config_keys_that_exist():
    """Every backticked dotted key of a config section in README.md, bare
    or as ``key=value``, is a key of the config, so a removed key cannot
    linger in the docs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    key = r"`((?:learn|train|featurize|split|negatives|eval)\.[a-z0-9_]+)(?:=[^`]*)?`"
    named = set(re.findall(key, readme))
    assert len(named) > 20
    assert sorted(named - set(default_values())) == []


def test_every_plain_config_key_is_read():
    """Every key of ``pipeline._DEFAULTS`` is quoted in the package outside
    that literal, so a key whose reader is deleted cannot linger."""
    package = Path(pipeline.__file__).parent
    source = (package / "pipeline.py").read_text()
    literal = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "_DEFAULTS"
    )
    lines = source.splitlines(keepends=True)
    text = "".join(lines[: literal.lineno - 1] + lines[literal.end_lineno :]) + "".join(
        path.read_text() for path in sorted(package.glob("*.py")) if path.name != "pipeline.py"
    )
    unread = [key for key in pipeline._DEFAULTS if f'"{key}"' not in text and f"'{key}'" not in text]
    assert unread == []


def test_cli_non_utf8_facts_is_a_data_error(tmp_path, caplog):
    facts = tmp_path / "facts.txt"
    facts.write_bytes(b"@predicate P(t)\nP(\xff\xfe).\n")
    argv = ["pipeline", "--out", str(tmp_path / "out"), "--set", f"facts={facts}"]
    assert cli_main(argv) == 2
    assert "config key 'facts'" in caplog.text
    assert "stage 'learn'" in caplog.text


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(
            b"# \xff\xfe\ntrain.epochs = 5\n", "cannot decode config file", id="non-utf8"
        ),
        pytest.param(None, "does not exist", id="missing"),
    ],
)
def test_cli_non_utf8_config_is_a_config_error(tmp_path, caplog, content, message):
    """A config file that cannot be read is a config error (exit 1) that
    names it."""
    config_file = tmp_path / "bad.cfg"
    if content is not None:
        config_file.write_bytes(content)
    assert cli_main(["pipeline", "--config", str(config_file)]) == 1
    assert str(config_file) in caplog.text
    assert message in caplog.text


@pytest.mark.parametrize("command", ["featurize", "train", "eval", "inspect-rules"])
def test_cli_stage_on_a_missing_run_directory_creates_nothing(tmp_path, command):
    """Only learn creates the run directory: any later stage on a missing
    ``--out`` fails with exit 2 and leaves no directory behind."""
    out = tmp_path / "typo"
    facts = tmp_path / "facts.txt"
    facts.write_text("@predicate P(t)\nP(a).\n")
    assert cli_main([command, "--out", str(out), "--set", f"facts={facts}"]) == 2
    assert not out.exists()


def test_failed_rerun_leaves_no_manifest(small_run, tmp_path, monkeypatch):
    """A rerun that fails in train, after learn and featurize rewrote the
    rules and X, leaves no manifest of the earlier run to vouch for them."""
    config = _clone_run(small_run, tmp_path, **{"learn.k_pos": "1"})

    def diverge(*args, **kwargs):
        raise NumericalError("loss diverged")

    monkeypatch.setattr(pipeline.gcn_mod, "train", diverge)
    with pytest.raises(NumericalError, match="stage 'train' failed"):
        run_pipeline(config)
    out = config.out_dir()
    assert (out / "X.csv").is_file()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "setting",
    [
        "train.epochs=abc",
        "eval.threshold=half",
        "eval.threshold=mean",
        "featurize.metric=foo",
        "train.epochs=0",
        "split.train=0.8 split.val=-0.1",
        "split.train=0.95",
        "split.val=0.7 split.train=0.0",
        "split.train=0.7 split.val=0.0",
        "split.train=0.9 split.val=0.1",
        "train.hidden_size=0",
        "train.dropout_rate=1.5",
        "train.patience=-1",
        "train.weight_decay=-1.0",
        "train.weight_decay=-1e-4",
        "split.val=0",
        "learn.beam_width=0",
        "learn.k_pos=0",
        "learn.k_neg=0",
        "learn.min_examples_per_leaf=0",
        "learn.covering_discount=2",
        "learn.contrast_ratio=0",
        "learn.max_constants_for_grounding=-5",
        "negatives.ratio=0",
        "negatives.seed=-1",
        "learn.seed=-1",
        "train.seed=-1",
        "split.seed=-1",
        "negatives.ratio=nan",
        "learn.contrast_ratio=inf",
        "train.learning_rate=nan",
        "eval.threshold=nan",
        "eval.threshold=2",
        "eval.threshold=-1",
    ],
)
def test_cli_unparsable_config_value_is_a_config_error(
    small_run, tmp_path, caplog, setting
):
    """``setting`` is one or more space-separated KEY=VALUE flags; the
    error names the last one."""
    out = tmp_path / "out"
    data = small_run["data"]
    argv = ["pipeline", "--out", str(out)]
    for item in setting.split():
        argv += ["--set", item]
    for key in ("facts", "pos", "neg"):
        argv += ["--set", f"{key}={data / (key + '.txt')}"]
    assert cli_main(argv) == 1
    key, value = setting.split()[-1].split("=")
    assert f"{key!r}, got {value!r}" in caplog.text
    assert not out.exists()  # no stage ran


@pytest.mark.parametrize("command", ["featurize", "inspect-rules", "train"])
def test_cli_targets_row_with_extra_field_is_a_data_error(
    small_run, tmp_path, caplog, command
):
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    targets = out / "targets.csv"
    lines = targets.read_text().splitlines(keepends=True)
    lines[2] = lines[2].rstrip("\n") + ",extra\n"
    targets.write_text("".join(lines))
    facts = small_run["data"] / "facts.txt"
    assert cli_main([command, "--out", str(out), "--set", f"facts={facts}"]) == 2
    assert f"{targets}, line 3" in caplog.text


@pytest.mark.parametrize("command", ["featurize", "inspect-rules", "train"])
def test_cli_targets_without_header_is_a_data_error(small_run, tmp_path, caplog, command):
    """A targets.csv whose first row is a target, not ``id,label``,
    would lose that target; it is refused instead."""
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    targets = out / "targets.csv"
    targets.write_text("".join(targets.read_text().splitlines(keepends=True)[1:]))
    facts = small_run["data"] / "facts.txt"
    assert cli_main([command, "--out", str(out), "--set", f"facts={facts}"]) == 2
    assert f"{targets}: expected the header 'id,label'" in caplog.text


@pytest.mark.parametrize("command", ["featurize", "inspect-rules"])
@pytest.mark.parametrize(
    "cell, reason",
    [
        pytest.param("CoAuthor(p1 p2)", "arity mismatch", id="arity"),
        pytest.param("Bogus(p1, p2)", "unknown predicate", id="predicate"),
        pytest.param("CoAuthor(p1, p2", "malformed example line", id="malformed"),
        pytest.param("% p1", "expected one atom", id="comment-only"),
        pytest.param(
            "CoAuthor(p1, p2).\nCoAuthor(p2, p3)", "expected one atom", id="two-atoms"
        ),
    ],
)
def test_cli_targets_bad_atom_cell_is_a_parse_error(
    small_run, tmp_path, caplog, command, cell, reason
):
    """Each atom cell must parse to one atom; the error names the file and
    the line the row starts on."""
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    targets = out / "targets.csv"
    lines = targets.read_text().splitlines(keepends=True)
    label = lines[2].rstrip("\r\n").rsplit(",", 1)[1]
    lines[2] = f'"{cell}",{label}\n'
    targets.write_text("".join(lines))
    facts = small_run["data"] / "facts.txt"
    assert cli_main([command, "--out", str(out), "--set", f"facts={facts}"]) == 2
    assert f"{targets}: {reason}" in caplog.text
    assert "(line 3)" in caplog.text


def _edit_lines(name, edit):
    """A damage that rewrites the lines of the run directory's ``name``
    through ``edit``."""

    def damage(out):
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))

    return damage


def _last_cell(text):
    """An edit that sets the last cell of line 4 to ``text``."""

    def edit(lines):
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{text}\n"
        return lines

    return edit


def _drop_first_row(lines):
    return lines[:1] + lines[2:]


def _remove_scores(out):
    (out / "test_scores.csv").unlink()


def _label_cell(text):
    """An edit that sets the label cell of line 2 to ``text``."""

    def edit(lines):
        atom, _, score = lines[1].rstrip("\n").rsplit(",", 2)
        lines[1] = f"{atom},{text},{score}\n"
        return lines

    return edit


@pytest.mark.parametrize(
    "command, damage, damaged, reason",
    [
        pytest.param(
            "train", _edit_lines("X.csv", _drop_first_row), "X.csv", "rerun featurize",
            id="train-x-row-missing",
        ),
        pytest.param(
            "train",
            _edit_lines("X.csv", lambda lines: [lines[0], lines[2], lines[1]] + lines[3:]),
            "X.csv",
            "rerun featurize",
            id="train-x-rows-swapped",
        ),
        pytest.param(
            "train", _edit_lines("X.csv", _last_cell("abc")), "X.csv", "line 4",
            id="train-x-cell",
        ),
        pytest.param(
            "train", _edit_lines("X.csv", _last_cell("nan")), "X.csv", "not a finite float",
            id="train-x-nan",
        ),
        pytest.param(
            "train", _edit_lines("X.csv", _last_cell("inf")), "X.csv", "not a finite float",
            id="train-x-inf",
        ),
        pytest.param(
            "train", _edit_lines("targets.csv", _last_cell("0.5")), "targets.csv",
            "has label 0.5, not 0 or 1", id="train-targets-label",
        ),
        pytest.param(
            "train",
            _edit_lines("targets.csv", lambda lines: ["atom,label\n"] + lines[1:]),
            "targets.csv",
            "expected the header 'id,label'",
            id="train-targets-header",
        ),
        pytest.param(
            "eval", _remove_scores, "test_scores.csv", "retrain", id="eval-scores-missing"
        ),
        pytest.param(
            "eval", _edit_lines("test_scores.csv", _last_cell("abc")), "test_scores.csv",
            "line 4", id="eval-scores-cell",
        ),
        pytest.param(
            "eval", _edit_lines("test_scores.csv", _last_cell("nan")), "test_scores.csv",
            "not a finite float", id="eval-scores-nan",
        ),
        pytest.param(
            "eval", _edit_lines("test_scores.csv", _last_cell("-inf")), "test_scores.csv",
            "not a finite float", id="eval-scores-inf",
        ),
        pytest.param(
            "eval",
            _edit_lines(
                "test_scores.csv", lambda lines: [l.rsplit(",", 1)[0] + "\n" for l in lines]
            ),
            "test_scores.csv",
            "expected the header 'id,label,score'",
            id="eval-scores-columns",
        ),
        pytest.param(
            "eval",
            _edit_lines("test_scores.csv", lambda lines: ["id,label,prob\n"] + lines[1:]),
            "test_scores.csv",
            "expected the header 'id,label,score'",
            id="eval-scores-header",
        ),
        pytest.param(
            "eval", _edit_lines("test_scores.csv", lambda lines: lines[:1]), "test_scores.csv",
            "holds no target", id="eval-scores-empty",
        ),
        pytest.param(
            "eval", _edit_lines("test_scores.csv", _label_cell("0.5")), "test_scores.csv",
            "has label 0.5, not 0 or 1", id="eval-scores-label",
        ),
    ],
)
def test_cli_damaged_run_directory_is_a_data_error(
    small_run, tmp_path, caplog, command, damage, damaged, reason
):
    """Train checks targets.csv and X.csv against it, and eval checks the
    test_scores.csv train wrote, both tables through one reader, before
    they use them; each error names the damaged file and why."""
    out = _clone_run(small_run, tmp_path).out_dir()
    damage(out)
    assert cli_main([command, "--out", str(out)]) == 2
    assert str(out / damaged) in caplog.text
    assert reason in caplog.text


def test_train_accepts_targets_cells_spaced_otherwise(small_run, tmp_path):
    """X.csv's row ids are the atoms as featurize prints them; a targets.csv
    cell with other spacing still names the same target."""
    config = _clone_run(small_run, tmp_path)
    targets = config.out_dir() / "targets.csv"
    lines = targets.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(", ", " ,").replace("(", "( ")
    targets.write_text("".join(lines))
    stage_featurize(config)
    stage_train(config)
    assert stage_eval(config).to_csv_row() == small_run["report"].to_csv_row()


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"featurize.metric": "chebyshev"}, id="metric"),
    ],
)
def test_cli_eval_reports_the_trained_graph_under_other_keys(small_run, tmp_path, overrides):
    """The run was trained under euclidean; eval reads the scores train
    wrote, so other featurize keys leave its metrics those of the trained
    model."""
    out = _clone_run(small_run, tmp_path).out_dir()
    trained = (out / "metrics.csv").read_bytes()
    (out / "metrics.csv").unlink()
    flags = [arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}")]
    assert cli_main(["eval", "--out", str(out), *flags]) == 0
    assert (out / "metrics.csv").read_bytes() == trained


def test_eval_reads_only_the_test_scores(small_run, tmp_path):
    """Eval needs no feature matrix, split or graph record."""
    config = _clone_run(small_run, tmp_path)
    for name in ("X.csv", "targets.csv", "splits.json", "threshold.json"):
        (config.out_dir() / name).unlink()
    assert stage_eval(config).to_csv_row() == small_run["report"].to_csv_row()


def test_eval_after_relearning_reports_the_trained_model(tmp_path):
    """Rules relearned and X rebuilt after train leave eval reporting the
    scores of the model train fitted, not of features it never saw."""
    spec = SyntheticSpec(
        n_persons=30, n_universities=4, n_topics=5, n_positives=40, n_negatives=80, seed=1
    )
    generate_synthetic(spec, tmp_path / "data")
    config = _config(
        tmp_path / "data", tmp_path / "out",
        **{"learn.k_pos": "3", "learn.k_neg": "3", "train.epochs": "200"},
    )
    trained = run_pipeline(config).to_csv_row()
    relearned = PipelineConfig.from_overrides(
        {**config.values, "learn.k_pos": 2, "learn.k_neg": 1, "learn.max_body_length": 2}
    )
    rules_before = (config.out_dir() / "rules.txt").read_text()
    stage_learn(relearned)
    assert (config.out_dir() / "rules.txt").read_text() != rules_before
    stage_featurize(relearned)
    assert stage_eval(relearned).to_csv_row() == trained


def test_cli_train_after_relearning_needs_featurize_again(tmp_path, caplog):
    """Relearning rewrites the rules and targets X is built from, so it
    deletes X.csv: train names the missing file and exits 2 instead of
    fitting the old columns, and succeeds once featurize has rebuilt X."""
    data, out = tmp_path / "data", str(tmp_path / "out")
    synth = ["synth", "--out", str(data), "--persons", "30", "--universities", "4"]
    synth += ["--topics", "5", "--positives", "40", "--negatives", "80", "--seed", "1"]
    assert cli_main(synth) == 0
    inputs = [f"{key}={data / key}.txt" for key in ("facts", "pos", "neg")]
    flags = [arg for item in inputs for arg in ("--set", item)]
    flags += ["--set", "learn.max_constants_for_grounding=0"]
    assert cli_main(["pipeline", "--out", out, *flags]) == 0
    rules_before = (tmp_path / "out" / "rules.txt").read_text()
    assert cli_main(["learn", "--out", out, *flags, "--set", "learn.k_pos=1"]) == 0
    assert (tmp_path / "out" / "rules.txt").read_text() != rules_before
    assert not (tmp_path / "out" / "X.csv").exists()
    caplog.clear()
    assert cli_main(["train", "--out", out]) == 2
    assert "X.csv" in caplog.text
    assert cli_main(["featurize", "--out", out, *flags]) == 0
    assert cli_main(["train", "--out", out]) == 0


@pytest.mark.parametrize("flag", [["--config", "nonexistent.cfg"], ["--set", "bogus=1"]])
def test_cli_synth_rejects_config_flags(tmp_path, flag):
    """Synth reads no config, so a config file or key given to it is a
    usage error, not silently ignored."""
    out = tmp_path / "data"
    assert cli_main(["synth", "--out", str(out), *flag]) == 1
    assert not out.exists()


def test_cli_seed_flag_overrides_all_seeds(tmp_path, monkeypatch):
    captured = {}

    def fake_run(config):
        captured.update(config.values)

        class R:
            def to_text(self):
                return ""

        return R()

    monkeypatch.setattr("relgcn.cli.run_pipeline", fake_run)
    config_file = tmp_path / "run.cfg"
    config_file.write_text("learn.seed = 3\n")
    argv = ["pipeline", "--seed", "42", "--config", str(config_file), "--set", "train.seed=5"]
    assert cli_main(argv) == 0  # --seed wins over --set and the config file
    assert captured["learn.seed"] == 42
    assert captured["train.seed"] == 42
    assert captured["split.seed"] == 42
    assert captured["negatives.seed"] == 42


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_cli_negative_seed_flag_is_a_config_error(tmp_path, caplog, command):
    out = tmp_path / "out"
    assert cli_main([command, "--out", str(out), "--seed", "-1"]) == 1
    assert "seed', got '-1'" in caplog.text
    assert not out.exists()
