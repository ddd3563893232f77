"""Pipeline staging, config handling, sweeps and the CLI."""

import ast
import csv
import dataclasses
import inspect
import json
import logging
import os
import re
import runpy
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relgcn
from relgcn.cli import derived_seeds, main as cli_main
from relgcn import featurize as fz
from relgcn.errors import ConfigError, DataError, NumericalError, ParseError
from relgcn.gcn import EpochRecord, TrainConfig
from relgcn.grounding import sample_negatives
from relgcn.kb import parse_facts
from relgcn import pipeline
from relgcn.pipeline import (
    PipelineConfig,
    default_values,
    rule_coverage_report,
    run_pipeline,
    run_stages,
    sensitivity_sweep,
    stage_eval,
    stage_featurize,
    stage_learn,
    stage_train,
)
from relgcn.rulelearn import LearnConfig
from relgcn.synth import SyntheticSpec, generate_synthetic


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
    config = PipelineConfig.from_overrides({"train.epochs": "13", "negatives.symmetric": "no"})
    assert config["train.epochs"] == 13
    assert config["negatives.symmetric"] is False
    assert config["featurize.metric"] == "euclidean"


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig.from_overrides({"train.momentum": "0.9"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_overrides({"negatives.symmetric": "maybe"})
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


def test_config_file_comment_starts_at_a_line_start_or_after_a_blank(tmp_path):
    """A ``#`` starts a comment at the start of a line or after a blank;
    inside a value it is part of the value."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\nout = runs/#3\n  # indented comment\n"
        "train.epochs = 50 # trailing comment\nfeaturize.metric = manhattan\t# after a tab\n"
    )
    config = PipelineConfig.from_file(cfg_path)
    assert config["out"] == "runs/#3"
    assert config["train.epochs"] == 50
    assert config["featurize.metric"] == "manhattan"


def test_config_hash_tracks_values():
    a = PipelineConfig.from_overrides({})
    b = PipelineConfig.from_overrides({})
    c = PipelineConfig.from_overrides({**a.values, "train.epochs": 99})
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    with pytest.raises(ConfigError):
        PipelineConfig.from_overrides({**a.values, "bogus.key": 1})


def test_config_schema_is_the_dataclasses():
    """Every ``learn.*``/``train.*`` key but ``learn.k_pos``/``k_neg`` and
    the one-value ``learn.max_constants_for_grounding`` is a field of
    LearnConfig/TrainConfig, every field has its key, and the defaults are
    the dataclasses' defaults."""
    keys = set(default_values())
    plain = {"k_pos", "k_neg", "max_constants_for_grounding"}
    for prefix, cls in [("learn.", LearnConfig), ("train.", TrainConfig)]:
        section = {k[len(prefix):] for k in keys if k.startswith(prefix)}
        assert section - plain == {f.name for f in dataclasses.fields(cls)}
    config = PipelineConfig.from_overrides({})
    assert config.learn == LearnConfig()
    assert config.train == TrainConfig()


def test_config_coerces_values_that_are_not_strings():
    config = PipelineConfig.from_overrides(
        {"train.epochs": 13, "negatives.ratio": 2, "negatives.symmetric": False}
    )
    assert config["train.epochs"] == config.train.epochs == 13
    assert config["negatives.ratio"] == 2.0 and isinstance(config["negatives.ratio"], float)
    assert config["negatives.symmetric"] is False
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
        run_stages(config, ("learn",))


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
    ParseError of stage learn at its line, naming the file, and the CLI
    exits 2."""
    (tmp_path / "facts.txt").write_text(facts)
    config = _config(tmp_path, tmp_path / "out")
    named = re.escape(f"{tmp_path / 'facts.txt'} (config key 'facts'): ")
    with pytest.raises(ParseError, match=f"stage 'learn' failed: {named}{message}") as info:
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


# -- stage handoff ---------------------------------------------------------


def test_pipeline_reads_back_nothing_it_wrote(small_run, tmp_path, monkeypatch):
    """Run together, each stage hands its result to the next: no matrix
    CSV (targets.csv, X.csv, test_scores.csv) is read, and the only example
    files parsed are pos.txt and neg.txt."""

    def refused(path, *args, **kwargs):
        raise AssertionError(f"read {path}")

    parsed = []
    parse = pipeline.parse_ground_atoms

    def counted(*args, **kwargs):
        parsed.append(1)
        return parse(*args, **kwargs)

    monkeypatch.setattr(fz, "read_matrix_csv", refused)
    monkeypatch.setattr(pipeline, "parse_ground_atoms", counted)
    report = run_pipeline(_config(small_run["data"], tmp_path / "out"))
    assert len(parsed) == 2
    assert report.to_csv_row() == small_run["report"].to_csv_row()


def test_sweep_over_a_run_directory_reads_x_and_targets_once(small_run, tmp_path, monkeypatch):
    """A sweep over an existing run directory reads X.csv and targets.csv
    once and hands them to every value's train, and each eval gets its
    train's scores, not test_scores.csv."""
    config = _clone_run(small_run, tmp_path)
    reads = []
    read = fz.read_matrix_csv

    def recorded(path, *args, **kwargs):
        reads.append(Path(path).name)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(fz, "read_matrix_csv", recorded)
    results = sensitivity_sweep(config, "hidden_size", values=[4, 8, 16, 32])
    assert [value for value, _ in results] == [4, 8, 16, 32]
    assert sorted(reads) == ["X.csv", "targets.csv"]


def _assert_same(handed: tuple, read: tuple) -> None:
    """Element for element equal: arrays in dtype, shape and bytes."""
    assert len(handed) == len(read)
    for a, b in zip(handed, read):
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b


@pytest.mark.parametrize("neg", [True, False], ids=["neg-file", "sampled"])
def test_each_chained_stage_receives_what_its_loader_reads_back(
    small_run, tmp_path, monkeypatch, neg
):
    """What featurize, train and eval are handed in a pipeline run equals
    what ``_load_rules``, ``_read_graph`` and ``_read_scores`` read back
    from the files the run wrote."""
    received = {}

    def recorder(name, fn):
        def recorded(*args):
            received[name] = args
            return fn(*args)
        return recorded

    monkeypatch.setattr(
        pipeline, "_STAGES", [(s, recorder(s, fn)) for s, fn in pipeline._STAGES]
    )
    config = _config(small_run["data"], tmp_path / "out", **({} if neg else {"neg": ""}))
    run_pipeline(config)
    _, kb, (targets, ids, rules) = received["featurize"]
    read_targets, read_ids, read_rules = pipeline._load_rules(config, kb)
    assert targets.predicate == read_targets.predicate
    _assert_same((targets.ids, targets.positive), (read_targets.ids, read_targets.positive))
    assert ids == read_ids
    assert rules == read_rules
    _, featurized = received["train"]
    _assert_same(featurized, pipeline._read_graph(config))
    _, trained = received["eval"]
    _assert_same(trained[:2], pipeline._read_scores(config))


def test_learn_contrast_follows_negatives_symmetric(small_run, tmp_path, monkeypatch):
    """Without a neg file, the run draws the negatives, then the
    positive-density contrast, then the negative-density one, each outside
    its class, with its ratio key and seed and under ``negatives.symmetric``."""
    seen = []

    def recorded(*args, **kwargs):
        drawn = inspect.signature(sample_negatives).bind(*args, **kwargs).arguments
        seen.append((len(drawn["positives"]), drawn["ratio"], drawn["seed"], drawn["symmetric"]))
        return sample_negatives(*args, **kwargs)

    monkeypatch.setattr("relgcn.pipeline.sample_negatives", recorded)
    monkeypatch.setattr("relgcn.rulelearn.sample_negatives", recorded)
    config = _config(
        small_run["data"], tmp_path / "out", neg="",
        **{
            "negatives.symmetric": "false", "negatives.ratio": "1.6", "negatives.seed": "3",
            "learn.contrast_ratio": "0.8", "learn.seed": "11",
        },
    )
    run_pipeline(config)
    # 25 positives, then ceil(1.6 * 25) = 40 negatives.
    assert seen == [(25, 1.6, 3, False), (25, 0.8, 11, False), (40, 0.8, 12, False)]


def test_rule_learning_draws_no_sample(small_run, tmp_path, monkeypatch):
    """`learn_ruleset` fits the contrast it is given: with sampled negatives
    a run finishes with the rule learner's sampler replaced by one that
    raises."""

    def refused(*args, **kwargs):
        raise AssertionError("rule learning drew a sample")

    monkeypatch.setattr("relgcn.rulelearn.sample_negatives", refused)
    run_pipeline(_config(small_run["data"], tmp_path / "out", neg=""))


def test_featurize_on_the_kb_learn_used_matches_a_standalone_featurize(small_run, tmp_path):
    """Featurize reuses learn's kb, with the join indexes learn built; X.csv
    is byte-identical to one from a kb parsed afresh."""
    config = _config(small_run["data"], tmp_path / "out")
    kb = parse_facts((small_run["data"] / "facts.txt").read_text())
    stage_learn(config, kb)
    assert kb.join_index_memory()[0] > 0
    stage_featurize(config, kb)
    shared = (tmp_path / "out" / "X.csv").read_bytes()
    run_stages(config, ("featurize",))
    assert (tmp_path / "out" / "X.csv").read_bytes() == shared
    assert shared == (small_run["config"].out_dir() / "X.csv").read_bytes()


def test_featurize_reads_only_the_run_directory_and_the_facts(small_run, tmp_path):
    """X.csv is the raw rule counts: under a config that differs in the
    metric, the threshold and split and train keys, a featurize run reads
    no key but ``out`` and ``facts`` and writes the same bytes."""
    out = _clone_run(small_run, tmp_path).out_dir()
    (out / "X.csv").unlink()
    other = _config(
        small_run["data"], out,
        **{
            "featurize.metric": "chebyshev", "eval.threshold": "0.3",
            "split.train": "0.5", "split.val": "0.2", "split.seed": "4",
            "train.epochs": "3", "train.seed": "9",
            "train.hidden_size": "5",
        },
    )
    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    run_stages(dataclasses.replace(other, values=Reads(other.values)), ("featurize",))
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
    read, ids = pipeline._read_targets(config.out_dir() / "targets.csv", kb)
    learned = positives + negatives
    assert ids == kb.atom_texts(learned.predicate, learned.ids)
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


@pytest.mark.parametrize(
    "edit, keys",
    [
        pytest.param(lambda pos, neg: (pos + pos[2:3], neg), ["pos"], id="twice-in-pos"),
        pytest.param(lambda pos, neg: (pos, neg[:1] + pos[2:3] + neg[1:]), ["pos", "neg"],
                     id="pos-and-neg"),
        pytest.param(lambda pos, neg: (pos, neg + neg[2:3]), ["neg"], id="twice-in-neg"),
    ],
)
def test_cli_example_listed_twice_fails_before_learning(small_run, tmp_path, caplog, edit, keys):
    """A target atom listed twice, with one label or two, would be two
    targets that can land in train and in test; it is a data error that
    names the atom and its file or both files, raised before targets.csv
    is written."""
    data, out = small_run["data"], tmp_path / "out"
    texts = [(data / f"{key}.txt").read_text().splitlines(keepends=True) for key in ("pos", "neg")]
    argv = ["pipeline", "--out", str(out), "--set", f"facts={data / 'facts.txt'}"]
    for key, lines in zip(("pos", "neg"), edit(*texts)):
        (tmp_path / f"{key}.txt").write_text("".join(lines))
        argv += ["--set", f"{key}={tmp_path / f'{key}.txt'}"]
    twice = (texts[0] if "pos" in keys else texts[1])[2].strip().rstrip(".")
    assert cli_main(argv) == 2
    files = " and in ".join(f"{tmp_path / f'{key}.txt'} (config key {key!r})" for key in keys)
    assert f"target {twice} is listed twice, in {files}" in caplog.text
    assert not (out / "targets.csv").exists()


def test_reversed_pair_is_another_target(small_run, tmp_path):
    """Under ``negatives.symmetric`` a pair and its reverse stay two
    targets: listing both is no repeat."""
    data = small_run["data"]
    pos = (data / "pos.txt").read_text().splitlines(keepends=True)
    a, b = pos[0].strip().rstrip(".")[len("CoAuthor("):-1].split(", ")
    (tmp_path / "pos.txt").write_text("".join(pos) + f"CoAuthor({b}, {a}).\n")
    config = _config(data, tmp_path / "out", pos=str(tmp_path / "pos.txt"))
    assert config["negatives.symmetric"] is True
    kb = parse_facts((data / "facts.txt").read_text())
    positives, _ = pipeline._load_examples(config, kb)
    assert len(positives) == len(pos) + 1


@pytest.mark.parametrize("command", ["featurize", "inspect-rules"])
def test_cli_targets_row_listed_twice_is_a_data_error(small_run, tmp_path, caplog, command):
    """A targets.csv that holds one atom on two rows, here with the other
    label, is refused with both lines."""
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    targets = out / "targets.csv"
    lines = targets.read_text().splitlines(keepends=True)
    cell, label = lines[2].rstrip("\r\n").rsplit(",", 1)
    lines.append(f"{cell},{1.0 - float(label)}\n")
    targets.write_text("".join(lines))
    facts = small_run["data"] / "facts.txt"
    assert cli_main([command, "--out", str(out), "--set", f"facts={facts}"]) == 2
    atom = cell.strip('"')
    assert (
        f"target {atom} is listed twice, "
        f"on line 3 of {targets} and on line {len(lines)} of {targets}"
    ) in caplog.text


@pytest.mark.parametrize(
    "overrides, draw",
    [
        pytest.param(
            {"neg": "", "negatives.ratio": "5"},
            r"cannot sample the negatives \(config key 'negatives\.ratio' = 5\.0\): "
            r"requested 125 negatives",
            id="negatives",
        ),
        pytest.param(
            {"learn.contrast_ratio": "3"},
            r"cannot sample the contrast of the negative-density rule set outside "
            r"its 40 examples \(config key 'learn\.contrast_ratio' = 3\.0\): "
            r"requested 120 negatives",
            id="contrast",
        ),
    ],
)
def test_cli_too_large_a_draw_names_its_ratio_key(small_run, tmp_path, caplog, overrides, draw):
    """16 persons give 120 unordered pairs.  Sampling 5 x 25 negatives
    outside the 25 positives, or a contrast of 3 x 40 outside the 40
    negatives, asks for more than there are; the error names the draw
    and its ratio key."""
    data, out = small_run["data"], tmp_path / "out"
    argv = ["pipeline", "--out", str(out)]
    for key in ("facts", "pos", "neg"):
        argv += ["--set", f"{key}={data / (key + '.txt')}"]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert cli_main(argv) == 2
    assert re.search(r"stage 'learn' failed: " + draw, caplog.text)


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


def _assert_train_summary(config, caplog, stopped):
    with caplog.at_level(logging.INFO, logger="relgcn.pipeline"):
        *_, history = stage_train(config)
    X, _, _ = fz.read_matrix_csv(config.out_dir() / "X.csv")
    rows = len(np.unique(X, axis=0))
    val_losses = [rec.val_loss for rec in history]
    lowest = int(np.argmin(val_losses))
    assert (len(history) < config["train.epochs"]) == stopped
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("trained")] == [
        f"trained {len(history)} epochs ({'stopped early' if stopped else 'no early stop'}); "
        f"val_loss={val_losses[-1]!r}, lowest val_loss at epoch {lowest}; "
        f"each layer ran on {rows} rows for 65 targets"
    ]
    assert rows < 65


def test_train_summary_is_logged(small_run, tmp_path, caplog):
    """One INFO line with the epochs run, whether the stop rule fired, the
    validation loss of the returned weights (the last epoch's), the epoch
    of the lowest validation loss and the rows each layer ran on: the u
    distinct rows of X.  At the fixture's settings the validation loss
    falls at every one of the 40 epochs."""
    _assert_train_summary(_clone_run(small_run, tmp_path), caplog, stopped=False)


def test_train_summary_reports_an_early_stop(small_run, tmp_path, caplog):
    """At learning rate 0.5 the validation loss is lowest early on and the
    stop rule ends training before the 40th epoch; the line says so."""
    config = _clone_run(small_run, tmp_path, **{"train.learning_rate": "0.5"})
    _assert_train_summary(config, caplog, stopped=True)


@pytest.fixture(scope="module")
def topics_run(tmp_path_factory):
    """Learn and featurize on the benchmark's pinned `sampled-topics` data,
    read from ``perfbench/workloads.py`` (not changed), under that
    workload's overrides."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    root = tmp_path_factory.mktemp("topics")
    facts, positives = workloads["topics_inputs"](workloads["TopicsSpec"](), workloads["TOPICS_KB_SEED"])
    (root / "facts.txt").write_text(facts)
    (root / "pos.txt").write_text(positives)
    overrides = {
        "facts": str(root / "facts.txt"),
        "pos": str(root / "pos.txt"),
        "out": str(root / "out"),
        **workloads["TOPICS_OVERRIDES"],
    }
    run_stages(PipelineConfig.from_overrides(overrides), ("learn", "featurize"))
    return overrides


@pytest.mark.parametrize(
    ("spec", "limit_mib", "largest"),
    [({}, 3.0, 12_138), ({"persons": 6000, "positives": 160}, 25, 192_248)],
    ids=["sampled-topics", "6000-persons"],
)
def test_learn_peak_follows_the_tables_it_builds(tmp_path, caplog, spec, limit_mib, largest):
    """Learn keeps a spine that ends in a leaf factorized until a tree
    expands it; a candidate that ties the leaf to an older variable is
    scored on a table gathered for the spine's scoring alone.  On the
    `sampled-topics` data (1,500 persons) one learn stage, the parse
    included, peaks under 3.0 MiB traced (2.6 measured), and the largest
    table it gathers has 12,138 rows; holding the tables of tying spines
    peaked at 3.3 MiB, and building every spine's table at 6.0 MiB with
    63,799 rows.  At 6,000 persons from the same generator it peaks under
    25 MiB (21.0 measured) with 192,248 rows (30.3 MiB holding the tables
    of tying spines; 68.2 MiB and 1,084,534 rows building every table)."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    facts, positives = workloads["topics_inputs"](
        workloads["TopicsSpec"](**spec), workloads["TOPICS_KB_SEED"]
    )
    (tmp_path / "facts.txt").write_text(facts)
    (tmp_path / "pos.txt").write_text(positives)
    config = PipelineConfig.from_overrides({
        "facts": str(tmp_path / "facts.txt"),
        "pos": str(tmp_path / "pos.txt"),
        "out": str(tmp_path / "out"),
        **workloads["TOPICS_OVERRIDES"],
    })
    with caplog.at_level(logging.INFO, logger="relgcn.rulelearn"):
        tracemalloc.start()
        try:
            run_stages(config, ("learn",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    found = (re.search(r"largest binding table: (\d+) rows", r.getMessage()) for r in caplog.records)
    tables = [int(m.group(1)) for m in found if m]
    assert len(tables) >= 4 and max(tables) == largest
    assert peak < limit_mib * 2**20, f"learn peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "extra",
    [{"split.seed": "2"}, {"train.seed": "309", "train.patience": "10"}],
    ids=["split-seed-2", "gcn-seed-309-patience-10"],
)
def test_sampled_topics_model_is_trained(topics_run, tmp_path, extra):
    """On `sampled-topics`, split seed 2 puts a validation positive in a row
    class with no training target, so the validation loss is lowest at
    epoch 1 of 200; at GCN seed 309 and patience 10 the stop rule fires
    after 24 epochs.  The model train returns has still trained: test F1
    is above 0.6 at both (a best-validation restore gave 0.468 and
    0.267)."""
    out = tmp_path / "out"
    shutil.copytree(topics_run["out"], out)
    config = PipelineConfig.from_overrides({**topics_run, "out": str(out), **extra})
    report = run_stages(config, ("train", "eval"))["eval"][0]
    assert report.f1 > 0.6


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


@pytest.mark.parametrize("chained", [True, False], ids=["pipeline", "eval-alone"])
def test_eval_names_the_scores_file_only_when_it_read_it(small_run, tmp_path, caplog, chained):
    """A chained run hands eval train's scores in memory, so eval's line
    names no file; eval run alone reads test_scores.csv and names it."""
    config = _clone_run(small_run, tmp_path, **{"train.epochs": "2"})
    with caplog.at_level(logging.INFO, logger="relgcn.pipeline"):
        report = run_pipeline(config) if chained else run_stages(config, ("eval",))["eval"][0]
    n = report.tp + report.fp + report.tn + report.fn
    scored = f"scored {n} test targets at threshold 0.5"
    if not chained:
        scored += f" from {config.out_dir() / 'test_scores.csv'}"
    messages = [r.getMessage() for r in caplog.records if r.name == "relgcn.pipeline"]
    assert [m for m in messages if m.startswith("scored ")] == [scored]


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
    assert all(0.0 < r.auc_pr <= 1.0 for _, r in results)
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
    capsys.readouterr()

    rc = cli_main(
        [
            "pipeline",
            "--out", str(tmp_path / "out"),
            "--set", f"facts={data_dir / 'facts.txt'}",
            "--set", f"pos={data_dir / 'pos.txt'}",
            "--set", f"neg={data_dir / 'neg.txt'}",
            "--set", "learn.k_pos=2",
            "--set", "learn.k_neg=2",
            "--set", "train.epochs=40",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == (tmp_path / "out" / "metrics.csv").read_text()

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


def _cli_flags(config) -> list[str]:
    """``--set`` flags for the inputs and sizes of ``config``."""
    return [
        arg
        for key in ("facts", "pos", "neg", "learn.k_pos", "learn.k_neg", "train.epochs")
        for arg in ("--set", f"{key}={config[key]}")
    ]


@pytest.mark.parametrize("command", ["learn", "featurize", "train"])
def test_cli_stage_command_prints_what_it_wrote(small_run, tmp_path, capsys, command):
    """Learn names the rules file, featurize the shape of X and train the
    epochs it ran, one line each."""
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    assert cli_main([command, "--out", str(out), *_cli_flags(config)]) == 0
    n_rules = len((out / "rules.txt").read_text().splitlines())
    epochs = len((out / "history.csv").read_text().splitlines()) - 1
    assert capsys.readouterr().out == {
        "learn": f"rules written to {out / 'rules.txt'}\n",
        "featurize": f"feature matrix X written: 65 targets x {n_rules} rules\n",
        "train": f"trained for {epochs} epochs\n",
    }[command]


@pytest.mark.parametrize(
    "command, table",
    [(["eval"], "metrics.csv"), (["pipeline"], "metrics.csv"),
     (["sweep", "--axis", "hidden_size"], "sweep_hidden_size.csv")],
)
def test_cli_report_command_prints_the_table_it_wrote(small_run, tmp_path, capsys, command, table):
    """Eval and pipeline print the bytes of the metrics.csv they wrote, and
    a sweep those of its table, a row per value."""
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    (out / table).unlink(missing_ok=True)
    assert cli_main([*command, "--out", str(out), *_cli_flags(config)]) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == (out / table).read_bytes()
    assert len(printed.splitlines()) == (5 if command[0] == "sweep" else 2)


def test_eval_with_no_positive_prediction_writes_zeros_and_warns(small_run, tmp_path, caplog):
    """A threshold no test score reaches reports precision and F1 as 0 in
    metrics.csv and logs one WARNING that names the threshold; a run that
    predicts a positive logs none."""
    config = _config(small_run["data"], tmp_path, **{"eval.threshold": "0.75"})
    labels, scores = np.array([1, 0, 1, 0]), np.array([0.7, 0.1, 0.3, 0.2])
    with caplog.at_level(logging.INFO, logger="relgcn.pipeline"):
        report = stage_eval(config, (labels, scores, []))
    header, row = (tmp_path / "metrics.csv").read_text().splitlines()
    assert row == report.to_csv_row()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["precision"], cells["f1"], cells["tp"], cells["fp"]) == (
        "0.000000", "0.000000", "0", "0"
    )
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "threshold 0.75" in warnings[0]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="relgcn.pipeline"):
        stage_eval(_clone_run(small_run, tmp_path / "clone"))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_history_is_written_as_csv_writer_writes_it(tmp_path):
    """`_write_history` joins the rows itself; its bytes are those of a
    ``csv.writer`` writing the same repr fields, header and ``\\r\\n``
    included, for floats whose repr is short, long, tiny, whole or zero."""
    history = [
        EpochRecord(0, 0.6931471805599453, 0.1 + 0.2, 0.0),
        EpochRecord(1, 1e-300, 2.0, 0.5),
        EpochRecord(10, 3.0, 1.2345678901234567e-05, 1.0),
        EpochRecord(11, 123456789.0, float("inf"), 0.6666666666666666),
    ]
    pipeline._write_history(tmp_path / "history.csv", history)
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_f1"])
        for rec in history:
            writer.writerow(
                [rec.epoch, repr(rec.train_loss), repr(rec.val_loss), repr(rec.val_f1)]
            )
    written = (tmp_path / "history.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert b"1e-300" in written and b",2.0," in written and b",0.0\r\n" in written


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


def _assert_config_error(tmp_path, caplog, source, key, value, message):
    """Setting ``key`` to ``value``, by a flag or by a config file line, is
    a config error that logs ``message`` before anything runs."""
    out = tmp_path / "out"
    argv = ["train", "--out", str(out)]
    if source == "set":
        argv += ["--set", f"{key}={value}"]
    else:
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config_file)]
    assert cli_main(argv) == 1
    assert message in caplog.text
    assert not out.exists()


def _assert_removed_key(tmp_path, caplog, source, key, value):
    """Naming ``key``, by a flag or by a config file line, is a config
    error before anything runs."""
    _assert_config_error(tmp_path, caplog, source, key, value, f"unknown config key {key!r}")


@pytest.mark.parametrize("source", ["set", "config"])
def test_cli_constants_key_other_than_zero_is_a_config_error(tmp_path, caplog, source):
    """Rules hold variables only: ``learn.max_constants_for_grounding``
    accepts 0 alone, and any other value is a config error that names the
    key, by a flag or by a config file line."""
    key = "learn.max_constants_for_grounding"
    _assert_config_error(tmp_path, caplog, source, key, "1", f"for {key!r}, got '1'")
    config_file = tmp_path / "zero.cfg"
    config_file.write_text(f"{key} = 0\n")
    assert PipelineConfig.from_file(config_file)[key] == 0
    assert PipelineConfig.from_overrides({key: "0"}) == PipelineConfig.from_overrides({})


@pytest.mark.parametrize("source", ["set", "config"])
def test_cli_removed_self_loop_key_is_unknown(tmp_path, caplog, source):
    """featurize.literal_self_loops is no longer a key."""
    _assert_removed_key(tmp_path, caplog, source, "featurize.literal_self_loops", "true")


@pytest.mark.parametrize("source", ["set", "config"])
@pytest.mark.parametrize(
    "key, value",
    [("featurize.cap", "1"), ("featurize.zscale", "true"), ("train.dropout_rate", "0.5")],
)
def test_cli_removed_count_rewrite_keys_are_unknown(tmp_path, caplog, source, key, value):
    """X.csv is the raw rule counts: neither clipping nor scaling them is
    a key.  Nor is a dropout rate: with X's few count columns the GCN
    trains without dropout."""
    _assert_removed_key(tmp_path, caplog, source, key, value)


def test_cli_removed_split_test_key_is_unknown(tmp_path, caplog):
    """The test share is what train and validation leave: it is no key."""
    _assert_removed_key(tmp_path, caplog, "set", "split.test", "0.3")


def test_cli_removed_stratified_key_is_unknown(tmp_path, caplog):
    """Every split is stratified: ``split.stratified`` is no longer a key."""
    _assert_removed_key(tmp_path, caplog, "set", "split.stratified", "false")


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


def test_cli_pipeline_runs_on_utf8_files_under_the_c_locale(tmp_path):
    """Inputs are read and the run directory written as UTF-8 whatever the
    locale: under the C locale with UTF-8 mode off, a pipeline on a KB that
    names Zoë and Universität exits 0, and its rules.txt and X.csv are the
    bytes of a run in UTF-8 mode."""
    data = tmp_path / "data"
    generate_synthetic(SMALL_SPEC, data)
    for name in ("facts.txt", "pos.txt", "neg.txt"):
        path = data / name
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("P000", "Zoë").replace("U1", "Universität"), encoding="utf-8")
    inputs = [f"{key}={data / key}.txt" for key in ("facts", "pos", "neg")]
    flags = [arg for item in [*inputs, "train.epochs=20"] for arg in ("--set", item)]
    src = Path(relgcn.__file__).resolve().parent.parent
    outputs = {}
    for name, env in [
        ("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
        ("utf8", {"PYTHONUTF8": "1"}),
    ]:
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "relgcn.cli", "pipeline", "--out", str(out), *flags],
            env={**os.environ, "PYTHONPATH": str(src), **env},
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        outputs[name] = [(out / file).read_bytes() for file in ("rules.txt", "X.csv")]
    assert outputs["c"] == outputs["utf8"]
    assert "Zoë".encode() in outputs["c"][1]


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


def test_cli_stage_command_names_its_failed_stage(small_run, tmp_path, caplog):
    """A stage command runs its stage as the pipeline does: a failure is
    named by its stage and keeps its exit code."""
    argv = ["learn", "--out", str(tmp_path / "learn"), "--set", f"facts={tmp_path / 'nowhere'}"]
    assert cli_main(argv) == 2
    assert "stage 'learn' failed: facts path does not exist" in caplog.text
    out = _clone_run(small_run, tmp_path).out_dir()
    (out / "X.csv").unlink()
    assert cli_main(["train", "--out", str(out)]) == 2
    # An OSError's message is its strerror, which names the stage too.
    assert "stage 'train' failed: No such file or directory" in caplog.text


@pytest.mark.parametrize("command", ["featurize", "inspect-rules"])
@pytest.mark.parametrize(
    "damaged, appended, message",
    [
        ("facts", "Affiliation(P000 U1).", "arity mismatch for Affiliation: got 1, expected 2"),
        ("rules", "CoAuthor(person1, person2) :- Bogus(person1).",
         "unknown predicate 'Bogus' in rule"),
        ("rules", 'CoAuthor(person1, person2) :- Affiliation(person1, "U1").',
         'constant "U1" in Affiliation(person1, "U1"): a rule holds variables only'),
        ("rules", "CoAuthor(person1, person2) :- ResearchTopic(person1, x), Affiliation(person2, x).",
         "variable 'x' is a topic, but a university in Affiliation(person2, x)"),
        ("rules", "CoAuthor(person1, person1) :- true.",
         "head variables must be distinct: CoAuthor(person1, person1)"),
    ],
    ids=["facts", "rules", "rules-constant", "rules-two-types", "rules-repeated-head-variable"],
)
def test_cli_parse_error_names_its_file(small_run, tmp_path, caplog, command, damaged,
                                        appended, message):
    """A line appended to facts.txt or to the run's rules.txt that does not
    parse is logged with the file (and, for an input, its config key) and
    the line, and the command exits 2."""
    out = _clone_run(small_run, tmp_path).out_dir()
    facts = tmp_path / "facts.txt"
    shutil.copy(small_run["data"] / "facts.txt", facts)
    path, named = {
        "facts": (facts, f"{facts} (config key 'facts')"),
        "rules": (out / "rules.txt", str(out / "rules.txt")),
    }[damaged]
    with open(path, "a") as f:
        f.write(appended + "\n")
    line = len(path.read_text().splitlines())
    assert cli_main([command, "--out", str(out), "--set", f"facts={facts}"]) == 2
    stage = "stage 'featurize' failed: " if command == "featurize" else ""
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
        f"{stage}{named}: {message} (line {line})"
    ]


@pytest.mark.parametrize("partial", ["sweep", "cli-eval"])
def test_partial_run_deletes_the_manifest(small_run, tmp_path, partial):
    """A sweep or a stage command rewrites artifacts that a finished run's
    manifest describes, so it deletes the manifest; a full pipeline run
    writes one again."""
    config = _clone_run(small_run, tmp_path)
    out = config.out_dir()
    assert (out / "manifest.json").is_file()
    if partial == "sweep":
        sensitivity_sweep(config, "hidden_size", values=[8])
    else:
        assert cli_main(["eval", "--out", str(out), "--set", "eval.threshold=0.3"]) == 0
    assert not (out / "manifest.json").exists()
    run_pipeline(config)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config.hash()
    assert set(manifest["stage_times_s"]) == {"learn", "featurize", "train", "eval"}


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


def _blank_in_first_name(lines):
    """An edit that puts a blank after the first character of the first
    argument of line 2's atom, which names another constant."""
    head, rest = lines[1].split("(", 1)
    lines[1] = f"{head}({rest[0]} {rest[1:]}"
    return lines


def _respaced_first_atom(lines):
    """An edit that respaces line 2's atom without renaming a constant."""
    lines[1] = lines[1].replace(", ", " ,", 1)
    return lines


def _remove_scores(out):
    (out / "test_scores.csv").unlink()


def _undecodable(name):
    """A damage that puts a byte that is not UTF-8 into the last line of
    the run directory's ``name``."""

    def damage(out):
        path = out / name
        path.write_bytes(path.read_bytes().rstrip(b"\n") + b"\xff\n")

    return damage


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
            "train", _edit_lines("X.csv", _blank_in_first_name), "X.csv", "rerun featurize",
            id="train-x-row-renamed",
        ),
        pytest.param(
            "train", _edit_lines("targets.csv", _respaced_first_atom), "targets.csv",
            "rerun featurize", id="train-targets-respaced",
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
            "train", _undecodable("X.csv"), "X.csv", "cannot decode", id="train-x-not-utf8",
        ),
        pytest.param(
            "eval", _undecodable("test_scores.csv"), "test_scores.csv", "cannot decode",
            id="eval-scores-not-utf8",
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


def test_cli_rules_not_utf8_is_a_data_error(small_run, tmp_path, caplog):
    """Featurize reads rules.txt as UTF-8; other bytes are a data error
    that names the file."""
    out = _clone_run(small_run, tmp_path).out_dir()
    _undecodable("rules.txt")(out)
    facts = small_run["data"] / "facts.txt"
    assert cli_main(["featurize", "--out", str(out), "--set", f"facts={facts}"]) == 2
    assert f"cannot decode {out / 'rules.txt'}" in caplog.text


def test_train_accepts_targets_cells_spaced_otherwise(small_run, tmp_path):
    """A targets.csv cell spaced otherwise than learn writes it still names
    the same target, and featurize copies it into X.csv's row ids, so
    train finds the two files in step."""
    config = _clone_run(small_run, tmp_path)
    targets = config.out_dir() / "targets.csv"
    lines = targets.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(", ", " ,").replace("(", "( ")
    targets.write_text("".join(lines))
    run_stages(config, ("featurize", "train"))
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
    run_stages(relearned, ("learn",))
    assert (config.out_dir() / "rules.txt").read_text() != rules_before
    run_stages(relearned, ("featurize",))
    assert stage_eval(relearned).to_csv_row() == trained


def test_cli_failed_learn_leaves_the_run_directory_as_it_was(tmp_path):
    """A learn that fails at its last draw, the negative-density contrast,
    writes nothing: targets.csv, rules.txt and X.csv stay those of the
    last learn that finished, and featurize rebuilds the same X."""
    runs = {}
    for name, spec in [
        ("a", SyntheticSpec(n_persons=30, n_positives=60, n_negatives=120, seed=1)),
        ("b", SyntheticSpec(n_persons=30, n_positives=40, n_negatives=90, seed=2)),
    ]:
        generate_synthetic(spec, tmp_path / name)
        inputs = [f"{key}={tmp_path / name / key}.txt" for key in ("facts", "pos", "neg")]
        runs[name] = [arg for item in inputs for arg in ("--set", item)]
    out = tmp_path / "out"
    for command in ("learn", "featurize"):
        assert cli_main([command, "--out", str(out), *runs["a"]]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # 4 x 90 contrast tuples outside B's 90 negatives, of 435 pairs.
    failed = ["learn", "--out", str(out), *runs["b"], "--set", "learn.contrast_ratio=4.0"]
    assert cli_main(failed) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert cli_main(["featurize", "--out", str(out), *runs["a"]]) == 0
    assert (out / "X.csv").read_bytes() == before["X.csv"]


def test_cli_learn_seed_equal_to_the_negatives_seed_is_refused(tmp_path, caplog):
    """With no neg file, a learn.seed equal to negatives.seed would draw the
    positive-density contrast as the very negatives; it is a config error
    naming both keys, and no run directory is made.  A neg file allows it."""
    data, out = tmp_path / "data", tmp_path / "out"
    generate_synthetic(SyntheticSpec(n_persons=40, n_positives=60, n_negatives=120, seed=1), data)
    flags = ["--set", f"facts={data / 'facts.txt'}", "--set", f"pos={data / 'pos.txt'}"]
    assert cli_main(["learn", "--out", str(out), *flags, "--set", "learn.seed=17"]) == 1
    assert "'learn.seed', got '17'; 'negatives.seed', got '17'" in caplog.text
    assert not out.exists()
    flags += ["--set", f"neg={data / 'neg.txt'}"]
    assert cli_main(["learn", "--out", str(out), *flags, "--set", "learn.seed=17"]) == 0


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param([], id="defaults"),
        pytest.param(
            ["--persons", "60", "--universities", "5", "--topics", "8", "--rules", "2",
             "--noise", "0.05", "--positives", "150", "--negatives", "600", "--seed", "3"],
            id="readme",
        ),
    ],
)
def test_cli_synth_writes_the_spec_of_its_flags(tmp_path, flags):
    """Each synth flag sets its SyntheticSpec field, and a flag not given
    leaves the field's default."""
    assert cli_main(["synth", "--out", str(tmp_path / "cli"), *flags]) == 0
    fields = {
        "--persons": "n_persons", "--universities": "n_universities", "--topics": "n_topics",
        "--rules": "n_rules", "--noise": "noise_rate", "--positives": "n_positives",
        "--negatives": "n_negatives", "--seed": "seed",
    }
    given = {fields[flag]: float(v) if flag == "--noise" else int(v)
             for flag, v in zip(flags[::2], flags[1::2])}
    generate_synthetic(SyntheticSpec(**given), tmp_path / "spec")
    for name in ("facts.txt", "pos.txt", "neg.txt"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "spec" / name).read_bytes()


def test_cli_synth_help_shows_each_default(capsys):
    assert cli_main(["synth", "--help"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    for field in dataclasses.fields(SyntheticSpec):
        assert f"SyntheticSpec.{field.name} (default {field.default})" in shown


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
    """--seed 42 gives each *seed key its own seed drawn from 42, winning
    over the config file and --set; no two keys get the same seed, and no
    key gets learn.seed + 1, the negative-density contrast's seed."""
    captured = {}

    def fake_run(config):
        captured.update(config.values)

        class R:
            def to_csv_row(self):
                return ""

        return R()

    monkeypatch.setattr("relgcn.cli.run_pipeline", fake_run)
    config_file = tmp_path / "run.cfg"
    config_file.write_text("learn.seed = 3\n")
    argv = ["pipeline", "--seed", "42", "--config", str(config_file), "--set", "train.seed=5"]
    assert cli_main(argv) == 0  # --seed wins over --set and the config file
    seeds = derived_seeds(42)
    assert sorted(seeds) == ["learn.seed", "negatives.seed", "split.seed", "train.seed"]
    assert {key: captured[key] for key in seeds} == seeds
    assert derived_seeds(42) == seeds != derived_seeds(43)
    for s in range(200):
        drawn = [*derived_seeds(s).values(), derived_seeds(s)["learn.seed"] + 1]
        assert len(set(drawn)) == 5


def test_cli_seed_flag_keeps_the_contrast_apart_from_the_negatives(tmp_path, monkeypatch):
    """With no neg file and equal ratios, the positive-density contrast and
    the pipeline's negatives are both `sample_negatives` draws over the
    same positives; under --seed they come from different seeds, so the
    trees do not separate the positives from the very negatives."""
    data = tmp_path / "data"
    spec = SyntheticSpec(n_persons=40, n_positives=60, n_negatives=120, seed=1)
    generate_synthetic(spec, data)
    draws = []

    def recording(*args, **kwargs):
        drawn = sample_negatives(*args, **kwargs)
        draws.append(drawn.ids)
        return drawn

    monkeypatch.setattr("relgcn.pipeline.sample_negatives", recording)
    flags = ["--set", f"facts={data / 'facts.txt'}", "--set", f"pos={data / 'pos.txt'}"]
    assert cli_main(["learn", "--out", str(tmp_path / "out"), "--seed", "5", *flags]) == 0
    negatives, contrast = draws[:2]  # then the positive-density contrast
    assert negatives.shape == contrast.shape
    assert not np.array_equal(negatives, contrast)


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_cli_negative_seed_flag_is_a_config_error(tmp_path, caplog, command):
    out = tmp_path / "out"
    assert cli_main([command, "--out", str(out), "--seed", "-1"]) == 1
    assert "seed', got '-1'" in caplog.text
    assert not out.exists()
