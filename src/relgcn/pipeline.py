"""Staged experiment driver: learn rules, featurize, train, evaluate.

Every stage reads its inputs from and persists its outputs to the run
directory, so an expensive earlier stage (rule learning) amortizes across
later sweeps.  The only matrix persisted is the feature matrix X, which
learn deletes when it rewrites the rules and targets X is built from: the
propagation matrix is a fixed function of X and the ``featurize.*`` keys,
so train rebuilds it.  Train writes the graph's metric and threshold t
to ``threshold.json`` and its scores of the test targets to
``test_scores.csv``, which is all eval reads; the trained weights are not
persisted.  A manifest records the config hash, all seeds and per-stage
wall times.

The per-target tables, ``targets.csv`` (labels), ``X.csv`` and
``test_scores.csv``, are all matrix CSVs (``featurize.write_matrix_csv``):
a row per target, its atom under ``id``, and labels as 1.0 or 0.0.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import logging
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError, ParseError
from . import featurize as fz
from . import gcn as gcn_mod
from . import metrics as metrics_mod
from .grounding import Clause, count_satisfied_groundings, sample_negatives
from .kb import KnowledgeBase, Targets, _strip_comment, parse_facts, parse_ground_atoms
from .rulelearn import LearnConfig, learn_ruleset, parse_rules, serialize_rules

log = logging.getLogger(__name__)

# The keys that no dataclass holds.  Every other key is a field of
# LearnConfig or TrainConfig under its section's prefix, with the field's
# default, type and range.
_DEFAULTS: dict[str, object] = {
    "facts": "",
    "pos": "",
    "neg": "",
    "out": "out",
    "negatives.ratio": 1.0,
    "negatives.seed": 17,
    "negatives.symmetric": True,
    "learn.k_pos": 3,
    "learn.k_neg": 3,
    "featurize.metric": fz.EUCLIDEAN,
    "split.train": 0.6,
    "split.val": 0.1,
    "split.seed": 0,
    "split.stratified": True,
    "eval.threshold": 0.5,
}
_SECTIONS = {"learn.": LearnConfig, "train.": gcn_mod.TrainConfig}

# The train and validation shares, in split_examples' order; test is the rest.
_SPLIT_KEYS = ("split.train", "split.val")


def default_values() -> dict[str, object]:
    """Every config key with its default."""
    values = dict(_DEFAULTS)
    for prefix, cls in _SECTIONS.items():
        values.update((prefix + f.name, f.default) for f in fields(cls))
    return values


def _coerce(key: str, text: str, default: object) -> object:
    """``text`` as a value of the type of ``default``."""
    if isinstance(default, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError("a boolean", key, text)
    if isinstance(default, (int, float)):
        try:
            value = type(default)(text)
        except ValueError:
            raise ConfigError(type(default).__name__, key, text) from None
        if not math.isfinite(value):
            raise ConfigError("a finite float", key, text)
        return value
    return text


def _check(values: dict[str, object], text: dict[str, str]) -> None:
    """Reject an out-of-range value of a key that no dataclass holds,
    quoting it as ``text`` has it."""
    if values["featurize.metric"] not in fz.METRICS:
        raise ConfigError(f"one of {fz.METRICS}", "featurize.metric", text["featurize.metric"])
    for key, least in [
        ("negatives.seed", 0), ("split.seed", 0), ("learn.k_pos", 1), ("learn.k_neg", 1),
    ]:
        if values[key] < least:
            raise ConfigError(f"an int >= {least}", key, text[key])
    if values["negatives.ratio"] <= 0:
        raise ConfigError("a float > 0", "negatives.ratio", text["negatives.ratio"])
    if not 0.0 <= values["eval.threshold"] <= 1.0:
        # Scores are probabilities: outside [0, 1] every target, or none,
        # would be predicted positive.
        raise ConfigError("a float in [0, 1]", "eval.threshold", text["eval.threshold"])
    for key in _SPLIT_KEYS:
        # Every part is needed: train fits, val stops early, test scores.
        if not 0.0 < values[key] < 1.0:
            raise ConfigError("a proportion in (0, 1)", key, text[key])
    if sum(values[key] for key in _SPLIT_KEYS) >= 1.0:
        given = "; ".join(f"{key!r}, got {text[key]!r}" for key in _SPLIT_KEYS)
        raise ConfigError(f"expected split proportions that sum to below 1: {given}")


def _section(prefix: str, cls: type, values: dict[str, object], text: dict[str, str]):
    """The ``prefix`` keys of ``values`` as a ``cls``; a field it rejects
    is named by its key and quoted as ``text`` has it."""
    try:
        return cls(**{f.name: values[prefix + f.name] for f in fields(cls)})
    except ConfigError as exc:
        key = prefix + exc.key
        raise ConfigError(exc.msg, key, text[key]) from None


@dataclass(frozen=True)
class PipelineConfig:
    """Flat dotted-key configuration: ``values`` holds every key, typed,
    and ``learn`` and ``train`` hold the ``learn.*`` and ``train.*`` keys
    that LearnConfig and TrainConfig declare."""

    values: dict[str, object]
    learn: LearnConfig
    train: gcn_mod.TrainConfig

    @classmethod
    def from_overrides(cls, overrides: dict[str, object] | None = None) -> "PipelineConfig":
        """Defaults updated by ``overrides``.  Each value is read from its
        text, ``str(value)``, and checked; a bad one is a ConfigError that
        names its key and quotes that text."""
        values = default_values()
        text = {key: str(value) for key, value in values.items()}
        for key, raw in (overrides or {}).items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            text[key] = str(raw)
            values[key] = _coerce(key, text[key], values[key])
        _check(values, text)
        learn, train = (_section(p, section, values, text) for p, section in _SECTIONS.items())
        return cls(values, learn, train)

    @classmethod
    def from_file(
        cls, path: str | Path, overrides: dict[str, object] | None = None
    ) -> "PipelineConfig":
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ConfigError(f"config file {path} does not exist") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot decode config file {path}: {exc}") from exc
        file_overrides: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            file_overrides[key] = val
        file_overrides.update(overrides or {})  # flags win
        return cls.from_overrides(file_overrides)

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def hash(self) -> str:
        canon = json.dumps(self.values, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def out_dir(self) -> Path:
        """The run directory, which only learn creates."""
        return Path(self["out"])

    def split_proportions(self) -> tuple[float, float]:
        return tuple(self[key] for key in _SPLIT_KEYS)


# -- shared loading helpers ------------------------------------------------


def _read_input(config: PipelineConfig, key: str) -> str:
    """Text of the input file named by config key ``key``."""
    path = Path(config[key])
    if not path.is_file():
        raise DataError(f"{key} path does not exist: {path} (config key {key!r})")
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path} (config key {key!r}): {exc}") from exc


def _load_kb(config: PipelineConfig) -> KnowledgeBase:
    return parse_facts(_read_input(config, "facts"))


def _read_examples(
    config: PipelineConfig, key: str, kb: KnowledgeBase, positive: bool
) -> Targets:
    """The examples of the file named by config key ``key``, all labelled
    ``positive``; a ParseError names the file and the key."""
    try:
        return parse_ground_atoms(_read_input(config, key), kb, positive)
    except ParseError as exc:
        raise ParseError(f"{config[key]} (config key {key!r}): {exc.msg}", exc.line) from exc


def _load_examples(config: PipelineConfig, kb: KnowledgeBase) -> tuple[Targets, Targets]:
    positives = _read_examples(config, "pos", kb, True)
    if config["neg"]:
        negatives = _read_examples(config, "neg", kb, False)
        if negatives.predicate != positives.predicate:
            raise DataError(
                f"{config['neg']} (config key 'neg') holds {negatives.predicate} "
                f"examples, not {positives.predicate} as pos does"
            )
    else:
        negatives = sample_negatives(
            kb,
            kb.schema(positives.predicate),
            positives,
            config["negatives.ratio"],
            config["negatives.seed"],
            symmetric=config["negatives.symmetric"],
        )
    return positives, negatives


def _read_labelled(path: Path, columns: list[str]) -> tuple[np.ndarray, list[str]]:
    """The matrix and row ids of a per-target table whose first column is
    the label; a header other than ``id`` and ``columns``, no row, or a
    label other than 0 or 1 is a DataError that names the file."""
    M, row_ids, _ = fz.read_matrix_csv(path, columns)
    if not row_ids:
        raise DataError(f"{path} holds no target")
    for row_id, label in zip(row_ids, M[:, 0].tolist()):
        if label not in (0.0, 1.0):
            raise DataError(f"{path}: target {row_id!r} has label {label!r}, not 0 or 1")
    return M, row_ids


def _read_targets(path: Path, kb: KnowledgeBase) -> Targets:
    """The examples of targets.csv (``id,label``), parsed as one example
    file with a line per row; every atom cell must be one atom on one
    line, or the ParseError names the file and the line of its row (row i
    is on line i + 2, as every row above it is one line)."""
    M, atoms = _read_labelled(path, ["label"])
    for i, atom in enumerate(atoms):
        # An empty, comment-only or multi-line cell would shift the lines.
        if len((atom + ".").splitlines()) != 1 or not _strip_comment(atom).strip():
            raise ParseError(f"{path}: expected one atom, got {atom!r}", i + 2)
    text = "".join(f"{atom}.\n" for atom in atoms)
    try:
        return parse_ground_atoms(text, kb, M[:, 0] == 1.0)
    except ParseError as exc:
        line = None if exc.line is None else exc.line + 1
        raise ParseError(f"{path}: {exc.msg}", line) from exc


def _load_rules(
    config: PipelineConfig, kb: KnowledgeBase | None = None
) -> tuple[Path, KnowledgeBase, Targets, list[Clause]]:
    """The output directory, the kb (``kb``, or loaded from ``facts`` when
    absent), the examples of targets.csv and the rules of rules.txt."""
    out = config.out_dir()
    if kb is None:
        kb = _load_kb(config)
    targets = _read_targets(out / "targets.csv", kb)
    return out, kb, targets, parse_rules((out / "rules.txt").read_text(), kb)


# -- stages ----------------------------------------------------------------


def stage_learn(config: PipelineConfig, kb: KnowledgeBase | None = None) -> Path:
    """Learn positive- and negative-density rule sets; persist targets and
    rules.  ``kb`` is the loaded facts, read from ``facts`` when absent.
    X is built from both, so a stale ``X.csv`` is deleted first: train
    cannot fit features of rules or targets that learn has replaced.
    Learn is the one stage that creates the run directory."""
    out = config.out_dir()
    if kb is None:
        kb = _load_kb(config)
    positives, negatives = _load_examples(config, kb)
    out.mkdir(parents=True, exist_ok=True)
    (out / "X.csv").unlink(missing_ok=True)
    targets = positives + negatives
    atoms = kb.atom_texts(targets.predicate, targets.ids)
    fz.write_matrix_csv(out / "targets.csv", targets.positive[:, None], atoms, ["label"])
    symmetric = config["negatives.symmetric"]
    pos_rules = learn_ruleset(
        kb, positives, config.learn, config["learn.k_pos"], symmetric=symmetric
    )
    neg_config = replace(config.learn, seed=config.learn.seed + 1)
    neg_rules = learn_ruleset(
        kb, negatives, neg_config, config["learn.k_neg"], symmetric=symmetric
    )
    rules_path = out / "rules.txt"
    rules_path.write_text(serialize_rules(pos_rules.rules + neg_rules.rules))
    return rules_path


def stage_featurize(config: PipelineConfig, kb: KnowledgeBase | None = None) -> np.ndarray:
    """The rule-count matrix X, one row per target and one column per rule,
    written to ``X.csv`` as raw counts.  It reads no config key but ``out``
    and ``facts``; ``kb`` is the loaded facts, read from ``facts`` when
    absent, and the kb learn used brings its fact arrays and join indexes
    along."""
    out, kb, targets, rules = _load_rules(config, kb)
    X = fz.build_rule_matrix(rules, targets, kb)
    row_ids = kb.atom_texts(targets.predicate, targets.ids)
    col_ids = [f"rule{j}" for j in range(X.shape[1])]
    fz.write_matrix_csv(out / "X.csv", X, row_ids, col_ids)
    return X


def _load_graph(
    config: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray, fz.PropagationMatrix, list[str]]:
    """Labels, X, the propagation matrix rebuilt from X under this
    config's ``featurize.*`` keys, and X's row ids.  The labels are read
    from targets.csv as eval reads test_scores.csv, and X's row ids must be
    its ids, in order, or the DataError names both files."""
    out = config.out_dir()
    x_path, targets_path = out / "X.csv", out / "targets.csv"
    X, row_ids, _ = fz.read_matrix_csv(x_path)
    labelled, atoms = _read_labelled(targets_path, ["label"])
    # Featurize writes each atom as ``P(a, b)``; a hand-edited targets.csv
    # cell may be spaced otherwise.
    if ["".join(r.split()) for r in row_ids] != ["".join(a.split()) for a in atoms]:
        raise DataError(
            f"the {len(row_ids)} rows of {x_path} are not the {len(atoms)} "
            f"targets of {targets_path}, in order; rerun featurize"
        )
    metric = config["featurize.metric"]
    prop = fz.propagation_matrix(X, metric)
    # C >= 0, so its sign is B, the indicator of the row pairs with an edge;
    # with c the targets per row, c'Bc - c'c ordered target pairs in
    # different rows are joined, of n^2 - c'c.
    B, c = np.sign(prop.classes), prop.counts[:, 0]
    u, n, same = B.shape[0], X.shape[0], float(c @ c)
    log.info(
        "graph over %d targets with %d distinct feature rows: metric %s, "
        "t=%r, %d of %d off-diagonal entries of C nonzero, joining %r of "
        "the target pairs in different rows, propagation operator %d bytes",
        n,
        u,
        metric,
        prop.threshold,
        int(B.sum() - np.trace(B)),
        u * u - u,
        (float(c @ B @ c) - same) / (n * n - same),
        prop.nbytes,
    )
    return labelled[:, 0].astype(int), X, prop, row_ids


_SCORE_COLUMNS = ["label", "score"]


def stage_train(config: PipelineConfig) -> tuple[gcn_mod.GCNModel, list]:
    """Train the GCN on the graph rebuilt from X and write the graph's
    metric and threshold t, the training history, the split and each test
    target's label and score under the trained model, in split order.  The
    model is returned, not written."""
    out = config.out_dir()
    labels, X, prop, row_ids = _load_graph(config)
    masks = metrics_mod.split_examples(
        labels,
        config.split_proportions(),
        config["split.seed"],
        config["split.stratified"],
    )
    model, history = gcn_mod.train(prop, X, labels, masks, config.train)
    best = int(np.argmin([rec.val_loss for rec in history]))
    log.info(
        "trained %d epochs, best epoch %d (val_loss=%r); each layer ran on "
        "%d rows for %d targets",
        len(history),
        best,
        history[best].val_loss,
        prop.classes.shape[0],
        X.shape[0],
    )
    scores, _ = gcn_mod.predict(model, prop, X)
    (out / "threshold.json").write_text(
        json.dumps({"metric": config["featurize.metric"], "t": prop.threshold})
    )
    with open(out / "history.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_f1"])
        for rec in history:
            writer.writerow(
                [rec.epoch, repr(rec.train_loss), repr(rec.val_loss), repr(rec.val_f1)]
            )
    (out / "splits.json").write_text(
        json.dumps(
            {
                "train": masks.train.tolist(),
                "validation": masks.validation.tolist(),
                "test": masks.test.tolist(),
            }
        )
    )
    test = masks.test
    scored = np.column_stack([labels[test], scores[test]])
    fz.write_matrix_csv(
        out / "test_scores.csv", scored, [row_ids[i] for i in test], _SCORE_COLUMNS
    )
    return model, history


def stage_eval(config: PipelineConfig) -> metrics_mod.MetricsReport:
    """Apply ``eval.threshold`` to the test scores train wrote and write
    the metrics; no other artifact or config key is read.  A scores file
    that is missing is a DataError that says to retrain; it is read as
    train reads targets.csv, with the columns ``label`` and ``score``."""
    out = config.out_dir()
    path = out / "test_scores.csv"
    if not path.is_file():
        raise DataError(f"{path} does not exist; retrain (train writes it)")
    M, _ = _read_labelled(path, _SCORE_COLUMNS)
    test_labels, test_scores = M[:, 0].astype(int), M[:, 1]
    threshold = config["eval.threshold"]
    log.info("scored %d test targets at threshold %r from %s",
             len(test_scores), threshold, path)
    report = metrics_mod.confusion_metrics(test_scores, test_labels, threshold)
    report.auc_pr = metrics_mod.auc_pr(test_scores, test_labels)
    (out / "metrics.txt").write_text(report.to_text())
    with open(out / "metrics.csv", "w", newline="") as f:
        f.write(metrics_mod.MetricsReport.csv_header() + "\n")
        f.write(report.to_csv_row() + "\n")
    return report


_STAGES = [
    ("learn", stage_learn),
    ("featurize", stage_featurize),
    ("train", stage_train),
    ("eval", stage_eval),
]
# The stages that read the facts; the others read only the run directory.
_KB_STAGES = ("learn", "featurize")


@contextmanager
def _stage(stage: str, at: str = "") -> Iterator[None]:
    """Re-raise an exception of the block as a copy, of the same type and
    with the same attributes (a ParseError keeps its line), whose message
    names the failed stage and, in a sweep, the value it ran at (``at``,
    as ``hidden_size=16``)."""
    try:
        yield
    except Exception as exc:
        failed = f"stage {stage!r} failed" + (f" at {at}" if at else "")
        wrapped = copy.copy(exc)
        wrapped.args = (f"{failed}: {exc}",)
        if isinstance(exc, OSError) and exc.strerror:
            # OSError formats its message from strerror, not from args.
            wrapped.strerror = f"{failed}: {exc.strerror}"
        raise wrapped from exc


def run_pipeline(config: PipelineConfig) -> metrics_mod.MetricsReport:
    """Execute all stages in order, writing a manifest; a stage failure is
    re-raised with the stage name, and earlier artifacts stay on disk.
    The previous run's manifest is deleted first, so only a run that
    finished leaves one.

    The facts are parsed once, as part of learn, and featurize reuses
    that kb; it is released before train.
    """
    out = config.out_dir()
    (out / "manifest.json").unlink(missing_ok=True)
    stage_times: dict[str, float] = {}
    report = None
    kb = None
    for name, fn in _STAGES:
        start = time.perf_counter()
        with _stage(name):
            if name in _KB_STAGES:
                if kb is None:
                    kb = _load_kb(config)
                result = fn(config, kb)
            else:
                kb = None  # train and eval read only the run directory
                result = fn(config)
        stage_times[name] = time.perf_counter() - start
        if name == "eval":
            report = result
    manifest = {
        "config": config.values,
        "config_hash": config.hash(),
        "seeds": {
            k: config.values[k] for k in sorted(config.values) if k.endswith("seed")
        },
        "stage_times_s": stage_times,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert report is not None
    return report


# -- sensitivity sweeps ----------------------------------------------------

SWEEP_AXES = {
    "hidden_size": ("train.hidden_size", [16, 32, 64, 128]),
    "num_layers": ("train.num_layers", [2, 3, 4, 5]),
    "metric": ("featurize.metric", [fz.MANHATTAN, fz.EUCLIDEAN, fz.CHEBYSHEV]),
}


def sensitivity_sweep(
    config: PipelineConfig,
    axis: str,
    values: list | None = None,
) -> list[tuple[object, metrics_mod.MetricsReport]]:
    """Rerun train and eval varying one axis, seeds fixed.

    Rules and X are learned and built only when missing, from one parse
    of the facts; every value reuses them, since each axis changes only
    what train and eval build from X.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
    key, default_values = SWEEP_AXES[axis]
    values = values if values is not None else default_values
    out = config.out_dir()
    kb = None
    if not (out / "rules.txt").is_file():
        with _stage("learn"):
            kb = _load_kb(config)
            stage_learn(config, kb)
    if not (out / "X.csv").is_file():
        with _stage("featurize"):
            stage_featurize(config, kb)
    kb = None  # train and eval read only the run directory
    results = []
    for value in values:
        cfg = PipelineConfig.from_overrides({**config.values, key: value})
        with _stage("train", f"{axis}={value}"):
            stage_train(cfg)
        with _stage("eval", f"{axis}={value}"):
            results.append((value, stage_eval(cfg)))
    with open(out / f"sweep_{axis}.csv", "w", newline="") as f:
        f.write(axis + "," + metrics_mod.MetricsReport.csv_header() + "\n")
        for value, report in results:
            f.write(f"{value}," + report.to_csv_row() + "\n")
    return results


def rule_coverage_report(config: PipelineConfig) -> str:
    """Pretty-print the learned rules with per-rule coverage statistics."""
    _, kb, targets, rules = _load_rules(config)
    positive = targets.positive
    n_pos, n_neg = int(positive.sum()), int((~positive).sum())
    lines = []
    for j, rule in enumerate(rules):
        covered = count_satisfied_groundings(rule, targets, kb) > 0
        cov_pos, cov_neg = int(covered[positive].sum()), int(covered[~positive].sum())
        lines.append(
            f"[{j}] {rule}  (source={rule.source} iter={rule.iteration}; "
            f"covers {cov_pos}/{n_pos} positives, {cov_neg}/{n_neg} negatives)"
        )
    return "\n".join(lines) + "\n"
