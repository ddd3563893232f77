"""Staged experiment driver: learn rules, featurize, train, evaluate.

Every stage reads its inputs from and persists its outputs to the run
directory, so an expensive earlier stage (rule learning) amortizes across
later sweeps.  The only matrix persisted is the feature matrix X: the
propagation matrix is a fixed function of X and the ``featurize.*`` keys,
so train and eval rebuild it; train records the rebuilt graph's metric and
threshold t in ``threshold.json``.  A manifest records the config hash, all
seeds and per-stage wall times.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError, ParseError
from . import featurize as fz
from . import gcn as gcn_mod
from . import metrics as metrics_mod
from .grounding import (
    NEGATIVE,
    POSITIVE,
    TargetExample,
    count_satisfied_groundings,
    sample_negatives,
)
from .kb import KnowledgeBase, parse_facts, parse_ground_atoms
from .rulelearn import LearnConfig, learn_ruleset, parse_rules, serialize_rules

log = logging.getLogger(__name__)

_DEFAULTS: dict[str, object] = {
    "facts": "",
    "pos": "",
    "neg": "",
    "out": "out",
    "target": "",
    "negatives.ratio": 1.0,
    "negatives.seed": 17,
    "negatives.symmetric": True,
    "learn.k_pos": 3,
    "learn.k_neg": 3,
    "learn.max_body_length": 4,
    "learn.beam_width": 5,
    "learn.min_examples_per_leaf": 2,
    "learn.covering_discount": 0.1,
    "learn.seed": 7,
    "learn.max_constants_for_grounding": 50,
    "learn.contrast_ratio": 1.0,
    "featurize.metric": fz.EUCLIDEAN,
    "featurize.cap": 0,  # 0 means uncapped
    "featurize.zscale": False,
    "featurize.literal_self_loops": False,
    "train.epochs": 200,
    "train.learning_rate": 0.01,
    "train.weight_decay": 5e-4,
    "train.dropout_rate": 0.5,
    "train.seed": 0,
    "train.patience": 10,
    "train.hidden_size": 16,
    "train.num_layers": 2,
    "split.train": 0.6,
    "split.val": 0.1,
    "split.test": 0.3,
    "split.seed": 0,
    "split.stratified": True,
    "eval.threshold": "0.5",  # a float, or "mean" for mean-score thresholding
}

# TrainConfig field -> the config key that sets it.
_TRAIN_KEYS = {
    "epochs": "train.epochs",
    "learning_rate": "train.learning_rate",
    "weight_decay": "train.weight_decay",
    "dropout_rate": "train.dropout_rate",
    "seed": "train.seed",
    "early_stopping_patience": "train.patience",
    "hidden_size": "train.hidden_size",
    "num_layers": "train.num_layers",
}

# Train, validation and test proportions, in split_examples' order.
_SPLIT_KEYS = ("split.train", "split.val", "split.test")


def _coerce(key: str, raw: str) -> object:
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean for {key!r}, got {raw!r}")
    if isinstance(default, (int, float)):
        try:
            return type(default)(raw)
        except ValueError:
            raise ConfigError(
                f"expected {type(default).__name__} for {key!r}, got {raw!r}"
            ) from None
    return raw


@dataclass
class PipelineConfig:
    """Flat dotted-key configuration with typed defaults."""

    values: dict[str, object]

    def __post_init__(self):
        threshold = str(self.values["eval.threshold"])
        if threshold != "mean":
            try:
                float(threshold)
            except ValueError:
                raise ConfigError(
                    f"expected 'mean' or a float for 'eval.threshold', "
                    f"got {threshold!r}"
                ) from None
        # Settings that only featurize, train or eval would reject fail
        # here, before any stage has run.
        if self["featurize.metric"] not in fz.METRICS:
            raise ConfigError(
                f"expected one of {fz.METRICS} for 'featurize.metric', "
                f"got {str(self['featurize.metric'])!r}"
            )
        if int(self["featurize.cap"]) < 0:
            raise ConfigError(
                f"expected an int >= 0 for 'featurize.cap', "
                f"got {str(self['featurize.cap'])!r}"
            )
        for key in _SPLIT_KEYS:
            if not 0.0 <= float(self[key]) <= 1.0:
                raise ConfigError(
                    f"expected a proportion in [0, 1] for {key!r}, got {str(self[key])!r}"
                )
        if abs(sum(self.split_proportions()) - 1.0) > 1e-9:
            given = "; ".join(f"{key!r}, got {str(self[key])!r}" for key in _SPLIT_KEYS)
            raise ConfigError(f"expected split proportions that sum to 1: {given}")
        try:
            self.train_config()
        except ConfigError as exc:
            # TrainConfig's messages start with the field they reject.
            key = _TRAIN_KEYS.get(str(exc).split(" ", 1)[0])
            if key is None:
                raise
            raise ConfigError(f"{exc} (config key {key!r}, got {str(self[key])!r})") from None

    @classmethod
    def from_overrides(cls, overrides: dict[str, str] | None = None) -> "PipelineConfig":
        values = dict(_DEFAULTS)
        for key, raw in (overrides or {}).items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
        return cls(values)

    @classmethod
    def from_file(
        cls, path: str | Path, overrides: dict[str, str] | None = None
    ) -> "PipelineConfig":
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot decode config file {path}: {exc}") from exc
        file_overrides: dict[str, str] = {}
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

    def with_values(self, **updates: object) -> "PipelineConfig":
        values = dict(self.values)
        for key, v in updates.items():
            dotted = key.replace("__", ".")
            if dotted not in _DEFAULTS:
                raise ConfigError(f"unknown config key {dotted!r}")
            values[dotted] = v
        return PipelineConfig(values)

    def hash(self) -> str:
        canon = json.dumps(self.values, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def out_dir(self) -> Path:
        out = Path(str(self["out"]))
        out.mkdir(parents=True, exist_ok=True)
        return out

    def learn_config(self, k: int, seed_offset: int = 0) -> LearnConfig:
        return LearnConfig(
            num_rules=k,
            max_body_length=int(self["learn.max_body_length"]),
            beam_width=int(self["learn.beam_width"]),
            min_examples_per_leaf=int(self["learn.min_examples_per_leaf"]),
            covering_discount=float(self["learn.covering_discount"]),
            seed=int(self["learn.seed"]) + seed_offset,
            max_constants_for_grounding=int(self["learn.max_constants_for_grounding"]),
            contrast_ratio=float(self["learn.contrast_ratio"]),
        )

    def split_proportions(self) -> tuple[float, float, float]:
        return tuple(float(self[key]) for key in _SPLIT_KEYS)

    def train_config(self) -> gcn_mod.TrainConfig:
        return gcn_mod.TrainConfig(
            **{f: type(_DEFAULTS[k])(self[k]) for f, k in _TRAIN_KEYS.items()}
        )


# -- shared loading helpers ------------------------------------------------


def _read_input(config: PipelineConfig, key: str) -> str:
    """Text of the input file named by config key ``key``."""
    path = Path(str(config[key]))
    if not path.is_file():
        raise DataError(f"{key} path does not exist: {path} (config key {key!r})")
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path} (config key {key!r}): {exc}") from exc


def _load_kb(config: PipelineConfig) -> KnowledgeBase:
    return parse_facts(_read_input(config, "facts"))


def _load_examples(
    config: PipelineConfig, kb: KnowledgeBase
) -> tuple[list[TargetExample], list[TargetExample]]:
    positives = [
        TargetExample(a, POSITIVE)
        for a in parse_ground_atoms(_read_input(config, "pos"), kb)
    ]
    if str(config["neg"]):
        negatives = [
            TargetExample(a, NEGATIVE)
            for a in parse_ground_atoms(_read_input(config, "neg"), kb)
        ]
    else:
        negatives = sample_negatives(
            kb,
            kb.schema(_target_predicate(config, positives)),
            positives,
            float(config["negatives.ratio"]),
            int(config["negatives.seed"]),
            symmetric=bool(config["negatives.symmetric"]),
        )
    return positives, negatives


def _write_targets(path: Path, targets: list[TargetExample]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["atom", "label"])
        for ex in targets:
            writer.writerow([str(ex.atom), ex.label])


def _target_rows(path: Path) -> Iterator[tuple[int, str, str]]:
    """The (line, atom, label) rows of targets.csv, each checked to hold an
    atom cell and the label positive or negative; line is where the row
    starts (a quoted cell may span lines)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader, None)
        line = reader.line_num + 1
        for row in reader:
            if len(row) != 2 or row[1] not in (POSITIVE, NEGATIVE):
                raise DataError(
                    f"{path}, line {line}: expected an atom and the "
                    f"label 'positive' or 'negative', got {row!r}"
                )
            yield line, row[0], row[1]
            line = reader.line_num + 1


def _read_targets(path: Path, kb: KnowledgeBase) -> list[TargetExample]:
    """The examples of targets.csv; every atom cell must parse to exactly
    one ground atom, or the ParseError names the file and its line."""
    targets = []
    for line, atom, label in _target_rows(path):
        try:
            atoms = parse_ground_atoms(atom + ".", kb)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc.msg}", line) from exc
        if len(atoms) != 1:
            raise ParseError(f"{path}: expected one atom, got {atom!r}", line)
        targets.append(TargetExample(atoms[0], label))
    return targets


def _target_predicate(config: PipelineConfig, positives: list[TargetExample]) -> str:
    return str(config["target"]) or positives[0].atom.predicate


# -- stages ----------------------------------------------------------------


def stage_learn(config: PipelineConfig) -> Path:
    """Learn positive- and negative-density rule sets; persist targets and rules."""
    out = config.out_dir()
    kb = _load_kb(config)
    positives, negatives = _load_examples(config, kb)
    _write_targets(out / "targets.csv", positives + negatives)
    pos_rules = learn_ruleset(
        kb, positives, config.learn_config(int(config["learn.k_pos"]))
    )
    neg_rules = learn_ruleset(
        kb, negatives, config.learn_config(int(config["learn.k_neg"]), seed_offset=1)
    )
    rules_path = out / "rules.txt"
    rules_path.write_text(serialize_rules(pos_rules.rules + neg_rules.rules))
    return rules_path


def stage_featurize(config: PipelineConfig) -> np.ndarray:
    """The rule-count matrix X, one row per target and one column per rule."""
    out = config.out_dir()
    kb = _load_kb(config)
    targets = _read_targets(out / "targets.csv", kb)
    rules = parse_rules((out / "rules.txt").read_text(), kb)
    cap = int(config["featurize.cap"]) or None
    X = fz.build_rule_matrix(rules, targets, kb, cap)
    if bool(config["featurize.zscale"]):
        X = fz.zscale_columns(X)
    row_ids = [str(t.atom) for t in targets]
    col_ids = [f"rule{j}" for j in range(X.shape[1])]
    fz.write_matrix_csv(out / "X.csv", X, row_ids, col_ids)
    return X


def _load_labels(path: Path) -> np.ndarray:
    """The label column of targets.csv: 1 for positive, 0 for negative."""
    return np.array(
        [label == POSITIVE for _, _, label in _target_rows(path)], dtype=int
    )


def _load_graph(
    config: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray, fz.PropagationMatrix]:
    """Labels, X and the propagation matrix rebuilt from X under this
    config's ``featurize.*`` keys."""
    out = config.out_dir()
    X, _, _ = fz.read_matrix_csv(out / "X.csv")
    metric = str(config["featurize.metric"])
    prop = fz.propagation_matrix(X, metric, bool(config["featurize.literal_self_loops"]))
    log.info(
        "graph over %d targets with %d distinct feature rows: metric %s, "
        "t=%r, propagation operator %d bytes",
        X.shape[0],
        prop.classes.shape[0],
        metric,
        prop.threshold,
        prop.nbytes,
    )
    return _load_labels(out / "targets.csv"), X, prop


def stage_train(config: PipelineConfig) -> tuple[gcn_mod.GCNModel, list]:
    """Train the GCN on the graph rebuilt from X; the checkpoint and the
    graph's metric and threshold t are written together."""
    out = config.out_dir()
    labels, X, prop = _load_graph(config)
    masks = metrics_mod.split_examples(
        labels,
        config.split_proportions(),
        int(config["split.seed"]),
        bool(config["split.stratified"]),
    )
    model, history = gcn_mod.train(prop, X, labels, masks, config.train_config())
    gcn_mod.save_checkpoint(out / "model.rdgw", model)
    (out / "threshold.json").write_text(
        json.dumps({"metric": str(config["featurize.metric"]), "t": prop.threshold})
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
    return model, history


def stage_eval(config: PipelineConfig) -> metrics_mod.MetricsReport:
    out = config.out_dir()
    labels, X, prop = _load_graph(config)
    model = gcn_mod.load_checkpoint(out / "model.rdgw")
    splits = json.loads((out / "splits.json").read_text())
    test_idx = np.array(splits["test"], dtype=int)
    scores, _ = gcn_mod.predict(model, prop, X)
    test_scores = scores[test_idx]
    test_labels = labels[test_idx]
    thr_setting = str(config["eval.threshold"])
    threshold = (
        float(np.mean(test_scores)) if thr_setting == "mean" else float(thr_setting)
    )
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


def _stage_error(stage: str, exc: Exception) -> Exception:
    """A copy of ``exc``, of the same type and with the same attributes
    (a ParseError keeps its line), whose message names the failed stage."""
    wrapped = copy.copy(exc)
    wrapped.args = (f"stage {stage!r} failed: {exc}",)
    if isinstance(exc, OSError) and exc.strerror:
        # OSError formats its message from strerror, not from args.
        wrapped.strerror = f"stage {stage!r} failed: {exc.strerror}"
    return wrapped


def run_pipeline(config: PipelineConfig) -> metrics_mod.MetricsReport:
    """Execute all stages in order, writing a manifest; a stage failure is
    re-raised with the stage name, and earlier artifacts stay on disk."""
    out = config.out_dir()
    stage_times: dict[str, float] = {}
    report = None
    for name, fn in _STAGES:
        start = time.perf_counter()
        try:
            result = fn(config)
        except Exception as exc:
            raise _stage_error(name, exc) from exc
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

    Rules and X are learned and built only when missing; every value reuses
    them, since each axis changes only what train and eval build from X.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
    key, default_values = SWEEP_AXES[axis]
    values = values if values is not None else default_values
    out = config.out_dir()
    if not (out / "rules.txt").is_file():
        stage_learn(config)
    if not (out / "X.csv").is_file():
        stage_featurize(config)
    results = []
    for value in values:
        cfg = config.with_values(**{key.replace(".", "__"): _coerce(key, str(value))})
        stage_train(cfg)
        report = stage_eval(cfg)
        results.append((value, report))
    with open(out / f"sweep_{axis}.csv", "w", newline="") as f:
        f.write(axis + "," + metrics_mod.MetricsReport.csv_header() + "\n")
        for value, report in results:
            f.write(f"{value}," + report.to_csv_row() + "\n")
    return results


def rule_coverage_report(config: PipelineConfig) -> str:
    """Pretty-print the learned rules with per-rule coverage statistics."""
    out = config.out_dir()
    kb = _load_kb(config)
    targets = _read_targets(out / "targets.csv", kb)
    rules = parse_rules((out / "rules.txt").read_text(), kb)
    positive = np.array([t.label == POSITIVE for t in targets], dtype=bool)
    n_pos, n_neg = int(positive.sum()), int((~positive).sum())
    lines = []
    for j, rule in enumerate(rules):
        covered = count_satisfied_groundings(rule, targets, kb, cap=1) > 0
        cov_pos, cov_neg = int(covered[positive].sum()), int(covered[~positive].sum())
        lines.append(
            f"[{j}] {rule}  (source={rule.source} iter={rule.iteration}; "
            f"covers {cov_pos}/{n_pos} positives, {cov_neg}/{n_neg} negatives)"
        )
    return "\n".join(lines) + "\n"
