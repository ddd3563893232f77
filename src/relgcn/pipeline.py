"""Staged experiment driver: learn rules, featurize, train, evaluate.

Every stage persists its outputs to the run directory, and a stage run
alone reads its inputs from there, so later stages rerun without the
earlier ones.  Run together, each stage hands its result straight to the
next, which reads back none of the files just written, and learn and
featurize share one parse of the facts and learn's join indexes; a sweep
hands one featurized X to every value's train.  ``run_stages`` runs any
subset of the stages, in order; it is how ``run_pipeline``,
``sensitivity_sweep`` and the stage commands run them.

The only matrix persisted is the feature matrix X, which learn deletes
when it rewrites the rules and targets X is built from: the propagation
matrix is a fixed function of X and the ``featurize.*`` keys, so train
builds it each time.  Train writes the graph's metric and threshold t to
``threshold.json`` and its scores of the test targets to
``test_scores.csv``, which is all eval run alone reads; the trained
weights are not persisted.  Eval writes the one report, ``metrics.csv``,
and a sweep a table of its rows, ``sweep_<axis>.csv``; ``metrics_table``
renders both, as written and as printed.  A manifest records the config
hash, all seeds and per-stage wall times; only ``run_pipeline`` writes
it, and any stage run deletes it.

The per-target tables, ``targets.csv`` (labels), ``X.csv`` and
``test_scores.csv``, are all matrix CSVs (``featurize.write_matrix_csv``):
a row per target, its atom under ``id``, and labels as 1.0 or 0.0.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Collection, Iterator

import numpy as np

from .errors import ConfigError, DataError, ParseError
from . import featurize as fz
from . import gcn as gcn_mod
from . import metrics as metrics_mod
from .grounding import NEGATIVE_DENSITY, POSITIVE_DENSITY, Clause
from .grounding import count_satisfied_groundings, sample_negatives
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
    # Rules hold variables only, so 0 is the one value accepted.  The key
    # is kept because perfbench/workloads.py sets it; the benchmark change
    # that drops those overrides deletes it.
    "learn.max_constants_for_grounding": 0,
    "featurize.metric": fz.EUCLIDEAN,
    "split.train": 0.6,
    "split.val": 0.1,
    "split.seed": 0,
    "eval.threshold": 0.5,
}
_SECTIONS = {"learn.": LearnConfig, "train.": gcn_mod.TrainConfig}

# A config file comment: a ``#`` at the start of a line or after a blank,
# to the end of the line; any other ``#`` is part of a value.
_CONFIG_COMMENT_RE = re.compile(r"(?:^|\s)#.*")

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
    """Reject an out-of-range value of a key that no dataclass holds, or a
    ``learn.seed`` that sampled negatives share, quoting it as ``text`` has it."""
    if values["featurize.metric"] not in fz.METRICS:
        raise ConfigError(f"one of {fz.METRICS}", "featurize.metric", text["featurize.metric"])
    for key, least in [
        ("negatives.seed", 0), ("split.seed", 0), ("learn.k_pos", 1), ("learn.k_neg", 1),
    ]:
        if values[key] < least:
            raise ConfigError(f"an int >= {least}", key, text[key])
    key = "learn.max_constants_for_grounding"
    if values[key] != 0:
        raise ConfigError("0 (rules hold variables only)", key, text[key])
    if not values["neg"] and values["learn.seed"] == values["negatives.seed"]:
        # The positive-density contrast would repeat the sampled negatives.
        given = "; ".join(f"{k!r}, got {text[k]!r}" for k in ("learn.seed", "negatives.seed"))
        raise ConfigError(f"expected different seeds while 'neg' is empty: {given}")
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
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config file {path} does not exist") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot decode config file {path}: {exc}") from exc
        file_overrides: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = _CONFIG_COMMENT_RE.sub("", raw).strip()
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


# -- shared loading helpers ------------------------------------------------


@contextmanager
def _in_file(name: str, offset: int = 0) -> Iterator[None]:
    """Re-raise a ParseError of the block with ``name`` before its message
    and its line, if any, moved down by ``offset``."""
    try:
        yield
    except ParseError as exc:
        line = None if exc.line is None else exc.line + offset
        raise ParseError(f"{name}: {exc.msg}", line) from exc


def _parse_input(config: PipelineConfig, key: str, parse: Callable, *args) -> object:
    """``parse`` of the text of the input file named by config key ``key``
    (and ``args``); a ParseError names the file and the key."""
    path = Path(config[key])
    if not path.is_file():
        raise DataError(f"{key} path does not exist: {path} (config key {key!r})")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path} (config key {key!r}): {exc}") from exc
    with _in_file(f"{path} (config key {key!r})"):
        return parse(text, *args)


def _load_kb(config: PipelineConfig) -> KnowledgeBase:
    return _parse_input(config, "facts", parse_facts)


def _load_examples(config: PipelineConfig, kb: KnowledgeBase) -> tuple[Targets, Targets]:
    """The positives and the negatives, from ``neg`` or sampled; no target atom twice."""
    positives = _parse_input(config, "pos", parse_ground_atoms, kb, True)
    if config["neg"]:
        negatives = _parse_input(config, "neg", parse_ground_atoms, kb, False)
        if negatives.predicate != positives.predicate:
            raise DataError(
                f"{config['neg']} (config key 'neg') holds {negatives.predicate} "
                f"examples, not {positives.predicate} as pos does"
            )
    else:
        negatives = _draw(
            config, kb, positives, "negatives.ratio", config["negatives.seed"], "the negatives"
        )
    files = [f"in {config[key]} (config key {key!r})" for key in ("pos", "neg")]
    _refuse_repeats(kb, positives + negatives, lambda row: files[row >= len(positives)])
    return positives, negatives


def _draw(
    config: PipelineConfig, kb: KnowledgeBase, outside: Targets, key: str, seed: int, what: str
) -> Targets:
    """``config[key]`` times as many tuples as ``outside``, none in it, drawn
    with ``seed`` under ``negatives.symmetric``; every draw of a run is made
    here.  One too large is a DataError naming ``what`` it draws and ``key``."""
    ratio = config[key]
    try:
        return sample_negatives(
            kb, kb.schema(outside.predicate), outside, ratio, seed,
            symmetric=config["negatives.symmetric"],
        )
    except DataError as exc:
        raise DataError(
            f"cannot sample {what} (config key {key!r} = {ratio!r}): {exc}"
        ) from exc


def _refuse_repeats(kb: KnowledgeBase, targets: Targets, place: Callable[[int], str]) -> None:
    """A DataError naming a target atom held twice, whatever the labels,
    and the ``place`` of its rows; sorted, not np.unique (see sample_negatives)."""
    ids = targets.ids
    order = np.lexsort(ids.T[::-1])
    same = np.flatnonzero((ids[order[1:]] == ids[order[:-1]]).all(axis=1))
    if same.size:
        rows = sorted(order[same[0] : same[0] + 2].tolist())
        atom = kb.atom_texts(targets.predicate, ids[rows[:1]])[0]
        where = " and ".join(dict.fromkeys(place(row) for row in rows))
        raise DataError(f"target {atom} is listed twice, {where}")


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


def _read_targets(path: Path, kb: KnowledgeBase) -> tuple[Targets, list[str]]:
    """The examples of targets.csv (``id,label``), parsed as one example
    file with a line per row, and its id cells as read; every atom cell
    must be one atom on one line, or the ParseError names the file and the
    line of its row (row i is on line i + 2, as every row above it is one
    line).  An atom on two rows is a DataError that names both lines."""
    M, atoms = _read_labelled(path, ["label"])
    for i, atom in enumerate(atoms):
        # An empty, comment-only or multi-line cell would shift the lines.
        if len((atom + ".").splitlines()) != 1 or not _strip_comment(atom).strip():
            raise ParseError(f"{path}: expected one atom, got {atom!r}", i + 2)
    text = "".join(f"{atom}.\n" for atom in atoms)
    with _in_file(str(path), offset=1):
        targets = parse_ground_atoms(text, kb, M[:, 0] == 1.0)
    _refuse_repeats(kb, targets, lambda row: f"on line {row + 2} of {path}")
    return targets, atoms


def _load_rules(
    config: PipelineConfig, kb: KnowledgeBase
) -> tuple[Targets, list[str], list[Clause]]:
    """What learn returns, read back: the examples of targets.csv with its
    id cells and the rules of rules.txt, read against ``kb``; a ParseError,
    or a file that is not UTF-8, names the file."""
    out = config.out_dir()
    targets, ids = _read_targets(out / "targets.csv", kb)
    path = out / "rules.txt"
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path}: {exc}") from exc
    with _in_file(str(path)):
        return targets, ids, parse_rules(text, kb)


# -- stages ----------------------------------------------------------------


def stage_learn(
    config: PipelineConfig, kb: KnowledgeBase
) -> tuple[Targets, list[str], list[Clause]]:
    """Learn positive- and negative-density rule sets on ``kb``, the parsed
    facts, against contrasts drawn with ``learn.seed`` and ``learn.seed + 1``,
    then persist targets and rules; a learn that fails writes nothing.  X
    is built from both, so a stale ``X.csv`` is deleted: train cannot fit
    features of rules or targets that learn has replaced.  Learn is the
    one stage that creates the run directory.  Returns the targets, the id
    cells written for them and the rules, as ``_load_rules`` reads them
    back."""
    positives, negatives = _load_examples(config, kb)
    rules: list[Clause] = []
    for source, examples, k_key, seed in [
        (POSITIVE_DENSITY, positives, "learn.k_pos", config.learn.seed),
        (NEGATIVE_DENSITY, negatives, "learn.k_neg", config.learn.seed + 1),
    ]:
        what = f"the contrast of the {source} rule set outside its {len(examples)} examples"
        contrast = _draw(config, kb, examples, "learn.contrast_ratio", seed, what)
        rules += learn_ruleset(kb, examples, contrast, config.learn, config[k_key]).rules
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / "X.csv").unlink(missing_ok=True)
    targets = positives + negatives
    atoms = kb.atom_texts(targets.predicate, targets.ids)
    fz.write_matrix_csv(out / "targets.csv", targets.positive[:, None], atoms, ["label"])
    (out / "rules.txt").write_text(serialize_rules(rules), encoding="utf-8")
    return targets, atoms, rules


def derived_seeds(seed: int) -> dict[str, int]:
    """The value ``--seed seed`` gives each ``*seed`` key: a word of
    ``seed``'s `np.random.SeedSequence`, with its residue modulo twice the
    number of keys set to twice the key's position in name order.  Every
    seed is then even in that modulus and every seed + 1 odd, so no two
    keys share a seed, nor does any key with the negative-density contrast,
    which `stage_learn` draws with ``learn.seed + 1``."""
    if seed < 0:
        raise ConfigError("an int >= 0", "--seed", seed)
    keys = sorted(key for key in default_values() if key.endswith("seed"))
    step = 2 * len(keys)
    words = np.random.SeedSequence(seed).generate_state(len(keys)).tolist()
    return {key: word // step * step + 2 * i for i, (key, word) in enumerate(zip(keys, words))}


def stage_featurize(
    config: PipelineConfig,
    kb: KnowledgeBase,
    learned: tuple[Targets, list[str], list[Clause]] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The rule-count matrix X, one row per target and one column per rule,
    written to ``X.csv`` as raw counts under targets.csv's id cells.
    ``learned`` is what learn returned, or, when None, ``_load_rules``
    reads it from the run directory.  ``kb`` is the parsed facts, and the
    kb learn used brings its join indexes along; no config key but
    ``out`` is read.  Returns the labels, X and its row ids, as
    ``_read_graph`` reads them back."""
    targets, row_ids, rules = learned if learned is not None else _load_rules(config, kb)
    X = fz.build_rule_matrix(rules, targets, kb)
    col_ids = [f"rule{j}" for j in range(X.shape[1])]
    fz.write_matrix_csv(config.out_dir() / "X.csv", X, row_ids, col_ids)
    return targets.positive.astype(int), X, row_ids


def _read_graph(config: PipelineConfig) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """What featurize returns, read back: the labels, X and X's row ids.
    The labels are read from targets.csv as eval reads test_scores.csv,
    and X's row ids must be its id cells, in order and as written, or the
    DataError names both files."""
    out = config.out_dir()
    x_path, targets_path = out / "X.csv", out / "targets.csv"
    X, row_ids, _ = fz.read_matrix_csv(x_path)
    labelled, atoms = _read_labelled(targets_path, ["label"])
    if row_ids != atoms:
        raise DataError(
            f"the {len(row_ids)} rows of {x_path} are not the {len(atoms)} "
            f"targets of {targets_path}, in order; rerun featurize"
        )
    return labelled[:, 0].astype(int), X, row_ids


def _build_graph(config: PipelineConfig, X: np.ndarray) -> fz.PropagationMatrix:
    """The propagation matrix of X under this config's ``featurize.*``
    keys, logged."""
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
    return prop


_SCORE_COLUMNS = ["label", "score"]


def stage_train(
    config: PipelineConfig,
    featurized: tuple[np.ndarray, np.ndarray, list[str]] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[gcn_mod.EpochRecord]]:
    """Train the GCN on the graph built from X and write the graph's
    metric and threshold t, the training history, the split and each test
    target's label and score under the trained model, in split order.
    ``featurized`` is what featurize returned, or, when None,
    ``_read_graph`` reads it from the run directory; the graph is built
    here either way, under this config's metric.  Returns the test labels
    and scores, as ``_read_scores`` reads them back, and the history; the
    model is neither written nor returned."""
    out = config.out_dir()
    labels, X, row_ids = featurized if featurized is not None else _read_graph(config)
    prop = _build_graph(config, X)
    proportions = tuple(config[key] for key in _SPLIT_KEYS)
    masks = metrics_mod.split_examples(labels, proportions, config["split.seed"])
    model, history = gcn_mod.train(prop, X, labels, masks, config.train)
    log.info(
        "trained %d epochs (%s); val_loss=%r, lowest val_loss at epoch %d; "
        "each layer ran on %d rows for %d targets",
        len(history),
        "stopped early" if len(history) < config.train.epochs else "no early stop",
        history[-1].val_loss, int(np.argmin([rec.val_loss for rec in history])),
        prop.classes.shape[0], X.shape[0],
    )
    scores, _ = gcn_mod.predict(model, prop, X)
    (out / "threshold.json").write_text(
        json.dumps({"metric": config["featurize.metric"], "t": prop.threshold}), encoding="utf-8"
    )
    _write_history(out / "history.csv", history)
    (out / "splits.json").write_text(
        json.dumps(
            {
                "train": masks.train.tolist(),
                "validation": masks.validation.tolist(),
                "test": masks.test.tolist(),
            }
        ),
        encoding="utf-8",
    )
    test = masks.test
    test_labels, test_scores = labels[test], scores[test]
    fz.write_matrix_csv(
        out / "test_scores.csv",
        np.column_stack([test_labels, test_scores]),
        [row_ids[i] for i in test],
        _SCORE_COLUMNS,
    )
    return test_labels, test_scores, history


def _write_history(path: Path, history: list[gcn_mod.EpochRecord]) -> None:
    """One row per epoch, ``epoch,train_loss,val_loss,val_f1``, each loss
    and F1 its float's repr, in one write.  The bytes are what
    ``csv.writer`` writes: a repr holds no comma, quote or line break, so
    no field is quoted, and every row ends in csv's ``\\r\\n``."""
    rows = [f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.val_f1!r}\r\n" for r in history]
    path.write_text(
        "epoch,train_loss,val_loss,val_f1\r\n" + "".join(rows), encoding="utf-8", newline=""
    )


def _read_scores(config: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """The test labels and scores train returns, read back from
    test_scores.csv as train reads targets.csv, with the columns ``label``
    and ``score``; a scores file that is missing is a DataError that says
    to retrain."""
    path = config.out_dir() / "test_scores.csv"
    if not path.is_file():
        raise DataError(f"{path} does not exist; retrain (train writes it)")
    M, _ = _read_labelled(path, _SCORE_COLUMNS)
    return M[:, 0].astype(int), M[:, 1]


def stage_eval(
    config: PipelineConfig,
    trained: tuple[np.ndarray, np.ndarray, list[gcn_mod.EpochRecord]] | None = None,
) -> metrics_mod.MetricsReport:
    """Apply ``eval.threshold`` to the test scores and write the report,
    ``metrics.csv``: its header and one row.  ``trained`` is what train
    returned, of which eval reads the test labels and scores, or, when
    None, ``_read_scores`` reads them from the run directory, and the INFO
    line names that file; no other artifact or config key is read.  A
    threshold that no test score reaches is logged as a WARNING;
    precision and F1 are then 0."""
    out = config.out_dir()
    test_labels, test_scores = trained[:2] if trained is not None else _read_scores(config)
    threshold = config["eval.threshold"]
    read_from = "" if trained is not None else f" from {out / 'test_scores.csv'}"
    log.info("scored %d test targets at threshold %r%s", len(test_scores), threshold, read_from)
    report = metrics_mod.confusion_metrics(
        test_scores, test_labels, threshold, metrics_mod.auc_pr(test_scores, test_labels)
    )
    if report.tp + report.fp == 0:
        log.warning("no test target scored at or above the threshold %r: "
                    "precision and F1 are 0", threshold)
    (out / "metrics.csv").write_text(
        metrics_table([(None, report)]), encoding="utf-8", newline=""
    )
    return report


def metrics_table(results: list[tuple[object, metrics_mod.MetricsReport]], axis: str = "") -> str:
    """The text of a metrics table, as written and as the CLI prints it: a
    header, then one row per report, each line ending in ``\\n``.  Without
    an ``axis`` it is ``metrics.csv`` and each report's value is not
    written; with one it is a sweep table, whose first column, headed
    ``axis``, holds the values."""
    rows = [(axis, metrics_mod.METRICS_HEADER)]
    rows += [(value, report.to_csv_row()) for value, report in results]
    return "".join(f"{value},{row}\n" if axis else f"{row}\n" for value, row in rows)


_STAGES = [
    ("learn", stage_learn),
    ("featurize", stage_featurize),
    ("train", stage_train),
    ("eval", stage_eval),
]
# The stages that read the facts; train and eval read none of it.
_KB_STAGES = ("learn", "featurize")


@contextmanager
def _stage(stage: str, at: str) -> Iterator[None]:
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


def run_stages(
    config: PipelineConfig,
    names: Collection[str] | None = None,
    at: str = "",
    given: object = None,
) -> dict[str, tuple[object, float]]:
    """Run the stages ``names`` (all when None) in pipeline order and
    return each one's result and wall time in seconds.  A stage failure is
    re-raised by ``_stage`` with the stage name and ``at``; earlier
    artifacts stay on disk.

    Each stage's result is passed straight to the next stage, when that
    stage runs too; a stage whose predecessor did not run reads its input
    from the run directory, unless it is the first stage run and
    ``given`` holds that input (what its predecessor would have returned).
    Every stage still writes all its files, so any stage can later run
    alone.

    The run directory's manifest is deleted first: it describes the run
    that wrote every artifact, which this one may rewrite.  Learn and
    featurize share one parse of the facts, released before train.
    """
    (config.out_dir() / "manifest.json").unlink(missing_ok=True)
    ran: dict[str, tuple[object, float]] = {}
    kb, handoff = None, given
    for name, fn in _STAGES:
        if names is not None and name not in names:
            handoff = None if ran else handoff
            continue
        start = time.perf_counter()
        with _stage(name, at):
            args: list[object] = [config]
            if name in _KB_STAGES:
                if kb is None:
                    kb = _load_kb(config)
                args.append(kb)
            else:
                kb = None  # train and eval read no facts
            if handoff is not None:
                args.append(handoff)
            handoff = fn(*args)
        ran[name] = (handoff, time.perf_counter() - start)
    return ran


def run_pipeline(config: PipelineConfig) -> metrics_mod.MetricsReport:
    """Run all stages and write the manifest, which only a run that
    finished leaves."""
    ran = run_stages(config)
    manifest = {
        "config": config.values,
        "config_hash": config.hash(),
        "seeds": {
            k: config.values[k] for k in sorted(config.values) if k.endswith("seed")
        },
        "stage_times_s": {name: seconds for name, (_, seconds) in ran.items()},
    }
    (config.out_dir() / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return ran["eval"][0]


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
    """Rerun train and eval once per value of one axis, seeds fixed, and
    write the metrics of each to ``sweep_<axis>.csv``.  Each value's train
    and eval rewrite their artifacts (``splits.json``, ``threshold.json``,
    ``history.csv``, ``test_scores.csv``, ``metrics.csv``), which are left
    holding the run at the last value.

    Learn and featurize run first when ``rules.txt`` is missing, and
    featurize alone when only ``X.csv`` is; otherwise the labels, X and
    its row ids are read once from the run directory.  Every value's train
    is handed those, since each axis changes only what train and eval
    build from X, and each value's eval its train's scores.  A stage that
    fails is named with the value it ran at; a run directory that cannot
    be read fails as train at the first value.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
    key, default_values = SWEEP_AXES[axis]
    values = values if values is not None else default_values
    out = config.out_dir()
    if not (out / "rules.txt").is_file():
        featurized = run_stages(config, ("learn", "featurize"))["featurize"][0]
    elif not (out / "X.csv").is_file():
        featurized = run_stages(config, ("featurize",))["featurize"][0]
    else:
        with _stage("train", f"{axis}={values[0]}" if values else ""):
            featurized = _read_graph(config)
    results = []
    for value in values:
        cfg = PipelineConfig.from_overrides({**config.values, key: value})
        ran = run_stages(cfg, ("train", "eval"), f"{axis}={value}", featurized)
        results.append((value, ran["eval"][0]))
    (out / f"sweep_{axis}.csv").write_text(
        metrics_table(results, axis), encoding="utf-8", newline=""
    )
    return results


def rule_coverage_report(config: PipelineConfig) -> str:
    """Pretty-print the learned rules with per-rule coverage statistics."""
    kb = _load_kb(config)
    targets, _, rules = _load_rules(config, kb)
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
