"""Output checks of one timed call, and counters computed from its artifacts.

The checks read what the program wrote (``metrics.csv``, the sweep table,
``splits.json``) with the benchmark's own parser, so a malformed or
inconsistent row is caught even when the program would accept it.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from pathlib import Path

import numpy as np

from tracing import COMPUTED

METRICS_HEADER = "recall,precision,f1,auc_pr,threshold,tp,fp,tn,fn"
SWEEP_AXIS = "hidden_size"
SWEEP_VALUES = ("16", "32", "64", "128")
DENSE_ARTIFACTS = ("D.csv", "A_hat.csv", "P.csv")
# Rows round the rates to 6 decimals.
_RATE_TOL = 2e-6


def parse_metrics_row(row: str, test_size: int) -> tuple[dict[str, float], list[str]]:
    """Fields of one ``metrics.csv`` data row and the reasons it is wrong.

    A row is right when it has the nine fields, every rate is a finite
    number in [0, 1], the confusion counts are non-negative and add up to
    the test split, and recall, precision and F1 agree with the counts.
    """
    parts = row.strip().split(",")
    names = METRICS_HEADER.split(",")
    if len(parts) != len(names):
        return {}, [f"expected {len(names)} fields, got {len(parts)}: {row!r}"]
    fields: dict[str, float] = {}
    try:
        for name, raw in zip(names[:5], parts[:5]):
            fields[name] = float(raw)
        for name, raw in zip(names[5:], parts[5:]):
            fields[name] = int(raw)
    except ValueError as exc:
        return {}, [f"unparsable field in {row!r}: {exc}"]
    errors = []
    for name in names[:5]:
        v = fields[name]
        if not math.isfinite(v) or not 0.0 <= v <= 1.0:
            errors.append(f"{name}={v} is not a finite rate in [0, 1]")
    tp, fp, tn, fn = (fields[n] for n in names[5:])
    if min(tp, fp, tn, fn) < 0:
        errors.append(f"negative confusion count in {row!r}")
    if tp + fp + tn + fn != test_size:
        errors.append(f"confusion counts add up to {tp + fp + tn + fn}, test split has {test_size}")
    if errors:
        return fields, errors
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    for name, expected in (("recall", recall), ("precision", precision), ("f1", f1)):
        if abs(fields[name] - expected) > _RATE_TOL:
            errors.append(f"{name}={fields[name]} disagrees with the counts ({expected:.6f})")
    return fields, errors


def _test_size(out: Path) -> int:
    return len(json.loads((out / "splits.json").read_text())["test"])


def check_metrics_file(path: Path, test_size: int) -> tuple[dict[str, float], list[str]]:
    lines = path.read_text().splitlines()
    if len(lines) != 2 or lines[0] != METRICS_HEADER:
        return {}, [f"{path.name}: expected the header {METRICS_HEADER!r} and one row"]
    return parse_metrics_row(lines[1], test_size)


def check_sweep_file(path: Path, test_size: int) -> tuple[list[dict[str, float]], list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"{SWEEP_AXIS},{METRICS_HEADER}":
        return [], [f"{path.name}: bad header"]
    values = tuple(line.split(",", 1)[0] for line in lines[1:])
    if values != SWEEP_VALUES:
        return [], [f"{path.name}: swept {values}, expected {SWEEP_VALUES}"]
    rows, errors = [], []
    for line in lines[1:]:
        fields, errs = parse_metrics_row(line.split(",", 1)[1], test_size)
        rows.append(fields)
        errors += [f"{path.name} {SWEEP_AXIS}={line.split(',', 1)[0]}: {e}" for e in errs]
    return rows, errors


class ScoreProbe:
    """Records whether every ``gcn.predict`` call returned finite probabilities.

    Installed for untraced and traced calls alike; it adds one Python call
    and one pass over the n scores per evaluation.
    """

    def __init__(self):
        self.calls = 0
        self.ok = True

    def install(self) -> None:
        gcn = importlib.import_module("relgcn.gcn")
        predict = gcn.predict

        def probed(*args, **kwargs):
            scores, hard = predict(*args, **kwargs)
            self.calls += 1
            self.ok = self.ok and bool(np.all((scores >= 0.0) & (scores <= 1.0)))
            return scores, hard

        gcn.predict = probed

    def reset(self) -> None:
        self.calls, self.ok = 0, True

    @property
    def scores_finite(self) -> bool:
        return self.calls > 0 and self.ok


def check_call(out: Path, sweep: bool, auc_floor: float, f1_floor: float,
               scores_finite: bool) -> tuple[float, list[str]]:
    """Lowest test-split AUC-PR of the call's reports and the check failures."""
    if not scores_finite:
        return 0.0, ["predict returned non-finite scores"]
    test_size = _test_size(out)
    final, errors = check_metrics_file(out / "metrics.csv", test_size)
    rows = [final] if final else []
    if sweep:
        rows, sweep_errors = check_sweep_file(out / f"sweep_{SWEEP_AXIS}.csv", test_size)
        errors += sweep_errors
    if errors or not rows:
        return 0.0, errors or ["no metrics rows"]
    auc = min(r["auc_pr"] for r in rows)
    f1 = min(r["f1"] for r in rows)
    if auc < auc_floor:
        errors.append(f"auc_pr {auc:.6f} below the floor {auc_floor}")
    if f1 < f1_floor:
        errors.append(f"f1 {f1:.6f} below the floor {f1_floor}")
    return auc, errors


# -- counters computed from artifacts ---------------------------------------


def _read_x(path: Path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return np.array([[float(v) for v in r[1:]] for r in rows], dtype=float)


def useless_columns(X: np.ndarray) -> int:
    """Constant columns plus columns equal to an earlier non-constant one."""
    constant = [j for j in range(X.shape[1]) if np.all(X[:, j] == X[0, j])]
    seen: list[np.ndarray] = []
    duplicates = 0
    for j in range(X.shape[1]):
        if j in constant:
            continue
        if any(np.array_equal(X[:, j], s) for s in seen):
            duplicates += 1
        else:
            seen.append(X[:, j])
    return len(constant) + duplicates


def artifact_metrics(out: Path) -> dict[str, tuple[float, str, str]]:
    """Counters computed from a finished call's artifacts: name -> (value, unit, kind)."""
    X = _read_x(out / "X.csv")
    n, k = X.shape
    u = len(np.unique(X, axis=0))
    with open(out / "history.csv", newline="") as f:
        history = list(csv.DictReader(f))
    val_losses = [float(r["val_loss"]) for r in history]
    sizes = artifact_sizes(out)
    return {
        "featurize.rows": (n, "count", COMPUTED),
        "featurize.distinct_rows": (u, "count", COMPUTED),
        "featurize.distinct_row_ratio": (u / n, "ratio", COMPUTED),
        "featurize.columns": (k, "count", COMPUTED),
        "featurize.useless_columns": (useless_columns(X), "count", COMPUTED),
        "gcn.epochs": (len(history), "count", COMPUTED),
        "gcn.best_epoch": (int(np.argmin(val_losses)), "count", COMPUTED),
        "pipeline.artifact_bytes": (sum(sizes.values()), "B", COMPUTED),
        "pipeline.dense_artifact_bytes": (
            sum(sizes.get(name, 0) for name in DENSE_ARTIFACTS), "B", COMPUTED),
    }


def artifact_sizes(out: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in sorted(out.iterdir()) if p.is_file()}
