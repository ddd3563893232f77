"""Link-prediction metrics (recall, precision, F1, AUC-PR), reported as
one ``metrics.csv`` row under ``METRICS_HEADER``, and data splits."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .gcn import SplitMasks


@dataclass
class MetricsReport:
    """The test-split metrics of one run, a row of ``metrics.csv`` whose
    columns are the fields, in order."""

    recall: float
    precision: float
    f1: float
    auc_pr: float
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_csv_row(self) -> str:
        """The fields, in order: floats to six decimals, counts as integers."""
        values = (getattr(self, f.name) for f in fields(self))
        return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in values)


METRICS_HEADER = ",".join(f.name for f in fields(MetricsReport))


def confusion_metrics(
    scores: np.ndarray, labels: np.ndarray, threshold: float, auc: float
) -> MetricsReport:
    """Thresholded counts and derived metrics, reported with the AUC-PR
    ``auc``; predict positive iff score >= threshold.  Precision is 0 when
    nothing is predicted positive."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.size == 0 or scores.size != labels.size:
        raise DataError("scores and labels must be equal-length and nonempty")
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))
    precision = 0.0 if (tp + fp) == 0 else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return MetricsReport(recall, precision, f1, auc, threshold, tp, fp, tn, fn)


def auc_pr(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve.

    Scores are sorted descending with ties grouped; (recall, precision)
    points are integrated with right-continuous steps:
    sum over points of (R_i - R_{i-1}) * P_i.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise DataError("auc_pr requires at least one positive label")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # The last position of each group of tied scores, and the counts of
    # true positives and of all examples seen once the group is in.
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.cumsum(labels[order] == 1)[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    # cumsum adds left to right, one step at a time, as a loop would.
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def split_examples(
    labels: np.ndarray,
    proportions: tuple[float, float] = (0.6, 0.1),
    seed: int = 0,
) -> SplitMasks:
    """Seeded disjoint exhaustive train/validation/test index sets, each
    nonempty and stratified: ``proportions`` are the train and validation
    shares within each label class, and the test set holds the rest of
    each class, a share of 1 - train - val.
    """
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    if n < 3:
        raise DataError("need at least 3 examples to split")
    train_share, val_share = proportions
    for name, share in zip(("train", "validation"), proportions):
        if share < 0:
            raise DataError(f"split proportion {name!r} must be >= 0, got {share!r}")
    if train_share + val_share > 1.0:
        raise DataError(f"split proportions {proportions!r} must sum to at most 1")
    rng = np.random.default_rng(seed)
    parts = []
    for label in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == label)
        rng.shuffle(idx)
        # Both shares may round up; train's alone cannot pass the class size.
        n_train = round(train_share * idx.size)
        n_val = min(round(val_share * idx.size), idx.size - n_train)
        parts.append(np.split(idx, [n_train, n_train + n_val]))
    train, val, test = (np.concatenate(part) for part in zip(*parts))
    shares = (repr(train_share), repr(val_share), f"1 - {train_share!r} - {val_share!r}")
    for name, share, part in zip(("train", "validation", "test"), shares, (train, val, test)):
        if part.size == 0:
            raise DataError(
                f"split part {name!r} is empty: proportion {share} of "
                f"{n} examples rounds to none"
            )
    return SplitMasks(np.sort(train), np.sort(val), np.sort(test))
