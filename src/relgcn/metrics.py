"""Link-prediction metrics (recall, precision, F1, AUC-PR) and data splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .gcn import SplitMasks


@dataclass
class MetricsReport:
    recall: float
    precision: float
    f1: float
    auc_pr: float | None
    threshold_used: float
    tp: int
    fp: int
    tn: int
    fn: int
    no_positive_predictions: bool = False

    def to_text(self) -> str:
        lines = [
            f"recall: {self.recall:.6f}",
            f"precision: {self.precision:.6f}",
            f"f1: {self.f1:.6f}",
            f"auc_pr: {'' if self.auc_pr is None else f'{self.auc_pr:.6f}'}",
            f"threshold: {self.threshold_used:.6f}",
            f"tp: {self.tp}",
            f"fp: {self.fp}",
            f"tn: {self.tn}",
            f"fn: {self.fn}",
            f"no_positive_predictions: {self.no_positive_predictions}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def csv_header() -> str:
        return "recall,precision,f1,auc_pr,threshold,tp,fp,tn,fn"

    def to_csv_row(self) -> str:
        auc = "" if self.auc_pr is None else f"{self.auc_pr:.6f}"
        return (
            f"{self.recall:.6f},{self.precision:.6f},{self.f1:.6f},{auc},"
            f"{self.threshold_used:.6f},{self.tp},{self.fp},{self.tn},{self.fn}"
        )


def confusion_metrics(
    scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5
) -> MetricsReport:
    """Thresholded counts and derived metrics; predict positive iff
    score >= threshold.  Precision is reported as a flagged 0 when nothing
    is predicted positive."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.size == 0 or scores.size != labels.size:
        raise DataError("scores and labels must be equal-length and nonempty")
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))
    no_pos = (tp + fp) == 0
    precision = 0.0 if no_pos else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return MetricsReport(
        recall=recall,
        precision=precision,
        f1=f1,
        auc_pr=None,
        threshold_used=threshold,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        no_positive_predictions=no_pos,
    )


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
    proportions: tuple[float, float, float] = (0.6, 0.1, 0.3),
    seed: int = 0,
    stratified: bool = True,
) -> SplitMasks:
    """Seeded disjoint exhaustive train/validation/test index sets, each
    nonempty.

    Stratified mode applies the proportions within each label class, which
    guards heavily imbalanced target sets.
    """
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    if n < 3:
        raise DataError("need at least 3 examples to split")
    for name, share in zip(("train", "validation", "test"), proportions):
        if share < 0:
            raise DataError(f"split proportion {name!r} must be >= 0, got {share!r}")
    if abs(sum(proportions) - 1.0) > 1e-9:
        raise DataError("split proportions must sum to 1")
    rng = np.random.default_rng(seed)

    def split_indices(idx: np.ndarray):
        idx = idx.copy()
        rng.shuffle(idx)
        m = idx.size
        n_train = int(round(proportions[0] * m))
        n_val = int(round(proportions[1] * m))
        n_train = min(n_train, m)
        n_val = min(n_val, m - n_train)
        return idx[:n_train], idx[n_train : n_train + n_val], idx[n_train + n_val :]

    if stratified:
        parts = [split_indices(np.flatnonzero(labels == c)) for c in sorted(set(labels.tolist()))]
        train = np.concatenate([p[0] for p in parts])
        val = np.concatenate([p[1] for p in parts])
        test = np.concatenate([p[2] for p in parts])
    else:
        train, val, test = split_indices(np.arange(n))
    for name, share, part in zip(("train", "validation", "test"), proportions, (train, val, test)):
        if part.size == 0:
            raise DataError(
                f"split part {name!r} is empty: proportion {share!r} of "
                f"{n} examples rounds to none"
            )
    return SplitMasks(np.sort(train), np.sort(val), np.sort(test))
