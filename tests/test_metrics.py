"""Confusion metrics, AUC-PR and stratified splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgcn.errors import DataError
from relgcn.metrics import METRICS_HEADER, auc_pr, confusion_metrics, split_examples

from oracles import auc_pr_by_tie_groups


def test_confusion_hand_counted():
    scores = np.array([0.9, 0.8, 0.4, 0.3, 0.6])
    labels = np.array([1, 0, 1, 0, 1])
    report = confusion_metrics(scores, labels, threshold=0.5, auc=0.75)
    assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 1, 1)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)
    assert (report.threshold, report.auc_pr) == (0.5, 0.75)


def test_confusion_predicts_at_threshold_boundary():
    report = confusion_metrics(np.array([0.5]), np.array([1]), threshold=0.5, auc=1.0)
    assert report.tp == 1  # score >= threshold counts as positive


def test_confusion_no_positive_predictions_flagged():
    report = confusion_metrics(np.array([0.1, 0.2]), np.array([1, 0]), threshold=0.5, auc=1.0)
    assert report.tp + report.fp == 0
    assert report.precision == 0.0
    assert report.f1 == 0.0


def test_confusion_rejects_bad_inputs():
    with pytest.raises(DataError):
        confusion_metrics(np.array([]), np.array([]), 0.5, 1.0)
    with pytest.raises(DataError):
        confusion_metrics(np.array([0.5]), np.array([1, 0]), 0.5, 1.0)


def test_report_row_fills_the_header_columns():
    """The row holds a cell per header column: the rates, AUC-PR and
    threshold to six decimals, then the four counts."""
    report = confusion_metrics(np.array([0.9, 0.1, 0.6]), np.array([1, 0, 1]), 0.7, 1.0)
    assert METRICS_HEADER == "recall,precision,f1,auc_pr,threshold,tp,fp,tn,fn"
    assert report.to_csv_row() == "0.500000,1.000000,0.666667,1.000000,0.700000,1,0,1,1"


def test_auc_pr_frozen_step_value():
    """Step-wise integration of (0.9, 0.7, 0.5, 0.3) / (1, 0, 1, 0):
    0.5 * 1 + 0.5 * (2/3) = 5/6."""
    scores = np.array([0.9, 0.7, 0.5, 0.3])
    labels = np.array([1, 0, 1, 0])
    assert auc_pr(scores, labels) == pytest.approx(0.833333333333, abs=1e-9)


def test_auc_pr_perfect_and_inverted_ranking():
    labels = np.array([1, 1, 0, 0])
    assert auc_pr(np.array([0.9, 0.8, 0.2, 0.1]), labels) == pytest.approx(1.0)
    worst = auc_pr(np.array([0.1, 0.2, 0.8, 0.9]), labels)
    # Positives ranked last: 0.5 * (1/3) + 0.5 * (1/2) = 5/12.
    assert worst == pytest.approx(5 / 12)


def test_auc_pr_constant_scores_is_prevalence():
    labels = np.array([1, 0, 0, 0, 1])
    assert auc_pr(np.full(5, 0.5), labels) == pytest.approx(0.4)


def test_auc_pr_groups_ties():
    # Two tied positives + a tied negative form one group.
    scores = np.array([0.7, 0.7, 0.7, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert auc_pr(scores, labels) == pytest.approx(2 / 3)


def test_auc_pr_requires_a_positive():
    with pytest.raises(DataError):
        auc_pr(np.array([0.4, 0.6]), np.array([0, 0]))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1)),
        min_size=2,
        max_size=40,
    ).filter(lambda pairs: any(l == 1 for _, l in pairs))
)
def test_auc_pr_bounded_and_permutation_invariant(pairs):
    scores = np.array([s for s, _ in pairs])
    labels = np.array([l for _, l in pairs])
    area = auc_pr(scores, labels)
    assert 0.0 <= area <= 1.0 + 1e-12
    perm = np.random.default_rng(0).permutation(len(pairs))
    assert auc_pr(scores[perm], labels[perm]) == pytest.approx(area)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            # Scores from a few values make ties; any float in [0, 1] does not.
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1)),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=60,
    ).filter(lambda pairs: any(l == 1 for _, l in pairs))
)
def test_auc_pr_equals_the_tie_group_loop(pairs):
    """Bit for bit: the same steps, added in the same order."""
    scores = np.array([s for s, _ in pairs])
    labels = np.array([l for _, l in pairs])
    assert auc_pr(scores, labels) == auc_pr_by_tie_groups(scores, labels)


# -- splits ----------------------------------------------------------------


def test_split_sizes_on_planted_shape():
    labels = np.array([1] * 150 + [0] * 600)
    masks = split_examples(labels, seed=0)
    assert len(masks.train) == 90 + 360
    assert len(masks.validation) == 15 + 60
    assert len(masks.test) == 45 + 180
    combined = np.sort(
        np.concatenate([masks.train, masks.validation, masks.test])
    )
    assert np.array_equal(combined, np.arange(750))
    # Stratification holds exactly per class.
    assert int(labels[masks.test].sum()) == 45


def test_split_deterministic_and_seed_sensitive():
    labels = np.array([1] * 40 + [0] * 60)
    m1 = split_examples(labels, seed=3)
    m2 = split_examples(labels, seed=3)
    m3 = split_examples(labels, seed=4)
    assert np.array_equal(m1.train, m2.train)
    assert np.array_equal(m1.test, m2.test)
    assert not np.array_equal(m1.train, m3.train)


def test_split_validation_errors():
    with pytest.raises(DataError):
        split_examples(np.array([1, 0]))
    with pytest.raises(DataError, match="must sum to at most 1"):
        split_examples(np.array([1, 0, 1]), (0.9, 0.2))
    with pytest.raises(DataError, match="'validation' must be >= 0"):
        split_examples(np.array([1, 0, 1]), (0.8, -0.1))


def test_split_part_that_rounds_to_empty_is_named():
    """5 + 5 examples at 0.9/0.05/0.05: validation rounds to no example
    in each class; at 0.7/0.3 the test share is 1 - 0.7 - 0.3."""
    labels = np.array([1] * 5 + [0] * 5)
    with pytest.raises(DataError, match="split part 'validation' is empty"):
        split_examples(labels, (0.9, 0.05))
    test_empty = r"split part 'test' is empty: proportion 1 - 0\.7 - 0\.3 of"
    with pytest.raises(DataError, match=test_empty):
        split_examples(labels, (0.7, 0.3))
