"""Acceptance suite: one test per numbered criterion.

Criteria 6-9 share a single planted-data pipeline run via a module fixture;
later criteria clone its artifact directory so sweeps cannot pollute each
other.  Criterion 10 is optional and skips unless a user-supplied
drug-interaction dataset is present (see README for the fact format).
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from relgcn.featurize import (
    EUCLIDEAN,
    METRICS,
    adjacency_approximation,
    normalize_propagation,
    pairwise_distances,
)
from relgcn.gcn import TrainConfig, gcn_backward, gcn_forward, init_model
from relgcn.grounding import count_satisfied_groundings, sample_negatives
from relgcn.pipeline import PipelineConfig, run_pipeline, sensitivity_sweep
from relgcn.rulelearn import LearnConfig, learn_ruleset
from relgcn.synth import SyntheticSpec, generate_synthetic

from oracles import as_operator, brute_force_count, naive_euclidean_distances
from random_instances import random_instance
from test_gcn import finite_difference_grads, max_relative_error


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


# -- planted-data fixture shared by criteria 6-9 ---------------------------

PLANTED_SPEC = SyntheticSpec(
    n_persons=60,
    n_universities=5,
    n_topics=8,
    n_rules=2,
    noise_rate=0.05,
    n_positives=150,
    n_negatives=600,
    seed=3,
)

PLANTED_OVERRIDES = {
    "learn.k_pos": "3",
    "learn.k_neg": "3",
    "split.seed": "2",
}


def _planted_config(data_dir: Path, out_dir: Path) -> PipelineConfig:
    overrides = {
        "facts": str(data_dir / "facts.txt"),
        "pos": str(data_dir / "pos.txt"),
        "neg": str(data_dir / "neg.txt"),
        "out": str(out_dir),
    }
    overrides.update(PLANTED_OVERRIDES)
    return PipelineConfig.from_overrides(overrides)


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    data_dir = root / "data"
    generate_synthetic(PLANTED_SPEC, data_dir)
    config = _planted_config(data_dir, root / "out")
    start = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - start
    return {
        "root": root,
        "data": data_dir,
        "config": config,
        "report": report,
        "elapsed": elapsed,
    }


def _clone(planted_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(planted_run["config"].out_dir(), out)
    return _planted_config(planted_run["data"], out)


# -- criteria --------------------------------------------------------------


def test_criterion_01_grounding_oracle_equivalence():
    """1,000 random small instances: binding-table count == brute force."""
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    for _ in range(1000):
        kb, clause, target = random_instance(
            rng, max_constants=6, max_predicates=3, max_body=3
        )
        targets = kb.targets("Tgt", [target], True)
        assert count_satisfied_groundings(clause, targets, kb)[0] == brute_force_count(
            clause, target, kb
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, f"1000 instances in {elapsed:.1f}s")


def test_criterion_02_distance_metric_suite():
    """200 random count matrices: metric invariants and Eq.-style naive
    euclidean agreement within 1e-9 relative."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 6))
        X = rng.integers(0, 30, size=(n, k)).astype(float)
        for metric in METRICS:
            D = pairwise_distances(X, metric)
            assert np.array_equal(D, D.T)
            assert np.all(np.diag(D) == 0.0)
        D2 = pairwise_distances(X, EUCLIDEAN)
        # L2 triangle inequality within 1e-9.
        for i in range(n):
            assert np.all(D2[i, None, :] <= D2[i, :, None] + D2 + 1e-9)
        naive = naive_euclidean_distances(X)
        denom = np.maximum(np.abs(D2), 1.0)
        assert np.max(np.abs(D2 - naive) / denom) < 1e-9
    _report(2, "200 matrices, all metrics")


def test_criterion_03_adjacency_unit_vectors_and_properties():
    """Hand-derived adjacency examples exact; range/order/scale properties
    hold on 200 random matrices."""
    A, t = adjacency_approximation(np.array([[0.0, 4.0], [4.0, 0.0]]))
    assert t == 4.0 and np.allclose(A, np.eye(2))
    D3 = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 6.0], [4.0, 6.0, 0.0]])
    A3, t3 = adjacency_approximation(D3)
    assert t3 == 4.0
    assert (A3[0, 1], A3[0, 2], A3[1, 2]) == (0.5, 0.0, 0.0)

    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        X = rng.integers(0, 25, size=(n, int(rng.integers(1, 5)))).astype(float)
        D = pairwise_distances(X, EUCLIDEAN)
        iu = np.triu_indices(n, k=1)
        if D[iu].sum() == 0.0:
            continue
        A_hat, t = adjacency_approximation(D)
        assert np.all((A_hat >= 0.0) & (A_hat <= 1.0))
        order = np.argsort(D[iu])
        assert np.all(np.diff(A_hat[iu][order]) <= 1e-12), "order reversal"
        c = float(rng.uniform(0.1, 10.0))
        A_scaled, _ = adjacency_approximation(c * D)
        assert np.allclose(A_scaled, A_hat, atol=1e-12), "scale invariance"
    _report(3, "unit vectors exact, 200 property matrices")


def test_criterion_04_normalization_elementwise_and_spectral():
    """normalize_propagation matches the direct formula within 1e-12 and has
    spectral radius <= 1 + 1e-9 on 100 random symmetric inputs."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        A = rng.random((n, n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 1.0)
        P = normalize_propagation(A) @ np.eye(n)
        D_hat = A.copy()
        np.fill_diagonal(D_hat, 0.0)
        D_hat += np.eye(n)
        deg = D_hat.sum(axis=1)
        direct = D_hat / np.sqrt(np.outer(deg, deg))
        assert np.max(np.abs(P - direct)) < 1e-12
        radius = float(np.max(np.abs(np.linalg.eigvalsh(P))))
        assert radius <= 1.0 + 1e-9
    _report(4, "100 random symmetric inputs")


def test_criterion_05_gradient_check_20_seeds():
    """Analytic vs central finite-difference gradients, 3-node 2-layer model,
    max relative error < 1e-4 over 20 seeds."""
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.random((3, 4))
        A = rng.random((3, 3))
        A = (A + A.T) / 2.0
        deg = A.sum(axis=1) + 1.0
        P = as_operator((A + np.eye(3)) / np.sqrt(np.outer(deg, deg)))
        labels = rng.integers(0, 2, size=3)
        mask = np.array([0, 1, 2])
        model = init_model(4, TrainConfig(hidden_size=5, num_layers=2, seed=seed))
        _, caches = gcn_forward(P, X, model)
        analytic = gcn_backward(P, caches, labels, mask, model, 5e-4)
        numeric = finite_difference_grads(P, X, labels, mask, model, 5e-4)
        assert max_relative_error(analytic, numeric) < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"20 seeds in {elapsed:.1f}s")


def test_criterion_06_planted_end_to_end(planted_run, tmp_path):
    """Full pipeline on the specified planted dataset: AUC-PR >= 0.95,
    F1 >= 0.9, deterministic rerun, runtime < 2 min."""
    report = planted_run["report"]
    assert report.auc_pr is not None and report.auc_pr >= 0.95
    assert report.f1 >= 0.9
    assert planted_run["elapsed"] < 120.0
    # Deterministic rerun from scratch, including regenerated data.
    data2 = tmp_path / "data"
    generate_synthetic(PLANTED_SPEC, data2)
    config2 = _planted_config(data2, tmp_path / "out")
    start = time.perf_counter()
    report2 = run_pipeline(config2)
    elapsed2 = time.perf_counter() - start
    assert elapsed2 < 120.0
    assert report2.to_csv_row() == report.to_csv_row()
    m1 = json.loads((planted_run["config"].out_dir() / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert m1["seeds"] == m2["seeds"]
    _report(
        6,
        f"auc_pr={report.auc_pr:.4f} f1={report.f1:.4f} "
        f"runtime={planted_run['elapsed']:.1f}s, rerun identical",
    )


def test_criterion_07_rule_recovery_noise_free():
    """learn_ruleset with k=2 on the noise-free planted dataset recovers both
    planted rule bodies, verified by grounding-count equivalence."""
    spec = SyntheticSpec(
        n_persons=60,
        n_universities=5,
        n_topics=8,
        n_rules=2,
        noise_rate=0.0,
        n_positives=None,
        n_negatives=600,
        seed=3,
    )
    data = generate_synthetic(spec)
    config = LearnConfig(beam_width=5)
    schema = data.kb.schema(data.positives.predicate)
    contrast = sample_negatives(data.kb, schema, data.positives, 1.0, 7, symmetric=True)
    ruleset = learn_ruleset(data.kb, data.positives, contrast, config, k=2)
    assert len(ruleset.rules) == 2
    targets = data.positives + data.negatives
    matched_planted = set()
    for learned in ruleset.rules:
        learned_counts = count_satisfied_groundings(learned, targets, data.kb)
        for p, planted in enumerate(data.planted_rules):
            planted_counts = count_satisfied_groundings(planted, targets, data.kb)
            if np.array_equal(learned_counts, planted_counts):
                matched_planted.add(p)
    assert matched_planted == {0, 1}, (
        "each planted rule must be count-equivalent to a learned rule; "
        f"learned: {[str(r) for r in ruleset.rules]}"
    )
    _report(7, "both planted bodies recovered up to renaming")


def test_criterion_08_hidden_size_and_depth_insensitivity(planted_run, tmp_path):
    """AUC-PR spread <= 0.05 across hidden sizes {16,32,64,128} and across
    2-5 layers on the planted dataset."""
    config = _clone(planted_run, tmp_path)
    hidden = sensitivity_sweep(config, "hidden_size")
    aucs_h = [r.auc_pr for _, r in hidden]
    spread_h = max(aucs_h) - min(aucs_h)
    assert spread_h <= 0.05, f"hidden-size AUC-PR spread {spread_h:.4f}"
    layers = sensitivity_sweep(config, "num_layers")
    aucs_l = [r.auc_pr for _, r in layers]
    spread_l = max(aucs_l) - min(aucs_l)
    assert spread_l <= 0.05, f"layer-count AUC-PR spread {spread_l:.4f}"
    _report(8, f"spreads: hidden {spread_h:.4f}, layers {spread_l:.4f}")


def test_criterion_09_metric_study(planted_run, tmp_path):
    """The L1/L2/Linf sweep produces three reports and L2 is within 0.05 of
    the best metric on planted data."""
    config = _clone(planted_run, tmp_path)
    results = sensitivity_sweep(config, "metric")
    by_metric = {v: r for v, r in results}
    assert set(by_metric) == {"manhattan", "euclidean", "chebyshev"}
    assert all(r.auc_pr is not None for r in by_metric.values())
    l2 = by_metric["euclidean"].auc_pr
    others = max(by_metric["manhattan"].auc_pr, by_metric["chebyshev"].auc_pr)
    assert l2 >= others - 0.05
    _report(9, f"L2 auc_pr={l2:.4f}, best other={others:.4f}")


DDI_DIR = Path(__file__).resolve().parent.parent / "data" / "ddi"


@pytest.mark.skipif(
    not (DDI_DIR / "facts.txt").is_file(),
    reason=(
        "optional stretch criterion: place a converted drug-interaction "
        "dataset at data/ddi/{facts,pos,neg}.txt (fact format documented in "
        "the README) to enable"
    ),
)
def test_criterion_10_ddi_stretch():
    """Optional: user-supplied drug-interaction dataset reaches AUC-PR >= 0.90."""
    config = PipelineConfig.from_overrides(
        {
            "facts": str(DDI_DIR / "facts.txt"),
            "pos": str(DDI_DIR / "pos.txt"),
            "neg": str(DDI_DIR / "neg.txt"),
            "out": str(DDI_DIR / "out"),
            "learn.k_pos": "13",
            "learn.k_neg": "12",
        }
    )
    report = run_pipeline(config)
    assert report.auc_pr is not None and report.auc_pr >= 0.90
    _report(10, f"ddi auc_pr={report.auc_pr:.4f}")
