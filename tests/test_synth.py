"""Synthetic planted-rule data generation."""

import numpy as np
import pytest

from relgcn.errors import ConfigError, DataError
from relgcn.grounding import count_satisfied_groundings
from relgcn.synth import SyntheticSpec, generate_synthetic


SMALL = dict(n_persons=16, n_universities=3, n_topics=3, seed=0)


def satisfies_any(rules, ex, kb):
    return any(count_satisfied_groundings(r, [ex], kb, cap=1)[0] > 0 for r in rules)


def test_spec_validation():
    """Each out-of-range field is a ConfigError that names the field."""
    for field, value in [
        ("n_persons", 0),
        ("n_topics", 0),
        ("n_rules", 3),
        ("noise_rate", 1.0),
        ("seed", -1),
        ("n_positives", -3),
        ("n_negatives", -5),
    ]:
        with pytest.raises(ConfigError, match=f"'{field}', got '{value}'"):
            SyntheticSpec(**{field: value})


def test_noise_free_positives_satisfy_planted_rules():
    spec = SyntheticSpec(**SMALL, n_positives=20, n_negatives=30)
    data = generate_synthetic(spec)
    assert len(data.positives) == 20
    assert len(data.negatives) == 30
    assert len(data.planted_rules) == 2
    for ex in data.positives:
        assert satisfies_any(data.planted_rules, ex, data.kb)
    for ex in data.negatives:
        assert not satisfies_any(data.planted_rules, ex, data.kb)


def test_noise_breaks_exactly_the_requested_fraction():
    spec = SyntheticSpec(**SMALL, n_positives=20, n_negatives=20, noise_rate=0.2)
    data = generate_synthetic(spec)
    violating = sum(
        0 if satisfies_any(data.planted_rules, ex, data.kb) else 1
        for ex in data.positives
    )
    assert violating == 4  # round(0.2 * 20)
    # Negatives stay clean.
    for ex in data.negatives:
        assert not satisfies_any(data.planted_rules, ex, data.kb)
    # Noisy positives never collide with a sampled negative.
    neg = {ex.atom.constant_names() for ex in data.negatives}
    pos = {ex.atom.constant_names() for ex in data.positives}
    assert not neg & pos


def test_single_rule_mode_ignores_topics():
    spec = SyntheticSpec(**SMALL, n_rules=1, n_positives=10, n_negatives=10)
    data = generate_synthetic(spec)
    assert len(data.planted_rules) == 1
    uni_rule = data.planted_rules[0]
    for ex in data.positives:
        assert count_satisfied_groundings(uni_rule, [ex], data.kb, cap=1)[0] == 1


def test_default_positive_count_takes_all_satisfying_pairs():
    spec = SyntheticSpec(**SMALL, n_negatives=10)
    data = generate_synthetic(spec)
    # Every canonical pair is either a positive or rule-violating.
    n_pairs = 16 * 15 // 2
    assert len(data.positives) < n_pairs
    more = SyntheticSpec(**SMALL, n_positives=len(data.positives) + 1, n_negatives=10)
    with pytest.raises(DataError):
        generate_synthetic(more)


def test_infeasible_negative_count():
    spec = SyntheticSpec(**SMALL, n_positives=10, n_negatives=10_000)
    with pytest.raises(DataError):
        generate_synthetic(spec)


def test_generation_is_byte_identical_per_seed(tmp_path):
    spec = SyntheticSpec(**SMALL, n_positives=15, n_negatives=20, noise_rate=0.1)
    generate_synthetic(spec, tmp_path / "a")
    generate_synthetic(spec, tmp_path / "b")
    for name in ("facts.txt", "pos.txt", "neg.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    other = SyntheticSpec(**{**SMALL, "seed": 1}, n_positives=15, n_negatives=20)
    generate_synthetic(other, tmp_path / "c")
    assert (tmp_path / "a" / "pos.txt").read_bytes() != (
        tmp_path / "c" / "pos.txt"
    ).read_bytes()


def test_written_files_parse_back(tmp_path):
    from relgcn.kb import parse_facts, parse_ground_atoms

    spec = SyntheticSpec(**SMALL, n_positives=12, n_negatives=12)
    data = generate_synthetic(spec, tmp_path)
    kb = parse_facts((tmp_path / "facts.txt").read_text())
    pos_atoms = parse_ground_atoms((tmp_path / "pos.txt").read_text(), kb)
    neg_atoms = parse_ground_atoms((tmp_path / "neg.txt").read_text(), kb)
    assert [str(a) for a in pos_atoms] == [str(ex.atom) for ex in data.positives]
    assert [str(a) for a in neg_atoms] == [str(ex.atom) for ex in data.negatives]
    assert kb.fact_count() == data.kb.fact_count()
