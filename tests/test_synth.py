"""Synthetic planted-rule data generation."""

import numpy as np
import pytest

from relgcn.errors import ConfigError, DataError
from relgcn.grounding import count_satisfied_groundings
from relgcn.synth import SyntheticSpec, generate_synthetic


SMALL = dict(n_persons=16, n_universities=3, n_topics=3, seed=0)


def satisfies_any(rules, targets, kb) -> np.ndarray:
    """Per target, whether some rule covers it."""
    return np.any([count_satisfied_groundings(r, targets, kb) > 0 for r in rules], axis=0)


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
    assert satisfies_any(data.planted_rules, data.positives, data.kb).all()
    assert not satisfies_any(data.planted_rules, data.negatives, data.kb).any()


def test_noise_breaks_exactly_the_requested_fraction():
    spec = SyntheticSpec(**SMALL, n_positives=20, n_negatives=20, noise_rate=0.2)
    data = generate_synthetic(spec)
    violating = ~satisfies_any(data.planted_rules, data.positives, data.kb)
    assert violating.sum() == 4  # round(0.2 * 20)
    # Negatives stay clean.
    assert not satisfies_any(data.planted_rules, data.negatives, data.kb).any()
    # Noisy positives never collide with a sampled negative.
    neg = set(map(tuple, data.negatives.ids.tolist()))
    pos = set(map(tuple, data.positives.ids.tolist()))
    assert not neg & pos


def test_single_rule_mode_ignores_topics():
    spec = SyntheticSpec(**SMALL, n_rules=1, n_positives=10, n_negatives=10)
    data = generate_synthetic(spec)
    assert len(data.planted_rules) == 1
    uni_rule = data.planted_rules[0]
    assert (count_satisfied_groundings(uni_rule, data.positives, data.kb) > 0).all()


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
    """pos.txt and neg.txt parse to the generated targets, and decoding
    what was parsed writes them back byte for byte."""
    from relgcn.kb import parse_facts, parse_ground_atoms

    spec = SyntheticSpec(**SMALL, n_positives=12, n_negatives=12)
    data = generate_synthetic(spec, tmp_path)
    kb = parse_facts((tmp_path / "facts.txt").read_text())
    for name, written in (("pos.txt", data.positives), ("neg.txt", data.negatives)):
        text = (tmp_path / name).read_bytes()
        parsed = parse_ground_atoms(text.decode(), kb, bool(written.positive[0]))
        atoms = kb.atom_texts(parsed.predicate, parsed.ids)
        assert "".join(f"{atom}.\n" for atom in atoms).encode() == text
        assert atoms == data.kb.atom_texts(written.predicate, written.ids)
        assert (parsed.positive == written.positive).all()
    def counts(kb):
        return {p: len(kb.fact_array(p)) for p in kb.schemas}

    assert counts(kb) == counts(data.kb)
