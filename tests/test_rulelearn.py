"""Rule learning: splitting criterion, tree growth, rule sets."""

import logging

import numpy as np
import pytest

from relgcn.errors import ConfigError, DataError, ParseError
from relgcn.grounding import (
    Clause,
    NEGATIVE_DENSITY,
    POSITIVE,
    POSITIVE_DENSITY,
    TargetExample,
)
from relgcn.kb import Atom, Constant, KnowledgeBase, PredicateSchema, Variable
from relgcn.rulelearn import (
    LearnConfig,
    candidate_literals,
    learn_ruleset,
    learn_tree,
    make_head,
    parse_rules,
    serialize_rules,
    squared_error_score,
)

from conftest import PERSON, UNIVERSITY, example
from oracles import brute_force_count
from random_instances import random_instance


TOPIC_BODY = (
    Atom("ResearchTopic", (Variable("person1"), Variable("topic1"))),
    Atom("ResearchTopic", (Variable("person2"), Variable("topic1"))),
)


def test_learn_config_validation():
    """Each out-of-range field is a ConfigError that carries the field."""
    for field, value in [
        ("max_body_length", 0),
        ("beam_width", 0),
        ("min_examples_per_leaf", 0),
        ("covering_discount", 1.5),
        ("seed", -1),
        ("max_constants_for_grounding", -5),
        ("contrast_ratio", 0.0),
    ]:
        with pytest.raises(ConfigError) as info:
            LearnConfig(**{field: value})
        assert (info.value.key, info.value.got) == (field, value)


def test_make_head_names_typed_variables(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    assert str(head) == "CoAuthor(person1, person2)"


def test_squared_error_score_hand_values():
    values = np.array([1.0, 1.0, 0.0, 0.0])
    weights = np.ones(4)
    perfect = np.array([True, True, False, False])
    mixed = np.array([True, False, True, False])
    assert squared_error_score(values, weights, perfect) == pytest.approx(0.0)
    # Each branch holds {1, 0} around mean 0.5: SSE 0.5 per branch.
    assert squared_error_score(values, weights, mixed) == pytest.approx(1.0)
    with pytest.raises(DataError):
        squared_error_score(np.array([]), np.array([]), np.array([], dtype=bool))


def test_squared_error_score_respects_weights():
    values = np.array([1.0, 0.0])
    left = np.array([True, True])
    heavy = squared_error_score(values, np.array([3.0, 1.0]), left)
    # Weighted mean 0.75: SSE = 3*(0.25)^2 + 1*(0.75)^2 = 0.75.
    assert heavy == pytest.approx(0.75)


def test_candidate_literals_properties(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    cands = candidate_literals(coauthor_kb, head, (), max_constants_for_grounding=50)
    assert cands == sorted(cands, key=str)
    assert len(cands) == len(set(map(str, cands)))
    for atom in cands:
        assert atom.predicate != "CoAuthor"
        names = {v.name for v in atom.variables()}
        assert names & {"person1", "person2"}, "connectedness violated"
        fresh = names - {"person1", "person2"}
        assert len(fresh) <= 1
    # Constant-grounded candidates appear for small domains.
    assert any(
        isinstance(a, Constant) for atom in cands for a in atom.args
    )
    bare = candidate_literals(coauthor_kb, head, (), max_constants_for_grounding=0)
    assert all(
        not isinstance(a, Constant) for atom in bare for a in atom.args
    )


def test_candidate_literals_skip_current_body(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    body = (Atom("ResearchTopic", (Variable("person1"), Variable("topic1"))),)
    cands = candidate_literals(coauthor_kb, head, body, max_constants_for_grounding=0)
    assert body[0] not in cands


def _weighted(examples, value, weight=1.0):
    return [(ex, value, weight) for ex in examples]


@pytest.fixture
def topic_class_examples():
    classed = [example("ann", "bob"), example("cara", "dan")]
    contrast = [example("ann", "cara"), example("bob", "cara")]
    return classed, contrast


def test_learn_tree_recovers_topic_rule(coauthor_kb, topic_class_examples):
    classed, contrast = topic_class_examples
    weighted = _weighted(classed, 1.0) + _weighted(contrast, 0.0)
    config = LearnConfig(beam_width=5, max_constants_for_grounding=0)
    rule = learn_tree(coauthor_kb, weighted, config)
    assert len(rule.body) == 2
    from relgcn.grounding import count_satisfied_groundings

    assert (count_satisfied_groundings(rule, classed, coauthor_kb, cap=1) == 1).all()
    assert (count_satisfied_groundings(rule, contrast, coauthor_kb, cap=1) == 0).all()


def test_learn_tree_deterministic(coauthor_kb, topic_class_examples):
    classed, contrast = topic_class_examples
    weighted = _weighted(classed, 1.0) + _weighted(contrast, 0.0)
    config = LearnConfig(beam_width=3, max_constants_for_grounding=0)
    r1 = learn_tree(coauthor_kb, weighted, config)
    r2 = learn_tree(coauthor_kb, weighted, config)
    assert [str(a) for a in r1.body] == [str(a) for a in r2.body]


def test_learn_tree_degenerate_targets_gives_depth_zero(coauthor_kb, topic_class_examples):
    """With all regression targets equal there is nothing to split on."""
    classed, contrast = topic_class_examples
    weighted = _weighted(classed + contrast, 1.0)
    config = LearnConfig(max_constants_for_grounding=0)
    rule = learn_tree(coauthor_kb, weighted, config)
    assert rule.body == ()


def test_learn_tree_tells_a_constant_from_a_variable_of_the_same_name():
    """The university constant prints like the fresh university variable
    ``university1``; only the constant separates the classes."""
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("Affiliation", (PERSON, UNIVERSITY)))
    kb.declare_schema(PredicateSchema("CoAuthor", (PERSON, PERSON)))
    for person, university in [
        ("p1", "university1"),
        ("p2", "university1"),
        ("p3", "university1"),
        ("p4", "university2"),
        ("p5", "university2"),
        ("p6", "university2"),
    ]:
        kb.add_fact("Affiliation", (person, university))
    # person1 is at university1 exactly in the class; person2 is mixed.
    classed = [example("p1", "p4"), example("p2", "p3")]
    contrast = [example("p4", "p1"), example("p5", "p6")]
    weighted = _weighted(classed, 1.0) + _weighted(contrast, 0.0)
    rule = learn_tree(kb, weighted, LearnConfig())
    assert rule.body == (
        Atom("Affiliation", (Variable("person1"), Constant("university1", UNIVERSITY))),
    )


def _depth_one_oracle_sse(kb, head, examples, values, weights, config):
    """Least squared error of a depth-1 spine, scoring every admissible
    candidate literal with brute-force coverage; the root's error when no
    literal improves on it."""
    root = squared_error_score(values, weights, np.ones(len(values), dtype=bool))
    best = root
    for lit in candidate_literals(kb, head, (), config.max_constants_for_grounding):
        clause = Clause(head, (lit,))
        left = np.array([brute_force_count(clause, ex, kb) > 0 for ex in examples])
        if left.sum() < config.min_examples_per_leaf:
            continue
        right = ~left
        if right.any():
            left_mean = np.dot(weights[left], values[left]) / weights[left].sum()
            right_mean = np.dot(weights[right], values[right]) / weights[right].sum()
            if left_mean < right_mean - 1e-12:
                continue
        best = min(best, squared_error_score(values, weights, left))
    return best if best < root - 1e-12 else root


def test_depth_one_tree_matches_brute_force_oracle():
    """On random small KBs, a one-literal tree reaches the least squared
    error over all admissible literals, scored by brute-force coverage."""
    rng = np.random.default_rng(20261018)
    config = LearnConfig(max_body_length=1)
    for _ in range(200):
        kb, _, _ = random_instance(rng, max_constants=5)
        head = make_head(kb, "Tgt")
        target_type = kb.schema("Tgt").arg_types[0]
        pool = sorted(kb.constants_of_type(target_type))
        pairs = [(a, b) for a in pool for b in pool]
        picked = rng.choice(len(pairs), size=min(8, len(pairs)), replace=False)
        examples = [
            TargetExample(
                Atom("Tgt", tuple(Constant(c, target_type) for c in pairs[int(j)])),
                POSITIVE,
            )
            for j in picked
        ]
        values = rng.integers(0, 2, size=len(examples)).astype(float)
        weights = rng.uniform(0.5, 2.0, size=len(examples))
        rule = learn_tree(kb, list(zip(examples, values, weights)), config)
        left = np.array([brute_force_count(rule, ex, kb) > 0 for ex in examples])
        assert squared_error_score(values, weights, left) == pytest.approx(
            _depth_one_oracle_sse(kb, head, examples, values, weights, config),
            abs=1e-9,
        )


def test_learn_tree_rejects_bad_inputs(coauthor_kb):
    config = LearnConfig()
    with pytest.raises(DataError):
        learn_tree(coauthor_kb, [], config)


def test_learn_ruleset_empty_body_warns(coauthor_kb, topic_class_examples, caplog):
    """A contrast of the class's own atoms leaves nothing to split on: the
    rule is the empty body, kept with a warning."""
    classed, _ = topic_class_examples
    config = LearnConfig(max_constants_for_grounding=0)
    with caplog.at_level(logging.WARNING):
        ruleset = learn_ruleset(coauthor_kb, classed, config, k=1, contrast=classed)
    assert [rule.body for rule in ruleset.rules] == [()]
    assert any("empty-body" in rec.message for rec in caplog.records)


# -- rule-set iteration ----------------------------------------------------


def test_learn_ruleset_stops_on_duplicate(coauthor_kb, topic_class_examples, caplog):
    classed, contrast = topic_class_examples
    config = LearnConfig(max_constants_for_grounding=0)
    with caplog.at_level(logging.WARNING):
        ruleset = learn_ruleset(coauthor_kb, classed, config, k=3, contrast=contrast)
    assert ruleset.source == POSITIVE_DENSITY
    assert 1 <= len(ruleset.rules) <= 3
    if len(ruleset.rules) < 3:
        assert any("duplicate consecutive rule" in rec.message for rec in caplog.records)
    assert [r.iteration for r in ruleset.rules] == list(range(len(ruleset.rules)))


def test_learn_ruleset_requires_one_class(coauthor_kb, topic_class_examples):
    classed, _ = topic_class_examples
    mixed = [classed[0], example("ann", "cara", label="negative")]
    with pytest.raises(DataError):
        learn_ruleset(coauthor_kb, mixed, LearnConfig(), k=1)
    with pytest.raises(DataError):
        learn_ruleset(coauthor_kb, [], LearnConfig(), k=1)
    with pytest.raises(DataError):
        learn_ruleset(coauthor_kb, classed, LearnConfig(), k=0)


def test_learn_ruleset_deterministic(coauthor_kb, topic_class_examples):
    classed, contrast = topic_class_examples
    config = LearnConfig(max_constants_for_grounding=0)
    r1 = learn_ruleset(coauthor_kb, classed, config, k=2, contrast=contrast)
    r2 = learn_ruleset(coauthor_kb, classed, config, k=2, contrast=contrast)
    assert serialize_rules(r1.rules) == serialize_rules(r2.rules)


def test_negative_density_source_label(coauthor_kb):
    negatives = [
        example("ann", "cara", label="negative"),
        example("bob", "cara", label="negative"),
    ]
    contrast = [example("ann", "bob"), example("cara", "dan")]
    ruleset = learn_ruleset(
        coauthor_kb,
        negatives,
        LearnConfig(max_constants_for_grounding=0),
        k=1,
        contrast=contrast,
    )
    assert ruleset.source == NEGATIVE_DENSITY
    assert all(r.source == NEGATIVE_DENSITY for r in ruleset.rules)


# -- rule file round trip --------------------------------------------------


def test_serialize_parse_roundtrip(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    rules = [
        Clause(head, TOPIC_BODY, source=POSITIVE_DENSITY, iteration=0),
        Clause(
            head,
            (Atom("Affiliation", (Variable("person1"), Constant("U1", "university"))),),
            source=NEGATIVE_DENSITY,
            iteration=1,
        ),
        Clause(head, (), source=POSITIVE_DENSITY, iteration=2),
    ]
    text = serialize_rules(rules)
    parsed = parse_rules(text, coauthor_kb)
    assert len(parsed) == len(rules)
    for orig, back in zip(rules, parsed):
        assert str(orig) == str(back)
        assert orig.source == back.source
        assert orig.iteration == back.iteration
    # Constants survive with their quoting, distinguishing them from variables.
    assert isinstance(parsed[1].body[0].args[1], Constant)


def test_parse_rules_rejects_garbage(coauthor_kb):
    with pytest.raises(ParseError):
        parse_rules("CoAuthor(person1, person2) :- \n", coauthor_kb)
    with pytest.raises(ParseError):
        parse_rules("Bogus(x) :- true.\n", coauthor_kb)
