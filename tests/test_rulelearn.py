"""Rule learning: splitting criterion, tree growth, rule sets."""

import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from relgcn import rulelearn
from relgcn.errors import ConfigError, DataError, ParseError
from relgcn.grounding import BindingTable, Clause, NEGATIVE_DENSITY, POSITIVE_DENSITY
from relgcn.kb import Atom, Constant, KnowledgeBase, PredicateSchema, Variable, parse_facts
from relgcn.rulelearn import (
    JoinMemo,
    LearnConfig,
    candidate_literals,
    learn_ruleset,
    learn_tree,
    make_head,
    parse_rules,
    serialize_rules,
)

from conftest import PERSON, TOPIC, UNIVERSITY, coauthors
from oracles import brute_force_count, squared_error_score
from random_instances import random_instance, random_kb


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


def _literal(text):
    """A coauthor_kb literal written ``P(person1, "U1")``; a quoted
    argument is a constant of its slot's type."""
    pred, args = text.rstrip(")").split("(")
    types = {"Affiliation": (PERSON, UNIVERSITY), "ResearchTopic": (PERSON, TOPIC)}[pred]
    return Atom(
        pred,
        tuple(
            Constant(a.strip('"'), t) if a.startswith('"') else Variable(a)
            for a, t in zip(args.split(", "), types)
        ),
    )


@pytest.mark.parametrize(
    "body, max_constants, expected",
    [
        (
            (),
            0,
            [
                "Affiliation(person1, university1)",
                "Affiliation(person2, university1)",
                "ResearchTopic(person1, topic1)",
                "ResearchTopic(person2, topic1)",
            ],
        ),
        (
            (),
            50,
            [
                'Affiliation(person1, "U1")',
                'Affiliation(person1, "U2")',
                "Affiliation(person1, university1)",
                'Affiliation(person2, "U1")',
                'Affiliation(person2, "U2")',
                "Affiliation(person2, university1)",
                'ResearchTopic(person1, "T1")',
                'ResearchTopic(person1, "T2")',
                'ResearchTopic(person1, "T3")',
                "ResearchTopic(person1, topic1)",
                'ResearchTopic(person2, "T1")',
                'ResearchTopic(person2, "T2")',
                'ResearchTopic(person2, "T3")',
                "ResearchTopic(person2, topic1)",
            ],
        ),
        (
            ("ResearchTopic(person1, topic1)",),
            0,
            [
                "Affiliation(person1, university1)",
                "Affiliation(person2, university1)",
                "ResearchTopic(person1, topic2)",
                "ResearchTopic(person2, topic1)",
                "ResearchTopic(person2, topic2)",
                "ResearchTopic(person3, topic1)",
            ],
        ),
        (
            ("ResearchTopic(person1, topic1)",),
            50,
            [
                'Affiliation(person1, "U1")',
                'Affiliation(person1, "U2")',
                "Affiliation(person1, university1)",
                'Affiliation(person2, "U1")',
                'Affiliation(person2, "U2")',
                "Affiliation(person2, university1)",
                'ResearchTopic("ann", topic1)',
                'ResearchTopic("bob", topic1)',
                'ResearchTopic("cara", topic1)',
                'ResearchTopic("dan", topic1)',
                'ResearchTopic(person1, "T1")',
                'ResearchTopic(person1, "T2")',
                'ResearchTopic(person1, "T3")',
                "ResearchTopic(person1, topic2)",
                'ResearchTopic(person2, "T1")',
                'ResearchTopic(person2, "T2")',
                'ResearchTopic(person2, "T3")',
                "ResearchTopic(person2, topic1)",
                "ResearchTopic(person2, topic2)",
                "ResearchTopic(person3, topic1)",
            ],
        ),
    ],
)
def test_candidate_literals_pinned(coauthor_kb, body, max_constants, expected):
    """The refinement operator's full output, element for element: each
    slot takes an existing variable, the type's fresh variable or a
    constant, with at most one fresh and at least one existing variable."""
    head = make_head(coauthor_kb, "CoAuthor")
    body = tuple(_literal(text) for text in body)
    cands = candidate_literals(coauthor_kb, head, body, max_constants)
    assert cands == [_literal(text) for text in expected]


def test_candidate_literals_skip_current_body(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    body = (Atom("ResearchTopic", (Variable("person1"), Variable("topic1"))),)
    cands = candidate_literals(coauthor_kb, head, body, max_constants_for_grounding=0)
    assert body[0] not in cands


def _tree(kb, classed, contrast, config):
    """learn_tree on class examples (value 1) and contrast (value 0), all
    of unit weight."""
    n, m = len(classed), len(contrast)
    values = np.concatenate([np.ones(n), np.zeros(m)])
    return learn_tree(JoinMemo(kb, classed + contrast, config), values, np.ones(n + m))


@pytest.fixture
def topic_class_examples(coauthor_kb):
    return coauthors(coauthor_kb, "ann bob", "cara dan"), coauthors(coauthor_kb, "ann cara", "bob cara")


def test_learn_tree_recovers_topic_rule(coauthor_kb, topic_class_examples):
    """The two-literal rule covers the class and not the contrast, and the
    returned mask is its brute-force coverage."""
    classed, contrast = topic_class_examples
    config = LearnConfig(beam_width=5, max_constants_for_grounding=0)
    rule, covered = _tree(coauthor_kb, classed, contrast, config)
    assert len(rule.body) == 2
    rows = [("ann", "bob"), ("cara", "dan"), ("ann", "cara"), ("bob", "cara")]
    assert covered.tolist() == [brute_force_count(rule, row, coauthor_kb) > 0 for row in rows]
    assert covered.tolist() == [True, True, False, False]


def test_learn_tree_logs_the_join_indexes_it_holds(coauthor_kb, topic_class_examples, caplog):
    """The INFO line names the kb's join indexes and their bytes; a second
    tree over the same kb and examples builds no new index."""
    classed, contrast = topic_class_examples
    config = LearnConfig(beam_width=3, max_constants_for_grounding=0)
    held = []
    for _ in range(2):
        with caplog.at_level(logging.INFO, logger="relgcn.rulelearn"):
            _tree(coauthor_kb, classed, contrast, config)
        held.append(coauthor_kb.join_index_memory())
    count, nbytes = held[0]
    assert count > 0 and nbytes > 0 and held[1] == held[0]
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("learned")]
    assert len(lines) == 2
    assert all(line.endswith(f"; join indexes held: {count} ({nbytes} bytes)") for line in lines)


def test_learn_tree_deterministic(coauthor_kb, topic_class_examples):
    classed, contrast = topic_class_examples
    config = LearnConfig(beam_width=3, max_constants_for_grounding=0)
    (r1, c1), (r2, c2) = (_tree(coauthor_kb, classed, contrast, config) for _ in range(2))
    assert [str(a) for a in r1.body] == [str(a) for a in r2.body]
    assert c1.tolist() == c2.tolist()


def test_learn_tree_degenerate_targets_gives_depth_zero(coauthor_kb, topic_class_examples):
    """With all regression targets equal there is nothing to split on."""
    classed, contrast = topic_class_examples
    config = LearnConfig(max_constants_for_grounding=0)
    rule, covered = _tree(coauthor_kb, classed + contrast, coauthors(coauthor_kb), config)
    assert rule.body == ()
    assert covered.all()


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
    classed = coauthors(kb, "p1 p4", "p2 p3")
    contrast = coauthors(kb, "p4 p1", "p5 p6")
    rule, _ = _tree(kb, classed, contrast, LearnConfig())
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
        left = np.array([brute_force_count(clause, row, kb) > 0 for row in examples])
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
    error over all admissible literals, scored by brute-force coverage, and
    the mask it returns is its rule's brute-force coverage."""
    rng = np.random.default_rng(20261018)
    config = LearnConfig(max_body_length=1)
    for _ in range(200):
        kb, _, _ = random_instance(rng, max_constants=5)
        head = make_head(kb, "Tgt")
        target_type = kb.schema("Tgt").arg_types[0]
        pool = sorted(kb.constants_of_type(target_type))
        pairs = [(a, b) for a in pool for b in pool]
        picked = rng.choice(len(pairs), size=min(8, len(pairs)), replace=False)
        examples = [pairs[int(j)] for j in picked]
        values = rng.integers(0, 2, size=len(examples)).astype(float)
        weights = rng.uniform(0.5, 2.0, size=len(examples))
        memo = JoinMemo(kb, kb.targets("Tgt", examples, True), config)
        rule, covered = learn_tree(memo, values, weights)
        left = np.array([brute_force_count(rule, row, kb) > 0 for row in examples])
        assert covered.tolist() == left.tolist()
        assert squared_error_score(values, weights, left) == pytest.approx(
            _depth_one_oracle_sse(kb, head, examples, values, weights, config),
            abs=1e-9,
        )


def test_learn_tree_rejects_bad_inputs(coauthor_kb, topic_class_examples):
    config = LearnConfig()
    none = np.array([])
    with pytest.raises(DataError, match="nonempty"):
        learn_tree(JoinMemo(coauthor_kb, coauthors(coauthor_kb), config), none, none)


@pytest.mark.parametrize("n_values, n_weights", [(1, 2), (2, 3), (2, 0)])
def test_learn_tree_rejects_values_or_weights_of_another_length(
    coauthor_kb, topic_class_examples, n_values, n_weights
):
    classed, _ = topic_class_examples
    memo = JoinMemo(coauthor_kb, classed, LearnConfig())
    with pytest.raises(DataError, match="one number per example"):
        learn_tree(memo, np.ones(n_values), np.ones(n_weights))


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
    assert all(r.source == POSITIVE_DENSITY for r in ruleset.rules)
    assert 1 <= len(ruleset.rules) <= 3
    if len(ruleset.rules) < 3:
        assert any("duplicate consecutive rule" in rec.message for rec in caplog.records)
    assert [r.iteration for r in ruleset.rules] == list(range(len(ruleset.rules)))


def test_learn_ruleset_requires_one_class(coauthor_kb, topic_class_examples):
    classed, _ = topic_class_examples
    mixed = classed + coauthors(coauthor_kb, "ann cara", positive=False)
    with pytest.raises(DataError, match="one-class"):
        learn_ruleset(coauthor_kb, mixed, LearnConfig(), k=1)
    with pytest.raises(DataError, match="nonempty"):
        learn_ruleset(coauthor_kb, coauthors(coauthor_kb), LearnConfig(), k=1)
    with pytest.raises(DataError):
        learn_ruleset(coauthor_kb, classed, LearnConfig(), k=0)


def test_learn_ruleset_deterministic(coauthor_kb, topic_class_examples):
    classed, contrast = topic_class_examples
    config = LearnConfig(max_constants_for_grounding=0)
    r1 = learn_ruleset(coauthor_kb, classed, config, k=2, contrast=contrast)
    r2 = learn_ruleset(coauthor_kb, classed, config, k=2, contrast=contrast)
    assert serialize_rules(r1.rules) == serialize_rules(r2.rules)


def _ruleset_without_memo(kb, classed, contrast, config, k):
    """`learn_ruleset`'s covering loop with every tree learned on a fresh
    memo: the rules kept and each tree's coverage mask."""
    n = len(classed)
    targets = classed + contrast
    values = np.concatenate([np.ones(n), np.zeros(len(contrast))])
    weights = np.ones(len(targets))
    rules, masks = [], []
    for it in range(k):
        rule, covered = learn_tree(JoinMemo(kb, targets, config), values, weights)
        masks.append(covered)
        if rules and rule.body == rules[-1].body:
            break
        rules.append(replace(rule, source=POSITIVE_DENSITY, iteration=it))
        weights[:n][covered[:n]] *= config.covering_discount
        total = float(weights[:n].sum())
        if total > 0:
            weights[:n] *= n / total
    return rules, masks


def _recording_trees(monkeypatch) -> list[np.ndarray]:
    """The coverage mask of every tree `learn_ruleset` learns from now on,
    in order."""
    masks = []
    learn = rulelearn.learn_tree

    def recording(*args, **kwargs):
        rule, covered = learn(*args, **kwargs)
        masks.append(covered)
        return rule, covered

    monkeypatch.setattr(rulelearn, "learn_tree", recording)
    return masks


def test_learn_ruleset_matches_trees_learned_without_a_memo(monkeypatch):
    """On random small KBs, the trees of a rule set that share one memo
    give the same rules, iterations and coverage masks as trees that each
    join everything themselves."""
    rng = np.random.default_rng(20261019)
    masks = _recording_trees(monkeypatch)
    for _ in range(200):
        kb, constants, _, _ = random_kb(rng, max_constants=5, max_predicates=4)
        pool = next(iter(constants.values()))
        pairs = [(a, b) for a in pool for b in pool]
        size = int(rng.integers(2, len(pairs) // 2 + 1))
        picked = rng.choice(len(pairs), size=2 * size, replace=False)
        rows = [pairs[int(j)] for j in picked]
        classed = kb.targets("Tgt", rows[:size], True)
        contrast = kb.targets("Tgt", rows[size:], False)
        config = LearnConfig(
            max_body_length=int(rng.integers(1, 4)),
            beam_width=int(rng.integers(1, 5)),
            min_examples_per_leaf=int(rng.integers(1, 3)),
            # Discounts near 1 mostly repeat the first rule.
            covering_discount=float(rng.uniform(0.0, 0.5)),
            max_constants_for_grounding=int(rng.choice([0, 2, 50])),
        )
        masks.clear()
        ruleset = learn_ruleset(kb, classed, config, k=3, contrast=contrast)
        rules, expected_masks = _ruleset_without_memo(kb, classed, contrast, config, 3)
        assert ruleset.rules == rules
        assert [m.tolist() for m in masks] == [m.tolist() for m in expected_masks]


def test_learn_ruleset_joins_each_body_once(coauthor_kb, topic_class_examples, monkeypatch):
    """Within one rule set, `candidate_literals` runs once per distinct
    spine body and each (body, literal) pair reaches `BindingTable.covered`
    once: the second tree expands the first tree's bodies again and takes
    their joins from the memo."""
    classed, contrast = topic_class_examples
    trees = _recording_trees(monkeypatch)
    bodies, pairs = [], []
    listed, covered = rulelearn.candidate_literals, BindingTable.covered

    def listing(kb, head, body, *args):
        bodies.append(body)
        return listed(kb, head, body, *args)

    def covering(table, literal, kb, n):
        # A body's candidates are joined right after they are listed.
        pairs.append((bodies[-1], literal))
        return covered(table, literal, kb, n)

    monkeypatch.setattr(rulelearn, "candidate_literals", listing)
    monkeypatch.setattr(BindingTable, "covered", covering)
    config = LearnConfig(beam_width=3, max_constants_for_grounding=0)
    learn_ruleset(coauthor_kb, classed, config, k=3, contrast=contrast)
    # The second tree repeats the first one's rule, which ends the set.
    assert len(trees) == 2
    assert (len(bodies), len(pairs)) == (10, 64)
    assert len(set(bodies)) == len(bodies)
    assert len(set(pairs)) == len(pairs)


def test_learn_ruleset_logs_the_joins_later_trees_reuse(coauthor_kb, topic_class_examples, caplog):
    """The first tree of a rule set joins every candidate it scores; the
    second reports candidates taken from the memo and the memo's bytes."""
    classed, contrast = topic_class_examples
    config = LearnConfig(max_constants_for_grounding=0)
    with caplog.at_level(logging.INFO, logger="relgcn.rulelearn"):
        learn_ruleset(coauthor_kb, classed, config, k=2, contrast=contrast)
    pattern = re.compile(r"candidates from the join memo: (\d+) of (\d+) \(memo (\d+) bytes\)")
    found = (pattern.search(r.getMessage()) for r in caplog.records)
    reuse = [tuple(map(int, m.groups())) for m in found if m]
    assert len(reuse) == 2
    (first, scored, nbytes), (second, _, _) = reuse
    assert first == 0 and scored > 0 and nbytes > 0
    assert second > 0


def test_negative_density_source_label(coauthor_kb):
    negatives = coauthors(coauthor_kb, "ann cara", "bob cara", positive=False)
    contrast = coauthors(coauthor_kb, "ann bob", "cara dan")
    ruleset = learn_ruleset(
        coauthor_kb,
        negatives,
        LearnConfig(max_constants_for_grounding=0),
        k=1,
        contrast=contrast,
    )
    assert ruleset.rules
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


def test_parse_rules_arity_mismatch_carries_line_number(coauthor_kb):
    text = (
        "CoAuthor(person1, person2) :- true. % source=positive-density iter=0\n"
        "% a comment\n"
        "CoAuthor(person1, person2) :- Affiliation(person1). "
        "% source=positive-density iter=1\n"
    )
    with pytest.raises(ParseError, match="arity mismatch for Affiliation") as info:
        parse_rules(text, coauthor_kb)
    assert info.value.line == 3


@pytest.mark.parametrize(
    "line",
    [
        "CoAuthor(person1, person2) :- Affiliation(person1, ). % source=positive-density iter=1",
        "CoAuthor(person1, , person2) :- true. % source=positive-density iter=1",
    ],
)
def test_parse_rules_rejects_an_empty_argument(coauthor_kb, line):
    text = "CoAuthor(person1, person2) :- true. % source=positive-density iter=0\n" + line
    with pytest.raises(ParseError, match="empty argument") as info:
        parse_rules(text, coauthor_kb)
    assert info.value.line == 2


@pytest.mark.parametrize("tag", ["bogus", "positive_density", "POSITIVE-DENSITY"])
def test_parse_rules_rejects_an_unknown_source(coauthor_kb, tag):
    text = (
        "CoAuthor(person1, person2) :- true. % source=negative-density iter=0\n"
        f"CoAuthor(person1, person2) :- true. % source={tag} iter=1\n"
    )
    with pytest.raises(ParseError, match=f"unknown rule source '{tag}'") as info:
        parse_rules(text, coauthor_kb)
    assert info.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        "C(x, y) :- A(x, u), NotAPred.",
        "C(x, y) :- A(x, u) garbage here, A(y, u).",
        "C(x, y) :- A(x, u),.",
        "C(x, y) :- A(x, u). A(y, u).",
        "C(x, y) :- true, A(x, u).",
    ],
)
def test_parse_rules_rejects_text_between_or_after_body_literals(line):
    """A body is ``true`` or comma-separated literals and nothing else."""
    kb = parse_facts("@predicate C(t, t)\n@predicate A(t, t)\n")
    assert parse_rules("C(x, y) :- A(x, u), A(y, u).\n", kb)[0].body == (
        Atom("A", (Variable("x"), Variable("u"))),
        Atom("A", (Variable("y"), Variable("u"))),
    )
    with pytest.raises(ParseError, match="malformed rule body") as info:
        parse_rules("C(x, y) :- true.\n" + line + "\n", kb)
    assert info.value.line == 2


def test_parse_rules_rejects_garbage(coauthor_kb):
    with pytest.raises(ParseError):
        parse_rules("CoAuthor(person1, person2) :- \n", coauthor_kb)
    with pytest.raises(ParseError):
        parse_rules("Bogus(x) :- true.\n", coauthor_kb)
