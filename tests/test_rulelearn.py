"""Rule learning: splitting criterion, tree growth, rule sets."""

import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from relgcn import rulelearn
from relgcn.errors import ConfigError, DataError, ParseError
from relgcn.grounding import (
    BindingTable,
    Clause,
    NEGATIVE_DENSITY,
    POSITIVE_DENSITY,
    count_satisfied_groundings,
)
from relgcn.kb import Atom, KnowledgeBase, PredicateSchema, parse_facts
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

from conftest import PERSON, UNIVERSITY, coauthors
from oracles import brute_force_count, per_candidate_learn_tree, squared_error_score
from random_instances import random_instance, random_kb, random_tag_kb


TOPIC_BODY = (
    Atom("ResearchTopic", ("person1", "topic1")),
    Atom("ResearchTopic", ("person2", "topic1")),
)


def test_learn_config_validation():
    """Each out-of-range field is a ConfigError that carries the field."""
    for field, value in [
        ("max_body_length", 0),
        ("beam_width", 0),
        ("min_examples_per_leaf", 0),
        ("covering_discount", 1.5),
        ("seed", -1),
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
    cands = candidate_literals(coauthor_kb, head, ())
    assert cands == sorted(cands, key=str)
    assert len(cands) == len(set(map(str, cands)))
    for atom in cands:
        assert atom.predicate != "CoAuthor"
        names = set(atom.args)
        assert names & {"person1", "person2"}, "connectedness violated"
        fresh = names - {"person1", "person2"}
        assert len(fresh) <= 1


def _literal(text):
    """A literal written ``P(person1, topic1)``."""
    pred, args = text.rstrip(")").split("(")
    return Atom(pred, tuple(args.split(", ")))


@pytest.mark.parametrize(
    "body, expected",
    [
        (
            (),
            [
                "Affiliation(person1, university1)",
                "Affiliation(person2, university1)",
                "ResearchTopic(person1, topic1)",
                "ResearchTopic(person2, topic1)",
            ],
        ),
        (
            ("ResearchTopic(person1, topic1)",),
            [
                "Affiliation(person1, university1)",
                "Affiliation(person2, university1)",
                "ResearchTopic(person1, topic2)",
                "ResearchTopic(person2, topic1)",
                "ResearchTopic(person2, topic2)",
                "ResearchTopic(person3, topic1)",
            ],
        ),
    ],
)
def test_candidate_literals_pinned(coauthor_kb, body, expected):
    """The refinement operator's full output, element for element: each
    slot takes an existing variable or the type's fresh variable, with at
    most one fresh and at least one existing variable."""
    head = make_head(coauthor_kb, "CoAuthor")
    body = tuple(_literal(text) for text in body)
    cands = candidate_literals(coauthor_kb, head, body)
    assert cands == [_literal(text) for text in expected]


def test_candidate_literals_skip_current_body(coauthor_kb):
    head = make_head(coauthor_kb, "CoAuthor")
    body = (Atom("ResearchTopic", ("person1", "topic1")),)
    cands = candidate_literals(coauthor_kb, head, body)
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
    config = LearnConfig(beam_width=5)
    rule, covered = _tree(coauthor_kb, classed, contrast, config)
    assert len(rule.body) == 2
    rows = [("ann", "bob"), ("cara", "dan"), ("ann", "cara"), ("bob", "cara")]
    assert covered.tolist() == [brute_force_count(rule, row, coauthor_kb) > 0 for row in rows]
    assert covered.tolist() == [True, True, False, False]


def test_learn_tree_logs_the_join_indexes_it_holds(coauthor_kb, topic_class_examples, caplog):
    """The INFO line names the kb's join indexes and their bytes; a second
    tree over the same kb and examples builds no new index."""
    classed, contrast = topic_class_examples
    config = LearnConfig(beam_width=3)
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
    config = LearnConfig(beam_width=3)
    (r1, c1), (r2, c2) = (_tree(coauthor_kb, classed, contrast, config) for _ in range(2))
    assert [str(a) for a in r1.body] == [str(a) for a in r2.body]
    assert c1.tolist() == c2.tolist()


def test_learn_tree_degenerate_targets_gives_depth_zero(coauthor_kb, topic_class_examples):
    """With all regression targets equal there is nothing to split on."""
    classed, contrast = topic_class_examples
    config = LearnConfig()
    rule, covered = _tree(coauthor_kb, classed + contrast, coauthors(coauthor_kb), config)
    assert rule.body == ()
    assert covered.all()


def test_learn_tree_tells_a_constant_from_a_variable_of_the_same_name():
    """The university constants are named like the fresh university
    variable ``university1``: a rule's ``university1`` is a variable that
    binds every university, in the learned rule and in its text read
    back, and the constant of that name is never matched by name."""
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
    # The class shares a university, at university1 and at university2.
    classed = coauthors(kb, "p1 p2", "p5 p6")
    contrast = coauthors(kb, "p1 p4", "p3 p5")
    rule, covered = _tree(kb, classed, contrast, LearnConfig())
    assert [str(lit) for lit in rule.body] == [
        "Affiliation(person1, university1)", "Affiliation(person2, university1)"
    ]
    assert covered.tolist() == [True, True, False, False]
    (back,) = parse_rules(serialize_rules([rule]), kb)
    assert back == rule
    assert count_satisfied_groundings(back, classed + contrast, kb).tolist() == [1, 1, 0, 0]


def _depth_one_oracle_sse(kb, head, examples, values, weights, config):
    """Least squared error of a depth-1 spine, scoring every admissible
    candidate literal with brute-force coverage; the root's error when no
    literal improves on it."""
    root = squared_error_score(values, weights, np.ones(len(values), dtype=bool))
    best = root
    for lit in candidate_literals(kb, head, ()):
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


def test_spine_masks_match_the_spines_own_table_and_brute_force():
    """On random small KBs, every candidate mask of a spine equals
    `BindingTable.covered` on the spine's own table and brute-force
    coverage, also when the spine's last literal has a fresh variable
    that multiplies the rows and the candidate is scored on the parent
    prefix's rows instead."""
    rng = np.random.default_rng(20261020)
    multiplied = scored_on_parent_rows = 0
    for _ in range(12):
        kb, constants, _, _ = random_kb(rng, max_constants=4, max_predicates=3)
        pool = next(iter(constants.values()))
        pairs = [(a, b) for a in pool for b in pool]
        rows = [pairs[int(j)] for j in rng.choice(len(pairs), size=min(6, len(pairs)), replace=False)]
        memo = JoinMemo(kb, kb.targets("Tgt", rows, True), LearnConfig())
        bodies = [()]
        while bodies:
            body = bodies.pop()
            spine = memo.spine(body)
            table = spine.built(kb)  # a factorized spine's table, built here
            grew, fresh = False, set()
            if body:
                parent = memo.spines[body[:-1]].table
                fresh = set(table.variables[len(parent.variables) :])
                copied = table.columns[: len(parent.columns)]
                grew = copied.shape[1] > np.unique(copied, axis=1).shape[1]
                multiplied += grew
            for lit, mask in zip(spine.candidates, spine.masks):
                assert mask.tolist() == table.covered(lit, kb, len(rows)).tolist()
                brute = [
                    brute_force_count(Clause(memo.head, body + (lit,)), row, kb) > 0
                    for row in rows
                ]
                assert mask.tolist() == brute
                names = set(lit.args)
                scored_on_parent_rows += grew and not names & fresh
            if len(body) < 2:
                # Literals with a fresh variable first: those can multiply rows.
                order = sorted(
                    spine.candidates,
                    key=lambda lit: all(v in table.variables for v in lit.args),
                )
                bodies.extend(body + (lit,) for lit in order[: 2 - len(body)])
    assert multiplied > 5
    assert scored_on_parent_rows > 50


def test_factorized_spines_match_their_built_tables_and_brute_force():
    """On random small KBs where ``Tag`` often binds a fresh person that no
    candidate ties to an older variable, the spines ending in that leaf
    stay factorized.  Each one's candidate masks equal `BindingTable.covered`
    on the table built afterwards and brute-force coverage, and that table
    equals the parent table's `BindingTable.extend` by the last literal,
    byte for byte."""
    rng = np.random.default_rng(20261023)
    factorized = 0
    for _ in range(40):
        kb, persons = random_tag_kb(rng)
        pairs = [(a, b) for a in persons for b in persons]
        rows = [pairs[int(j)] for j in rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)]
        memo = JoinMemo(kb, kb.targets("Tgt", rows, True), LearnConfig())
        bodies = [()]
        while bodies:
            body = bodies.pop()
            spine = memo.spine(body)
            unbuilt = spine.table is None
            table = spine.built(kb)
            if unbuilt:
                factorized += 1
                expected = memo.spines[body[:-1]].table.extend(body[-1], kb)
                assert table.variables == expected.variables
                assert table.columns.shape == expected.columns.shape
                assert table.columns.tobytes() == expected.columns.tobytes()
            for lit, mask in zip(spine.candidates, spine.masks):
                assert mask.tolist() == table.covered(lit, kb, len(rows)).tolist()
                if unbuilt:
                    brute = [
                        brute_force_count(Clause(memo.head, body + (lit,)), row, kb) > 0
                        for row in rows
                    ]
                    assert mask.tolist() == brute
            if len(body) < 2:
                # Literals that bind a fresh variable, each a possible leaf.
                bodies.extend(
                    body + (lit,) for lit in spine.candidates
                    if not set(lit.args) <= set(table.variables)
                )
    assert factorized >= 100


def test_tying_spines_keep_only_their_runs_and_match_brute_force():
    """On random small KBs, ``Tag(person1, tag1)`` binds the leaf ``tag1``,
    which the candidate ``Tag(person2, tag1)`` ties to an older variable.
    A spine with such a candidate still holds no table once scored; its
    masks equal brute-force coverage and `BindingTable.covered` on the
    table built afterwards, whose rows it counted while scoring, and that
    table equals the parent table's `BindingTable.extend` by the last
    literal, byte for byte."""
    rng = np.random.default_rng(20261024)
    tying = 0
    for _ in range(20):
        kb, persons = random_tag_kb(rng)
        pairs = [(a, b) for a in persons for b in persons]
        rows = [pairs[int(j)] for j in rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)]
        memo = JoinMemo(kb, kb.targets("Tgt", rows, True), LearnConfig())
        bodies = [()]
        while bodies:
            body = bodies.pop()
            spine = memo.spine(body)
            older = set(memo.head.args).union(*(lit.args for lit in body[:-1]))
            leaf = set(body[-1].args) - older if body else set()
            ties = any(leaf & set(lit.args) and older & set(lit.args) for lit in spine.candidates)
            unbuilt = spine.table is None and spine.runs is not None
            table = spine.built(kb)
            if ties:
                tying += 1
                assert unbuilt
                expected = memo.spines[body[:-1]].table.extend(body[-1], kb)
                assert table.variables == expected.variables
                assert table.columns.tobytes() == expected.columns.tobytes()
                assert spine.tied_rows == table.columns.shape[1] == expected.columns.shape[1]
                for lit, mask in zip(spine.candidates, spine.masks):
                    assert mask.tolist() == table.covered(lit, kb, len(rows)).tolist()
                    brute = [
                        brute_force_count(Clause(memo.head, body + (lit,)), row, kb) > 0
                        for row in rows
                    ]
                    assert mask.tolist() == brute
            if len(body) < 2:
                # Literals that bind a fresh variable, each a possible leaf.
                bodies.extend(
                    body + (lit,) for lit in spine.candidates
                    if not set(lit.args) <= set(table.variables)
                )
    assert tying >= 200


def _assert_equal_masks_share_a_split(spine, table, kb, n) -> int:
    """Some candidates of `spine` have equal coverage: they share one mask
    array, their split, which still equals `BindingTable.covered` on
    `table` for each, and ``sizes`` are the splits' example counts.
    Returns the number of distinct masks."""
    groups: dict[bytes, list[int]] = {}
    for i, mask in enumerate(spine.masks):
        groups.setdefault(mask.tobytes(), []).append(i)
    assert max(map(len, groups.values())) > 1
    assert len(spine.splits) == len(groups) < len(spine.candidates)
    for group in groups.values():
        assert all(spine.masks[i] is spine.masks[group[0]] for i in group)
    for lit, mask, i in zip(spine.candidates, spine.masks, spine.split_of):
        assert mask is spine.splits[i]
        assert mask.tolist() == table.covered(lit, kb, n).tolist()
    assert spine.sizes == [int(split.sum()) for split in spine.splits]
    return len(groups)


def test_spine_candidates_with_equal_masks_share_one_split(coauthor_kb, topic_class_examples):
    """The root spine of the coauthor examples has candidates with equal
    coverage: they share one mask array, their split, which still equals
    `BindingTable.covered` for each, and the memo counts its n bytes
    once."""
    classed, contrast = topic_class_examples
    examples = classed + contrast
    n = len(examples)
    memo = JoinMemo(coauthor_kb, examples, LearnConfig())
    spine = memo.spine(())
    groups = _assert_equal_masks_share_a_split(spine, spine.table, coauthor_kb, n)
    assert memo.nbytes == spine.table.columns.nbytes + n * groups


def test_a_factorized_spine_shares_splits_and_counts_its_runs(coauthor_kb, topic_class_examples):
    """After ``Affiliation(person1, university1)`` the literal
    ``Affiliation(person3, university1)`` binds a leaf no candidate ties to
    an older variable, so its spine keeps no table.  The memo counts the
    spine's start and count arrays and its n bytes per split, and the
    table's bytes instead of those arrays once it is built; candidates
    with equal masks share one split, equal to `BindingTable.covered` on
    that table."""
    classed, contrast = topic_class_examples
    examples = classed + contrast
    n = len(examples)
    memo = JoinMemo(coauthor_kb, examples, LearnConfig())
    first = (Atom("Affiliation", ("person1", "university1")),)
    memo.spine(())
    memo.spine(first)
    spine = memo.spine(first + (Atom("Affiliation", ("person3", "university1")),))
    assert spine.table is None
    held = memo.spines[()].table.columns.nbytes + memo.spines[first].table.columns.nbytes
    held += n * sum(len(s.splits) for s in memo.spines.values())
    _, _, starts, counts = spine.runs
    assert memo.nbytes == held + starts.nbytes + counts.nbytes
    table = spine.built(coauthor_kb)
    assert memo.nbytes == held + table.columns.nbytes and spine.runs is None
    _assert_equal_masks_share_a_split(spine, table, coauthor_kb, n)


def test_learn_tree_logs_the_spines_it_kept_factorized(coauthor_kb, topic_class_examples, caplog):
    """The INFO line gives the largest table the tree gathered, transient
    ones included, how many spines gathered a table only to score the
    candidates that tie the leaf to an older variable and its rows, and
    how many of the spines the tree scored hold no table after scoring.
    On the coauthor examples some spines gathered such a table and hold
    none, and each one's row count is that of the table built later."""
    classed, contrast = topic_class_examples
    memo = JoinMemo(coauthor_kb, classed + contrast, LearnConfig(beam_width=5))
    with caplog.at_level(logging.INFO, logger="relgcn.rulelearn"):
        learn_tree(memo, np.array([1.0, 1.0, 0.0, 0.0]), np.ones(4))
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("learned")]
    largest, tied, tied_rows, kept, scored = map(int, re.search(
        r"largest binding table: (\d+) rows; tables gathered only to score tying "
        r"candidates: (\d+) \((\d+) rows\); spines kept factorized: (\d+) of (\d+); "
        r"candidates from the join memo: ", line
    ).groups())
    spines = list(memo.spines.values())
    factorized = [s for s in spines if s.table is None]
    assert 0 < kept == len(factorized) < scored == len(spines)
    gathered = [s for s in spines if s.tied_rows]
    assert 0 < tied == len(gathered) and any(s.table is None for s in gathered)
    assert tied_rows == sum(s.built(coauthor_kb).columns.shape[1] for s in gathered) > 0
    # Every table the tree gathered is built by now, the transient ones above.
    assert largest == max(s.table.columns.shape[1] for s in spines if s.table is not None)
    assert line.endswith("join indexes held: %d (%d bytes)" % coauthor_kb.join_index_memory())


def test_learn_tree_fits_each_split_once_per_beam_state(
    coauthor_kb, topic_class_examples, monkeypatch
):
    """After the root's fit, `_branch_fit` runs in pairs, the left branch
    on a split array of the memo and the right on what it peels off, and
    no split is fitted twice in a tree (a beam state's body is its own);
    that is fewer fits than one pair per candidate."""
    classed, contrast = topic_class_examples
    calls = []
    fit = rulelearn._branch_fit

    def counting(values, weights, mask):
        calls.append(mask)
        return fit(values, weights, mask)

    monkeypatch.setattr(rulelearn, "_branch_fit", counting)
    memo = JoinMemo(coauthor_kb, classed + contrast, LearnConfig(beam_width=3))
    values = np.array([1.0, 1.0, 0.0, 0.0])
    learn_tree(memo, values, np.ones(4))
    splits = {id(split) for spine in memo.spines.values() for split in spine.splits}
    lefts = [id(mask) for mask in calls[1::2]]
    assert len(calls) % 2 == 1 and set(lefts) <= splits
    assert not {id(mask) for mask in calls[::2]} & splits
    assert len(set(lefts)) == len(lefts)
    assert len(lefts) < sum(len(spine.candidates) for spine in memo.spines.values())


def test_learn_tree_matches_the_per_candidate_scorer():
    """On random small KBs, with random depths, beam widths, leaf minimums,
    values and weights, fitting each distinct split once gives the rule
    and mask of fitting both branches of every candidate.  Every other
    trial has 0/1 values and integer weights, whose totals tie exactly,
    so the text tie-break decides some beams."""
    rng = np.random.default_rng(20261022)
    ties: list[int] = []
    for trial in range(200):
        kb, constants, _, _ = random_kb(rng, max_constants=5, max_predicates=4)
        pool = next(iter(constants.values()))
        pairs = [(a, b) for a in pool for b in pool]
        size = int(rng.integers(2, min(12, len(pairs)) + 1))
        rows = [pairs[int(j)] for j in rng.choice(len(pairs), size=size, replace=False)]
        examples = kb.targets("Tgt", rows, True)
        config = LearnConfig(
            max_body_length=int(rng.integers(1, 4)),
            beam_width=int(rng.integers(1, 5)),
            min_examples_per_leaf=int(rng.integers(1, 4)),
        )
        if trial % 2:
            values = rng.integers(0, 2, size).astype(float)
            weights = rng.integers(1, 4, size).astype(float)
        else:
            values, weights = rng.uniform(0.0, 1.0, size), rng.uniform(0.1, 2.0, size)
        rule, covered = learn_tree(JoinMemo(kb, examples, config), values, weights)
        expected, mask = per_candidate_learn_tree(
            JoinMemo(kb, examples, config), values, weights, ties
        )
        assert rule == expected
        assert covered.tolist() == mask.tolist()
    assert sum(tied > 0 for tied in ties) > 50


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
    config = LearnConfig()
    with caplog.at_level(logging.WARNING):
        ruleset = learn_ruleset(coauthor_kb, classed, classed, config, k=1)
    assert [rule.body for rule in ruleset.rules] == [()]
    assert any("empty-body" in rec.message for rec in caplog.records)


# -- rule-set iteration ----------------------------------------------------


def test_learn_ruleset_stops_on_duplicate(coauthor_kb, topic_class_examples, caplog):
    classed, contrast = topic_class_examples
    config = LearnConfig()
    with caplog.at_level(logging.WARNING):
        ruleset = learn_ruleset(coauthor_kb, classed, contrast, config, k=3)
    assert all(r.source == POSITIVE_DENSITY for r in ruleset.rules)
    assert 1 <= len(ruleset.rules) <= 3
    if len(ruleset.rules) < 3:
        assert any("duplicate consecutive rule" in rec.message for rec in caplog.records)
    assert [r.iteration for r in ruleset.rules] == list(range(len(ruleset.rules)))


def test_learn_ruleset_requires_one_class(coauthor_kb, topic_class_examples):
    classed, contrast = topic_class_examples
    mixed = classed + coauthors(coauthor_kb, "ann cara", positive=False)
    with pytest.raises(DataError, match="one-class"):
        learn_ruleset(coauthor_kb, mixed, contrast, LearnConfig(), k=1)
    with pytest.raises(DataError, match="nonempty"):
        learn_ruleset(coauthor_kb, coauthors(coauthor_kb), contrast, LearnConfig(), k=1)
    with pytest.raises(DataError):
        learn_ruleset(coauthor_kb, classed, contrast, LearnConfig(), k=0)


def test_learn_ruleset_deterministic(coauthor_kb, topic_class_examples):
    classed, contrast = topic_class_examples
    config = LearnConfig()
    r1 = learn_ruleset(coauthor_kb, classed, contrast, config, k=2)
    r2 = learn_ruleset(coauthor_kb, classed, contrast, config, k=2)
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
        )
        masks.clear()
        ruleset = learn_ruleset(kb, classed, contrast, config, k=3)
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
    config = LearnConfig(beam_width=3)
    learn_ruleset(coauthor_kb, classed, contrast, config, k=3)
    # The second tree repeats the first one's rule, which ends the set.
    assert len(trees) == 2
    assert (len(bodies), len(pairs)) == (10, 64)
    assert len(set(bodies)) == len(bodies)
    assert len(set(pairs)) == len(pairs)


def test_learn_ruleset_memo_holds_only_the_tables_trees_expanded(
    coauthor_kb, topic_class_examples, monkeypatch
):
    """After a rule set on the coauthor examples, a spine whose last
    literal binds a leaf holds a table only if a tree expanded its body,
    so that a longer body of the memo extends it, also when it gathered
    a table to score candidates that tie the leaf to an older variable.
    ``nbytes`` counts the tables held, an int64 start and count per
    parent row of every other spine's runs, and n bytes per split."""
    classed, contrast = topic_class_examples
    memos = []
    learn = rulelearn.learn_tree

    def recording(memo, *args):
        memos.append(memo)
        return learn(memo, *args)

    monkeypatch.setattr(rulelearn, "learn_tree", recording)
    learn_ruleset(coauthor_kb, classed, contrast, LearnConfig(beam_width=5), k=3)
    memo = memos[0]
    assert len(memos) > 1 and all(m is memo for m in memos)
    n = len(classed) + len(contrast)
    expanded = {body[:-1] for body in memo.spines if body}
    held = 0
    for body, spine in memo.spines.items():
        older = set(memo.head.args).union(*(lit.args for lit in body[:-1]))
        leaf = bool(body) and not set(body[-1].args) <= older
        assert (spine.table is not None) == (not leaf or body in expanded)
        if spine.table is None:
            held += 2 * 8 * memo.spines[body[:-1]].table.columns.shape[1]
        else:
            held += spine.table.columns.nbytes
        held += n * len(spine.splits)
    assert memo.nbytes == held
    assert any(s.table is None and s.tied_rows for s in memo.spines.values())
    assert any(s.table is not None and s.runs is None and s.tied_rows for s in memo.spines.values())


def test_learn_ruleset_logs_the_joins_later_trees_reuse(coauthor_kb, topic_class_examples, caplog):
    """The first tree of a rule set joins every candidate it scores; the
    second reports candidates taken from the memo and the memo's bytes."""
    classed, contrast = topic_class_examples
    config = LearnConfig()
    with caplog.at_level(logging.INFO, logger="relgcn.rulelearn"):
        learn_ruleset(coauthor_kb, classed, contrast, config, k=2)
    pattern = re.compile(r"candidates from the join memo: (\d+) of (\d+) \(memo (\d+) bytes\)")
    found = (pattern.search(r.getMessage()) for r in caplog.records)
    reuse = [tuple(map(int, m.groups())) for m in found if m]
    assert len(reuse) == 2
    (first, scored, nbytes), (second, _, _) = reuse
    assert first == 0 and scored > 0 and nbytes > 0
    assert second > 0


def test_learn_tree_logs_the_splits_it_fitted(coauthor_kb, topic_class_examples, caplog):
    """Next to the candidates scored per beam depth the INFO line gives the
    distinct splits fitted per depth: never more, and on the coauthor
    examples fewer in all."""
    classed, contrast = topic_class_examples
    with caplog.at_level(logging.INFO, logger="relgcn.rulelearn"):
        learn_ruleset(coauthor_kb, classed, contrast, LearnConfig(beam_width=3), k=2)
    pattern = re.compile(
        r"candidate literals scored per beam depth: \[([\d, ]*)\]; "
        r"distinct splits fitted per depth: \[([\d, ]*)\];"
    )
    found = [pattern.search(r.getMessage()) for r in caplog.records]
    per_tree = [
        [[int(x) for x in group.split(",") if x.strip()] for group in m.groups()]
        for m in found if m
    ]
    assert len(per_tree) == 2
    for scored, fitted in per_tree:
        assert len(fitted) == len(scored)
        assert all(f <= s for f, s in zip(fitted, scored))
        assert sum(fitted) < sum(scored)


def test_negative_density_source_label(coauthor_kb):
    negatives = coauthors(coauthor_kb, "ann cara", "bob cara", positive=False)
    contrast = coauthors(coauthor_kb, "ann bob", "cara dan")
    ruleset = learn_ruleset(
        coauthor_kb,
        negatives,
        contrast,
        LearnConfig(),
        k=1,
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
            (Atom("Affiliation", ("person1", "university1")),),
            source=NEGATIVE_DENSITY,
            iteration=1,
        ),
        Clause(head, (), source=POSITIVE_DENSITY, iteration=2),
    ]
    text = serialize_rules(rules)
    assert text == (
        "CoAuthor(person1, person2) :- ResearchTopic(person1, topic1), "
        "ResearchTopic(person2, topic1). % source=positive-density iter=0\n"
        "CoAuthor(person1, person2) :- Affiliation(person1, university1). "
        "% source=negative-density iter=1\n"
        "CoAuthor(person1, person2) :- true. % source=positive-density iter=2\n"
    )
    assert parse_rules(text, coauthor_kb) == rules


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
        Atom("A", ("x", "u")),
        Atom("A", ("y", "u")),
    )
    with pytest.raises(ParseError, match="malformed rule body") as info:
        parse_rules("C(x, y) :- true.\n" + line + "\n", kb)
    assert info.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        'CoAuthor(person1, person2) :- Affiliation(person1, "U1").',
        'CoAuthor("ann", person2) :- true.',
        'CoAuthor(person1, person2) :- ResearchTopic(person1, "T1"), ResearchTopic(person2, t).',
    ],
)
def test_parse_rules_rejects_a_quoted_constant(coauthor_kb, line):
    """A rule holds variables only: a quoted argument is a ParseError at
    its line that names it."""
    text = "CoAuthor(person1, person2) :- true.\n% a comment\n" + line + "\n"
    with pytest.raises(ParseError, match="constant \"(U1|ann|T1)\" in .*variables only") as info:
        parse_rules(text, coauthor_kb)
    assert info.value.line == 3


def test_parse_rules_rejects_a_variable_of_two_types(coauthor_kb):
    """Constant ids are global by name, so a variable at a university and
    a topic argument would join a university to a topic of the same name:
    such a rule is a ParseError at its line that names the variable."""
    text = (
        "CoAuthor(person1, person2) :- Affiliation(person1, x), Affiliation(person2, x).\n"
        "CoAuthor(person1, person2) :- Affiliation(person1, x), ResearchTopic(person2, x).\n"
    )
    with pytest.raises(
        ParseError, match="variable 'x' is a university, but a topic in ResearchTopic"
    ) as info:
        parse_rules(text, coauthor_kb)
    assert info.value.line == 2
    with pytest.raises(ParseError, match="variable 'person2' is a person, but a topic") as info:
        parse_rules("CoAuthor(person1, person2) :- ResearchTopic(person1, person2).\n", coauthor_kb)
    assert info.value.line == 1


def test_parse_rules_rejects_garbage(coauthor_kb):
    with pytest.raises(ParseError):
        parse_rules("CoAuthor(person1, person2) :- \n", coauthor_kb)
    with pytest.raises(ParseError):
        parse_rules("Bogus(x) :- true.\n", coauthor_kb)
