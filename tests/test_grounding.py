"""Grounding counts against the brute-force oracle, plus negative sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgcn.errors import DataError
from relgcn.grounding import (
    BindingTable,
    _key_codes,
    Clause,
    NEGATIVE,
    POSITIVE,
    TargetExample,
    count_satisfied_groundings,
    sample_negatives,
)
from relgcn.kb import Atom, Constant, KnowledgeBase, PredicateSchema, Variable

from conftest import PERSON, TOPIC, UNIVERSITY, example, person_pair
from oracles import (
    body_satisfied,
    brute_force_count,
    enumerate_target_tuples,
    sample_negatives_by_enumeration,
)
from random_instances import random_instance


def _head():
    return Atom("CoAuthor", (Variable("p1"), Variable("p2")))


def shared_topic_clause():
    t1 = Variable("t1")
    return Clause(
        _head(),
        (
            Atom("ResearchTopic", (Variable("p1"), t1)),
            Atom("ResearchTopic", (Variable("p2"), t1)),
        ),
    )


def shared_university_clause():
    u1 = Variable("u1")
    return Clause(
        _head(),
        (
            Atom("Affiliation", (Variable("p1"), u1)),
            Atom("Affiliation", (Variable("p2"), u1)),
        ),
    )


def test_clause_str_and_validation():
    assert str(Clause(_head(), ())) == "CoAuthor(p1, p2) :- true."
    with pytest.raises(DataError):
        Clause(Atom("CoAuthor", (Variable("p1"), Variable("p1"))), ())


def test_target_example_must_be_ground():
    with pytest.raises(DataError):
        TargetExample(Atom("CoAuthor", (Variable("p1"), Variable("p2"))), POSITIVE)
    with pytest.raises(DataError):
        TargetExample(person_pair("ann", "bob"), "maybe")


def test_body_satisfied_closed_world(coauthor_kb):
    sat = [
        Atom("Affiliation", (Constant("ann", PERSON), Constant("U1", UNIVERSITY))),
    ]
    unsat = sat + [
        Atom("Affiliation", (Constant("cara", PERSON), Constant("U1", UNIVERSITY))),
    ]
    assert body_satisfied(sat, coauthor_kb)
    assert not body_satisfied(unsat, coauthor_kb)
    with pytest.raises(DataError):
        body_satisfied([Atom("Affiliation", (Variable("x"), Variable("y")))], coauthor_kb)


def test_count_shared_topics_worked_example(coauthor_kb):
    """ann and bob share T1 and T2: two distinct bindings of t1."""
    clause = shared_topic_clause()
    assert count_satisfied_groundings(clause, [example("ann", "bob")], coauthor_kb)[0] == 2
    assert count_satisfied_groundings(clause, [example("ann", "cara")], coauthor_kb)[0] == 0
    assert count_satisfied_groundings(clause, [example("cara", "dan")], coauthor_kb) == 1


def test_count_empty_body_is_one(coauthor_kb):
    clause = Clause(_head(), ())
    assert count_satisfied_groundings(clause, [example("ann", "cara")], coauthor_kb)[0] == 1


def test_count_cap_saturates(coauthor_kb):
    clause = shared_topic_clause()
    tgt = example("ann", "bob")
    assert count_satisfied_groundings(clause, [tgt], coauthor_kb, cap=1)[0] == 1
    assert count_satisfied_groundings(clause, [tgt], coauthor_kb, cap=5)[0] == 2
    with pytest.raises(DataError):
        count_satisfied_groundings(clause, [tgt], coauthor_kb, cap=0)


def test_count_head_constant_disagreement():
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("CoAuthor", (PERSON, PERSON)))
    kb.register_constant(PERSON, "ann")
    kb.register_constant(PERSON, "bob")
    clause = Clause(
        Atom("CoAuthor", (Constant("ann", PERSON), Variable("p2"))), ()
    )
    assert count_satisfied_groundings(clause, [example("ann", "bob")], kb)[0] == 1
    assert count_satisfied_groundings(clause, [example("bob", "ann")], kb)[0] == 0


def test_count_predicate_mismatch_raises(coauthor_kb):
    clause = Clause(Atom("Affiliation", (Variable("p1"), Variable("u1"))), ())
    with pytest.raises(DataError):
        count_satisfied_groundings(clause, [example("ann", "bob")], coauthor_kb)


def test_count_matches_oracle_on_fixture(coauthor_kb):
    for clause in (shared_topic_clause(), shared_university_clause()):
        for a in ("ann", "bob", "cara", "dan"):
            for b in ("ann", "bob", "cara", "dan"):
                tgt = example(a, b)
                assert count_satisfied_groundings(clause, [tgt], coauthor_kb)[0] == (
                    brute_force_count(clause, tgt, coauthor_kb)
                )


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(12345)
    for _ in range(150):
        kb, clause, target = random_instance(rng)
        assert count_satisfied_groundings(clause, [target], kb)[0] == brute_force_count(
            clause, target, kb
        )


def test_monotonicity_in_facts_and_body_length():
    rng = np.random.default_rng(999)
    for _ in range(60):
        kb, clause, target = random_instance(rng)
        base = count_satisfied_groundings(clause, [target], kb)[0]
        if clause.body:
            shorter = Clause(clause.head, clause.body[:-1])
            # Coverage is anti-monotone in body length: a longer body can
            # never be satisfiable when its prefix is not.
            assert count_satisfied_groundings(
                shorter, [target], kb, cap=1
            )[0] >= count_satisfied_groundings(clause, [target], kb, cap=1)[0]
            # The raw count is anti-monotone only when the dropped literal
            # introduced no fresh variables (fresh ones multiply the number
            # of distinct substitutions).
            prefix_vars = {
                v.name for a in (clause.head, *shorter.body) for v in a.variables()
            }
            last_vars = {v.name for v in clause.body[-1].variables()}
            if last_vars <= prefix_vars:
                assert count_satisfied_groundings(shorter, [target], kb)[0] >= base
        # Adding a random missing fact never decreases the count.
        pred = clause.body[0].predicate if clause.body else "Tgt"
        schema = kb.schema(pred)
        new_args = tuple(sorted(kb.constants_of_type(t))[0] for t in schema.arg_types)
        kb.add_fact(pred, new_args)
        assert count_satisfied_groundings(clause, [target], kb)[0] >= base


def test_cap_equals_min_of_cap_and_count():
    rng = np.random.default_rng(31)
    for _ in range(40):
        kb, clause, target = random_instance(rng)
        full = count_satisfied_groundings(clause, [target], kb)[0]
        for cap in (1, 2, 7):
            assert count_satisfied_groundings(clause, [target], kb, cap=cap)[0] == min(
                cap, full
            )


def test_repeated_variable_not_bound_by_head():
    """x must take one value at both positions of Knows(x, x) and Likes(x, x),
    whether the repeating literal is joined last (knows_self) or first
    (likes_self)."""
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("Knows", (PERSON, PERSON)))
    kb.declare_schema(PredicateSchema("Likes", (PERSON, PERSON)))
    kb.declare_schema(PredicateSchema("CoAuthor", (PERSON, PERSON)))
    for a, b in [("ann", "bob"), ("ann", "cara"), ("ann", "dan"), ("bob", "bob"),
                 ("cara", "cara"), ("dan", "ann"), ("dan", "dan")]:
        kb.add_fact("Knows", (a, b))
    kb.add_fact("Likes", ("bob", "cara"))
    kb.add_fact("Likes", ("cara", "cara"))
    p1, x = Variable("p1"), Variable("x")
    knows_self = Clause(_head(), (Atom("Knows", (p1, x)), Atom("Knows", (x, x))))
    likes_self = Clause(_head(), (Atom("Likes", (x, x)), Atom("Knows", (p1, x))))
    for clause, want in (
        (knows_self, {"ann": 3, "bob": 1, "cara": 1, "dan": 1}),
        (likes_self, {"ann": 1, "bob": 0, "cara": 1, "dan": 0}),
    ):
        for a, n in want.items():
            tgt = example(a, "bob")
            assert count_satisfied_groundings(clause, [tgt], kb)[0] == n
            assert brute_force_count(clause, tgt, kb) == n


def test_fully_ground_body_literal(coauthor_kb):
    tgt = example("ann", "bob")
    base = count_satisfied_groundings(shared_topic_clause(), [tgt], coauthor_kb)[0]
    assert base == 2
    for uni, want in (("U1", base), ("U2", 0)):
        ground = Atom("Affiliation", (Constant("ann", PERSON), Constant(uni, UNIVERSITY)))
        clause = Clause(_head(), (ground, *shared_topic_clause().body))
        assert count_satisfied_groundings(clause, [tgt], coauthor_kb)[0] == want
        assert brute_force_count(clause, tgt, coauthor_kb) == want


def test_unknown_body_predicate_raises_after_a_failed_literal(coauthor_kb):
    """The first literal has no match for (cara, dan); the second is still checked."""
    clause = Clause(
        _head(),
        (
            Atom("Affiliation", (Variable("p1"), Constant("U1", UNIVERSITY))),
            Atom("Bogus", (Variable("p2"),)),
        ),
    )
    with pytest.raises(DataError, match="Bogus"):
        count_satisfied_groundings(clause, [example("cara", "dan")], coauthor_kb)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cap=st.one_of(st.none(), st.integers(1, 8)),
    n_extra=st.integers(0, 4),
    head_constant=st.booleans(),
)
def test_count_matches_oracle_property(seed, cap, n_extra, head_constant):
    """One call counts every target of a list: the instance's target twice,
    a target whose first constant is not pool[0], and random extra pairs.
    With a head constant pool[0], that target disagrees with the head and x1
    in the body is a free variable.  Each entry is the target's brute-force
    count, clipped at cap, and the empty list gives an empty array."""
    rng = np.random.default_rng(seed)
    kb, clause, target = random_instance(rng)
    t = target.atom.args[0].type
    pool = sorted(kb.constants_of_type(t))

    def pair(a, b):
        return TargetExample(Atom("Tgt", (Constant(a, t), Constant(b, t))), POSITIVE)

    targets = [target, target, pair(pool[-1], pool[0])] + [
        pair(pool[int(i)], pool[int(j)]) for i, j in rng.integers(len(pool), size=(n_extra, 2))
    ]
    if head_constant:
        clause = Clause(Atom("Tgt", (Constant(pool[0], t), Variable("x2"))), clause.body)
    counts = count_satisfied_groundings(clause, targets, kb, cap=cap)
    assert counts.shape == (len(targets),)
    for ex, got in zip(targets, counts):
        want = brute_force_count(clause, ex, kb)
        assert got == (want if cap is None else min(cap, want))
    assert count_satisfied_groundings(clause, [], kb, cap=cap).shape == (0,)


def _row_counts(table: BindingTable, n: int) -> np.ndarray:
    return np.bincount(table.rows[:, 0], minlength=n)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), head_constant=st.booleans())
def test_binding_table_matches_oracles_property(seed, head_constant):
    """Extended literal by literal, the table holds each example's
    brute-force count of rows, and a literal's semi-join covers exactly the
    examples that keep rows after the extension.  Bodies carry constants,
    fresh and repeated variables; with a head constant, x1 in the body is a
    free variable and examples that disagree with the head have no row."""
    rng = np.random.default_rng(seed)
    kb, clause, target = random_instance(rng)
    t = target.atom.args[0].type
    pool = sorted(kb.constants_of_type(t))
    examples = [target] + [
        TargetExample(Atom("Tgt", tuple(Constant(pool[int(i)], t) for i in pair)), POSITIVE)
        for pair in rng.integers(len(pool), size=(5, 2))
    ]
    head = clause.head
    if head_constant:
        head = Atom("Tgt", (Constant(pool[0], t), Variable("x2")))
    n = len(examples)
    table = BindingTable.for_head(head, examples, kb)
    for k in range(len(clause.body) + 1):
        prefix = Clause(head, clause.body[:k])
        if k:
            covered = table.covered(prefix.body[-1], kb, n)
            table = table.extend(prefix.body[-1], kb)
            assert (covered == (_row_counts(table, n) > 0)).all()
        assert len(np.unique(table.rows, axis=0)) == len(table.rows)
        counts = _row_counts(table, n)
        for i, ex in enumerate(examples):
            assert counts[i] == brute_force_count(prefix, ex, kb)
            assert (counts[i] > 0) == (count_satisfied_groundings(prefix, [ex], kb, cap=1)[0] > 0)


def test_binding_table_target_constant_absent_from_facts(coauthor_kb):
    """eve is a registered person in no fact and zed is unknown to the kb:
    neither example has a grounding, and an unknown constant in a literal
    matches nothing."""
    coauthor_kb.register_constant(PERSON, "eve")
    examples = [example("eve", "ann"), example("ann", "bob"), example("ann", "zed")]
    clause = shared_topic_clause()
    table = BindingTable.for_head(clause.head, examples, coauthor_kb)
    assert len(table.rows) == 3
    for literal in clause.body:
        table = table.extend(literal, coauthor_kb)
    assert _row_counts(table, 3).tolist() == [0, 2, 0]
    nowhere = Atom("Affiliation", (Variable("p2"), Constant("U9", UNIVERSITY)))
    root = BindingTable.for_head(clause.head, examples, coauthor_kb)
    assert not root.covered(nowhere, coauthor_kb, 3).any()
    assert len(root.extend(nowhere, coauthor_kb).rows) == 0


def test_binding_table_sees_fact_added_after_first_join(coauthor_kb):
    examples = [example("cara", "ann"), example("ann", "bob")]
    clause = shared_university_clause()
    root = BindingTable.for_head(clause.head, examples, coauthor_kb)
    first = root.extend(clause.body[0], coauthor_kb)
    assert first.covered(clause.body[1], coauthor_kb, 2).tolist() == [False, True]
    coauthor_kb.add_fact("Affiliation", ("cara", "U1"))
    coauthor_kb.register_constant(PERSON, "fay")
    coauthor_kb.add_fact("Affiliation", ("fay", "U3"))
    first = root.extend(clause.body[0], coauthor_kb)
    assert _row_counts(first, 2).tolist() == [2, 1]
    assert first.covered(clause.body[1], coauthor_kb, 2).tolist() == [True, True]


def test_binding_table_head_type_error(coauthor_kb):
    wrong = TargetExample(
        Atom("CoAuthor", (Constant("ann", PERSON), Constant("U1", UNIVERSITY))), POSITIVE
    )
    with pytest.raises(DataError, match="has type 'university'"):
        BindingTable.for_head(_head(), [example("ann", "bob"), wrong], coauthor_kb)


@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_key_codes_equal_exactly_for_equal_rows(width):
    """Join keys of any width, with ids large enough that three columns in
    one base would overflow int64."""
    rng = np.random.default_rng(width)
    ids = np.array([0, 1, 7, 2**40])
    a = rng.choice(ids, size=(300, width))
    b = rng.choice(ids, size=(200, width))
    codes = np.concatenate(_key_codes(a, b))
    rows = np.concatenate([a, b])
    same_code = codes[:, None] == codes[None, :]
    same_row = (rows[:, None, :] == rows[None, :, :]).all(axis=-1)
    assert (same_code == same_row).all()


def test_enumerate_target_tuples_symmetric(coauthor_kb):
    schema = coauthor_kb.schema("CoAuthor")
    sym = enumerate_target_tuples(coauthor_kb, schema)
    assert len(sym) == 6  # C(4, 2) canonical pairs
    assert all(a < b for a, b in sym)
    asym = enumerate_target_tuples(coauthor_kb, schema, symmetric=False)
    assert len(asym) == 12  # ordered pairs minus reflexive


def test_sample_negatives_deterministic_and_disjoint(coauthor_kb):
    schema = coauthor_kb.schema("CoAuthor")
    positives = [example("ann", "bob")]
    negs1 = sample_negatives(coauthor_kb, schema, positives, ratio=3.0, seed=5)
    negs2 = sample_negatives(coauthor_kb, schema, positives, ratio=3.0, seed=5)
    assert [str(n.atom) for n in negs1] == [str(n.atom) for n in negs2]
    assert len(negs1) == 3
    drawn = {n.atom.constant_names() for n in negs1}
    assert ("ann", "bob") not in drawn and ("bob", "ann") not in drawn
    assert all(n.label == NEGATIVE for n in negs1)


def test_sample_negatives_exhaustion(coauthor_kb):
    schema = coauthor_kb.schema("CoAuthor")
    positives = [example("ann", "bob")]
    # Only 5 non-positive canonical pairs exist among 4 people.
    with pytest.raises(DataError):
        sample_negatives(coauthor_kb, schema, positives, ratio=6.0, seed=0)
    with pytest.raises(DataError):
        sample_negatives(coauthor_kb, schema, positives, ratio=0.0, seed=0)
    with pytest.raises(DataError):
        sample_negatives(coauthor_kb, schema, [], ratio=1.0, seed=0)


@pytest.mark.parametrize(
    "arg_types, symmetric",
    [
        pytest.param(("ta",), True, id="unary"),
        pytest.param(("ta", "ta"), True, id="same-type-symmetric"),
        pytest.param(("ta", "ta"), False, id="same-type-ordered"),
        pytest.param(("ta", "tb"), True, id="mixed-symmetric"),
        pytest.param(("ta", "tb"), False, id="mixed-ordered"),
        pytest.param(("ta", "tb", "ta"), True, id="ternary"),
    ],
)
def test_sample_negatives_matches_enumeration_oracle(arg_types, symmetric):
    """The same draw as sampling from the enumerated candidate list.  Both
    types draw names from one pool, so a reversed mixed-type positive can
    be a candidate, and names sort in another order than they were added."""
    rng = np.random.default_rng(2024)
    for _ in range(40):
        kb = KnowledgeBase()
        schema = PredicateSchema("Tgt", arg_types)
        kb.declare_schema(schema)
        for t in set(arg_types):
            for c in rng.choice(12, size=int(rng.integers(1, 7)), replace=False):
                kb.register_constant(t, f"c{int(c)}")
        domains = [sorted(kb.constants_of_type(t)) for t in arg_types]
        positives = [
            TargetExample(
                Atom("Tgt", tuple(
                    Constant(d[int(rng.integers(len(d)))], t) for d, t in zip(domains, arg_types)
                )),
                POSITIVE,
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        ratio = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        seed = int(rng.integers(1000))
        pos = {p.atom.constant_names() for p in positives}
        if symmetric:
            pos |= {tup[::-1] for tup in pos if len(tup) == 2}
        available = sum(
            1 for tup in enumerate_target_tuples(kb, schema, symmetric) if tup not in pos
        )
        want = int(np.ceil(ratio * len(positives)))
        if want > available:
            with pytest.raises(DataError, match=(
                f"requested {want} negatives but only {available} "
                f"non-positive tuples are available"
            )):
                sample_negatives(kb, schema, positives, ratio, seed, symmetric)
            continue
        got = sample_negatives(kb, schema, positives, ratio, seed, symmetric)
        assert got == sample_negatives_by_enumeration(
            kb, schema, positives, ratio, seed, symmetric
        )
