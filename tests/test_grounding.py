"""Grounding counts against the brute-force oracle, plus negative sampling."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgcn.errors import DataError
from relgcn.grounding import (
    BindingTable,
    Clause,
    count_satisfied_groundings,
    sample_negatives,
)
from relgcn.kb import (
    BOUND,
    Atom,
    Constant,
    JoinIndex,
    KnowledgeBase,
    PredicateSchema,
    Targets,
    Variable,
)
from relgcn.rulelearn import candidate_literals

from conftest import PERSON, UNIVERSITY, coauthors
from oracles import (
    body_satisfied,
    brute_force_count,
    enumerate_target_tuples,
    sample_negatives_by_enumeration,
)
from random_instances import random_instance


def _head():
    return Atom("CoAuthor", (Variable("p1"), Variable("p2")))


def tgt(kb: KnowledgeBase, *rows: tuple[str, ...]):
    """Positive ``Tgt`` targets of ``kb``, one per row of constant names."""
    return kb.targets("Tgt", rows, True)


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
    counts = count_satisfied_groundings(
        clause, coauthors(coauthor_kb, "ann bob", "ann cara", "cara dan"), coauthor_kb
    )
    assert counts.tolist() == [2, 0, 1]


def test_count_empty_body_is_one(coauthor_kb):
    clause = Clause(_head(), ())
    assert count_satisfied_groundings(clause, coauthors(coauthor_kb, "ann cara"), coauthor_kb)[0] == 1


def test_count_head_constant_disagreement():
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("CoAuthor", (PERSON, PERSON)))
    clause = Clause(
        Atom("CoAuthor", (Constant("ann", PERSON), Variable("p2"))), ()
    )
    assert count_satisfied_groundings(clause, coauthors(kb, "ann bob", "bob ann"), kb).tolist() == [1, 0]


def test_count_predicate_mismatch_raises(coauthor_kb):
    clause = Clause(Atom("Affiliation", (Variable("p1"), Variable("u1"))), ())
    with pytest.raises(DataError, match="does not match clause head"):
        count_satisfied_groundings(clause, coauthors(coauthor_kb, "ann bob"), coauthor_kb)


def test_count_matches_oracle_on_fixture(coauthor_kb):
    for clause in (shared_topic_clause(), shared_university_clause()):
        for a in ("ann", "bob", "cara", "dan"):
            for b in ("ann", "bob", "cara", "dan"):
                tgt = coauthors(coauthor_kb, f"{a} {b}")
                assert count_satisfied_groundings(clause, tgt, coauthor_kb)[0] == (
                    brute_force_count(clause, (a, b), coauthor_kb)
                )


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(12345)
    for _ in range(150):
        kb, clause, target = random_instance(rng)
        assert count_satisfied_groundings(clause, tgt(kb, target), kb)[0] == brute_force_count(
            clause, target, kb
        )


def test_monotonicity_in_facts_and_body_length():
    rng = np.random.default_rng(999)
    for _ in range(60):
        kb, clause, target = random_instance(rng)
        targets = tgt(kb, target)
        base = count_satisfied_groundings(clause, targets, kb)[0]
        if clause.body:
            shorter = Clause(clause.head, clause.body[:-1])
            # Coverage is anti-monotone in body length: a longer body can
            # never be satisfiable when its prefix is not.
            assert (count_satisfied_groundings(shorter, targets, kb)[0] > 0) >= (base > 0)
            # The raw count is anti-monotone only when the dropped literal
            # introduced no fresh variables (fresh ones multiply the number
            # of distinct substitutions).
            prefix_vars = {
                v.name for a in (clause.head, *shorter.body) for v in a.variables()
            }
            last_vars = {v.name for v in clause.body[-1].variables()}
            if last_vars <= prefix_vars:
                assert count_satisfied_groundings(shorter, targets, kb)[0] >= base
        # Adding a random missing fact never decreases the count.
        pred = clause.body[0].predicate if clause.body else "Tgt"
        schema = kb.schema(pred)
        new_args = tuple(sorted(kb.constants_of_type(t))[0] for t in schema.arg_types)
        kb.add_fact(pred, new_args)
        assert count_satisfied_groundings(clause, targets, kb)[0] >= base


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
            assert count_satisfied_groundings(clause, coauthors(kb, f"{a} bob"), kb)[0] == n
            assert brute_force_count(clause, (a, "bob"), kb) == n


def test_fully_ground_body_literal(coauthor_kb):
    tgt = coauthors(coauthor_kb, "ann bob")
    base = count_satisfied_groundings(shared_topic_clause(), tgt, coauthor_kb)[0]
    assert base == 2
    for uni, want in (("U1", base), ("U2", 0)):
        ground = Atom("Affiliation", (Constant("ann", PERSON), Constant(uni, UNIVERSITY)))
        clause = Clause(_head(), (ground, *shared_topic_clause().body))
        assert count_satisfied_groundings(clause, tgt, coauthor_kb)[0] == want
        assert brute_force_count(clause, ("ann", "bob"), coauthor_kb) == want


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
        count_satisfied_groundings(clause, coauthors(coauthor_kb, "cara dan"), coauthor_kb)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_extra=st.integers(0, 4),
    head_constant=st.booleans(),
)
def test_count_matches_oracle_property(seed, n_extra, head_constant):
    """One call counts every target of a batch built from name rows: the
    instance's target twice, a target whose first constant is not pool[0],
    random extra pairs and a pair naming a constant that no fact mentions.
    With a head constant pool[0], that target disagrees with the head and x1
    in the body is a free variable.  Each entry is the target's brute-force
    count, and an empty batch gives an empty array."""
    rng = np.random.default_rng(seed)
    kb, clause, target = random_instance(rng)
    pool = sorted(kb.constants_of_type(kb.schema("Tgt").arg_types[0]))
    rows = [target, target, (pool[-1], pool[0])] + [
        (pool[int(i)], pool[int(j)]) for i, j in rng.integers(len(pool), size=(n_extra, 2))
    ]
    rows.append(("unseen", pool[int(rng.integers(len(pool)))]))
    if head_constant:
        clause = Clause(Atom("Tgt", (Constant(pool[0], "ta"), Variable("x2"))), clause.body)
    counts = count_satisfied_groundings(clause, tgt(kb, *rows), kb)
    assert counts.shape == (len(rows),)
    for row, got in zip(rows, counts):
        assert got == brute_force_count(clause, row, kb)
    assert count_satisfied_groundings(clause, tgt(kb), kb).shape == (0,)


def _row_counts(table: BindingTable, n: int) -> np.ndarray:
    return np.bincount(table.rows[:, 0], minlength=n)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), head_constant=st.booleans())
def test_binding_table_matches_oracles_property(seed, head_constant):
    """Extended literal by literal, the table holds each example's
    brute-force count of rows, and a literal's semi-join covers exactly the
    examples that keep rows after the extension.  The examples are built
    from name rows, one naming a constant that no fact mentions.  Bodies
    carry constants, fresh and repeated variables; with a head constant, x1
    in the body is a free variable and examples that disagree with the head
    have no row."""
    rng = np.random.default_rng(seed)
    kb, clause, target = random_instance(rng)
    pool = sorted(kb.constants_of_type(kb.schema("Tgt").arg_types[0]))
    rows = [target] + [
        tuple(pool[int(i)] for i in pair) for pair in rng.integers(len(pool), size=(5, 2))
    ]
    rows.append((pool[int(rng.integers(len(pool)))], "unseen"))
    head = clause.head
    if head_constant:
        head = Atom("Tgt", (Constant(pool[0], "ta"), Variable("x2")))
    n = len(rows)
    table = BindingTable.for_head(head, tgt(kb, *rows), kb)
    for k in range(len(clause.body) + 1):
        prefix = Clause(head, clause.body[:k])
        if k:
            covered = table.covered(prefix.body[-1], kb, n)
            table = table.extend(prefix.body[-1], kb)
            assert (covered == (_row_counts(table, n) > 0)).all()
        assert len(np.unique(table.rows, axis=0)) == len(table.rows)
        counts = _row_counts(table, n)
        for i, row in enumerate(rows):
            assert counts[i] == brute_force_count(prefix, row, kb)
            assert (counts[i] > 0) == (
                count_satisfied_groundings(prefix, tgt(kb, row), kb)[0] > 0
            )


def test_binding_table_target_constant_absent_from_facts(coauthor_kb):
    """eve is a person an earlier target batch registered, in no fact, and
    zed is first met in the targets: neither example has a grounding, and
    an unknown constant in a literal matches nothing."""
    coauthors(coauthor_kb, "eve dan")
    examples = coauthors(coauthor_kb, "eve ann", "ann bob", "ann zed")
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
    examples = coauthors(coauthor_kb, "cara ann", "ann bob")
    clause = shared_university_clause()
    root = BindingTable.for_head(clause.head, examples, coauthor_kb)
    first = root.extend(clause.body[0], coauthor_kb)
    assert first.covered(clause.body[1], coauthor_kb, 2).tolist() == [False, True]
    coauthor_kb.add_fact("Affiliation", ("cara", "U1"))
    coauthor_kb.add_fact("Affiliation", ("fay", "U3"))
    first = root.extend(clause.body[0], coauthor_kb)
    assert _row_counts(first, 2).tolist() == [2, 1]
    assert first.covered(clause.body[1], coauthor_kb, 2).tolist() == [True, True]


def _check_prefixes(clause: Clause, examples: list[tuple[str, ...]], kb: KnowledgeBase) -> None:
    """Extended literal by literal over the ``Tgt`` targets of the name
    rows ``examples``, the table holds each example's brute-force count of
    rows, and each literal's semi-join covers exactly the examples that
    keep rows after the extension."""
    n = len(examples)
    table = BindingTable.for_head(clause.head, tgt(kb, *examples), kb)
    for k, literal in enumerate(clause.body, start=1):
        covered = table.covered(literal, kb, n)
        table = table.extend(literal, kb)
        counts = _row_counts(table, n)
        assert (covered == (counts > 0)).all()
        prefix = Clause(clause.head, clause.body[:k])
        assert counts.tolist() == [brute_force_count(prefix, ex, kb) for ex in examples]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(["fact", "example", "literal"]), max_size=4),
)
def test_join_indexes_follow_kb_changes_property(seed, steps):
    """Joins interleaved with changes made after the kb holds indexes: a
    fact (its constants drawn from the domains, the clause's constants and
    one name new to the kb), an example whose constant is first interned
    now, above the radix of every index built so far, and a body literal
    whose constants are first interned now.  After every step each prefix
    agrees with the brute-force count."""
    rng = np.random.default_rng(seed)
    kb, clause, target = random_instance(rng)
    t = kb.schema("Tgt").arg_types[0]
    examples = [target]
    _check_prefixes(clause, examples, kb)
    for i, step in enumerate(steps):
        if step == "fact":
            pred = str(rng.choice(sorted(p for p in kb.schemas if p != "Tgt")))
            clause_names = {a.name for lit in clause.body for a in lit.args if isinstance(a, Constant)}
            args = []
            for arg_type in kb.schema(pred).arg_types:
                names = sorted(kb.constants_of_type(arg_type) | clause_names) + [f"new{i}"]
                args.append(names[int(rng.integers(len(names)))])
            kb.add_fact(pred, args)
        elif step == "example":
            examples.append((f"late{i}", target[1]))
        else:
            pred = str(rng.choice(sorted(p for p in kb.schemas if p != "Tgt")))
            args = [
                Variable("x1") if (arg_type == t and pos == 0) else Constant(f"lit{i}", arg_type)
                for pos, arg_type in enumerate(kb.schema(pred).arg_types)
            ]
            clause = Clause(clause.head, clause.body + (Atom(pred, tuple(args)),))
        _check_prefixes(clause, examples, kb)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_membership_semi_join_equals_sorted_semi_join_property(seed):
    """For every candidate literal with a one-column key, the membership
    vector and a searchsorted probe of the same index keep the same rows,
    and the mask they give is the brute-force coverage; also once an
    example holds an id interned after the indexes were built."""
    rng = np.random.default_rng(seed)
    kb, clause, target = random_instance(rng)
    t = kb.schema("Tgt").arg_types[0]
    pool = sorted(kb.constants_of_type(t))
    examples = [target] + [
        tuple(pool[int(i)] for i in pair) for pair in rng.integers(len(pool), size=(4, 2))
    ]
    literals = candidate_literals(kb, clause.head, (), max_constants_for_grounding=3)
    for late in (False, True):
        if late:
            examples.append(("late", "late"))
        table = BindingTable.for_head(clause.head, tgt(kb, *examples), kb)
        for literal in literals:
            index, keys, _ = table._match(literal, kb)
            if keys.shape[1] != 1:
                continue
            assert index.member is not None
            by_member = index.contains(keys)
            assert (by_member == replace(index, member=None).contains(keys)).all()
            want = [brute_force_count(Clause(clause.head, (literal,)), ex, kb) > 0 for ex in examples]
            assert table.covered(literal, kb, len(examples)).tolist() == want


def test_four_column_key_past_int64_matches_oracle():
    """With 2**16 more constant ids than the domains hold, a four-column
    key overflows int64 in one radix, so its index re-ranks the codes of
    the first three columns; counts and semi-joins still match the
    brute-force oracle, for examples with and without groundings."""
    kb = KnowledgeBase()
    for name, types in (("Tgt", ("ta", "ta")), ("R", ("ta", "tb")), ("Q", ("ta", "ta", "tb", "tb"))):
        kb.declare_schema(PredicateSchema(name, types))
    for i in range(2**16):
        kb.constant_id(f"filler{i}")  # interned, in no domain and no fact
    rng = np.random.default_rng(4)
    people, things = [f"a{i}" for i in range(4)], [f"b{i}" for i in range(3)]
    for p in people:
        for b in rng.choice(things, size=2, replace=False):
            kb.add_fact("R", (p, str(b)))
    for _ in range(30):
        kb.add_fact("Q", (*rng.choice(people, size=2), *rng.choice(things, size=2)))
    x1, x2, y1, y2 = (Variable(v) for v in ("x1", "x2", "y1", "y2"))
    clause = Clause(
        Atom("Tgt", (x1, x2)),
        (Atom("R", (x1, y1)), Atom("R", (x2, y2)), Atom("Q", (x1, x2, y1, y2))),
    )
    examples = [(a, b) for a in people for b in people]
    _check_prefixes(clause, examples, kb)
    assert sum(brute_force_count(clause, ex, kb) > 0 for ex in examples) > 0
    index = kb.join_index(clause.body[2], {"x1", "x2", "y1", "y2"})[0]
    assert list(index.rerank) == [3]


@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_key_codes_equal_exactly_for_equal_rows(width):
    """Join keys of any width, with ids large enough that three columns in
    one base would overflow int64 (one column gets a membership vector of
    radix + 1 bytes, so there the ids stay below 2**20): a row's code
    equals a fact's exactly where their keys are equal, and a row holding
    an id at or above the radix gets -1."""
    rng = np.random.default_rng(width)
    radix = 2**20 + 1 if width == 1 else 2**40 + 1
    ids = np.array([0, 1, 7, radix - 1])
    rows = rng.choice(np.append(ids, radix + 4), size=(300, width))
    index = JoinIndex.build(rng.choice(ids, size=(200, width)), (BOUND,) * width, radix)
    codes = index.key_codes(rows)
    same_code = codes[:, None] == index.codes[None, :]
    same_row = (rows[:, None, :] == index.facts[None, :, :]).all(axis=-1)
    assert (same_code == same_row).all()
    assert (codes[(rows >= radix).any(axis=1)] == -1).all()
    assert (index.contains(rows) == same_row.any(axis=1)).all()
    fact_codes_equal = index.codes[:, None] == index.codes[None, :]
    assert (fact_codes_equal == (index.facts[:, None] == index.facts[None]).all(axis=-1)).all()
    assert (np.diff(index.codes) >= 0).all()
    assert (index.member is not None) == (width == 1)


def test_enumerate_target_tuples_symmetric(coauthor_kb):
    schema = coauthor_kb.schema("CoAuthor")
    sym = enumerate_target_tuples(coauthor_kb, schema)
    assert len(sym) == 6  # C(4, 2) canonical pairs
    assert all(a < b for a, b in sym)
    asym = enumerate_target_tuples(coauthor_kb, schema, symmetric=False)
    assert len(asym) == 12  # ordered pairs minus reflexive


def test_sample_negatives_deterministic_and_disjoint(coauthor_kb):
    schema = coauthor_kb.schema("CoAuthor")
    positives = coauthors(coauthor_kb, "ann bob")
    negs1 = sample_negatives(coauthor_kb, schema, positives, ratio=3.0, seed=5)
    negs2 = sample_negatives(coauthor_kb, schema, positives, ratio=3.0, seed=5)
    assert (negs1.ids == negs2.ids).all()
    assert len(negs1) == 3
    drawn = set(coauthor_kb.atom_texts("CoAuthor", negs1.ids))
    assert "CoAuthor(ann, bob)" not in drawn and "CoAuthor(bob, ann)" not in drawn
    assert not negs1.positive.any()


def test_sample_negatives_exhaustion(coauthor_kb):
    schema = coauthor_kb.schema("CoAuthor")
    positives = coauthors(coauthor_kb, "ann bob")
    # Only 5 non-positive canonical pairs exist among 4 people.
    with pytest.raises(DataError):
        sample_negatives(coauthor_kb, schema, positives, ratio=6.0, seed=0)
    with pytest.raises(DataError):
        sample_negatives(coauthor_kb, schema, positives, ratio=0.0, seed=0)
    with pytest.raises(DataError):
        sample_negatives(coauthor_kb, schema, coauthors(coauthor_kb), ratio=1.0, seed=0)
    with pytest.raises(DataError, match="positives of CoAuthor"):
        sample_negatives(coauthor_kb, coauthor_kb.schema("Affiliation"), positives, 1.0, 0)


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
        names = {
            t: [f"c{int(c)}" for c in rng.choice(12, size=int(rng.integers(1, 7)), replace=False)]
            for t in set(arg_types)
        }
        # A target batch puts each type's names into its domain, adding no fact.
        width = max(len(v) for v in names.values())
        kb.targets(
            "Tgt", [[names[t][j % len(names[t])] for t in arg_types] for j in range(width)], True
        )
        domains = [sorted(kb.constants_of_type(t)) for t in arg_types]
        rows = [
            tuple(d[int(rng.integers(len(d)))] for d in domains)
            for _ in range(int(rng.integers(1, 4)))
        ]
        positives = kb.targets("Tgt", rows, True)
        ratio = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        seed = int(rng.integers(1000))
        pos = set(rows)
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
        assert kb.atom_texts("Tgt", got.ids) == sample_negatives_by_enumeration(
            kb, schema, rows, ratio, seed, symmetric
        )


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "ordered"])
def test_sample_negatives_matches_enumeration_oracle_on_hundreds_of_names(symmetric):
    """Row offsets deep into the product and runs of excluded ranks: a dense
    block of positives, positives in the first and last rows, reversed
    duplicates and constants of another type are all cleared as the
    enumeration clears them."""
    kb = KnowledgeBase()
    schema = PredicateSchema("Tgt", ("ta", "ta"))
    kb.declare_schema(schema)
    kb.declare_schema(PredicateSchema("Other", ("tb",)))
    kb.add_fact("Other", ("outsider",))
    names = [f"c{i:03d}" for i in range(300)]
    tgt(kb, *zip(names[::2], names[1::2]))
    rng = np.random.default_rng(11)
    rows = [(names[i], names[j]) for i in range(20) for j in range(i + 1, 40)]
    rows += [(names[0], names[-1]), (names[-2], names[-1]), (names[-1], names[-3])]
    rows += [tuple(names[k] for k in rng.choice(300, size=2, replace=False)) for _ in range(200)]
    rows += [row[::-1] for row in rows[::7]] + rows[:30]
    rows += [("outsider", names[5]), (names[7], "outsider")]
    ids = np.array([[kb.constant_id(c) for c in row] for row in rows], dtype=np.int64)
    positives = Targets("Tgt", ids, np.ones(len(rows), dtype=bool))
    for ratio, seed in [(0.5, 0), (3.0, 1), (40.0, 2)]:
        got = sample_negatives(kb, schema, positives, ratio, seed, symmetric)
        assert kb.atom_texts("Tgt", got.ids) == sample_negatives_by_enumeration(
            kb, schema, rows, ratio, seed, symmetric
        )


def test_sample_negatives_memory_is_linear_in_the_domain():
    """50,000 persons and 2,000 positives: the product's mask alone would
    take 2.5 GB; one symmetric draw stays under 16 MiB traced."""
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("CoAuthor", (PERSON, PERSON)))
    names = [f"P{i:05d}" for i in range(50_000)]
    kb.targets("CoAuthor", zip(names[::2], names[1::2]), True)
    picks = np.random.default_rng(0).choice(50_000, size=(2_000, 2))
    positives = kb.targets("CoAuthor", [(names[a], names[b]) for a, b in picks], True)
    tracemalloc.start()
    try:
        negatives = sample_negatives(kb, kb.schema("CoAuthor"), positives, 1.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(negatives) == 2_000
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sample_negatives_refuses_a_product_beyond_int64():
    """Five positions over 10,000 constants: 1e20 tuples cannot be ranked
    in int64, and the error names the predicate and the domain sizes."""
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("Wide", ("tc",) * 5))
    positives = kb.targets(
        "Wide", [[f"c{5 * r + p}" for p in range(5)] for r in range(2_000)], True
    )
    with pytest.raises(DataError, match=(
        r"Wide: its domains of sizes 10000 x 10000 x 10000 x 10000 x 10000 "
        r"hold 100000000000000000000 tuples"
    )):
        sample_negatives(kb, kb.schema("Wide"), positives, 1.0, 0)
