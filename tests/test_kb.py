"""Knowledge-base storage and the line-oriented text format."""

import numpy as np
import pytest

from relgcn.errors import DataError, ParseError
from relgcn.kb import (
    Atom,
    Constant,
    KnowledgeBase,
    PredicateSchema,
    Variable,
    parse_facts,
    parse_ground_atoms,
)

from conftest import PERSON, TOPIC, UNIVERSITY
from oracles import FactSetOracle, has_fact
from random_instances import random_kb


def test_schema_requires_positive_arity():
    with pytest.raises(DataError):
        PredicateSchema("Nullary", ())


def test_atom_ground_and_variables():
    ground = Atom("P", (Constant("a", "t"), Constant("b", "t")))
    open_atom = Atom("P", (Constant("a", "t"), Variable("x")))
    assert ground.variables() == []
    assert [v.name for v in open_atom.variables()] == ["x"]


def test_atom_str_roundtrips_visually():
    atom = Atom("Affiliation", (Variable("p1"), Constant("U1", UNIVERSITY)))
    assert str(atom) == "Affiliation(p1, U1)"


def test_add_fact_dedup_and_domains(coauthor_kb):
    before = coauthor_kb.fact_count("Affiliation")
    coauthor_kb.add_fact("Affiliation", ("ann", "U1"))
    assert coauthor_kb.fact_count("Affiliation") == before
    assert coauthor_kb.constants_of_type(UNIVERSITY) == {"U1", "U2"}
    assert "ann" in coauthor_kb.constants_of_type(PERSON)


def test_add_fact_arity_mismatch(coauthor_kb):
    with pytest.raises(DataError):
        coauthor_kb.add_fact("Affiliation", ("ann",))


def test_conflicting_schema_rejected(coauthor_kb):
    with pytest.raises(DataError):
        coauthor_kb.declare_schema(PredicateSchema("Affiliation", (PERSON, TOPIC)))


def _assert_store_matches(kb, oracle, names):
    """Decoded through ``names`` (every constant name the kb was given),
    the kb's fact rows are distinct and are the oracle's facts, and its
    counts, domains and text are the oracle's."""
    by_id = {kb.constant_id(name): name for name in names}
    for predicate in kb.schemas:
        rows = [tuple(by_id[i] for i in row) for row in kb.fact_array(predicate).tolist()]
        assert len(rows) == len(set(rows))
        assert set(rows) == oracle.facts[predicate]
        assert kb.fact_count(predicate) == oracle.fact_count(predicate)
    assert kb.fact_count() == oracle.fact_count()
    for type_name, domain in oracle.domains.items():
        assert kb.constants_of_type(type_name) == domain
    assert kb.to_text() == oracle.to_text()


@pytest.mark.parametrize("seed", range(40))
def test_fact_store_matches_name_tuple_oracle(seed):
    """Random kbs, then more facts (about half of them duplicates) and late
    constants, each added after the fact arrays and a join index were
    read: the id store agrees with a set of name tuples throughout, a new
    fact rebuilds the predicate's join index and a duplicate or a new
    constant rebuilds nothing."""
    rng = np.random.default_rng(seed)
    kb, constants, schemas, facts = random_kb(rng)
    oracle = FactSetOracle(kb.schemas)
    for type_name, names in constants.items():
        for name in names:
            oracle.register_constant(type_name, name)
    for predicate, args in facts:
        oracle.add_fact(predicate, args)
    names = [name for type_names in constants.values() for name in type_names]
    _assert_store_matches(kb, oracle, names)
    for step in range(12):
        schema = schemas[int(rng.integers(len(schemas)))]
        literal = Atom(schema.name, tuple(Variable(f"v{p}") for p in range(schema.arity)))
        index, _, _ = kb.join_index(literal, ())
        if step % 4 == 3:
            late = f"late{step}"
            pos = int(rng.integers(schema.arity))
            type_name = schema.arg_types[pos]
            # A target batch registers the name and adds no fact.
            row = [late if p == pos else constants[t][0] for p, t in enumerate(schema.arg_types)]
            kb.targets(schema.name, [row], True)
            oracle.register_constant(type_name, late)
            constants[type_name].append(late)
            names.append(late)
            assert kb.join_index(literal, ())[0] is index
        args = tuple(
            constants[t][int(rng.integers(len(constants[t])))] for t in schema.arg_types
        )
        duplicate = args in oracle.facts[schema.name]
        kb.add_fact(schema.name, args)
        oracle.add_fact(schema.name, args)
        rebuilt, _, _ = kb.join_index(literal, ())
        assert (rebuilt is index) == duplicate
        assert len(rebuilt.facts) == oracle.fact_count(schema.name)
        _assert_store_matches(kb, oracle, names)
    reparsed = parse_facts(kb.to_text())
    assert reparsed.to_text() == oracle.to_text()
    assert reparsed.fact_count() == oracle.fact_count()


def test_duplicate_facts_count_once():
    kb = parse_facts("@predicate Likes(person, person)\nLikes(a, b).\nLikes(a, b).\n")
    kb.add_fact("Likes", ("a", "b"))
    kb.add_fact("Likes", ("b", "a"))
    assert kb.fact_count("Likes") == 2
    assert kb.fact_array("Likes").shape == (2, 2)
    assert kb.to_text() == "@predicate Likes(person, person)\nLikes(a, b).\nLikes(b, a).\n"


def test_has_fact_closed_world(coauthor_kb):
    assert has_fact(
        coauthor_kb,
        Atom("Affiliation", (Constant("ann", PERSON), Constant("U1", UNIVERSITY))),
    )
    assert not has_fact(
        coauthor_kb,
        Atom("Affiliation", (Constant("ann", PERSON), Constant("U2", UNIVERSITY))),
    )


def test_unknown_predicate_and_type_raise(coauthor_kb):
    with pytest.raises(DataError):
        coauthor_kb.schema("Nope")
    with pytest.raises(DataError):
        coauthor_kb.constants_of_type("vehicle")


def test_parse_facts_roundtrip(coauthor_kb):
    text = coauthor_kb.to_text()
    kb2 = parse_facts(text)
    assert kb2.to_text() == text
    assert kb2.fact_count() == coauthor_kb.fact_count()


def test_parse_facts_comments_and_blank_lines():
    text = """
    % a comment-only line
    @predicate Likes(person, person)

    Likes(a, b).  % trailing comment
    """
    kb = parse_facts(text)
    assert kb.fact_count("Likes") == 1


def test_parse_facts_error_carries_line_number():
    text = "@predicate Likes(person, person)\nLikes(a b).\n"
    with pytest.raises(ParseError) as exc_info:
        parse_facts(text)
    assert exc_info.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("@predicate A(person, uni)\nA(ann, , U1).\n", 2),
        ("@predicate A(person, uni)\n\nA(bob, U2,).\n", 3),
        ("@predicate A(person, uni)\nA(, U1).\n", 2),
        ("@predicate B(person,,uni)\n", 1),
        ("@predicate B(person, uni, )\n", 1),
    ],
)
def test_parse_facts_rejects_an_empty_argument(text, line):
    with pytest.raises(ParseError, match="empty argument") as info:
        parse_facts(text)
    assert info.value.line == line


def test_parse_facts_conflicting_redeclaration_names_its_line():
    text = (
        "@predicate Likes(person, person)\n"
        "Likes(a, b).\n"
        "@predicate Likes(person, person)\n"  # the same declaration again is fine
        "@predicate Likes(person, topic)\n"
    )
    with pytest.raises(ParseError, match="conflicting schema for predicate 'Likes'") as info:
        parse_facts(text)
    assert info.value.line == 4
    assert isinstance(info.value, DataError)


@pytest.mark.parametrize(
    "bad",
    [
        "@predicate ()",  # nameless schema
        "@predicate Likes()",  # no argument types
        "Likes(a, b).",  # fact before any schema
        "@predicate Likes(person, person)\nLikes(a).",  # arity mismatch
    ],
)
def test_parse_facts_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_facts(bad)


def test_parse_ground_atoms_registers_constants(coauthor_kb):
    targets = parse_ground_atoms("CoAuthor(eve, ann).\n", coauthor_kb, False)
    assert targets.predicate == "CoAuthor"
    ids = [coauthor_kb.constant_id("eve"), coauthor_kb.constant_id("ann")]
    assert targets.ids.tolist() == [ids]
    assert targets.positive.tolist() == [False]
    # eve never appears in a fact but joins the person domain for sampling.
    assert "eve" in coauthor_kb.constants_of_type(PERSON)


def test_parse_ground_atoms_unknown_predicate(coauthor_kb):
    with pytest.raises(ParseError):
        parse_ground_atoms("Bogus(a, b).\n", coauthor_kb, True)


def test_targets_are_interned_rows_of_one_predicate(coauthor_kb):
    """Built from name rows, targets intern and register their names, join
    only with targets of their predicate, and decode to their atoms."""
    pos = coauthor_kb.targets("CoAuthor", [("ann", "eve")], True)
    rest = coauthor_kb.targets("CoAuthor", [("bob", "cara"), ("dan", "ann")], [False, True])
    assert pos.ids.tolist() == [[coauthor_kb.constant_id("ann"), coauthor_kb.constant_id("eve")]]
    assert "eve" in coauthor_kb.constants_of_type(PERSON)
    both = pos + rest
    assert coauthor_kb.atom_texts("CoAuthor", both.ids) == [
        "CoAuthor(ann, eve)", "CoAuthor(bob, cara)", "CoAuthor(dan, ann)"
    ]
    assert both.positive.tolist() == [True, False, True]
    assert len(coauthor_kb.targets("CoAuthor", [], True)) == 0
    with pytest.raises(DataError, match="each CoAuthor target needs 2 constants"):
        coauthor_kb.targets("CoAuthor", [("ann", "bob"), ("ann",)], True)
    with pytest.raises(DataError, match="cannot join CoAuthor and Affiliation targets"):
        pos + coauthor_kb.targets("Affiliation", [("ann", "U1")], True)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("CoAuthor(ann, bob).\n\nCoAuthor(ann).\n", "arity mismatch for CoAuthor", 3),
        ("CoAuthor(ann, bob).\nCoAuthor(, cara).\n", "empty argument 1", 2),
        ("CoAuthor(ann, , bob).\n", "empty argument 2", 1),
        # Schemas belong in the facts file, not in an example file.
        ("CoAuthor(ann, bob).\n@predicate Likes(person, person)\n", "malformed example line", 2),
        # One predicate per example file.
        ("CoAuthor(ann, bob).\n\nAffiliation(ann, U1).\n", "Affiliation example among CoAuthor", 3),
        ("% nothing but a comment\n\n", "no example atoms", None),
    ],
)
def test_parse_ground_atoms_error_carries_line_number(coauthor_kb, text, message, line):
    with pytest.raises(ParseError, match=message) as exc_info:
        parse_ground_atoms(text, coauthor_kb, True)
    assert exc_info.value.line == line
