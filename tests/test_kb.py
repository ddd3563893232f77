"""Knowledge-base storage and the line-oriented text format."""

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


def test_schema_requires_positive_arity():
    with pytest.raises(DataError):
        PredicateSchema("Nullary", ())


def test_atom_ground_and_variables():
    ground = Atom("P", (Constant("a", "t"), Constant("b", "t")))
    open_atom = Atom("P", (Constant("a", "t"), Variable("x")))
    assert ground.is_ground()
    assert ground.constant_names() == ("a", "b")
    assert not open_atom.is_ground()
    assert [v.name for v in open_atom.variables()] == ["x"]
    with pytest.raises(DataError):
        open_atom.constant_names()


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


def test_has_fact_closed_world(coauthor_kb):
    assert coauthor_kb.has_fact(
        Atom("Affiliation", (Constant("ann", PERSON), Constant("U1", UNIVERSITY)))
    )
    assert not coauthor_kb.has_fact(
        Atom("Affiliation", (Constant("ann", PERSON), Constant("U2", UNIVERSITY)))
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
    atoms = parse_ground_atoms("CoAuthor(eve, ann).\n", coauthor_kb)
    assert len(atoms) == 1
    assert atoms[0].is_ground()
    # eve never appears in a fact but joins the person domain for sampling.
    assert "eve" in coauthor_kb.constants_of_type(PERSON)


def test_parse_ground_atoms_unknown_predicate(coauthor_kb):
    with pytest.raises(ParseError):
        parse_ground_atoms("Bogus(a, b).\n", coauthor_kb)
