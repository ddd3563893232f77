"""Knowledge-base storage and the line-oriented text format."""

import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from relgcn.errors import DataError, ParseError
from relgcn.kb import (
    Atom,
    KnowledgeBase,
    PredicateSchema,
    parse_facts,
    parse_ground_atoms,
)

from conftest import PERSON, TOPIC, UNIVERSITY
from oracles import (
    FactSetOracle,
    has_fact,
    parse_facts_line_by_line,
    parse_ground_atoms_line_by_line,
)
from random_instances import random_kb


def test_schema_requires_positive_arity():
    with pytest.raises(DataError):
        PredicateSchema("Nullary", ())


def test_atom_str_roundtrips_visually():
    atom = Atom("Affiliation", ("p1", "u1"))
    assert str(atom) == "Affiliation(p1, u1)"


def _fact_total(kb) -> int:
    """The number of distinct facts of every predicate of ``kb``."""
    return sum(len(kb.fact_array(p)) for p in kb.schemas)


def test_add_fact_dedup_and_domains(coauthor_kb):
    before = len(coauthor_kb.fact_array("Affiliation"))
    coauthor_kb.add_fact("Affiliation", ("ann", "U1"))
    assert len(coauthor_kb.fact_array("Affiliation")) == before
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
        assert len(kb.fact_array(predicate)) == oracle.fact_count(predicate)
    assert _fact_total(kb) == oracle.fact_count()
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
        literal = Atom(schema.name, tuple(f"v{p}" for p in range(schema.arity)))
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
    assert _fact_total(reparsed) == oracle.fact_count()


def test_duplicate_facts_count_once():
    kb = parse_facts("@predicate Likes(person, person)\nLikes(a, b).\nLikes(a, b).\n")
    kb.add_fact("Likes", ("a", "b"))
    kb.add_fact("Likes", ("b", "a"))
    assert len(kb.fact_array("Likes")) == 2
    assert kb.fact_array("Likes").shape == (2, 2)
    assert kb.to_text() == "@predicate Likes(person, person)\nLikes(a, b).\nLikes(b, a).\n"


def test_has_fact_closed_world(coauthor_kb):
    assert has_fact(coauthor_kb, "Affiliation", ("ann", "U1"))
    assert not has_fact(coauthor_kb, "Affiliation", ("ann", "U2"))


def test_unknown_predicate_and_type_raise(coauthor_kb):
    with pytest.raises(DataError):
        coauthor_kb.schema("Nope")
    with pytest.raises(DataError):
        coauthor_kb.constants_of_type("vehicle")


def test_parse_facts_roundtrip(coauthor_kb):
    text = coauthor_kb.to_text()
    kb2 = parse_facts(text)
    assert kb2.to_text() == text
    assert _fact_total(kb2) == _fact_total(coauthor_kb)


LIKES = "@predicate Likes(person, person)\n"


@pytest.mark.parametrize(
    "text, facts",
    [
        pytest.param(
            "\n    % a comment-only line\n    " + LIKES + "\n    Likes(a, b).  % trailing comment\n",
            ["Likes(a, b)."],
            id="comments-and-blank-lines",
        ),
        pytest.param(
            (LIKES + "Likes(a, b).\nLikes(b, c).\n").replace("\n", "\r\n"),
            ["Likes(a, b).", "Likes(b, c)."],
            id="crlf",
        ),
        pytest.param(
            (LIKES + "Likes(a, b).\nLikes(b, c)").replace("\n", "\r") + ".\r",
            ["Likes(a, b).", "Likes(b, c)."],
            id="lone-cr",
        ),
        pytest.param(LIKES + "Likes(\ta,\xa0b\xa0).\n", ["Likes(a, b)."], id="tab-nbsp-around"),
        pytest.param(
            LIKES + "Likes(a\tx, b\xa0y).\n", ["Likes(a\tx, b\xa0y)."], id="tab-nbsp-inside"
        ),
        pytest.param(
            LIKES + "Likes(a, b). % comment (with parens)\n", ["Likes(a, b)."],
            id="comment-with-parens",
        ),
    ],
)
def test_parse_facts_comments_and_blank_lines(text, facts):
    """Blank and comment-only lines are skipped, a comment may follow a
    fact, any line end ends a line, and blanks around an argument are
    dropped while blanks inside it are kept."""
    kb = parse_facts(text)
    assert kb.to_text() == LIKES + "".join(f"{fact}\n" for fact in facts)
    assert kb.to_text() == parse_facts_line_by_line(text).to_text()


@pytest.mark.parametrize(
    "text, message, line",
    [
        (LIKES + "Likes(a b).\n", "arity mismatch for Likes: got 1, expected 2", 2),
        (LIKES + "Likes(a%b, c).\n", "malformed fact line: 'Likes(a%b, c).'", 2),
        (LIKES + "Likes().\n", "arity mismatch for Likes: got 0, expected 2", 2),
        ("Likes(a, b).\n" + LIKES, "unknown predicate 'Likes' in fact", 1),
        (LIKES + "Likes(a, b).\r\nLikes(b).\r\n", "arity mismatch for Likes: got 1, expected 2", 3),
    ],
    ids=["no-comma", "percent-inside", "no-arguments", "before-its-schema", "crlf"],
)
def test_parse_facts_error_carries_line_number(text, message, line):
    for parse in (parse_facts, parse_facts_line_by_line):
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert (exc_info.value.msg, exc_info.value.line) == (message, line)


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
        ("CoAuthor(ann%x, bob).\n", "malformed example line", 1),
        ("CoAuthor(ann, bob).\r\nCoAuthor().\r\n", "arity mismatch for CoAuthor: got 0", 2),
    ],
)
def test_parse_ground_atoms_error_carries_line_number(coauthor_kb, text, message, line):
    with pytest.raises(ParseError, match=message) as exc_info:
        parse_ground_atoms(text, coauthor_kb, True)
    assert exc_info.value.line == line


# -- parsing against the per-line reference --------------------------------

_SOUP_SCHEMAS = ["Likes(person, person)", "At(person, place)", "Tag(place)"]
_BLANKS = ["", "", " ", "  ", "\t", "\xa0", " "]
_NAMES = ["a", "b", "c1", "Zoë", "x y", "p\tq", "d-2", "e.f", "'g'"]
_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", " "]


def _soup_fact(rng, predicate: str, arity: int, noise: float) -> str:
    """A fact line of ``predicate`` with ``arity`` arguments, blanks here
    and there, and with probability ``noise`` a flaw the per-line branch
    may or may not refuse."""

    def pick(options):
        return options[int(rng.integers(len(options)))]

    args = [pick(_BLANKS) + pick(_NAMES) + pick(_BLANKS) for _ in range(arity)]
    if rng.random() < noise:
        flaw = int(rng.integers(6))
        if flaw == 0:
            args.append(pick(_NAMES))  # one argument too many
        elif flaw == 1:
            args[int(rng.integers(arity))] = pick(_BLANKS)  # an empty argument
        elif flaw == 2:
            args[0] = "%" + args[0]  # a comment inside the parentheses
        elif flaw == 3:
            args[-1] += "(" if rng.random() < 0.5 else ")"
        elif flaw == 4:
            predicate = pick(["Nope", "@predicate", "Likes Likes", ""])
        else:
            args = [] if rng.random() < 0.5 else [" "]
    line = pick(_BLANKS) + predicate + pick(_BLANKS) + "(" + ",".join(args) + ")"
    line += pick(_BLANKS) + ("." if rng.random() > noise / 2 else "") + pick(_BLANKS)
    if rng.random() < 0.2:
        line += "% a comment" + pick(["", " (with parens)", " % twice", "."])
    return line


def _line_soup(rng, schemas: list[str], declare: bool) -> str:
    """Random lines of fact-line syntax: mostly facts of ``schemas``, some
    blank or comment-only, with ``declare`` also schema declarations (now
    and then after the facts that need them, or conflicting), joined by
    mixed line ends or now and then a blank that runs two lines together."""
    noise = float(rng.choice([0.0, 0.01, 0.05, 0.2]))
    lines = []
    for _ in range(int(rng.integers(1, 40))):
        roll = rng.random()
        schema = schemas[int(rng.integers(len(schemas)))]
        name, types = schema[:-1].split("(")
        if declare and roll < 0.1:
            if rng.random() < noise:
                types = "person, topic"  # conflicting, or a new arity
            lines.append(f"@predicate {name}({types})")
        elif roll < 0.2:
            lines.append(["", " \t", "% only a comment (here)", "   % indented"][int(rng.integers(4))])
        else:
            lines.append(_soup_fact(rng, name, types.count(",") + 1, noise))
    ends = [_ENDS[int(rng.integers(len(_ENDS)))] for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(parse, *args):
    """What ``parse(*args)`` returns, or its ParseError's message and line."""
    try:
        result = parse(*args)
    except ParseError as exc:
        return ("error", exc.msg, exc.line)
    return result


def _kb_state(kb: KnowledgeBase):
    """A kb's text, its ids in order, its fact ids and its domains."""
    domains = {t: sorted(names) for t, names in kb._domains.items()}
    return kb.to_text(), list(kb._ids), kb._fact_ids, domains


@pytest.mark.parametrize("seed", range(4))
def test_parse_facts_matches_the_per_line_reference_on_line_soups(seed):
    """On random line soups, the KB `parse_facts` builds, with its id order
    and domains, or its ParseError's message and line, is that of the
    reference loop that reads every line through the per-line branch."""
    rng = np.random.default_rng(seed)
    parsed = errors = 0
    for _ in range(150):
        declared = "".join(f"@predicate {s}\n" for s in _SOUP_SCHEMAS)
        text = declared + _line_soup(rng, _SOUP_SCHEMAS, declare=True)
        got, want = _outcome(parse_facts, text), _outcome(parse_facts_line_by_line, text)
        if isinstance(want, tuple):
            errors += 1
            assert got == want
        else:
            parsed += 1
            assert _kb_state(got) == _kb_state(want)
    assert parsed > 20 and errors > 20


@pytest.mark.parametrize("seed", range(4))
def test_parse_ground_atoms_matches_the_per_line_reference_on_line_soups(seed):
    """On random example soups, `parse_ground_atoms` gives the targets, and
    leaves the kb's ids and domains, of the per-line reference loop, or
    the same ParseError message and line."""
    rng = np.random.default_rng(100 + seed)
    schemas = "".join(f"@predicate {s}\n" for s in _SOUP_SCHEMAS) + "Likes(a, b).\nTag(c1).\n"
    parsed = errors = 0
    for _ in range(150):
        # Mostly one predicate, as an example file holds.
        one = [_SOUP_SCHEMAS[int(rng.integers(len(_SOUP_SCHEMAS)))]]
        text = _line_soup(rng, one if rng.random() < 0.9 else _SOUP_SCHEMAS, declare=False)
        outcomes = []
        for parse in (parse_ground_atoms, parse_ground_atoms_line_by_line):
            kb = parse_facts(schemas)
            got = _outcome(parse, text, kb, True)
            if not isinstance(got, tuple):
                got = (got.predicate, got.ids.tolist(), got.positive.tolist(), _kb_state(kb))
            outcomes.append(got)
        assert outcomes[0] == outcomes[1]
        if outcomes[0][0] == "error":
            errors += 1
        else:
            parsed += 1
    assert parsed > 20 and errors > 20


def test_parse_facts_peaks_no_higher_than_the_per_line_reference():
    """Parsing the benchmark's wide facts file (10,482 lines) holds no more
    memory at its peak than the per-line reference loop, which keeps
    every stripped argument: the argument texts are split and stripped in
    place, one predicate at a time."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))
    text, _ = workloads["topics_inputs"](workloads["TopicsSpec"](), workloads["TOPICS_KB_SEED"])
    peaks = []
    for parse in (parse_facts, parse_facts_line_by_line):
        tracemalloc.start()
        try:
            kb = parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert _fact_total(kb) > 10_000
    assert peaks[0] <= peaks[1]
