"""Typed first-order knowledge bases: schemas, ground facts, targets, parsing.

Facts and targets are stored as interned ids only.  Each constant name
gets an int id on first use (`constant_id`), and each predicate keeps the
ids of its facts in the order they were added, duplicates included.
`Targets` are the examples of one predicate as rows of ids with bool
labels, from parse on; `atom_texts` decodes rows.  Joins run set-at-a-time
on int arrays: `fact_array` is a predicate's distinct facts as a
(facts, arity) array of ids, deduplicated on first use and again once
the predicate has gained facts.  Each fact pattern that a join uses has
a `JoinIndex`: the facts consistent with the pattern, sorted by their
join key.  It is built on first use and rebuilt once the predicate's
distinct fact count has changed, so the candidate literals of a rule
search share a handful of sorts, and a duplicate fact rebuilds nothing.
A rule's atoms hold variables only, each a plain name (`Atom.args`), so
a pattern says per argument whether it repeats an earlier one, is bound
or is fresh.  The typed domains stay sets of names, for sampling.

Parsing reads each line once.  One regex matched against the raw line,
``_FACT_LINE_RE``, accepts a fact line as written: blanks anywhere
between its parts, a trailing ``% comment``, and arguments that each
hold a character other than a blank.  A matched line of a declared
predicate whose comma count fits its arity adds its argument text to
that predicate's bucket as it stands.  Every other line (blank, comment,
``@predicate``, an unknown predicate, a wrong arity, anything the regex
refuses) takes the per-line branch, which strips the comment and the
blanks and reads the schema or the atom, so an error keeps its message,
its line and its order.  Once the text is read, each bucket is split at
its commas, stripped and interned in one pass, predicate by predicate in
the order of their first facts; example files take the same per-line
step (`_fact_lines`).  On the benchmark's ``sampled-topics`` facts
(10,482 lines, 2-core VM) a parse takes 15 ms against 24 ms when every
line takes the per-line branch, and its traced peak is 1.65 MiB against
2.06 MiB, since the tokens of one predicate are stripped in place.

Loading fills a kb.  The pipeline adds no fact after that, but interning
target names and registering them into the typed domains (target files
may name entities that no fact mentions) still change it; a new id or
domain member leaves every array and index valid.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, ParseError


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    arg_types: tuple[str, ...]

    def __post_init__(self):
        if len(self.arg_types) < 1:
            raise DataError(f"predicate {self.name!r} must have arity >= 1")

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class Atom:
    """A rule atom: a predicate applied to variables, given by name."""

    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"


@dataclass(frozen=True)
class Targets:
    """Target examples of one predicate, as FOIL's tuples (Quinlan 1990):
    row i of ``ids`` holds the `KnowledgeBase.constant_id`s of example
    i's arguments, and ``positive[i]`` its label."""

    predicate: str
    ids: np.ndarray  # (n, arity) int64
    positive: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return len(self.ids)

    def __add__(self, other: Targets) -> Targets:
        if other.predicate != self.predicate:
            raise DataError(f"cannot join {self.predicate} and {other.predicate} targets")
        ids = np.vstack([self.ids, other.ids])
        return Targets(self.predicate, ids, np.concatenate([self.positive, other.positive]))


# A literal's fact pattern: one token per argument.  ("same", p) needs
# the value at an earlier position p, BOUND a value a binding table
# supplies (the join key, in argument order) and FRESH any value.
BOUND = "bound"
FRESH = "fresh"
Pattern = tuple[tuple[str, int] | str, ...]

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class JoinIndex:
    """The facts of one predicate that agree with a `Pattern`, sorted by
    the code of their key, the values at the BOUND positions.

    A key of width k is coded as a k-digit number in base ``radix``, the
    number of constant ids when the index was built, so an id at or above
    it is in no fact here and a key holding one matches nothing.  When
    the next digit would overflow int64, the code so far is first replaced
    by its dense rank among the facts' codes (``rerank`` keeps those
    sorted codes by key column).  A one-column key also gets ``member``,
    a bool per id below ``radix`` plus one False for every id above, so
    that a semi-join on it is one gather.
    """

    facts: np.ndarray  # (m, arity), sorted by codes
    codes: np.ndarray  # (m,), sorted
    radix: int
    rerank: dict[int, np.ndarray]
    member: np.ndarray | None
    fact_count: int  # of the predicate when built; another count is stale

    @classmethod
    def build(cls, facts: np.ndarray, pattern: Pattern, radix: int) -> JoinIndex:
        keep = np.ones(len(facts), dtype=bool)
        for pos, token in enumerate(pattern):
            if isinstance(token, tuple):
                keep &= facts[:, pos] == facts[:, token[1]]
        kept = facts[keep]
        keys = kept[:, [pos for pos, token in enumerate(pattern) if token == BOUND]]
        codes = np.zeros(len(keys), dtype=np.int64)
        rerank: dict[int, np.ndarray] = {}
        bound = 1  # every code so far is below it
        for j, column in enumerate(keys.T):
            if bound > _INT64_MAX // radix:
                rerank[j] = np.unique(codes)
                codes = np.searchsorted(rerank[j], codes)
                bound = len(rerank[j])
            codes = codes * radix + column
            bound *= radix
        order = np.argsort(codes)
        member = None
        if keys.shape[1] == 1:
            member = np.zeros(radix + 1, dtype=bool)
            member[codes] = True
        return cls(kept[order], codes[order], radix, rerank, member, len(facts))

    def key_codes(self, columns: Sequence[np.ndarray], size: int) -> np.ndarray:
        """The codes of ``size`` key rows, given as one 1-D column of ids
        per key position (none for a key of width 0), coded as the facts'
        keys are: equal to a fact's code exactly where the keys are equal,
        and -1 where a row holds an id at or above the radix or a
        re-ranked prefix that no fact has."""
        codes = np.zeros(size, dtype=np.int64)
        miss = np.zeros(size, dtype=bool)
        for j, column in enumerate(columns):
            miss |= column >= self.radix
            if j in self.rerank:
                codes, found = _find(self.rerank[j], codes)
                miss |= ~found
            codes *= self.radix
            codes += column
        codes[miss] = -1
        return codes

    def contains(self, columns: Sequence[np.ndarray], size: int) -> np.ndarray:
        """Per key row, given as for `key_codes`, whether some fact has
        that key."""
        if self.member is not None:
            return self.member[np.minimum(columns[0], self.radix)]
        return _find(self.codes, self.key_codes(columns, size))[1]

    @property
    def nbytes(self) -> int:
        extra = sum(t.nbytes for t in self.rerank.values())
        if self.member is not None:
            extra += self.member.nbytes
        return self.facts.nbytes + self.codes.nbytes + extra


def _find(ordered: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's insertion point in the sorted array and whether the
    value is there."""
    at = np.searchsorted(ordered, values)
    found = np.zeros(len(values), dtype=bool)
    inside = at < len(ordered)
    found[inside] = ordered[at[inside]] == values[inside]
    return at, found


class KnowledgeBase:
    """Schemas plus a ground-fact store of interned ids, with typed
    constant domains."""

    def __init__(self):
        self.schemas: dict[str, PredicateSchema] = {}
        # predicate -> the ids of its facts, flat, in the order added
        self._fact_ids: dict[str, list[int]] = {}
        # type -> set of constant names
        self._domains: dict[str, set[str]] = {}
        # constant name -> int id, assigned on first use; in id order
        self._ids: dict[str, int] = {}
        # predicate -> (ids read, their distinct facts as an int array), built lazily
        self._arrays: dict[str, tuple[int, np.ndarray]] = {}
        # (predicate, pattern) -> the JoinIndex of that fact pattern, built lazily
        self._join_indexes: dict[tuple[str, Pattern], JoinIndex] = {}

    # -- construction -----------------------------------------------------

    def declare_schema(self, schema: PredicateSchema) -> None:
        existing = self.schemas.get(schema.name)
        if existing is not None and existing != schema:
            raise DataError(
                f"conflicting schema for predicate {schema.name!r}: declared "
                f"({', '.join(existing.arg_types)}), now ({', '.join(schema.arg_types)})"
            )
        self.schemas[schema.name] = schema
        self._fact_ids.setdefault(schema.name, [])
        for t in schema.arg_types:
            self._domains.setdefault(t, set())

    def schema(self, predicate: str) -> PredicateSchema:
        try:
            return self.schemas[predicate]
        except KeyError:
            raise DataError(f"unknown predicate {predicate!r}") from None

    def add_fact(self, predicate: str, args: Iterable[str]) -> None:
        schema = self.schema(predicate)
        names = tuple(args)
        if len(names) != schema.arity:
            raise DataError(
                f"arity mismatch for {predicate}: got {len(names)}, "
                f"expected {schema.arity}"
            )
        self._fact_ids[predicate].extend(self._intern(schema, names))

    def _intern(self, schema: PredicateSchema, names: Sequence[str]) -> list[int]:
        """The ids of ``names``, the arguments of atoms of `schema` one atom
        after another, interned, with each name registered into its
        position's domain.  Appended to a predicate's fact ids they add
        facts; a duplicate fact is dropped by `fact_array`."""
        ids = self._ids
        for name in dict.fromkeys(names):
            ids.setdefault(name, len(ids))
        for pos, t in enumerate(schema.arg_types):
            self._domains[t].update(names[pos :: schema.arity])
        return list(map(ids.__getitem__, names))

    def targets(
        self, predicate: str, rows: Iterable[Sequence[str]], positive: bool | np.ndarray
    ) -> Targets:
        """`Targets` of ``predicate`` from rows of constant names, interned
        and registered into the typed domains (targets may name entities
        that no fact mentions); ``positive`` is every row's label or one
        label per row."""
        schema = self.schema(predicate)
        rows = [tuple(row) for row in rows]
        if any(len(row) != schema.arity for row in rows):
            raise DataError(f"each {predicate} target needs {schema.arity} constants")
        ids = self._intern(schema, [name for row in rows for name in row])
        ids = np.array(ids, dtype=np.int64).reshape(len(rows), schema.arity)
        return Targets(predicate, ids, np.full(len(rows), positive, dtype=bool))

    # -- queries ----------------------------------------------------------

    def constant_id(self, name: str) -> int:
        """The int id of an interned constant name."""
        return self._ids[name]

    def fact_array(self, predicate: str) -> np.ndarray:
        """The distinct facts of `predicate` as a (facts, arity) int array
        of constant ids, in no particular row order."""
        arity = self.schema(predicate).arity
        fact_ids = self._fact_ids[predicate]
        read, arr = self._arrays.get(predicate, (-1, None))
        # Facts are only ever added, so another number of ids is stale.
        if read != len(fact_ids):
            arr = _distinct_rows(np.array(fact_ids, dtype=np.int64).reshape(-1, arity))
            self._arrays[predicate] = (len(fact_ids), arr)
        return arr

    def join_index(
        self, literal: Atom, bound: Container[str]
    ) -> tuple[JoinIndex, list[str], dict[str, int]]:
        """The index of `literal`'s fact pattern when the variables in
        `bound` have values, the variables of its key (the bound ones, in
        argument order) and each other variable's first position.  Built
        on first use and rebuilt once the predicate has gained facts."""
        first: dict[str, int] = {}  # variable -> first position
        pattern: list[tuple[str, int] | str] = []
        for pos, var in enumerate(literal.args):
            if var in first:
                # A variable repeated in the literal takes one value.
                pattern.append(("same", first[var]))
            else:
                first[var] = pos
                pattern.append(BOUND if var in bound else FRESH)
        facts = self.fact_array(literal.predicate)
        key = (literal.predicate, tuple(pattern))
        index = self._join_indexes.get(key)
        if index is None or index.fact_count != len(facts):
            index = JoinIndex.build(facts, key[1], radix=max(len(self._ids), 1))
            self._join_indexes[key] = index
        fresh = {v: pos for v, pos in first.items() if v not in bound}
        return index, [v for v in first if v in bound], fresh

    def join_index_memory(self) -> tuple[int, int]:
        """The number of join indexes the kb holds and their bytes."""
        indexes = self._join_indexes.values()
        return len(indexes), sum(index.nbytes for index in indexes)

    def constants_of_type(self, type_name: str) -> set[str]:
        try:
            return self._domains[type_name]
        except KeyError:
            raise DataError(f"unknown type {type_name!r}") from None

    # -- text format ------------------------------------------------------

    def atom_texts(self, predicate: str, ids: np.ndarray) -> list[str]:
        """``predicate(a, b)`` for each row of constant ids, the names in
        argument order."""
        names = list(self._ids)  # id -> name
        return [f"{predicate}({', '.join(map(names.__getitem__, row))})" for row in ids.tolist()]

    def to_text(self) -> str:
        """Serialize schemas and facts in the line-oriented external
        format, facts sorted by predicate and then by their names."""
        names = list(self._ids)  # id -> name
        lines = []
        for name in sorted(self.schemas):
            schema = self.schemas[name]
            lines.append(f"@predicate {name}({', '.join(schema.arg_types)})")
        for name in sorted(self.schemas):
            facts = sorted(self.fact_array(name).tolist(), key=lambda row: [names[i] for i in row])
            lines.extend(f"{atom}." for atom in self.atom_texts(name, np.array(facts)))
        return "\n".join(lines) + "\n"


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D int array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new]


_SCHEMA_RE = re.compile(r"^@predicate\s+(\w+)\s*\(\s*([\w\s,]*?)\s*\)\s*$")
_FACT_RE = re.compile(r"^(\w+)\s*\(\s*([^()]*?)\s*\)\s*\.\s*$")
# A fact line, matched against the raw line: blanks around its parts, an
# optional ``% comment`` after the full stop, and arguments that each hold
# a character other than a blank, so that every one of them is a name.
_FACT_LINE_RE = re.compile(
    r"\s*(\w+)\s*\(((?:\s*[^\s()%,][^()%,]*,)*\s*[^\s()%,][^()%,]*)\)\s*\.\s*(?:%.*)?"
)


def _strip_comment(line: str) -> str:
    i = line.find("%")
    return line if i < 0 else line[:i]


def _split_args(args: str, name: str, lineno: int) -> list[str]:
    """The comma-separated tokens of ``args``, stripped; an empty token
    (``P(a, , b)``, ``P(a,)``) is a ParseError at ``lineno``."""
    tokens = [t.strip() for t in args.split(",")] if args.strip() else []
    if "" in tokens:
        raise ParseError(
            f"empty argument {tokens.index('') + 1} in {name}({args})", lineno
        )
    return tokens


def _read_atom(
    name: str, args: str, kb: KnowledgeBase, lineno: int, where: str
) -> tuple[PredicateSchema, list[str]]:
    """The schema of ``name`` and the comma-separated tokens of ``args``;
    an unknown predicate, an empty token or a wrong token count is a
    ParseError at ``lineno`` that names the ``where`` line kind."""
    schema = kb.schemas.get(name)
    if schema is None:
        raise ParseError(f"unknown predicate {name!r} in {where}", lineno)
    tokens = _split_args(args, name, lineno)
    if len(tokens) != schema.arity:
        raise ParseError(
            f"arity mismatch for {name}: got {len(tokens)}, expected {schema.arity}",
            lineno,
        )
    return schema, tokens


def _fact_lines(text: str, kb: KnowledgeBase, where: str) -> Iterator[tuple[int, str, str]]:
    """The line number, predicate and argument text of each fact line of
    ``text``, in order, reading each line once.

    A raw line that ``_FACT_LINE_RE`` matches, of a predicate ``kb``
    declares and with one comma fewer than its arity, is a fact line as it
    stands.  Every other line takes the per-line branch: a blank or
    comment-only line is skipped, an ``@predicate`` line of a facts file
    (``where`` is "fact") declares its schema into ``kb``, and any other
    line is read as one atom, whose tokens are yielded comma-joined, or is
    a ParseError at its line that names the ``where`` line kind.
    """
    commas = {name: schema.arity - 1 for name, schema in kb.schemas.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _FACT_LINE_RE.fullmatch(raw)
        if m is not None and commas.get(m[1]) == m[2].count(","):
            yield lineno, m[1], m[2]
            continue
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if where == "fact" and line.startswith("@predicate"):
            m = _SCHEMA_RE.match(line)
            if m is None:
                raise ParseError(f"malformed schema declaration: {raw!r}", lineno)
            name = m.group(1)
            types = _split_args(m.group(2), f"@predicate {name}", lineno)
            if not types:
                raise ParseError(f"schema {name!r} declares no argument types", lineno)
            try:
                kb.declare_schema(PredicateSchema(name, tuple(types)))
            except DataError as exc:
                raise ParseError(str(exc), lineno) from exc
            commas[name] = len(types) - 1
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed {where} line: {raw!r}", lineno)
        schema, names = _read_atom(m.group(1), m.group(2), kb, lineno, where)
        yield lineno, schema.name, ",".join(names)


def _names(args: str) -> list[str]:
    """The comma-separated names of a comma-joined argument text, each
    stripped in place, so no second list of them is held."""
    names = args.split(",")
    for i, name in enumerate(names):
        names[i] = name.strip()
    return names


def parse_facts(text: str) -> KnowledgeBase:
    """Parse schema declarations and fact lines into a KnowledgeBase.

    The argument texts of each predicate's fact lines (`_fact_lines`) are
    gathered as they are read, then split, stripped, interned and
    registered into the typed domains of their schema positions in one
    pass per predicate, in the order of each predicate's first fact;
    duplicate facts are dropped when the facts are first read as an
    array.  An empty argument or a redeclaration of a predicate with
    other argument types is a ParseError at its line.
    """
    kb = KnowledgeBase()
    read: defaultdict[str, list[str]] = defaultdict(list)  # predicate -> argument texts
    for _, name, args in _fact_lines(text, kb, "fact"):
        read[name].append(args)
    for name in list(read):
        names = _names(",".join(read.pop(name)))
        kb._fact_ids[name].extend(kb._intern(kb.schemas[name], names))
    return kb


def parse_ground_atoms(
    text: str, kb: KnowledgeBase, positive: bool | np.ndarray
) -> Targets:
    """Parse an example file, one ground atom per line in fact-line syntax
    (`_fact_lines`) and every atom of one predicate, into `Targets`
    labelled ``positive`` (every atom's label, or one per atom).

    The atoms' names are registered into the kb's typed domains even when
    they never appear in facts (targets may mention attribute-free entities).
    A file without atoms is a ParseError, and so is an atom of another
    predicate than the first atom's, at its line.
    """
    predicate = None
    read = []  # the argument texts of the atoms
    for lineno, name, args in _fact_lines(text, kb, "example"):
        predicate = predicate or name
        if name != predicate:
            raise ParseError(f"{name} example among {predicate} examples", lineno)
        read.append(args)
    if predicate is None:
        raise ParseError("no example atoms")
    names = _names(",".join(read))
    arity = kb.schemas[predicate].arity
    rows = [names[i : i + arity] for i in range(0, len(names), arity)]
    return kb.targets(predicate, rows, positive)
