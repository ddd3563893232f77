"""Typed first-order knowledge bases: schemas, ground facts, parsing.

Facts are stored as interned ids only.  Each constant name gets an int
id on first use (`constant_id`), and each predicate keeps the ids of its
facts in the order they were added, duplicates included.  Joins run set-at-a-time
on int arrays: `fact_array` is a predicate's distinct facts as a
(facts, arity) array of ids, deduplicated on first use and again once
the predicate has gained facts.  Each fact pattern that a join uses has
a `JoinIndex`: the facts consistent with the pattern, sorted by their
join key.  It is built on first use and rebuilt once the predicate's
distinct fact count has changed, so the candidate literals of a rule
search share a handful of sorts, and a duplicate fact rebuilds nothing.
The typed domains stay sets of names, for sampling and for the
constants a literal may name; `to_text` decodes the ids.

Loading fills a kb.  The pipeline adds no fact after that, but interning
(`constant_id`) and `register_constant` (target files may name entities
that no fact mentions) still change it; a new id or domain member leaves
every array and index valid.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterable, Sequence

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
class Constant:
    name: str
    type: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Constant | Variable

@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def variables(self) -> list[Variable]:
        return [a for a in self.args if isinstance(a, Variable)]

    def constant_names(self) -> tuple[str, ...]:
        if not self.is_ground():
            raise DataError(f"atom {self} is not ground")
        return tuple(a.name for a in self.args)

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"


# A literal's fact pattern: one token per argument.  ("const", id) needs
# that constant, ("same", p) the value at an earlier position p, BOUND a
# value a binding table supplies (the join key, in argument order) and
# FRESH any value.
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
                kind, value = token
                keep &= facts[:, pos] == (value if kind == "const" else facts[:, value])
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

    def key_codes(self, keys: np.ndarray) -> np.ndarray:
        """The codes of (r, k) key rows, coded as the facts' keys are: equal
        to a fact's code exactly where the keys are equal, and -1 where a
        row holds an id at or above the radix or a re-ranked prefix that no
        fact has."""
        codes = np.zeros(len(keys), dtype=np.int64)
        miss = (keys >= self.radix).any(axis=1)
        for j, column in enumerate(keys.T):
            if j in self.rerank:
                codes, found = _find(self.rerank[j], codes)
                miss |= ~found
            codes = codes * self.radix + column
        codes[miss] = -1
        return codes

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Per (r, k) key row, whether some fact has that key."""
        if self.member is not None:
            return self.member[np.minimum(keys[:, 0], self.radix)]
        return _find(self.codes, self.key_codes(keys))[1]

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

    def register_constant(self, type_name: str, name: str) -> None:
        """Register a constant into a typed domain (used for example-only entities)."""
        self._domains.setdefault(type_name, set()).add(name)

    def add_fact(self, predicate: str, args: Iterable[str]) -> None:
        schema = self.schema(predicate)
        names = tuple(args)
        if len(names) != schema.arity:
            raise DataError(
                f"arity mismatch for {predicate}: got {len(names)}, "
                f"expected {schema.arity}"
            )
        self._append(schema, names)

    def _append(self, schema: PredicateSchema, names: Sequence[str]) -> None:
        """Intern ``names``, the arguments of facts of `schema` one fact
        after another, append their ids and register each name into its
        position's domain; a duplicate fact is dropped by `fact_array`."""
        ids = self._ids
        for name in dict.fromkeys(names):
            ids.setdefault(name, len(ids))
        self._fact_ids[schema.name].extend(map(ids.__getitem__, names))
        for pos, t in enumerate(schema.arg_types):
            self._domains[t].update(names[pos :: schema.arity])

    # -- queries ----------------------------------------------------------

    def fact_count(self, predicate: str | None = None) -> int:
        """The number of distinct facts of `predicate`, or of every predicate."""
        if predicate is not None:
            return len(self.fact_array(predicate))
        return sum(len(self.fact_array(p)) for p in self.schemas)

    def constant_id(self, name: str) -> int:
        """The int id of a constant name, assigned on first use, so a name
        that is in no fact matches no row of a fact array."""
        return self._ids.setdefault(name, len(self._ids))

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
        for pos, term in enumerate(literal.args):
            if isinstance(term, Constant):
                pattern.append(("const", self.constant_id(term.name)))
            elif term.name in first:
                # A variable repeated in the literal takes one value.
                pattern.append(("same", first[term.name]))
            else:
                first[term.name] = pos
                pattern.append(BOUND if term.name in bound else FRESH)
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

    def to_text(self) -> str:
        """Serialize schemas and facts in the line-oriented external
        format, facts sorted by predicate and then by their names."""
        names = list(self._ids)  # id -> name
        lines = []
        for name in sorted(self.schemas):
            schema = self.schemas[name]
            lines.append(f"@predicate {name}({', '.join(schema.arg_types)})")
        for name in sorted(self.schemas):
            facts = [tuple(names[i] for i in row) for row in self.fact_array(name).tolist()]
            lines.extend(f"{name}({', '.join(tup)})." for tup in sorted(facts))
        return "\n".join(lines) + "\n"


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D int array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new]


_SCHEMA_RE = re.compile(r"^@predicate\s+(\w+)\s*\(\s*([\w\s,]*?)\s*\)\s*$")
_FACT_RE = re.compile(r"^(\w+)\s*\(\s*([^()]*?)\s*\)\s*\.\s*$")


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


def parse_facts(text: str, kb: KnowledgeBase | None = None) -> KnowledgeBase:
    """Parse schema declarations and fact lines into a KnowledgeBase.

    The arguments of each predicate's facts are gathered as they are
    read, then interned and registered into the typed domains of their
    schema positions in one pass per predicate; duplicate facts are
    dropped when the facts are first read as an array.  An empty argument
    or a redeclaration of a predicate with other argument types is a
    ParseError at its line.
    """
    if kb is None:
        kb = KnowledgeBase()
    read: dict[str, list[str]] = {}  # predicate -> the arguments of its facts, flat
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("@predicate"):
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
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed fact line: {raw!r}", lineno)
        schema, names = _read_atom(m.group(1), m.group(2), kb, lineno, "fact")
        read.setdefault(schema.name, []).extend(names)
    for name, names in read.items():
        kb._append(kb.schemas[name], names)
    return kb


def parse_ground_atoms(text: str, kb: KnowledgeBase) -> list[Atom]:
    """Parse an example file: one ground atom per line in fact-line syntax.

    Constants are registered into the kb's typed domains even when they
    never appear in facts (targets may mention attribute-free entities).
    """
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed example line: {raw!r}", lineno)
        schema, consts = _read_atom(m.group(1), m.group(2), kb, lineno, "example")
        args = tuple(Constant(c, t) for t, c in zip(schema.arg_types, consts))
        for a in args:
            kb.register_constant(a.type, a.name)
        atoms.append(Atom(schema.name, args))
    return atoms
