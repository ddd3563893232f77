"""Typed first-order knowledge bases: schemas, ground facts, parsing.

Facts are stored as a set of constant-name tuples per predicate; there is
no per-position index.  Joins run set-at-a-time on int arrays instead:
constants are interned to ints on first use, and each predicate's facts
are kept as an int array of those ids, built on first use and rebuilt
once the predicate has gained facts.  A KnowledgeBase is treated as
immutable once loading is finished; nothing enforces a freeze, but no
operation in this package mutates a kb after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

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


class KnowledgeBase:
    """Schemas plus a ground-fact store with typed constant domains."""

    def __init__(self):
        self.schemas: dict[str, PredicateSchema] = {}
        # predicate -> set of constant-name tuples
        self._facts: dict[str, set[tuple[str, ...]]] = {}
        # type -> set of constant names
        self._domains: dict[str, set[str]] = {}
        # constant name -> int id, assigned on first use
        self._ids: dict[str, int] = {}
        # predicate -> (facts, arity) int array of constant ids, built lazily
        self._arrays: dict[str, np.ndarray] = {}

    # -- construction -----------------------------------------------------

    def declare_schema(self, schema: PredicateSchema) -> None:
        existing = self.schemas.get(schema.name)
        if existing is not None and existing != schema:
            raise DataError(f"conflicting schema for predicate {schema.name!r}")
        self.schemas[schema.name] = schema
        self._facts.setdefault(schema.name, set())
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
        tup = tuple(args)
        if len(tup) != schema.arity:
            raise DataError(
                f"arity mismatch for {predicate}: got {len(tup)}, "
                f"expected {schema.arity}"
            )
        if tup in self._facts[predicate]:
            return
        self._facts[predicate].add(tup)
        for pos, const in enumerate(tup):
            self._domains.setdefault(schema.arg_types[pos], set()).add(const)

    # -- queries ----------------------------------------------------------

    def has_fact(self, atom: Atom) -> bool:
        """Closed-world membership test for a ground atom."""
        return atom.constant_names() in self._facts.get(atom.predicate, set())

    def fact_count(self, predicate: str | None = None) -> int:
        if predicate is not None:
            return len(self._facts.get(predicate, set()))
        return sum(len(s) for s in self._facts.values())

    def constant_id(self, name: str) -> int:
        """The int id of a constant name, assigned on first use, so a name
        that is in no fact matches no row of a fact array."""
        return self._ids.setdefault(name, len(self._ids))

    def fact_array(self, predicate: str) -> np.ndarray:
        """The facts of `predicate` as a (facts, arity) int array of constant
        ids, in no particular row order."""
        arity = self.schema(predicate).arity
        facts = self._facts[predicate]
        arr = self._arrays.get(predicate)
        # Facts are only ever added, so an array of another length is stale.
        if arr is None or len(arr) != len(facts):
            ids = self._ids
            arr = np.array(
                [[ids.setdefault(c, len(ids)) for c in tup] for tup in facts],
                dtype=np.int64,
            ).reshape(-1, arity)
            self._arrays[predicate] = arr
        return arr

    def constants_of_type(self, type_name: str) -> set[str]:
        try:
            return self._domains[type_name]
        except KeyError:
            raise DataError(f"unknown type {type_name!r}") from None

    def types(self) -> set[str]:
        return set(self._domains)

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        """Serialize schemas and facts in the line-oriented external format."""
        lines = []
        for name in sorted(self.schemas):
            schema = self.schemas[name]
            lines.append(f"@predicate {name}({', '.join(schema.arg_types)})")
        for name in sorted(self._facts):
            for tup in sorted(self._facts[name]):
                lines.append(f"{name}({', '.join(tup)}).")
        return "\n".join(lines) + "\n"


_SCHEMA_RE = re.compile(r"^@predicate\s+(\w+)\s*\(\s*([\w\s,]*?)\s*\)\s*$")
_FACT_RE = re.compile(r"^(\w+)\s*\(\s*([^()]*?)\s*\)\s*\.\s*$")


def _strip_comment(line: str) -> str:
    i = line.find("%")
    return line if i < 0 else line[:i]


def parse_facts(text: str, kb: KnowledgeBase | None = None) -> KnowledgeBase:
    """Parse schema declarations and fact lines into a KnowledgeBase.

    Duplicate facts are deduplicated; constants are registered into the
    typed domains given by their schema positions.
    """
    if kb is None:
        kb = KnowledgeBase()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("@predicate"):
            m = _SCHEMA_RE.match(line)
            if m is None:
                raise ParseError(f"malformed schema declaration: {raw!r}", lineno)
            name, args = m.group(1), m.group(2)
            types = tuple(t.strip() for t in args.split(",") if t.strip())
            if not types:
                raise ParseError(f"schema {name!r} declares no argument types", lineno)
            kb.declare_schema(PredicateSchema(name, types))
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"malformed fact line: {raw!r}", lineno)
        name, args = m.group(1), m.group(2)
        if name not in kb.schemas:
            raise ParseError(f"unknown predicate {name!r} in fact", lineno)
        consts = tuple(c.strip() for c in args.split(",") if c.strip())
        schema = kb.schemas[name]
        if len(consts) != schema.arity:
            raise ParseError(
                f"arity mismatch for {name}: got {len(consts)}, "
                f"expected {schema.arity}",
                lineno,
            )
        kb.add_fact(name, consts)
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
        name, args = m.group(1), m.group(2)
        schema = kb.schemas.get(name)
        if schema is None:
            raise ParseError(f"unknown predicate {name!r} in example", lineno)
        consts = tuple(c.strip() for c in args.split(",") if c.strip())
        if len(consts) != schema.arity:
            raise ParseError(
                f"arity mismatch for {name}: got {len(consts)}, "
                f"expected {schema.arity}",
                lineno,
            )
        for pos, c in enumerate(consts):
            kb.register_constant(schema.arg_types[pos], c)
        atoms.append(
            Atom(name, tuple(Constant(c, schema.arg_types[i]) for i, c in enumerate(consts)))
        )
    return atoms
