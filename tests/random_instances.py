"""Random small grounding instances for oracle-equivalence checks.

Kept deliberately tiny (few types, few constants) so the brute-force
cross-product oracle stays tractable.
"""

import numpy as np

from relgcn.grounding import Clause
from relgcn.kb import Atom, Constant, KnowledgeBase, PredicateSchema, Variable


def random_kb(
    rng: np.random.Generator, max_constants: int = 6, max_predicates: int = 3
) -> tuple[KnowledgeBase, dict[str, list[str]], list[PredicateSchema], list[tuple[str, tuple]]]:
    """A random kb over at most two entity types with a binary target
    predicate ``Tgt`` of the first type: the kb, its constants by type (the
    target type first; only types some predicate has), its other schemas
    and the facts added, in order."""
    types = ["ta", "tb"][: int(rng.integers(1, 3))]
    constants = {
        t: [f"{t}{i}" for i in range(int(rng.integers(2, max_constants + 1)))]
        for t in types
    }
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("Tgt", (types[0], types[0])))

    n_preds = int(rng.integers(1, max_predicates + 1))
    schemas = []
    for p in range(n_preds):
        arity = int(rng.integers(1, 3))
        arg_types = tuple(types[int(rng.integers(len(types)))] for _ in range(arity))
        schema = PredicateSchema(f"P{p}", arg_types)
        kb.declare_schema(schema)
        schemas.append(schema)

    # Each constant enters its type's domain through a target batch of a
    # predicate with that type, which adds no fact; a type no predicate
    # has gets no domain.
    declared = [kb.schema("Tgt"), *schemas]
    constants = {
        t: names for t, names in constants.items() if any(t in s.arg_types for s in declared)
    }
    for schema in declared:
        width = max(len(constants[t]) for t in schema.arg_types)
        rows = [
            tuple(constants[t][j % len(constants[t])] for t in schema.arg_types)
            for j in range(width)
        ]
        kb.targets(schema.name, rows, True)

    facts = []
    for schema in schemas:
        # Random subset of the full tuple space, density around a half.
        domain_sizes = [len(constants[t]) for t in schema.arg_types]
        total = int(np.prod(domain_sizes))
        n_facts = int(rng.integers(0, total + 1))
        chosen = rng.choice(total, size=n_facts, replace=False)
        for flat in chosen:
            args = []
            rem = int(flat)
            for t, size in zip(schema.arg_types, domain_sizes):
                args.append(constants[t][rem % size])
                rem //= size
            kb.add_fact(schema.name, args)
            facts.append((schema.name, tuple(args)))
    return kb, constants, schemas, facts


def random_instance(
    rng: np.random.Generator,
    max_constants: int = 6,
    max_predicates: int = 3,
    max_body: int = 3,
) -> tuple[KnowledgeBase, Clause, tuple[str, str]]:
    """A random kb, a clause and the constant names of a ground target of
    ``Tgt``, over at most two entity types."""
    kb, constants, schemas, _ = random_kb(rng, max_constants, max_predicates)
    target_type = next(iter(constants))
    head = Atom("Tgt", (Variable("x1"), Variable("x2")))
    head_vars = {"x1": target_type, "x2": target_type}
    body = []
    var_pool = dict(head_vars)
    for b in range(int(rng.integers(0, max_body + 1))):
        schema = schemas[int(rng.integers(len(schemas)))]
        args = []
        for t in schema.arg_types:
            same_type = [v for v, vt in var_pool.items() if vt == t]
            roll = rng.random()
            if roll < 0.4 and same_type:
                args.append(Variable(same_type[int(rng.integers(len(same_type)))]))
            elif roll < 0.7:
                fresh = f"v{b}_{len(args)}"
                var_pool[fresh] = t
                args.append(Variable(fresh))
            else:
                name = constants[t][int(rng.integers(len(constants[t])))]
                args.append(Constant(name, t))
        body.append(Atom(schema.name, tuple(args)))
    clause = Clause(head, tuple(body))

    pool = constants[target_type]
    target = (pool[int(rng.integers(len(pool)))], pool[int(rng.integers(len(pool)))])
    return kb, clause, target
