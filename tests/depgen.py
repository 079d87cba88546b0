"""Seeded random instance generators for the test suite.

All generators draw from an explicit ``random.Random`` so every suite is
reproducible.  Formula generation is paired with crude work-bound
estimators for the two team engines; instance generators reject candidate
formulas whose estimated search volume is out of test-suite scale, which
keeps the naive engine (3^|T| covers per split, (2^|A|-1)^|T| functions
per quantifier) usable as a comparison oracle.
"""

from __future__ import annotations

import itertools
import random

from teamcheck import (
    And,
    CNF,
    Const,
    DepAtom,
    Equality,
    Exists,
    Forall,
    Formula,
    Func,
    Or,
    RelAtom,
    Structure,
    Team,
    Var,
    free_variables,
)

TEAM_VARS = ("x", "y", "z")
BOUND_VARS = ("w0", "w1")


def random_structure(
    rng: random.Random, max_size: int = 3, allow_functions: bool = True
) -> Structure:
    size = rng.randint(1, max_size)
    universe = [f"a{i}" for i in range(size)]
    relations = {}
    if rng.random() < 0.9:
        rows = [(e,) for e in universe if rng.random() < 0.5]
        relations["R"] = (1, rows)
    if rng.random() < 0.7:
        rows = [
            (u, v)
            for u in universe
            for v in universe
            if rng.random() < 0.35
        ]
        relations["E"] = (2, rows)
    functions = {}
    if allow_functions and rng.random() < 0.4:
        functions["f"] = (1, {(e,): rng.choice(universe) for e in universe})
    constants = {"c": rng.choice(universe)} if rng.random() < 0.5 else {}
    return Structure(universe, relations, functions, constants)


def random_team(
    rng: random.Random,
    structure: Structure,
    domain: tuple[str, ...],
    max_rows: int = 4,
    allow_empty: bool = True,
) -> Team:
    candidates = list(itertools.product(range(structure.size), repeat=len(domain)))
    low = 0 if allow_empty else 1
    count = rng.randint(low, min(max_rows, len(candidates)))
    return Team(domain, frozenset(rng.sample(candidates, count)))


def random_term(rng: random.Random, structure: Structure, pool: list[str]):
    roll = rng.random()
    if roll < 0.12 and "f" in structure.functions:
        return Func("f", (Var(rng.choice(pool)),))
    if roll < 0.24 and "c" in structure.constants:
        return Const("c")
    return Var(rng.choice(pool))


def random_atom(
    rng: random.Random, structure: Structure, pool: list[str], allow_dep: bool
) -> Formula:
    kinds = ["eq"]
    if structure.relations:
        kinds += ["rel", "rel"]
    if allow_dep:
        kinds += ["dep", "dep"]
    kind = rng.choice(kinds)
    if kind == "eq":
        return Equality(random_term(rng, structure, pool), random_term(rng, structure, pool))
    if kind == "rel":
        name = rng.choice(sorted(structure.relations))
        arity = structure.vocabulary().relations[name]
        args = tuple(random_term(rng, structure, pool) for _ in range(arity))
        return RelAtom(name, args, negated=rng.random() < 0.3)
    antecedent = tuple(
        random_term(rng, structure, pool) for _ in range(rng.randint(0, 2))
    )
    consequent = tuple(
        random_term(rng, structure, pool) for _ in range(rng.randint(1, 2))
    )
    return DepAtom(antecedent, consequent)


def random_formula(
    rng: random.Random,
    structure: Structure,
    pool: list[str],
    depth: int,
    allow_dep: bool = True,
    allow_quant: bool = True,
) -> Formula:
    if depth <= 0 or rng.random() < 0.35:
        return random_atom(rng, structure, pool, allow_dep)
    kinds = ["and", "or", "or"]
    if allow_quant:
        kinds += ["exists", "forall"]
    kind = rng.choice(kinds)
    if kind in ("and", "or"):
        left = random_formula(rng, structure, pool, depth - 1, allow_dep, allow_quant)
        right = random_formula(rng, structure, pool, depth - 1, allow_dep, allow_quant)
        return And(left, right) if kind == "and" else Or(left, right)
    fresh = [v for v in BOUND_VARS if v not in pool]
    if fresh and rng.random() < 0.8:
        var = fresh[0]
    else:
        var = rng.choice(pool)
    body = random_formula(
        rng, structure, pool + ([var] if var not in pool else []), depth - 1,
        allow_dep, allow_quant,
    )
    return Exists(var, body) if kind == "exists" else Forall(var, body)


def close_formula(rng: random.Random, formula: Formula) -> Formula:
    """Quantify away every free variable, turning the formula into a sentence."""
    for var in sorted(free_variables(formula)):
        formula = Exists(var, formula) if rng.random() < 0.5 else Forall(var, formula)
    return formula


# --- engine work-bound estimators --------------------------------------------

def naive_cost_bound(formula: Formula, team_size: int, universe_size: int) -> int:
    if isinstance(formula, (Equality, RelAtom, DepAtom)):
        return team_size * team_size + 1
    if isinstance(formula, And):
        return (
            1
            + naive_cost_bound(formula.left, team_size, universe_size)
            + naive_cost_bound(formula.right, team_size, universe_size)
        )
    if isinstance(formula, Or):
        inner = naive_cost_bound(
            formula.left, team_size, universe_size
        ) + naive_cost_bound(formula.right, team_size, universe_size)
        return 1 + 3**team_size * (inner + 2)
    grown = team_size * universe_size
    if isinstance(formula, Forall):
        return 1 + naive_cost_bound(formula.body, grown, universe_size)
    functions = max(2**universe_size - 1, 1) ** team_size
    return 1 + functions * (naive_cost_bound(formula.body, grown, universe_size) + 1)


def optimized_cost_bound(formula: Formula, team_size: int, universe_size: int) -> int:
    if isinstance(formula, (Equality, RelAtom, DepAtom)):
        return team_size + 1
    if isinstance(formula, And):
        return (
            1
            + optimized_cost_bound(formula.left, team_size, universe_size)
            + optimized_cost_bound(formula.right, team_size, universe_size)
        )
    if isinstance(formula, Or):
        inner = optimized_cost_bound(
            formula.left, team_size, universe_size
        ) + optimized_cost_bound(formula.right, team_size, universe_size)
        return 1 + 2**team_size * (inner + 2)
    if isinstance(formula, Forall):
        return 1 + optimized_cost_bound(
            formula.body, team_size * universe_size, universe_size
        )
    branches = universe_size**team_size
    return 1 + branches * (
        optimized_cost_bound(formula.body, team_size, universe_size) + 1
    )


def random_instance(
    rng: random.Random,
    allow_dep: bool = True,
    allow_quant: bool = True,
    max_universe: int = 3,
    max_rows: int = 4,
    allow_empty_team: bool = True,
    depth: int = 3,
    cost: str = "optimized",
    cost_cap: int = 200_000,
    close: bool = False,
) -> tuple[Structure, Team, Formula]:
    """A structure, a team, and a formula whose free variables the team binds."""
    while True:
        structure = random_structure(rng, max_universe)
        width = rng.randint(1, len(TEAM_VARS))
        domain = TEAM_VARS[:width]
        team = random_team(rng, structure, domain, max_rows, allow_empty_team)
        formula = random_formula(
            rng, structure, list(domain), depth, allow_dep, allow_quant
        )
        if close:
            formula = close_formula(rng, formula)
        bound_fn = naive_cost_bound if cost == "naive" else optimized_cost_bound
        if bound_fn(formula, max(len(team), 1), structure.size) <= cost_cap:
            return structure, team, formula


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    clauses = []
    for _ in range(num_clauses):
        clause = tuple(
            rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(3)
        )
        clauses.append(clause)
    return CNF(num_vars, tuple(clauses))


def random_pdl(rng: random.Random, props: tuple[str, ...], depth: int):
    """A PDL formula: a formula over {TRUE/1} whose variables are `props`."""
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.5:
            prop = Var(rng.choice(props))
            return RelAtom("TRUE", (prop,), negated=rng.random() < 0.4)
        antecedent = tuple(
            Var(rng.choice(props)) for _ in range(rng.randint(0, min(2, len(props))))
        )
        consequent = tuple(Var(rng.choice(props)) for _ in range(rng.randint(1, 2)))
        return DepAtom(antecedent, consequent)
    left = random_pdl(rng, props, depth - 1)
    right = random_pdl(rng, props, depth - 1)
    return And(left, right) if rng.random() < 0.5 else Or(left, right)
