"""Team-semantics evaluation engines for dependence-logic formulas.

Three engines decide whether a structure and a team satisfy a formula:

- ``naive`` follows the satisfaction clauses literally.  A split
  quantifies over all covers of the team (each row goes left, right, or
  both: 3^|T| cases) and an existential quantifier over all supplementing
  functions into nonempty value sets ((2^|A|-1)^|T| cases).  It is the
  trusted reference engine.
- ``optimized`` restricts the same search to partitions (2^|T|) and to
  singleton-valued supplementing functions (|A|^|T|) and memoizes results
  per (subformula, team).  Both restrictions preserve the answer because
  satisfaction is downward closed (any subteam of a satisfying team
  satisfies the formula); the test suite checks this equivalence against
  ``naive`` instead of assuming it.
- ``fo_tarski`` handles dependence-atom-free formulas by classical
  per-assignment evaluation and row-wise conjunction (flatness).  Its
  memoization bounds the work by |formula| * |A|^(number of variables).

Every engine counts node expansions (one per evaluated subproblem)
against an optional work budget and raises BudgetExceededError when the
budget is exhausted; it never silently approximates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .model import Assignment, Structure, Team
from .syntax import (
    And,
    DepAtom,
    Equality,
    Exists,
    Forall,
    Formula,
    Func,
    Const,
    Or,
    RelAtom,
    Term,
    Var,
    free_variables,
    has_dependence_atoms,
)


class Engine(str, Enum):
    NAIVE = "naive"
    OPTIMIZED = "optimized"
    FO_TARSKI = "fo_tarski"
    AUTO = "auto"


class BudgetExceededError(RuntimeError):
    """The evaluation exceeded its node-expansion budget."""

    def __init__(self, budget: int):
        super().__init__(f"work budget of {budget} node expansions exceeded")
        self.budget = budget
        self.expansions = budget + 1


@dataclass(frozen=True)
class CheckOutcome:
    satisfied: bool
    engine: Engine
    expansions: int


class _Run:
    __slots__ = ("structure", "budget", "expansions", "memo", "_fv")

    def __init__(self, structure: Structure, budget: int | None, memoized: bool):
        self.structure = structure
        self.budget = budget
        self.expansions = 0
        self.memo: dict | None = {} if memoized else None
        self._fv: dict = {}

    def tick(self) -> None:
        self.expansions += 1
        if self.budget is not None and self.expansions > self.budget:
            raise BudgetExceededError(self.budget)

    def fv(self, formula: Formula) -> tuple[str, ...]:
        """The formula's free variables, sorted."""
        cached = self._fv.get(formula)
        if cached is None:
            cached = tuple(sorted(free_variables(formula)))
            self._fv[formula] = cached
        return cached


# --- term evaluation on rows -------------------------------------------------

def _term_value(term: Term, structure: Structure, pos: dict[str, int], row: tuple) -> int:
    if isinstance(term, Var):
        return row[pos[term.name]]
    if isinstance(term, Const):
        return structure.constants[term.name]
    args = tuple(_term_value(a, structure, pos, row) for a in term.args)
    return structure.functions[term.name][args]


def _tuple_value(terms, structure, pos, row) -> tuple:
    return tuple(_term_value(t, structure, pos, row) for t in terms)


def _extension(domain: tuple, pos: dict, var: str):
    """Domain, positions, and row-extender for quantifying `var`."""
    if var in pos:
        i = pos[var]

        def extend(row, value, _i=i):
            return row[:_i] + (value,) + row[_i + 1:]

        return domain, pos, extend
    new_pos = dict(pos)
    new_pos[var] = len(domain)

    def extend(row, value):
        return row + (value,)

    return domain + (var,), new_pos, extend


# --- shared atom evaluation ----------------------------------------------------

def _literal_holds(f: Formula, st: Structure, pos: dict, rows) -> bool:
    """Whether every row satisfies an equality or (negated) relation atom."""
    if isinstance(f, Equality):
        for row in rows:
            if _term_value(f.left, st, pos, row) != _term_value(f.right, st, pos, row):
                return False
        return True
    table = st.relations[f.name]
    for row in rows:
        held = _tuple_value(f.args, st, pos, row) in table
        if held == f.negated:
            return False
    return True


def _dep_conflicts(atom: DepAtom, st: Structure, pos: dict, rows):
    """Violations of a dependence atom, found in one grouping pass.

    For each antecedent group that is not constant on the consequent,
    yield the group's first row and the first later row of that group
    whose consequent differs from it ("first" in the order of `rows`).
    """
    first: dict = {}
    for row in rows:
        antecedent = _tuple_value(atom.antecedent, st, pos, row)
        consequent = _tuple_value(atom.consequent, st, pos, row)
        seen = first.setdefault(antecedent, (row, consequent))
        if seen is not None and seen[1] != consequent:
            first[antecedent] = None  # one pair per group
            yield seen[0], row


# --- naive engine ------------------------------------------------------------

def _naive(run: _Run, f: Formula, domain: tuple, pos: dict, rows: frozenset) -> bool:
    run.tick()
    st = run.structure
    if isinstance(f, Equality):
        for row in rows:
            if _term_value(f.left, st, pos, row) != _term_value(f.right, st, pos, row):
                return False
        return True
    if isinstance(f, RelAtom):
        table = st.relations[f.name]
        for row in rows:
            held = _tuple_value(f.args, st, pos, row) in table
            if held == f.negated:
                return False
        return True
    if isinstance(f, DepAtom):
        # literal pairwise reading: agreeing antecedents force agreeing consequents
        rows_list = sorted(rows)
        for s1 in rows_list:
            a1 = _tuple_value(f.antecedent, st, pos, s1)
            c1 = _tuple_value(f.consequent, st, pos, s1)
            for s2 in rows_list:
                if a1 == _tuple_value(f.antecedent, st, pos, s2):
                    if c1 != _tuple_value(f.consequent, st, pos, s2):
                        return False
        return True
    if isinstance(f, And):
        return _naive(run, f.left, domain, pos, rows) and _naive(
            run, f.right, domain, pos, rows
        )
    if isinstance(f, Or):
        rows_list = sorted(rows)
        # every cover: each row goes to the left part, the right part, or both
        for choice in itertools.product((0, 1, 2), repeat=len(rows_list)):
            left = frozenset(r for r, c in zip(rows_list, choice) if c != 1)
            if not _naive(run, f.left, domain, pos, left):
                continue
            right = frozenset(r for r, c in zip(rows_list, choice) if c != 0)
            if _naive(run, f.right, domain, pos, right):
                return True
        return False
    if isinstance(f, Forall):
        new_domain, new_pos, extend = _extension(domain, pos, f.var)
        new_rows = frozenset(
            extend(r, a) for r in rows for a in range(st.size)
        )
        return _naive(run, f.body, new_domain, new_pos, new_rows)
    if isinstance(f, Exists):
        new_domain, new_pos, extend = _extension(domain, pos, f.var)
        rows_list = sorted(rows)
        # nonempty value sets per row, decoded from bitmasks on demand so the
        # budget can fire before memory does on large universes
        decoded: dict[int, tuple[int, ...]] = {}

        def values_of(mask: int) -> tuple[int, ...]:
            values = decoded.get(mask)
            if values is None:
                values = tuple(a for a in range(st.size) if mask >> a & 1)
                decoded[mask] = values
            return values

        for combo in itertools.product(
            range(1, 1 << st.size), repeat=len(rows_list)
        ):
            new_rows = frozenset(
                extend(r, a)
                for r, mask in zip(rows_list, combo)
                for a in values_of(mask)
            )
            if _naive(run, f.body, new_domain, new_pos, new_rows):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


# --- optimized engine ----------------------------------------------------------

def _opt(run: _Run, f: Formula, domain: tuple, pos: dict, rows: frozenset) -> bool:
    key = (f, domain, rows)
    memo = run.memo
    if key in memo:
        return memo[key]
    run.tick()
    result = _opt_eval(run, f, domain, pos, rows)
    memo[key] = result
    return result


def _opt_eval(run: _Run, f: Formula, domain: tuple, pos: dict, rows: frozenset) -> bool:
    st = run.structure
    if isinstance(f, (Equality, RelAtom)):
        return _literal_holds(f, st, pos, rows)
    if isinstance(f, DepAtom):
        return next(_dep_conflicts(f, st, pos, rows), None) is None
    if isinstance(f, And):
        return _opt(run, f.left, domain, pos, rows) and _opt(
            run, f.right, domain, pos, rows
        )
    if isinstance(f, Or):
        rows_list = sorted(rows)
        n = len(rows_list)
        # partitions only, visited in Gray-code order over row masks
        for k in range(1 << n):
            mask = k ^ (k >> 1)
            left = frozenset(rows_list[i] for i in range(n) if mask >> i & 1)
            if not _opt(run, f.left, domain, pos, left):
                continue
            right = frozenset(rows_list[i] for i in range(n) if not mask >> i & 1)
            if _opt(run, f.right, domain, pos, right):
                return True
        return False
    if isinstance(f, Forall):
        new_domain, new_pos, extend = _extension(domain, pos, f.var)
        new_rows = frozenset(extend(r, a) for r in rows for a in range(st.size))
        return _opt(run, f.body, new_domain, new_pos, new_rows)
    if isinstance(f, Exists):
        new_domain, new_pos, extend = _extension(domain, pos, f.var)
        rows_list = sorted(rows)
        # singleton-valued supplementing functions only
        for combo in itertools.product(range(st.size), repeat=len(rows_list)):
            new_rows = frozenset(
                extend(r, a) for r, a in zip(rows_list, combo)
            )
            if _opt(run, f.body, new_domain, new_pos, new_rows):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


# --- classical engine ----------------------------------------------------------

def _fo(run: _Run, f: Formula, domain: tuple, pos: dict, row: tuple) -> bool:
    key = (f, tuple(row[pos[v]] for v in run.fv(f)))
    memo = run.memo
    if key in memo:
        return memo[key]
    run.tick()
    result = _fo_eval(run, f, domain, pos, row)
    memo[key] = result
    return result


def _fo_eval(run: _Run, f: Formula, domain: tuple, pos: dict, row: tuple) -> bool:
    st = run.structure
    if isinstance(f, (Equality, RelAtom)):
        return _literal_holds(f, st, pos, (row,))
    if isinstance(f, And):
        return _fo(run, f.left, domain, pos, row) and _fo(run, f.right, domain, pos, row)
    if isinstance(f, Or):
        return _fo(run, f.left, domain, pos, row) or _fo(run, f.right, domain, pos, row)
    if isinstance(f, (Exists, Forall)):
        new_domain, new_pos, extend = _extension(domain, pos, f.var)
        combine = any if isinstance(f, Exists) else all
        return combine(
            _fo(run, f.body, new_domain, new_pos, extend(row, a)) for a in range(st.size)
        )
    if isinstance(f, DepAtom):
        raise ValueError("classical engine reached a dependence atom")
    raise TypeError(f"not a formula: {f!r}")


# --- validation and entry points ------------------------------------------------

def _validate_symbols(f: Formula, structure: Structure) -> None:
    def check_term(term: Term) -> None:
        if isinstance(term, Const):
            if term.name not in structure.constants:
                raise ValueError(f"constant {term.name!r} is not interpreted")
        elif isinstance(term, Func):
            arity = structure.function_arities.get(term.name)
            if arity is None:
                raise ValueError(f"function {term.name!r} is not interpreted")
            if arity != len(term.args):
                raise ValueError(f"function {term.name!r} used with wrong arity")
            for arg in term.args:
                check_term(arg)

    def walk(node: Formula) -> None:
        if isinstance(node, RelAtom):
            arity = structure.relation_arities.get(node.name)
            if arity is None:
                raise ValueError(f"relation {node.name!r} is not interpreted")
            if arity != len(node.args):
                raise ValueError(f"relation {node.name!r} used with wrong arity")
            for arg in node.args:
                check_term(arg)
        elif isinstance(node, (Equality, DepAtom)):
            terms = (
                (node.left, node.right)
                if isinstance(node, Equality)
                else node.antecedent + node.consequent
            )
            for term in terms:
                check_term(term)
        elif isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)
        else:
            walk(node.body)

    walk(f)


def resolve_engine(engine: Engine, formula: Formula) -> Engine:
    """The engine `auto` stands for: classical evaluation only for
    dependence-free formulas (constancy atoms still need a team engine)."""
    if engine is not Engine.AUTO:
        return engine
    return Engine.OPTIMIZED if has_dependence_atoms(formula) else Engine.FO_TARSKI


def _check_inputs(structure: Structure, team: Team, formula: Formula) -> None:
    missing = free_variables(formula) - set(team.domain)
    if missing:
        raise ValueError(f"team domain is missing free variables {sorted(missing)}")
    _validate_symbols(formula, structure)


def run_check(
    structure: Structure,
    team: Team,
    formula: Formula,
    engine: Engine = Engine.AUTO,
    budget: int | None = None,
) -> CheckOutcome:
    """Decide team satisfaction and report the engine used and work done.

    The team domain must contain every free variable of the formula
    (extra team variables are fine), and every symbol of the formula must
    be interpreted by the structure.
    """
    _check_inputs(structure, team, formula)
    resolved = resolve_engine(engine, formula)
    if resolved is Engine.FO_TARSKI and has_dependence_atoms(formula):
        raise ValueError("fo_tarski engine requires a dependence-atom-free formula")

    run = _Run(structure, budget, memoized=resolved is not Engine.NAIVE)
    pos = {v: i for i, v in enumerate(team.domain)}
    if resolved is Engine.NAIVE:
        satisfied = _naive(run, formula, team.domain, pos, team.rows)
    elif resolved is Engine.OPTIMIZED:
        satisfied = _opt(run, formula, team.domain, pos, team.rows)
    else:
        satisfied = all(
            _fo(run, formula, team.domain, pos, row) for row in team.sorted_rows()
        )
    return CheckOutcome(satisfied, resolved, run.expansions)


def check(
    structure: Structure,
    team: Team,
    formula: Formula,
    engine: Engine = Engine.AUTO,
    budget: int | None = None,
) -> bool:
    return run_check(structure, team, formula, engine, budget).satisfied


def check_fo_tarski(
    structure: Structure,
    assignment: Assignment,
    formula: Formula,
    budget: int | None = None,
) -> bool:
    """Classical single-assignment satisfaction for dependence-atom-free formulas."""
    team = Team(assignment.domain, {assignment.values})
    return check(structure, team, formula, Engine.FO_TARSKI, budget)


def find_dep_violation(
    structure: Structure, team: Team, atom: DepAtom
) -> tuple[Assignment, Assignment] | None:
    """First pair of rows (in canonical order) violating a dependence atom."""
    _check_inputs(structure, team, atom)
    pos = {v: i for i, v in enumerate(team.domain)}
    pair = min(_dep_conflicts(atom, structure, pos, team.sorted_rows()), default=None)
    if pair is None:
        return None
    first, second = pair
    return Assignment(team.domain, first), Assignment(team.domain, second)
