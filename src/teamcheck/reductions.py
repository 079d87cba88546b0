"""Hardness-style instance generators and their brute-force oracles.

``reduce_3sat`` turns a 3-CNF into a model-checking instance over an
empty-vocabulary structure.  Every clause contributes one team row per
literal: x holds the literal's variable, y its sign, u the 1-based clause
index, and v the position of the literal inside the clause.  The fixed
target formula ``=(x;y) | =(u;v) | =(u;v)`` holds exactly when one literal
per clause can be chosen with consistent signs, i.e. when the CNF is
satisfiable: the (x;y)-part of a cover picks the satisfying literals and
each (u;v)-part may hold at most one leftover row per clause.

A propositional dependence logic (PDL) formula is a formula over {TRUE/1}
whose variables are its propositions: ``p`` is ``TRUE(p)``.  ``reduce_pdl``
turns its satisfiability into model checking over the two-element structure
where TRUE holds of 1: the propositions, renamed x1, x2, ..., are quantified
existentially over the single empty assignment, so satisfaction matches
nonempty-team satisfiability.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .model import Structure, Team
from .syntax import (
    And,
    DepAtom,
    Exists,
    Formula,
    Or,
    RelAtom,
    Var,
    atom_terms,
    parse_formula,
    subformulas,
    FormulaSyntaxError,
    _IDENT,
    _NUMBER,
    _infix,
    _Parser,
    KEYWORDS,
)
from .value import Value, new_value


class CNFError(ValueError):
    """Malformed CNF or DIMACS input."""


# a DIMACS count or literal
_INTEGER = re.compile(rf"-?{_NUMBER.pattern}")


class CNF(Value):
    """A CNF with exactly three literals per clause, variables 1..num_vars."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: Iterable[Iterable[int]]):
        clauses = tuple(tuple(c) for c in clauses)
        if num_vars < 0:
            raise CNFError("negative variable count")
        for clause in clauses:
            if len(clause) != 3:
                raise CNFError(f"clause {clause!r} does not have exactly 3 literals")
            for lit in clause:
                if lit == 0 or not (1 <= abs(lit) <= num_vars):
                    raise CNFError(f"literal {lit} out of range in clause {clause!r}")
        return new_value(cls, (cls, num_vars, clauses))


def parse_dimacs(text: str) -> CNF:
    """Parse DIMACS CNF; clauses with other than three literals are rejected."""
    num_vars = num_clauses = None
    pending: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("%"):  # SATLIB end marker; a lone "0" may follow
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CNFError(f"line {lineno}: bad DIMACS header {line!r}")
            if num_vars is not None:
                raise CNFError(f"line {lineno}: duplicate DIMACS header")
            if not (_INTEGER.fullmatch(parts[2]) and _INTEGER.fullmatch(parts[3])):
                raise CNFError(f"line {lineno}: bad DIMACS header {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise CNFError(f"line {lineno}: clause before DIMACS header")
        for token in line.split():
            if not _INTEGER.fullmatch(token):
                raise CNFError(f"line {lineno}: bad literal {token!r}")
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                pending.append(lit)
    if num_vars is None:
        raise CNFError("missing DIMACS header")
    if pending:
        raise CNFError("unterminated clause (missing trailing 0)")
    if num_clauses != len(clauses):
        raise CNFError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    return CNF(num_vars, tuple(clauses))


def evaluate_cnf(cnf: CNF, valuation: Mapping[int, bool]) -> bool:
    """Direct clause-by-clause evaluation under a total valuation."""
    return all(
        any(bool(valuation[abs(lit)]) == (lit > 0) for lit in clause)
        for clause in cnf.clauses
    )


def sat_brute(cnf: CNF) -> bool:
    """Exhaustive satisfiability over all 2^n valuations; capped at 20 variables."""
    if cnf.num_vars > 20:
        raise ValueError("brute-force SAT is capped at 20 variables")
    for bits in range(1 << cnf.num_vars):
        valuation = {j: bool(bits >> (j - 1) & 1) for j in range(1, cnf.num_vars + 1)}
        if evaluate_cnf(cnf, valuation):
            return True
    return False


# --- 3-SAT reduction ----------------------------------------------------------

FIXED_3SAT_FORMULA = "=(x;y) | =(u;v) | =(u;v)"
_3SAT_DOMAIN = ("x", "y", "u", "v")


def _variable_element(j: int) -> str:
    return f"p{j}"


def reduce_3sat(cnf: CNF) -> tuple[Structure, Team, Formula]:
    """Build the empty-vocabulary instance whose team encodes the clauses.

    The universe holds one element per CNF variable plus the numerals
    0..max(m,2), so that sign, clause-index, and position values always
    exist; for two or more clauses its size is num_vars + m + 1.
    """
    m = len(cnf.clauses)
    universe = [_variable_element(j) for j in range(1, cnf.num_vars + 1)]
    universe += [str(i) for i in range(max(m, 2) + 1)]
    structure = Structure(universe)
    rows = []
    for i, clause in enumerate(cnf.clauses, 1):
        for position, lit in enumerate(clause):
            rows.append(
                (
                    _variable_element(abs(lit)),
                    "1" if lit > 0 else "0",
                    str(i),
                    str(position),
                )
            )
    team = Team.from_named_rows(_3SAT_DOMAIN, rows, structure)
    return structure, team, parse_formula(FIXED_3SAT_FORMULA)


def extract_valuation(
    cnf: CNF, structure: Structure, team: Team
) -> dict[int, bool] | None:
    """Read a satisfying valuation off a clause-consistent row selection.

    Searches for one row per clause whose (variable, sign) pairs are
    consistent; those rows are the (x;y)-part of a satisfying cover.  A
    variable is true exactly when a selected row carries it with sign 1;
    unselected variables default to false.  Returns None when no selection
    exists (the CNF is then unsatisfiable).
    """
    by_clause: dict[int, list[tuple[str, str]]] = {}
    for assignment in team.assignments():
        named = assignment.named(structure)
        try:
            clause_index = int(named["u"])
        except (ValueError, KeyError):
            raise ValueError("team does not have the reduced-instance shape") from None
        by_clause.setdefault(clause_index, []).append((named["x"], named["y"]))
    if sorted(by_clause) != list(range(1, len(cnf.clauses) + 1)):
        raise ValueError("team does not cover the CNF's clause indices")

    chosen: dict[str, str] = {}
    if not _select(by_clause, len(cnf.clauses), 1, chosen):
        return None
    return {
        j: chosen.get(_variable_element(j)) == "1"
        for j in range(1, cnf.num_vars + 1)
    }


def _select(
    by_clause: dict[int, list[tuple[str, str]]], last: int, clause_index: int,
    chosen: dict[str, str],
) -> bool:
    """Extend `chosen` with one consistent row per clause from `clause_index` on.

    A module-level function, so the recursion builds no closure that
    refers to itself: a call leaves no reference cycle behind.
    """
    if clause_index > last:
        return True
    for variable, sign in by_clause[clause_index]:
        previous = chosen.get(variable)
        if previous is None:
            chosen[variable] = sign
            if _select(by_clause, last, clause_index + 1, chosen):
                return True
            del chosen[variable]
        elif previous == sign:
            if _select(by_clause, last, clause_index + 1, chosen):
                return True
    return False


# --- propositional dependence logic ---------------------------------------------

def _proposition(node) -> str:
    """The proposition of a literal ``TRUE(p)`` or a term ``p``; else TypeError."""
    match node:
        case RelAtom(name="TRUE", args=(Var(name=name),)) | Var(name=name):
            return name
    raise TypeError(f"not a PDL formula: {node!r}")


def pdl_propositions(formula: Formula) -> tuple[str, ...]:
    """Propositions in first-occurrence order."""
    names: dict[str, None] = {}
    for f in subformulas(formula):
        if isinstance(f, DepAtom):
            names.update(dict.fromkeys(map(_proposition, atom_terms(f))))
        elif not isinstance(f, (And, Or)):
            names[_proposition(f)] = None
    return tuple(names)


class _PDLParser(_Parser):
    """Proposition-only restriction of the formula grammar.

    `_Parser` reads connectives, parentheses and dependence atoms, and no
    quantifiers.  Overridden: `term` reads a bare proposition as a variable;
    `relatom` and `atom` make a (negated) ``TRUE`` test of it.  A
    proposition named ``TRUE`` is rejected: ``TRUE(TRUE)`` would not read
    back under ``{TRUE/1}``.
    """

    QUANTIFIERS = {}

    def term(self) -> Var:
        tok, pos = self._next()
        if not _IDENT.fullmatch(tok) or tok in KEYWORDS or tok == "TRUE":
            raise FormulaSyntaxError(f"expected a proposition, found {tok!r}", pos)
        return Var(tok)

    def relatom(self, negated: bool) -> RelAtom:
        return RelAtom("TRUE", (self.term(),), negated)

    def atom(self) -> RelAtom:
        return self.relatom(negated=False)


def parse_pdl(text: str) -> Formula:
    return _PDLParser.parse(text)


def pretty_pdl(formula: Formula) -> str:
    """Print with each literal ``TRUE(p)`` written as its proposition ``p``."""
    if isinstance(formula, (And, Or)):
        return _infix(formula, pretty_pdl)
    if isinstance(formula, DepAtom):
        sides = (formula.antecedent, formula.consequent)
        return "=({};{})".format(*(",".join(map(_proposition, s)) for s in sides))
    name = _proposition(formula)
    return f"{'!' if formula.negated else ''}{name}"


def pdl_check(assignments: Iterable[Mapping[str, int]], formula: Formula) -> bool:
    """Team satisfaction over boolean assignments, with cover-based splits.

    Every assignment must be total on the formula's propositions.
    """
    props = pdl_propositions(formula)
    rows = set()
    for s in assignments:
        row = []
        for p in props:
            if p not in s:
                raise ValueError(f"assignment is missing proposition {p!r}")
            value = s[p]
            if value not in (0, 1):
                raise ValueError(f"proposition {p!r} has non-boolean value {value!r}")
            row.append(int(value))
        rows.add(tuple(row))
    base = tuple(sorted(rows))
    position = {p: i for i, p in enumerate(props)}
    return _pdl_eval(formula, (1 << len(base)) - 1, base, position, {})


def _mask_rows(mask: int, base: tuple):
    while mask:
        low = mask & -mask
        yield base[low.bit_length() - 1]
        mask ^= low


def _pdl_eval(f: Formula, mask: int, base: tuple, position: dict, memo: dict) -> bool:
    """Evaluate on the subteam of `base` selected by `mask` bits."""
    key = (f, mask)
    if key in memo:
        return memo[key]
    if isinstance(f, RelAtom):
        expected = 0 if f.negated else 1
        index = position[_proposition(f)]
        result = all(row[index] == expected for row in _mask_rows(mask, base))
    elif isinstance(f, DepAtom):
        seen: dict = {}
        result = True
        for row in _mask_rows(mask, base):
            antecedent = tuple(row[position[p.name]] for p in f.antecedent)
            consequent = tuple(row[position[p.name]] for p in f.consequent)
            previous = seen.get(antecedent)
            if previous is None:
                seen[antecedent] = consequent
            elif previous != consequent:
                result = False
                break
    elif isinstance(f, And):
        result = _pdl_eval(f.left, mask, base, position, memo) and _pdl_eval(
            f.right, mask, base, position, memo
        )
    elif isinstance(f, Or):
        # covers as (left, rest-plus-shared): left ranges over submasks, the
        # shared part over submasks of left
        result = False
        left = mask
        while not result:
            if _pdl_eval(f.left, left, base, position, memo):
                shared = left
                while True:
                    if _pdl_eval(f.right, (mask ^ left) | shared, base, position, memo):
                        result = True
                        break
                    if shared == 0:
                        break
                    shared = (shared - 1) & left
            if left == 0:
                break
            left = (left - 1) & mask
    else:
        raise TypeError(f"not a PDL formula: {f!r}")
    memo[key] = result
    return result


def pdl_sat_brute(formula: Formula) -> bool:
    """Satisfiability by a nonempty team, decided over single assignments.

    Downward closure makes one-assignment teams sufficient; the property
    suite verifies that closure for pdl_check independently.  Capped at
    ten propositions.
    """
    props = pdl_propositions(formula)
    if len(props) > 10:
        raise ValueError("brute-force PDL satisfiability is capped at 10 propositions")
    for bits in range(1 << len(props)):
        assignment = {p: bits >> i & 1 for i, p in enumerate(props)}
        if pdl_check([assignment], formula):
            return True
    return False


def reduce_pdl(formula: Formula) -> tuple[Structure, Team, Formula]:
    """Existentially quantify a boolean variable per proposition over {0, 1}.

    Propositions are renamed to variables x1, x2, ... in first-occurrence
    order, and each becomes existentially quantified.  The returned formula
    has no universal quantifiers and is checked against the
    single-empty-assignment team.
    """
    props = pdl_propositions(formula)
    variable = {Var(p): Var(f"x{i}") for i, p in enumerate(props, 1)}
    structure = Structure(("0", "1"), relations={"TRUE": (1, [("1",)])})

    fo_formula = _rename(formula, variable)
    for x in reversed(variable.values()):
        fo_formula = Exists(x.name, fo_formula)
    return structure, Team.of_empty_assignment(), fo_formula


def _rename(f: Formula, variable: dict[Var, Var]) -> Formula:
    """A PDL formula with each proposition `p` replaced by `variable[Var(p)]`.

    Module-level, for the reason `_select` gives.
    """
    if isinstance(f, (And, Or)):
        return type(f)(_rename(f.left, variable), _rename(f.right, variable))
    if isinstance(f, DepAtom):
        sides = (f.antecedent, f.consequent)
        return DepAtom(*(tuple(map(variable.__getitem__, side)) for side in sides))
    return RelAtom("TRUE", tuple(map(variable.__getitem__, f.args)), f.negated)
