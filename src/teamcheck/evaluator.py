"""Team-semantics evaluation engines for dependence-logic formulas.

Three engines decide whether a structure and a team satisfy a formula:

- ``naive`` follows the satisfaction clauses literally.  A split
  quantifies over all covers of the team (each row goes left, right, or
  both: 3^|T| cases) and an existential quantifier over all supplementing
  functions into nonempty value sets ((2^|A|-1)^|T| cases).  It is the
  trusted reference engine.
- ``optimized`` restricts the same search to partitions (2^|T|) and to
  singleton-valued supplementing functions (|A|^|T|).  Both restrictions
  preserve the answer because satisfaction is downward closed (any subteam
  of a satisfying team satisfies the formula); the test suite checks this
  equivalence against ``naive`` instead of assuming it.  It numbers the
  rows met over each variable domain in one registry per domain, so a
  subteam is an int mask over its domain's registry, and each registry
  keeps one memo table per subformula, keyed by the bare mask.  Each
  subformula occurrence is compiled once, before the search, into a
  probe of its table and a step on masks, which counts the miss,
  decides the mask and stores the result: one Python frame per miss.  A
  step probes its children's tables inline and calls a child's step only
  on a miss.
- ``fo_tarski`` handles dependence-atom-free formulas by classical
  per-assignment evaluation and row-wise conjunction (flatness), with rows
  laid out and extended as ``naive`` does them, by ``model._extension``.
  It keeps one memo per subformula for all variable domains, keyed by the
  values of the subformula's free variables, so its work is at most
  |formula| * |A|^(number of variables).

Equal subformulas share their tables, since the tables are found by the
subformula itself.  Compiled closures are held only by their parents'
closures and by ``run_check``'s frame, never by the run or a registry, so
a run leaves no reference cycle behind.

Both compile each atom occurrence once into row readers:
``operator.itemgetter`` for variables, closures over the structure's
tables for constants and functions.  Only ``naive``, the oracle, walks an
atom's terms per row.
A dependence atom reads each side as a key: the bare value for one term
(``itemgetter`` itself, for one variable), a tuple for several.  Keys are
hashed and compared only with keys of the same reader.

Every engine counts node expansions (one per evaluated subproblem: a memo
miss; hits are free) against an optional work budget (``_Run.limit``,
unbounded when no budget is given) and raises
BudgetExceededError when the budget is exhausted; it never silently
approximates.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from enum import Enum
from functools import cache, reduce
from operator import itemgetter, ne, or_
from typing import Mapping

from .model import Assignment, Structure, Team, _extension
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
    atom_terms,
    free_variables,
    subformulas,
    subterms,
)
from .value import Value, new_value


class Engine(str, Enum):
    NAIVE = "naive"
    OPTIMIZED = "optimized"
    FO_TARSKI = "fo_tarski"
    AUTO = "auto"


class BudgetExceededError(RuntimeError):
    """The evaluation exceeded its node-expansion budget."""

    def __init__(self, budget: int):
        super().__init__(budget)  # the budget, so that copy and pickle can call it again
        self.budget = budget
        self.expansions = budget + 1

    def __str__(self) -> str:
        return f"work budget of {self.budget} node expansions exceeded"


class CheckOutcome(Value):
    __slots__ = ()

    def __new__(cls, satisfied: bool, engine: Engine, expansions: int):
        return new_value(cls, (cls, satisfied, engine, expansions))


class _Run:
    __slots__ = ("structure", "limit", "expansions", "memo", "registries")

    def __init__(self, structure: Structure, budget: int | None):
        self.structure = structure
        self.limit = sys.maxsize if budget is None else budget  # the most expansions allowed
        self.expansions = 0
        self.memo: dict = {}  # subformula -> {free values: result}, fo_tarski only
        self.registries: dict = {}  # domain -> _Registry, optimized only

    def tick(self) -> None:
        self.expansions += 1
        if self.expansions > self.limit:
            raise BudgetExceededError(self.limit)


# --- term evaluation on rows, for the naive engine (the oracle) only -----------

def _term_value(term: Term, structure: Structure, pos: dict[str, int], row: tuple) -> int:
    if isinstance(term, Var):
        return row[pos[term.name]]
    if isinstance(term, Const):
        return structure.constants[term.name]
    args = tuple(_term_value(a, structure, pos, row) for a in term.args)
    return structure.functions[term.name][args]


def _tuple_value(terms, structure, pos, row) -> tuple:
    return tuple(_term_value(t, structure, pos, row) for t in terms)


# --- row readers: atoms compiled once per (atom, variable positions) ------------

def _term_reader(term: Term, st: Structure, pos: dict):
    """A function from a row to the term's value."""
    if isinstance(term, Var):
        return itemgetter(pos[term.name])
    if isinstance(term, Const):
        value = st.constants[term.name]
        return lambda row: value
    table, args = st.functions[term.name], _tuple_reader(term.args, st, pos)
    return lambda row: table[args(row)]


def _tuple_reader(terms, st: Structure, pos: dict):
    """A function from a row to the terms' values, always as a tuple."""
    # itemgetter of one index returns a bare value, not a 1-tuple
    if len(terms) > 1 and all(isinstance(t, Var) for t in terms):
        return itemgetter(*[pos[t.name] for t in terms])
    readers = [_term_reader(t, st, pos) for t in terms]
    return lambda row: tuple([read(row) for read in readers])


def _key_reader(terms, st: Structure, pos: dict):
    """A function from a row to a key of the terms' values: a bare value
    for one term, a tuple otherwise.  Keys of one reader are compared
    only with each other."""
    if len(terms) == 1:
        return _term_reader(terms[0], st, pos)
    return _tuple_reader(terms, st, pos)


def _literal_test(f: Formula, st: Structure, pos: dict):
    """The row predicate of an equality or (negated) relation atom."""
    if isinstance(f, Equality):
        left, right = _term_reader(f.left, st, pos), _term_reader(f.right, st, pos)
        return lambda row: left(row) == right(row)
    table, args = st.relations[f.name], _tuple_reader(f.args, st, pos)
    if f.negated:
        return lambda row: args(row) not in table
    return lambda row: args(row) in table


# --- input checks ------------------------------------------------------------

def _check_symbol(kind: str, arities: Mapping[str, int], symbol: RelAtom | Func) -> None:
    """Raise unless `symbol` is interpreted with as many arguments as its arity."""
    arity = arities.get(symbol.name)
    if arity is None:
        raise ValueError(f"{kind} {symbol.name!r} is not interpreted")
    if arity != len(symbol.args):
        raise ValueError(f"{kind} {symbol.name!r} used with wrong arity")


def _validate(structure: Structure, team: Team, formula: Formula) -> bool:
    """Check the formula against the team and the structure, and return
    whether the formula has a dependence atom, which the same walk sees."""
    missing = free_variables(formula) - set(team.domain)
    if missing:
        raise ValueError(f"team domain is missing free variables {sorted(missing)}")
    vocab = structure.vocabulary()
    has_dep = False
    for f in subformulas(formula):  # atoms left to right: the leftmost error wins
        if isinstance(f, RelAtom):
            _check_symbol("relation", vocab.relations, f)
        elif isinstance(f, DepAtom):
            has_dep = True
        for term in atom_terms(f):
            for t in subterms(term):  # preorder: a function before its arguments
                if isinstance(t, Const):
                    if t.name not in vocab.constants:
                        raise ValueError(f"constant {t.name!r} is not interpreted")
                elif isinstance(t, Func):
                    _check_symbol("function", vocab.functions, t)
    return has_dep


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
        values_of = cache(lambda mask: tuple(a for a in range(st.size) if mask >> a & 1))
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


# --- optimized engine: a mask kernel ----------------------------------------
#
# A subteam is an int mask over a row registry.  Each variable domain has one
# registry, which numbers the rows met over that domain in order of first
# appearance; the root registry is the team's rows.  Each registry keeps one
# memo table per subformula, keyed by the bare mask.  A subformula
# occurrence's step is compiled into a closure over its table, its readers
# and its children's probes and steps; it is the whole miss.


class _Registry:
    """The rows met over one variable domain, numbered as they appear."""

    __slots__ = ("domain", "pos", "rows", "index", "memos")

    def __init__(self, domain: tuple, pos: dict, rows: list):
        self.domain = domain
        self.pos = pos
        self.rows = rows
        self.index: dict | None = None  # row -> number, built on first need
        self.memos: defaultdict = defaultdict(dict)  # subformula -> {mask: result}

    def number(self, row: tuple) -> int:
        index = self.index
        if index is None:
            index = self.index = {r: i for i, r in enumerate(self.rows)}
        i = index.get(row)
        if i is None:
            i = index[row] = len(self.rows)
            self.rows.append(row)
        return i


def _byte_table(k: int) -> list[tuple[int, ...]]:
    """Entry b: the positions of the set bits of byte value b at byte k of a
    mask, ascending.  Entries 2^j to 2^(j+1) - 1 are entries 0 to 2^j - 1,
    each with bit j added last."""
    table = [()]
    for i in range(8 * k, 8 * k + 8):
        table += [bits + (i,) for bits in table]
    return table


def _byte_flags() -> list[bytes]:
    """Entry b: the bits of byte value b as 8 bytes of 0 or 1, lowest first,
    built by the same doubling."""
    table = [b""]
    for _ in range(8):
        table = [flags + bit for bit in (b"\0", b"\1") for flags in table]
    return table


# about 0.1 ms at import in all, and read-only after it
_LOW, _HIGH, _THIRD, _BYTE_FLAGS = _byte_table(0), _byte_table(1), _byte_table(2), _byte_flags()


def _bits(mask: int) -> list[int]:
    """The set bit positions of `mask`, ascending, with no Python code per bit.

    Three branches.  A mask below 2^16 joins its two bytes' entries of
    `_LOW` and `_HIGH`; every call from the team engines on `sat3` takes
    this path.  A mask below 2^24 joins three entries, adding `_THIRD`'s;
    the treewidth code in `graph`, the other caller, takes one of these two
    on every graph of up to 24 vertices.  A wider mask picks the positions
    whose `_BYTE_FLAGS` flag is set."""
    if mask < 65536:
        return [*_LOW[mask & 255], *_HIGH[mask >> 8]]
    if mask < 16777216:
        return [*_LOW[mask & 255], *_HIGH[mask >> 8 & 255], *_THIRD[mask >> 16]]
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    flags = b"".join(map(_BYTE_FLAGS.__getitem__, data))
    return list(itertools.compress(itertools.count(), flags))


def _bits_by_row(reg: _Registry, mask: int) -> list[int]:
    """The set bit positions of `mask`, ordered by their rows' values."""
    return sorted(_bits(mask), key=reg.rows.__getitem__)


def _mask_of(numbers, width: int) -> int:
    """The mask with the given bit positions set, all below `width`."""
    buf = bytearray((width + 7) >> 3)
    for i in numbers:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _extension_table(run: _Run, reg: _Registry, var: str):
    """The registry for quantifying `var` over rows of `reg`, and a
    function from a mask to the child row numbers per value of each row of
    `reg`, numbered up to the mask's highest bit."""
    domain, pos, extend = _extension(reg.domain, reg.pos, var)
    child = run.registries.setdefault(domain, _Registry(domain, pos, []))
    values, rows, numbers = range(run.structure.size), reg.rows, []

    def numbered(mask: int) -> list:
        for row in rows[len(numbers):mask.bit_length()]:
            numbers.append(tuple(child.number(extend(row, a)) for a in values))
        return numbers

    return child, numbered


def _opt_compile(run: _Run, f: Formula, reg: _Registry):
    """The probe of `f`'s table on masks over `reg`, and `f`'s step,
    compiled with its children's.  The step is the miss: it counts itself
    against the budget, decides the mask and stores the result in the
    table.  Callers probe first, so a hit is free."""
    table = reg.memos[f]
    return table.get, _STEPS.get(type(f), _literal_step)(run, f, reg, table)


def _dep_step(run: _Run, f: DepAtom, reg: _Registry, table: dict):
    st, rows = run.structure, reg.rows
    antecedent, consequent = (_key_reader(t, st, reg.pos) for t in (f.antecedent, f.consequent))
    values: list = []  # (antecedent, consequent) per row, built on first need

    def miss(mask: int) -> bool:
        run.expansions += 1
        if run.expansions > run.limit:
            raise BudgetExceededError(run.limit)
        if mask + 1 == 1 << len(rows):  # the whole registry: no per-row values needed
            pairs = zip(map(antecedent, rows), map(consequent, rows))
        else:
            if len(values) < len(rows):  # the registry grew
                new = rows[len(values):]
                values.extend(zip(map(antecedent, new), map(consequent, new)))
            pairs = map(values.__getitem__, _bits(mask))
        first: dict = {}
        for a, c in pairs:
            if first.setdefault(a, c) != c:
                table[mask] = False
                return False
        table[mask] = True
        return True

    return miss


def _literal_step(run: _Run, f: Formula, reg: _Registry, table: dict):
    test, rows = _literal_test(f, run.structure, reg.pos), reg.rows
    ok = done = 0  # the mask of rows that pass the test, how many rows it covers

    def miss(mask: int) -> bool:
        nonlocal ok, done
        run.expansions += 1
        if run.expansions > run.limit:
            raise BudgetExceededError(run.limit)
        if done < len(rows):  # the registry grew
            ok |= _mask_of((i for i in range(done, len(rows)) if test(rows[i])), len(rows))
            done = len(rows)
        result = table[mask] = mask & ok == mask
        return result

    return miss


# the moves of a 6-bit block of a Gray code: step k moves the bit of k's
# lowest set bit, and step 0 (-1) makes the move into the block
_GRAY = (-1, *((k & -k).bit_length() - 1 for k in range(1, 64)))


def _or_step(run: _Run, f: Or, reg: _Registry, table: dict):
    # partitions only, in Gray-code order over the rows sorted by value: the
    # six first rows move inside a block, the others between blocks
    left_get, left_miss = _opt_compile(run, f.left, reg)
    right_get, right_miss = _opt_compile(run, f.right, reg)

    def miss(mask: int) -> bool:
        run.expansions += 1
        if run.expansions > run.limit:
            raise BudgetExceededError(run.limit)
        moves = [1 << i for i in _bits_by_row(reg, mask)]
        low, high = [*moves[:6], 0], moves[6:]  # low[-1]: the move into the block
        toggles = _GRAY[:1 << (len(low) - 1)]
        left = 0
        for h in range(1 << len(high)):
            if h:
                low[-1] = high[(h & -h).bit_length() - 1]
            for t in toggles:
                left ^= low[t]
                held = left_get(left)
                if held or held is None and left_miss(left):
                    right = mask ^ left
                    held = right_get(right)
                    if held or held is None and right_miss(right):
                        table[mask] = True
                        return True
        table[mask] = False
        return False

    return miss


def _and_step(run: _Run, f: And, reg: _Registry, table: dict):
    left_get, left_miss = _opt_compile(run, f.left, reg)
    right_get, right_miss = _opt_compile(run, f.right, reg)

    def miss(mask: int) -> bool:
        run.expansions += 1
        if run.expansions > run.limit:
            raise BudgetExceededError(run.limit)
        held = left_get(mask)
        if held or held is None and left_miss(mask):
            held = right_get(mask)
            held = table[mask] = held or held is None and right_miss(mask)
            return held
        table[mask] = False
        return False

    return miss


def _exists_step(run: _Run, f: Exists, reg: _Registry, table: dict):
    # singleton-valued supplementing functions only; two rows may extend to
    # the same child row, so a child mask is the OR of the chosen bits
    child, numbered = _extension_table(run, reg, f.var)
    body_get, body_miss = _opt_compile(run, f.body, child)

    def miss(mask: int) -> bool:
        run.expansions += 1
        if run.expansions > run.limit:
            raise BudgetExceededError(run.limit)
        numbers = numbered(mask)
        choices = [[1 << j for j in numbers[i]] for i in _bits_by_row(reg, mask)]
        *others, last = choices or [[0]]  # the empty team extends to the empty team
        for prefix in itertools.product(*others):  # the last row varies fastest
            for child_mask in map(or_, last, itertools.repeat(reduce(or_, prefix, 0))):
                held = body_get(child_mask)
                if held or held is None and body_miss(child_mask):
                    table[mask] = True
                    return True
        table[mask] = False
        return False

    return miss


def _forall_step(run: _Run, f: Forall, reg: _Registry, table: dict):
    child, numbered = _extension_table(run, reg, f.var)
    body_get, body_miss = _opt_compile(run, f.body, child)

    def miss(mask: int) -> bool:
        run.expansions += 1
        if run.expansions > run.limit:
            raise BudgetExceededError(run.limit)
        numbers = numbered(mask)
        child_mask = _mask_of((j for i in _bits(mask) for j in numbers[i]), len(child.rows))
        held = body_get(child_mask)
        held = table[mask] = held or held is None and body_miss(child_mask)
        return held

    return miss


# formula kind -> its step compiler, from (run, subformula, registry, table) to
# the step on masks
_STEPS = {
    Or: _or_step, And: _and_step, Exists: _exists_step, Forall: _forall_step, DepAtom: _dep_step
}


# --- classical engine ----------------------------------------------------------
#
# Rows are laid out and extended by `model._extension`, as in `naive`; a memo
# is keyed by values, not positions, so one memo serves every domain.

def _fo_compile(run: _Run, f: Formula, domain: tuple, pos: dict):
    """The free variables of `f`, sorted, and its memoized predicate on rows
    over `domain` with positions `pos`: a probe of `f`'s memo under the
    row's values of those variables, which evaluates the row on a miss."""
    st = run.structure
    if isinstance(f, (And, Or)):
        left_free, left = _fo_compile(run, f.left, domain, pos)
        right_free, right = _fo_compile(run, f.right, domain, pos)
        free = {*left_free, *right_free}
        if isinstance(f, And):
            test = lambda row: left(row) and right(row)
        else:
            test = lambda row: left(row) or right(row)
    elif isinstance(f, (Exists, Forall)):
        child_domain, child_pos, extend = _extension(domain, pos, f.var)
        body_free, body = _fo_compile(run, f.body, child_domain, child_pos)
        free = set(body_free) - {f.var}
        values, wanted = range(st.size), isinstance(f, Exists)

        def test(row):  # a plain loop: no generator frame per quantifier level
            for a in values:
                if body(extend(row, a)) is wanted:
                    return wanted
            return not wanted
    else:
        free, test = free_variables(f), _literal_test(f, st, pos)
    free = tuple(sorted(free))
    key, memo = _key_reader([*map(Var, free)], st, pos), run.memo.setdefault(f, {})

    def probe(row) -> bool:
        k = key(row)
        result = memo.get(k)
        if result is None:
            run.expansions += 1  # inline, as in `opt`'s steps: no frame per miss
            if run.expansions > run.limit:
                raise BudgetExceededError(run.limit)
            result = memo[k] = test(row)
        return result

    return free, probe


# --- entry points ------------------------------------------------------------------

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
    engine = Engine(engine)  # a member, or its value: "naive", "optimized", ...
    has_dep = _validate(structure, team, formula)
    # `auto` evaluates classically only dependence-free formulas (constancy
    # atoms still need a team engine)
    if engine is Engine.AUTO:
        engine = Engine.OPTIMIZED if has_dep else Engine.FO_TARSKI
    if engine is Engine.FO_TARSKI and has_dep:
        raise ValueError("fo_tarski engine requires a dependence-atom-free formula")

    run = _Run(structure, budget)
    pos = {v: i for i, v in enumerate(team.domain)}
    if engine is Engine.NAIVE:
        satisfied = _naive(run, formula, team.domain, pos, team.rows)
    elif engine is Engine.OPTIMIZED:
        root = run.registries[team.domain] = _Registry(team.domain, pos, list(team.rows))
        _, miss = _opt_compile(run, formula, root)
        satisfied = miss((1 << len(root.rows)) - 1)
    else:
        _, probe = _fo_compile(run, formula, team.domain, pos)
        satisfied = all(map(probe, team.sorted_rows()))
    return CheckOutcome(satisfied, engine, run.expansions)


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


# Not merged with `_dep_step`, whose early exit suits small masks: that cost sat3's tail +31%.
def find_dep_violation(
    structure: Structure, team: Team, atom: DepAtom
) -> tuple[Assignment, Assignment] | None:
    """First pair of rows (in canonical order) violating a dependence atom."""
    _validate(structure, team, atom)
    pos = {v: i for i, v in enumerate(team.domain)}
    antecedent = _key_reader(atom.antecedent, structure, pos)
    consequent = _key_reader(atom.consequent, structure, pos)
    # `_dep_step`'s grouping rule names the violated antecedent groups; the
    # pair is the least row of those groups and the least row of its group
    # whose consequent differs from it
    rows = team.rows
    keys, values = list(map(antecedent, rows)), list(map(consequent, rows))
    first: dict = {}
    violated = set(itertools.compress(keys, map(ne, map(first.setdefault, keys, values), values)))
    if not violated:
        return None
    suspects = list(itertools.compress(zip(rows, keys, values), map(violated.__contains__, keys)))
    row1, a1, c1 = min(suspects)  # rows differ, so keys and values are never compared
    row2 = min(row for row, a, c in suspects if a == a1 and c != c1)
    return Assignment(team.domain, row1), Assignment(team.domain, row2)
