from __future__ import annotations

import collections
import gc
import hashlib
import itertools
import random
import sys
import types

import pytest

from teamcheck import (
    And,
    Assignment,
    BudgetExceededError,
    Const,
    DepAtom,
    Engine,
    Forall,
    Or,
    RelAtom,
    Structure,
    Team,
    Var,
    Vocabulary,
    analyze,
    check,
    check_fo_tarski,
    find_dep_violation,
    free_variables,
    parse_formula,
    run_check,
)
from teamcheck.syntax import subformulas

from brute import dep_violation_pairwise
from depgen import random_instance, random_structure, random_team, random_term


def fparse(text, structure):
    return parse_formula(text, structure.vocabulary())


# --- departures-board dependence checks -----------------------------------------

def test_flight_board_key_dependencies_hold(flight_instance):
    structure, team = flight_instance
    for text in (
        "=(Flight,Date,Time;Destination,Gate)",
        "=(Gate,Date,Time;Destination,Flight)",
    ):
        for engine in (Engine.NAIVE, Engine.OPTIMIZED, Engine.AUTO):
            assert check(structure, team, fparse(text, structure), engine)


def test_flight_board_violated_dependence_with_witness(flight_instance):
    structure, team = flight_instance
    atom = fparse("=(Destination,Gate;Time)", structure)
    assert not check(structure, team, atom)
    first, second = find_dep_violation(structure, team, atom)
    flights = {first.named(structure)["Flight"], second.named(structure)["Flight"]}
    times = {first.named(structure)["Time"], second.named(structure)["Time"]}
    assert flights == {"FIN-70", "FIN-80"}
    assert times == {"09:55", "19:55"}


def test_dep_violation_matches_pairwise_oracle():
    rng = random.Random(2026)
    domain = ("x", "y", "z")
    violated = collections.Counter()
    for _ in range(500):
        structure = random_structure(rng)
        team = random_team(rng, structure, domain, max_rows=10)
        terms = [random_term(rng, structure, list(domain)) for _ in range(5)]
        antecedent = tuple(terms[: rng.randint(0, 2)])
        consequent = tuple(terms[2 : 2 + rng.randint(1, 3)])
        atom = DepAtom(antecedent, consequent)
        expected = dep_violation_pairwise(structure, team, atom)
        pair = find_dep_violation(structure, team, atom)
        assert (None if pair is None else tuple(a.values for a in pair)) == expected
        if expected is not None:
            prefix = tuple(Var(v) for v in domain[: len(antecedent)])
            violated["all"] += 1
            violated["constancy"] += not antecedent
            violated["multi-consequent"] += len(consequent) > 1
            violated["non-prefix"] += antecedent != prefix
    assert min(violated[k] for k in ("all", "constancy", "multi-consequent", "non-prefix")) >= 25


def _term_at(structure, domain, term, row):
    """A term's value on a row, read off the structure's tables directly."""
    if isinstance(term, Var):
        return row[domain.index(term.name)]
    if isinstance(term, Const):
        return structure.constants[term.name]
    args = tuple(_term_at(structure, domain, a, row) for a in term.args)
    return structure.functions[term.name][args]


def test_dep_violation_on_larger_teams_matches_pairwise_oracle():
    # teams large enough that several antecedent groups are violated at
    # once, so the witness search is checked across groups
    rng = random.Random(8080)
    domain = ("u", "v", "w", "x", "y", "z")
    multi_group = 0
    for _ in range(200):
        structure = random_structure(rng)
        if structure.size < 2:
            continue
        candidates = list(itertools.product(range(structure.size), repeat=len(domain)))
        rows = rng.sample(candidates, rng.randint(40, min(200, len(candidates))))
        team = Team(domain, frozenset(rows))
        pool = list(domain)
        antecedent = tuple(random_term(rng, structure, pool) for _ in range(rng.randint(1, 2)))
        consequent = tuple(random_term(rng, structure, pool) for _ in range(rng.randint(1, 2)))
        atom = DepAtom(antecedent, consequent)
        expected = dep_violation_pairwise(structure, team, atom)
        pair = find_dep_violation(structure, team, atom)
        assert (None if pair is None else tuple(a.values for a in pair)) == expected
        # the violated antecedent groups, from term values read off the tables
        groups = collections.defaultdict(set)
        for row in team.rows:
            key = tuple(_term_at(structure, domain, t, row) for t in antecedent)
            groups[key].add(tuple(_term_at(structure, domain, t, row) for t in consequent))
        violated = sum(len(values) > 1 for values in groups.values())
        assert (violated == 0) == (expected is None)
        multi_group += violated >= 2
    assert multi_group >= 25


# --- single clauses of the semantics ---------------------------------------------

@pytest.fixture()
def pair() -> Structure:
    return Structure(
        ["0", "1"],
        relations={"R": (1, [("1",)]), "E": (2, [("0", "1")])},
    )


def test_empty_team_satisfies_everything(pair):
    empty = Team(("x",), frozenset())
    for text in ("R(x)", "!R(x)", "=(x;x)", "R(x) | !R(x)", "forall y E(x,y)"):
        f = fparse(text, pair)
        for engine in (Engine.NAIVE, Engine.OPTIMIZED):
            assert check(pair, empty, f, engine)


def test_literal_clauses_quantify_over_all_rows(pair):
    team = Team.from_named_rows(("x",), [("0",), ("1",)], pair)
    assert not check(pair, team, fparse("R(x)", pair))
    assert not check(pair, team, fparse("!R(x)", pair))
    assert check(pair, team, fparse("x = x", pair))


def test_split_covers_the_team(pair):
    team = Team.from_named_rows(("x",), [("0",), ("1",)], pair)
    f = fparse("R(x) | !R(x)", pair)
    for engine in (Engine.NAIVE, Engine.OPTIMIZED):
        assert check(pair, team, f, engine)


def test_existential_uses_lax_value_sets(pair):
    # forcing two witnesses per row requires a set-valued choice
    team = Team.of_empty_assignment()
    f = fparse("exists x (R(x) | !R(x)) & =(;x)", pair)
    # the & binds tighter: exists x ((R(x) | !R(x)) & =(;x)) needs parens to mean that
    g = fparse("exists x ((R(x) | !R(x)) & =(;x))", pair)
    assert check(pair, team, g, Engine.NAIVE)
    assert check(pair, team, g, Engine.OPTIMIZED)
    assert isinstance(f, And)


def test_universal_duplicates_team(pair):
    team = Team.of_empty_assignment()
    assert not check(pair, team, fparse("forall x R(x)", pair))
    assert check(pair, team, fparse("forall x (R(x) | !R(x))", pair))


def test_dependence_atom_constancy(pair):
    team = Team.from_named_rows(("x", "y"), [("0", "1"), ("1", "1")], pair)
    assert check(pair, team, fparse("=(;y)", pair))
    assert not check(pair, team, fparse("=(;x)", pair))


@pytest.mark.parametrize("x", ["a", "b", "c"])
@pytest.mark.parametrize("engine", [Engine.NAIVE, Engine.OPTIMIZED, Engine.FO_TARSKI])
def test_term_values_through_the_engines(engine, x):
    abc = Structure(
        ["a", "b", "c"],
        functions={"f": (1, {"a": "b", "b": "c", "c": "a"})},
        constants={"one": "b"},
    )
    team = Team.from_named_rows(("x",), [(x,)], abc)
    assert check(abc, team, fparse("f(x) = one", abc), engine) == (x == "a")
    assert check(abc, team, fparse("x = one", abc), engine) == (x == "b")
    # a constant's value ignores the assignment
    assert check(abc, team, fparse("one = one", abc), engine)


# atoms whose compiled row readers take a single term: a relation lookup
# needs a 1-tuple, and a function table is keyed by argument tuples
READER_CASES = ["R(x)", "!R(x)", "=(;y)", "=(x;y)", "f(f(x)) = one", "one = f(x)"]


@pytest.mark.parametrize("text", READER_CASES)
def test_single_term_readers_agree_with_naive(text):
    abc = Structure(
        ["a", "b", "c"],
        relations={"R": (1, [("a",), ("b",)])},
        functions={"f": (1, {"a": "b", "b": "c", "c": "a"})},
        constants={"one": "b"},
    )
    atom = fparse(text, abc)
    # under a split the atom is also decided on proper subteams (sub-masks)
    split = fparse(f"({text}) | x = one", abc)
    engines = [Engine.OPTIMIZED]
    if not isinstance(atom, DepAtom):
        engines.append(Engine.FO_TARSKI)
    rows = list(itertools.product(range(3), repeat=2))
    verdicts = collections.Counter()
    for size in range(4):
        for chosen in itertools.combinations(rows, size):
            team = Team(("x", "y"), frozenset(chosen))
            for f in (atom, split):
                expected = check(abc, team, f, Engine.NAIVE)
                verdicts[f is split, expected] += 1
                for engine in engines:
                    assert check(abc, team, f, engine) is expected, (text, chosen, engine)
    assert min(verdicts.values()) > 0 and len(verdicts) == 4


# dependence atoms whose keys are bare values or tuples mixing variables with
# other terms; the others in the list above and the 500-team oracle test cover
# the rest.  f merges a and b, so f(x) groups rows that x tells apart.
DEP_KEY_CASES = ["=(f(x);y)", "=(one;y)", "=(x,f(y);z)", "exists y (E(y,z) & =(x;y))"]


@pytest.mark.parametrize("text", DEP_KEY_CASES)
def test_dependence_keys_agree_with_the_oracles(text):
    abc = Structure(
        ["a", "b", "c"],
        relations={"E": (2, [("a", "a"), ("a", "b"), ("b", "c"), ("c", "c")])},
        functions={"f": (1, {"a": "b", "b": "b", "c": "a"})},
        constants={"one": "b"},
    )
    formula = fparse(text, abc)
    split = fparse(f"({text}) | x = one", abc)
    rng = random.Random(text)
    rows = list(itertools.product(range(3), repeat=3))
    most = 5 if isinstance(formula, DepAtom) else 3  # naive's existential is (2^3-1)^rows
    verdicts = collections.Counter()
    for _ in range(150):
        team = Team(("x", "y", "z"), frozenset(rng.sample(rows, rng.randint(0, most))))
        for f in (formula, split):
            expected = check(abc, team, f, Engine.NAIVE)
            assert check(abc, team, f, Engine.OPTIMIZED) is expected, (text, team.rows)
            verdicts[f is split, expected] += 1
        if isinstance(formula, DepAtom):
            pair = find_dep_violation(abc, team, formula)
            got = None if pair is None else tuple(a.values for a in pair)
            assert got == dep_violation_pairwise(abc, team, formula)
    assert min(verdicts.values()) >= 10 and len(verdicts) == 4


def test_reflight_3sat_instance_routes(pair):
    # a satisfiable and an unsatisfiable toy, cross-checked by brute force below
    from teamcheck import parse_dimacs, reduce_3sat, sat_brute

    for text, expected in (
        ("p cnf 1 1\n1 1 1 0\n", True),
        ("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n", False),
    ):
        cnf = parse_dimacs(text)
        structure, team, formula = reduce_3sat(cnf)
        assert sat_brute(cnf) is expected
        for engine in (Engine.NAIVE, Engine.OPTIMIZED):
            assert check(structure, team, formula, engine) is expected


# --- classical engine --------------------------------------------------------------

def test_fo_tarski_atom_lookup(pair):
    s = Assignment(("x",), (pair.element_index("1"),))
    assert check_fo_tarski(pair, s, fparse("R(x)", pair))
    s0 = Assignment(("x",), (pair.element_index("0"),))
    assert not check_fo_tarski(pair, s0, fparse("R(x)", pair))


def test_fo_tarski_on_directed_cycle():
    cycle = Structure(
        ["a", "b", "c"],
        relations={"E": (2, [("a", "b"), ("b", "c"), ("c", "a")])},
    )
    f = fparse("forall x exists y E(x,y)", cycle)
    assert check_fo_tarski(cycle, Assignment((), ()), f)
    g = fparse("forall x E(x,x)", cycle)
    assert not check_fo_tarski(cycle, Assignment((), ()), g)


def test_fo_tarski_equality(pair):
    s = Assignment(("x", "y"), (0, 1))
    assert not check_fo_tarski(pair, s, fparse("x = y", pair))


def test_fo_tarski_rejects_dependence_atoms(pair):
    with pytest.raises(ValueError, match="dependence-atom-free"):
        check_fo_tarski(pair, Assignment(("x",), (0,)), fparse("=(;x)", pair))
    team = Team.from_named_rows(("x",), [("0",)], pair)
    with pytest.raises(ValueError, match="dependence-atom-free"):
        check(pair, team, fparse("=(;x)", pair), Engine.FO_TARSKI)


def test_fo_tarski_work_within_declared_bound(pair):
    # memoized evaluation stays within |formula| * |A|^#variables
    f = fparse("forall x exists y (E(x,y) | E(y,x))", pair)
    outcome = run_check(pair, Team.of_empty_assignment(), f, Engine.FO_TARSKI)
    from teamcheck import all_variables, formula_size

    assert outcome.expansions <= formula_size(f) * pair.size ** len(all_variables(f))


_FO_PINNED = [
    # quantifiers that rebind the team variables x and y
    (("x", "y"), "exists x (E(x,y) & forall y (E(x,y) | R(y)))", False, 21),
    # a quantifier that introduces a fresh variable z
    (("x",), "forall z (E(x,z) | E(z,x))", False, 15),
    # `exists y E(x,y)` under the team's x and under `forall x`
    (("x",), "exists y E(x,y) & forall x exists y E(x,y)", True, 12),
    # `exists y E(x,y)` over the rows (x) and, under `forall z`, over the
    # rows (x, z): one memo serves both domains
    (("x",), "exists y E(x,y) & forall z (exists y E(x,y) | R(z))", True, 23),
]


def _on_triangle(team_domain, text):
    # the team holds every row over `team_domain`
    triangle = Structure(
        ["a", "b", "c"],
        relations={"R": (1, [("b",)]), "E": (2, [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")])},
    )
    rows = itertools.product(range(triangle.size), repeat=len(team_domain))
    return triangle, Team(team_domain, frozenset(rows)), fparse(text, triangle)


def _fo_on_triangle(team_domain, text):
    return run_check(*_on_triangle(team_domain, text), Engine.FO_TARSKI)


@pytest.mark.parametrize("team_domain,text,satisfied,expansions", _FO_PINNED)
def test_fo_tarski_expansions_pinned(team_domain, text, satisfied, expansions):
    # one expansion per distinct (subformula, values of its free variables)
    outcome = _fo_on_triangle(team_domain, text)
    assert (outcome.satisfied, outcome.expansions) == (satisfied, expansions)


# --- engine choice -------------------------------------------------------------------

def test_auto_engine_resolution(pair):
    one_row = Team(("x", "y", "u", "v"), frozenset({(0, 1, 0, 1)}))
    constancy = fparse("=(;y)", pair)
    assert analyze(constancy).arity == 0
    for team, text, expected in (
        (Team.of_empty_assignment(), "forall x exists y E(x,y)", Engine.FO_TARSKI),
        (one_row, "R(x) | E(x,y)", Engine.FO_TARSKI),
        (Team.from_named_rows(("x",), [("0",)], pair), "=(;x)", Engine.OPTIMIZED),
        (one_row, "=(;y)", Engine.OPTIMIZED),
        (one_row, "=(x;y) | =(u;v) | =(u;v)", Engine.OPTIMIZED),
    ):
        assert run_check(pair, team, fparse(text, pair)).engine is expected


@pytest.mark.parametrize("text", ["E(x,y) | x = y", "=(x;y)"])
def test_engine_given_by_value(pair, text):
    # a member's value names the same engine as the member itself
    team = Team(("x", "y"), frozenset({(0, 1), (1, 1), (1, 0)}))
    formula = fparse(text, pair)

    def outcome(engine):
        try:
            return run_check(pair, team, formula, engine)
        except ValueError as error:
            return str(error)

    for member in Engine:
        by_member = outcome(member)
        assert outcome(member.value) == by_member
        if member is Engine.FO_TARSKI and text == "=(x;y)":
            assert by_member == "fo_tarski engine requires a dependence-atom-free formula"
        elif member is not Engine.AUTO:
            assert by_member.engine is member
    for name in ("opt", "fo", "bogus"):
        with pytest.raises(ValueError, match="is not a valid Engine"):
            run_check(pair, team, formula, name)


# --- errors -----------------------------------------------------------------------

def test_missing_free_variable_is_an_error(pair):
    team = Team(("x",), frozenset())
    with pytest.raises(ValueError, match="missing free variables"):
        check(pair, team, fparse("E(x,y)", pair))
    # a missing variable is reported before an uninterpreted symbol
    f = parse_formula("Q(y)", __import__("teamcheck").Vocabulary(relations={"Q": 1}))
    with pytest.raises(ValueError, match="missing free variables"):
        check(pair, team, f)


def test_uninterpreted_symbol_is_an_error(pair):
    f = parse_formula("Q(x)", __import__("teamcheck").Vocabulary(relations={"Q": 1}))
    team = Team.from_named_rows(("x",), [("0",)], pair)
    with pytest.raises(ValueError, match="not interpreted"):
        check(pair, team, f)


@pytest.mark.parametrize(
    "text, message",
    [
        ("S(f(g(c),x))", "function 'f' used with wrong arity"),
        ("R(g(c),x) | S(c)", "function 'g' is not interpreted"),
        ("R(c,g(x))", "constant 'c' is not interpreted"),
        ("x = y & S(f(x,x))", "function 'f' used with wrong arity"),
        ("P(g(x),y) | S(f(x,x))", "relation 'P' used with wrong arity"),
    ],
)
def test_symbol_check_precedence_on_nested_terms(text, message):
    # the outer function is checked before its arguments, a relation before
    # its terms, the leftmost atom first
    structure = Structure(
        ("0", "1"),
        relations={"P": (1, []), "R": (2, []), "S": (1, [])},
        functions={"f": (1, {("0",): "1", ("1",): "0"})},
    )
    vocab = Vocabulary(
        relations={"P": 2, "R": 2, "S": 1}, functions={"f": 2, "g": 1}, constants={"c"}
    )
    team = Team.from_named_rows(("x", "y"), [("0", "1")], structure)
    with pytest.raises(ValueError, match=message):
        check(structure, team, parse_formula(text, vocab))


def test_budget_exceeded_raises_loudly(pair):
    team = Team.from_named_rows(("x",), [("0",), ("1",)], pair)
    f = fparse("R(x) | R(x)", pair)
    with pytest.raises(BudgetExceededError, match="budget"):
        check(pair, team, f, Engine.OPTIMIZED, budget=2)


_UNSAT_9_ROWS = "p cnf 2 3\n1 2 2 0\n-1 -1 -1 0\n1 -2 -2 0\n"
_UNSAT_12_ROWS = "p cnf 2 4\n1 2 2 0\n-1 2 2 0\n1 -2 -2 0\n-1 -2 -2 0\n"


def _reduced(dimacs):
    from teamcheck import parse_dimacs, reduce_3sat

    return reduce_3sat(parse_dimacs(dimacs))


@pytest.mark.parametrize(
    "dimacs,rows,expansions", [(_UNSAT_9_ROWS, 9, 1537), (_UNSAT_12_ROWS, 12, 12289)]
)
def test_optimized_expansions_pinned_on_unsat_3sat(dimacs, rows, expansions):
    structure, team, formula = _reduced(dimacs)
    assert len(team) == rows
    outcome = run_check(structure, team, formula, Engine.OPTIMIZED)
    assert (outcome.satisfied, outcome.expansions) == (False, expansions)


@pytest.mark.parametrize("seed,expansions", [(133, 12), (700, 6), (738, 9), (2961, 15)])
def test_optimized_expansions_pinned_on_random_instances(seed, expansions):
    # memo entries are shared per variable domain, also where a quantifier
    # rebinds a team variable or the team is empty
    structure, team, formula = random_instance(random.Random(seed))
    assert run_check(structure, team, formula, Engine.OPTIMIZED).expansions == expansions


def test_optimized_budget_boundary():
    structure, team, formula = _reduced(_UNSAT_9_ROWS)
    outcome = run_check(structure, team, formula, Engine.OPTIMIZED, budget=1537)
    assert (outcome.satisfied, outcome.expansions) == (False, 1537)
    with pytest.raises(BudgetExceededError) as info:
        run_check(structure, team, formula, Engine.OPTIMIZED, budget=1536)
    assert info.value.expansions == 1537


def _skolem_instance(rows):
    # y must be an E-successor of x that depends on z alone: a z-group is
    # satisfiable when its x values share a successor
    digraph = Structure(
        ["0", "1", "2", "3"],
        relations={"E": (2, [("0", "1"), ("0", "2"), ("1", "2"), ("1", "3"),
                             ("2", "3"), ("3", "0"), ("2", "0")])},
    )
    team = Team.from_named_rows(("x", "z"), rows, digraph)
    return digraph, team, fparse("exists y (E(x,y) & =(z;y))", digraph)


# groups z=0: {0,1} share 2; z=1: {2,3} share 0, then {2,3,0} share nothing
_SKOLEM_SAT = [("0", "0"), ("1", "0"), ("2", "1"), ("3", "1"), ("1", "2")]
_SKOLEM_UNSAT = [("0", "0"), ("1", "0"), ("2", "1"), ("3", "1"), ("0", "1")]


@pytest.mark.parametrize(
    "rows,satisfied,expansions", [(_SKOLEM_SAT, True, 1356), (_SKOLEM_UNSAT, False, 2065)]
)
def test_optimized_existential_pinned_with_budget_boundary(rows, satisfied, expansions):
    structure, team, formula = _skolem_instance(rows)
    assert len(team) == 5
    outcome = run_check(structure, team, formula, Engine.OPTIMIZED, budget=expansions)
    assert (outcome.satisfied, outcome.expansions) == (satisfied, expansions)
    with pytest.raises(BudgetExceededError) as info:
        run_check(structure, team, formula, Engine.OPTIMIZED, budget=expansions - 1)
    assert info.value.expansions == expansions


def _conjoined_with_itself(instance):
    # a satisfied conjunct is probed twice in one table: the second probe is
    # a hit
    structure, team, formula = instance
    return structure, team, And(formula, formula)


_MEMO_CASES = [
    _reduced(_UNSAT_9_ROWS),
    _reduced(_UNSAT_12_ROWS),
    _skolem_instance(_SKOLEM_UNSAT),
    _conjoined_with_itself(_skolem_instance(_SKOLEM_SAT)),
    *(random_instance(random.Random(seed)) for seed in (133, 700, 738, 2961)),
]


@pytest.fixture
def runs(monkeypatch):
    """The evaluation runs that `run_check` starts during the test."""
    from teamcheck import evaluator

    runs = []

    class RecordedRun(evaluator._Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(evaluator, "_Run", RecordedRun)
    return runs


@pytest.mark.parametrize(
    "case",
    range(len(_MEMO_CASES)),
    ids=["3sat-9", "3sat-12", "skolem-unsat", "skolem-sat-twice", "133", "700", "738", "2961"],
)
def test_optimized_memo_holds_one_entry_per_expansion(runs, case):
    # every miss is stored once, and no hit is counted
    structure, team, formula = _MEMO_CASES[case]
    outcome = run_check(structure, team, formula, Engine.OPTIMIZED)
    (run,) = runs
    tables = [table for reg in run.registries.values() for table in reg.memos.values()]
    assert sum(map(len, tables)) == outcome.expansions > 0
    assert run.memo == {}


@pytest.mark.parametrize(
    "case",
    range(len(_MEMO_CASES)),
    ids=["3sat-9", "3sat-12", "skolem-unsat", "skolem-sat-twice", "133", "700", "738", "2961"],
)
def test_optimized_one_frame_per_expansion(case):
    # a miss is one call of its subformula's compiled closure, with no
    # wrapper frame around it; closures are the named functions defined in
    # `_opt_compile` and the step compilers (not their generator expressions)
    from teamcheck import evaluator

    compilers = {*evaluator._STEPS.values(), evaluator._literal_step, evaluator._opt_compile}
    closures = {
        code for compiler in compilers for code in compiler.__code__.co_consts
        if isinstance(code, types.CodeType) and not code.co_name.startswith("<")
    }
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in closures:
            calls[frame.f_code] += 1

    structure, team, formula = _MEMO_CASES[case]
    sys.setprofile(profile)
    try:
        outcome = run_check(structure, team, formula, Engine.OPTIMIZED)
    finally:
        sys.setprofile(None)
    assert sum(calls.values()) == outcome.expansions > 0


@pytest.mark.parametrize("team_domain,text,satisfied,expansions", _FO_PINNED)
def test_fo_tarski_memo_holds_one_entry_per_expansion(
    runs, team_domain, text, satisfied, expansions
):
    # fo_tarski keeps one memo per subformula for all variable domains, and
    # no registries
    outcome = _fo_on_triangle(team_domain, text)
    (run,) = runs
    assert sum(map(len, run.memo.values())) == outcome.expansions == expansions
    assert run.registries == {}


@pytest.mark.parametrize(
    "text",
    ["exists z (E(x,z) | forall w R(w))", "exists x (E(x,y) | forall y R(y))"],
    ids=["fresh", "rebinding"],
)
def test_naive_builds_no_registries(runs, pair, text):
    # registries are the optimized engine's row numbering alone
    team = Team(("x", "y"), frozenset({(0, 1), (1, 1)}))
    run_check(pair, team, fparse(text, pair), Engine.NAIVE)
    (run,) = runs
    assert run.registries == {}


def test_optimized_equal_subformulas_share_one_table(runs, pair):
    team = Team(("x", "y", "u", "v"), frozenset({(0, 1, 0, 1)}))
    formula = fparse("=(x;y) | =(u;v) | =(u;v)", pair)
    run_check(pair, team, formula, Engine.OPTIMIZED)
    (run,) = runs
    occurrences = list(subformulas(formula))
    assert len(occurrences) == 5
    memos = run.registries[team.domain].memos
    assert set(memos) == set(occurrences) and len(memos) == 4


@pytest.mark.parametrize("engine", [Engine.OPTIMIZED, Engine.FO_TARSKI, Engine.NAIVE])
@pytest.mark.parametrize(
    "text",
    ["exists z (E(x,z) | forall w R(w))", "exists x (E(x,y) | forall y R(y))"],
    ids=["fresh", "rebinding"],
)
def test_runs_leave_no_reference_cycles(pair, engine, text):
    # a run's registries, tables and closures are freed when `run_check`
    # returns, without the cyclic collector, also where a quantifier
    # rebinds a team variable and so quantifies over its own registry
    team = Team(("x", "y"), frozenset({(0, 1), (1, 1)}))
    gc.collect()
    gc.disable()
    try:
        run_check(pair, team, fparse(text, pair), engine)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _exits_three(tmp_path, structure, team, formula, engine, budget):
    from teamcheck import cli, pretty, structure_to_text, team_to_text

    texts = (structure_to_text(structure), team_to_text(team, structure), pretty(formula) + "\n")
    paths = [tmp_path / name for name in ("s", "t", "f")]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    argv = ["check", *map(str, paths), "--engine", engine, "--budget", str(budget)]
    return cli.main(argv) == 3


# the miss that trips the budget is on a node of the given kind
_KIND_BOUNDARIES = [
    # both splits search every partition; the second one's probes all hit
    (Or, ("x",), "(x = x | R(x)) & (x = x | x = x)", True, 15),
    # the inner conjunction's probes hit
    (And, ("x",), "x = x & (x = x & x = x)", True, 3),
    # `forall y` maps the full team to itself, where `x = x` is stored
    (Forall, ("x", "y"), "x = x & forall y x = x", True, 3),
    (DepAtom, ("x", "y"), "=(x;y) | =(y;x)", False, 577),
    (RelAtom, ("x", "y"), "E(x,y) | E(y,x)", False, 529),
]


@pytest.mark.parametrize(
    "kind,team_domain,text,satisfied,expansions",
    _KIND_BOUNDARIES,
    ids=[kind.__name__ for kind, *_ in _KIND_BOUNDARIES],
)
def test_optimized_budget_boundary_per_node_kind(
    runs, tmp_path, kind, team_domain, text, satisfied, expansions
):
    from teamcheck import formula_size

    structure, team, formula = _on_triangle(team_domain, text)
    outcome = run_check(structure, team, formula, Engine.OPTIMIZED, budget=expansions)
    assert (outcome.satisfied, outcome.expansions) == (satisfied, expansions)
    with pytest.raises(BudgetExceededError) as info:
        run_check(structure, team, formula, Engine.OPTIMIZED, budget=expansions - 1)
    assert info.value.expansions == expansions
    # the misses left unstored are the tripping one and the misses that
    # wait on it; each is a child of the one before, so the tripping one is
    # on the smallest subformula
    stored = [
        {(reg.domain, f, mask) for reg in run.registries.values()
         for f, table in reg.memos.items() for mask in table}
        for run in runs
    ]
    tripped = min((f for _, f, _ in stored[0] - stored[1]), key=formula_size)
    assert type(tripped) is kind
    assert _exits_three(tmp_path, structure, team, formula, "opt", expansions - 1)


@pytest.mark.parametrize("team_domain,text,satisfied,expansions", _FO_PINNED)
def test_fo_tarski_budget_boundary(tmp_path, team_domain, text, satisfied, expansions):
    structure, team, formula = _on_triangle(team_domain, text)
    outcome = run_check(structure, team, formula, Engine.FO_TARSKI, budget=expansions)
    assert (outcome.satisfied, outcome.expansions) == (satisfied, expansions)
    with pytest.raises(BudgetExceededError) as info:
        run_check(structure, team, formula, Engine.FO_TARSKI, budget=expansions - 1)
    assert info.value.expansions == expansions
    assert _exits_three(tmp_path, structure, team, formula, "fo", expansions - 1)


# per case: how many memo tables hold entries, and a digest of their sorted
# (subformula, registry domain, items in insertion order)
_MEMO_ORDER = [
    (4, "ddf4719e4c1b9945"),
    (4, "a836fa00b7bb23ca"),
    (4, "ab78596f7b64f7bc"),
    (5, "df98a2c32a21c025"),
    (12, "0789457947dbc11d"),
    (6, "2ff6b24be8e14eef"),
    (9, "06924997118a5048"),
    (8, "3583bbe45ee8a224"),
]


@pytest.mark.parametrize(
    "case",
    range(len(_MEMO_CASES)),
    ids=["3sat-9", "3sat-12", "skolem-unsat", "skolem-sat-twice", "133", "700", "738", "2961"],
)
def test_optimized_search_order_pinned(runs, case):
    # each table's insertion order is the order of its misses; subformulas
    # and registries are named by text and domain, not by their numbers
    from teamcheck import pretty

    structure, team, formula = _MEMO_CASES[case]
    run_check(structure, team, formula, Engine.OPTIMIZED)
    (run,) = runs
    records = sorted(
        (pretty(f), reg.domain, tuple(table.items()))
        for reg in run.registries.values()
        for f, table in reg.memos.items()
        if table
    )
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert (len(records), digest) == _MEMO_ORDER[case]


def _outcome_record(structure, team, formula, engine, budget):
    try:
        outcome = run_check(structure, team, formula, engine, budget)
    except BudgetExceededError as error:
        return "budget", error.budget, error.expansions
    except ValueError as error:
        return "error", str(error)
    return outcome.satisfied, outcome.engine.value, outcome.expansions


def _outcome_cases():
    for seed in range(3000):
        yield random_instance(random.Random(seed))
    # the input checks: an uninterpreted relation, a wrong arity, a missing
    # free variable
    structure = Structure(["a", "b"], relations={"E": (2, [("a", "b")])})
    team = Team(("x",), frozenset({(0,), (1,)}))
    for text, relations in (("Q(x)", {"Q": 1}), ("E(x)", {"E": 1}), ("E(x,y)", {"E": 2})):
        yield structure, team, parse_formula(text, Vocabulary(relations=relations))


def test_outcomes_pinned_on_random_instances():
    # the answer, engine and expansions, or the budget error or message, of
    # every engine choice with and without a budget; a refactor of the
    # engines must keep every one
    engines = (Engine.OPTIMIZED, Engine.FO_TARSKI, Engine.AUTO)
    records = [
        _outcome_record(*case, engine, budget)
        for case in _outcome_cases()
        for engine in engines
        for budget in (None, 7)
    ]
    assert len(records) == 3003 * 6
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == "99d8ed5f89ff01ba"


def test_existential_collisions_agree_with_naive():
    # `exists x` over a team that binds x: rows that differ only in x extend
    # to the same child row, which a child mask must hold once
    rng = random.Random(1044)
    bodies = ["=(y;x)", "=(;x)", "E(y,x) & =(;x)", "R(x) & =(y;x)",
              "=(;x) | =(y;x)", "forall z =(x;z) & E(y,x)"]
    universe = ["a0", "a1", "a2"]
    verdicts = collections.Counter()
    for _ in range(60):
        structure = Structure(universe, relations={
            "R": (1, [(u,) for u in universe if rng.random() < 0.6]),
            "E": (2, [p for p in itertools.product(universe, repeat=2) if rng.random() < 0.6]),
        })
        rows = rng.sample(list(itertools.product(range(3), repeat=2)), rng.randint(2, 3))
        team = Team(("x", "y"), frozenset(rows))
        collides = len({y for _, y in rows}) < len(rows)
        for body in bodies:
            f = fparse(f"exists x ({body})", structure)
            expected = check(structure, team, f, Engine.NAIVE)
            assert check(structure, team, f, Engine.OPTIMIZED) is expected, (rows, body)
            verdicts[collides, expected] += 1
    assert min(verdicts.values()) >= 10 and len(verdicts) == 4


def test_optimized_on_masks_wider_than_a_word():
    structure = Structure(["0", "1"])
    domain = ("x", "y", "z") + tuple(f"v{i}" for i in range(9))
    rows = {
        (x, y, x ^ y) + rest
        for x in (0, 1)
        for y in (0, 1)
        for rest in itertools.product((0, 1), repeat=9)
    }
    planted = (0, 0, 1) + (0,) * 9
    atom = fparse("=(x,y;z)", structure)
    for extra in ((), (planted,)):
        team = Team(domain, frozenset(rows.union(extra)))
        assert len(team) >= 2000
        expected = find_dep_violation(structure, team, atom) is None
        assert expected is not bool(extra)
        # the last formula meets the atom on a strict subteam of its registry
        for text in (
            "=(x,y;z)",
            "forall w =(x,y;z)",
            "(forall w forall x x = x) & forall w =(x,y;z)",
        ):
            outcome = run_check(structure, team, fparse(text, structure), Engine.OPTIMIZED)
            assert outcome.satisfied is expected, text


def test_mask_bits_round_trip():
    from teamcheck.evaluator import _bits, _mask_of

    rng = random.Random(64)
    for width in (1, 63, 64, 65, 2000, 50_000):
        for count in (0, 1, width // 3, width):
            numbers = sorted(rng.sample(range(width), count))
            mask = _mask_of(numbers, width)
            assert mask == sum(1 << i for i in numbers)
            assert _bits(mask) == numbers


def test_mask_bits_match_the_binary_string_reading():
    from teamcheck.evaluator import _bits

    def by_binary_string(mask):
        return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]

    rng = random.Random(300)
    for width in range(301):
        for _ in range(8):
            mask = rng.getrandbits(width)
            assert _bits(mask) == by_binary_string(mask), mask
        assert _bits((1 << width) - 1) == list(range(width))
        if width:
            assert _bits(1 << (width - 1)) == [width - 1]


def test_expansion_counts_are_deterministic(pair):
    team = Team.from_named_rows(("x",), [("0",), ("1",)], pair)
    f = fparse("R(x) | !R(x)", pair)
    counts = {
        engine: [run_check(pair, team, f, engine).expansions for _ in range(3)]
        for engine in (Engine.NAIVE, Engine.OPTIMIZED)
    }
    for runs in counts.values():
        assert len(set(runs)) == 1


# --- engine agreement and semantic properties (smoke scale) ------------------------

def test_engines_agree_on_random_instances():
    rng = random.Random(2718)
    for _ in range(120):
        structure, team, formula = random_instance(
            rng, max_rows=3, cost="naive", cost_cap=120_000
        )
        expected = check(structure, team, formula, Engine.NAIVE)
        assert check(structure, team, formula, Engine.OPTIMIZED) is expected


def test_locality_smoke():
    rng = random.Random(1234)
    for _ in range(120):
        structure, team, formula = random_instance(rng, max_rows=4)
        wider = team.duplicate("pad", structure)
        direct = check(structure, wider, formula, Engine.OPTIMIZED)
        local = check(
            structure,
            wider.restrict(sorted(free_variables(formula))),
            formula,
            Engine.OPTIMIZED,
        )
        assert direct is local


def test_downward_closure_smoke():
    rng = random.Random(87)
    hits = 0
    for _ in range(150):
        structure, team, formula = random_instance(rng, max_rows=4)
        if not check(structure, team, formula, Engine.OPTIMIZED):
            continue
        hits += 1
        rows = sorted(team.rows)
        for size in range(len(rows) + 1):
            for combo in itertools.combinations(rows, size):
                sub = Team(team.domain, frozenset(combo))
                assert check(structure, sub, formula, Engine.OPTIMIZED)
    assert hits >= 20


def test_flatness_smoke():
    rng = random.Random(5150)
    for _ in range(150):
        structure, team, formula = random_instance(rng, allow_dep=False, max_rows=4)
        by_team = check(structure, team, formula, Engine.OPTIMIZED)
        by_rows = all(
            check_fo_tarski(structure, assignment, formula)
            for assignment in team.assignments()
        )
        assert by_team is by_rows
        assert check(structure, team, formula, Engine.FO_TARSKI) is by_team


def test_sentence_team_invariance_smoke():
    rng = random.Random(606)
    for _ in range(100):
        structure, team, sentence = random_instance(
            rng, close=True, allow_empty_team=False, max_rows=3
        )
        assert free_variables(sentence) == frozenset()
        on_team = check(structure, team, sentence, Engine.OPTIMIZED)
        on_unit = check(structure, Team.of_empty_assignment(), sentence, Engine.OPTIMIZED)
        assert on_team is on_unit


def test_dependence_arity_normalization_smoke():
    rng = random.Random(414)
    for _ in range(200):
        structure = Structure([f"a{i}" for i in range(rng.randint(1, 3))])
        domain = ("x", "y", "z")
        team = random_team(rng, structure, domain, max_rows=5)
        antecedent = tuple(Var(rng.choice(domain)) for _ in range(rng.randint(0, 2)))
        consequents = [Var(rng.choice(domain)) for _ in range(rng.randint(1, 3))]
        wide = DepAtom(antecedent, tuple(consequents))
        narrow = DepAtom(antecedent, (consequents[0],))
        for y in consequents[1:]:
            narrow = And(narrow, DepAtom(antecedent, (y,)))
        assert check(structure, team, wide) is check(structure, team, narrow)
