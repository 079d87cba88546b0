from __future__ import annotations

import random
import re

import pytest

from teamcheck import (
    CNF,
    CNFError,
    And,
    DepAtom,
    Engine,
    Exists,
    FormulaSyntaxError,
    Or,
    RelAtom,
    Team,
    Var,
    Vocabulary,
    analyze,
    check,
    evaluate_cnf,
    extract_valuation,
    free_variables,
    gaifman,
    parse_dimacs,
    parse_formula,
    parse_pdl,
    pdl_check,
    pdl_propositions,
    pdl_sat_brute,
    pretty,
    pretty_pdl,
    reduce_3sat,
    reduce_pdl,
    sat_brute,
    treewidth_exact,
)

from brute import dpll
from conftest import cyclic_garbage, outcome
from depgen import random_cnf, random_pdl


# --- DIMACS ------------------------------------------------------------------

def test_parse_dimacs_basic():
    cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_dimacs_clause_spanning_lines():
    cnf = parse_dimacs("p cnf 2 1\n1 -2\n2 0\n")
    assert cnf.clauses == ((1, -2, 2),)


def test_parse_dimacs_rejects_wrong_clause_width():
    with pytest.raises(CNFError, match="exactly 3"):
        parse_dimacs("p cnf 2 1\n1 -2 0\n")


def test_parse_dimacs_rejects_bad_header_and_counts():
    with pytest.raises(CNFError, match="header"):
        parse_dimacs("1 2 3 0\n")
    with pytest.raises(CNFError, match="promises"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(CNFError, match="unterminated"):
        parse_dimacs("p cnf 3 1\n1 2 3\n")


def test_parse_dimacs_stops_at_satlib_end_marker():
    # SATLIB files end with a '%' line and then a lone '0'
    cnf = parse_dimacs("p cnf 3 1\n1 -2 3 0\n%\n0\n")
    assert cnf.clauses == ((1, -2, 3),)


def test_cnf_rejects_out_of_range_literals():
    with pytest.raises(CNFError, match="out of range"):
        CNF(2, ((1, 2, 3),))


# --- brute-force SAT oracle -----------------------------------------------------

def test_sat_brute_trivially_satisfiable():
    assert sat_brute(CNF(1, ((1, 1, 1),)))


def test_sat_brute_contradiction():
    assert not sat_brute(CNF(1, ((1, 1, 1), (-1, -1, -1))))


def test_sat_brute_agrees_with_dpll_on_random_cnfs():
    rng = random.Random(112)
    for _ in range(100):
        cnf = random_cnf(rng, num_vars=4, num_clauses=4)
        assert sat_brute(cnf) is dpll(cnf)


def test_sat_brute_cap():
    with pytest.raises(ValueError, match="capped"):
        sat_brute(CNF(21, ()))


# --- clause-team reduction --------------------------------------------------------

def test_reduce_3sat_single_clause_rows():
    cnf = parse_dimacs("p cnf 3 1\n1 -2 -3 0\n")
    structure, team, formula = reduce_3sat(cnf)
    rows = {
        tuple(a.named(structure)[v] for v in ("x", "y", "u", "v"))
        for a in team.assignments()
    }
    assert rows == {
        ("p1", "1", "1", "0"),
        ("p2", "0", "1", "1"),
        ("p3", "0", "1", "2"),
    }
    assert pretty(formula) == "=(x;y) | =(u;v) | =(u;v)"


def test_reduce_3sat_counts():
    cnf = random_cnf(random.Random(5), num_vars=4, num_clauses=3)
    structure, team, _ = reduce_3sat(cnf)
    assert len(team) == 3 * 3
    assert structure.size == 4 + 3 + 1
    assert set(structure.universe) == {"p1", "p2", "p3", "p4", "0", "1", "2", "3"}


def test_reduce_3sat_tiny_instances_keep_positions_in_universe():
    # with fewer than two clauses the numeral block is padded to {0,1,2}
    structure, team, _ = reduce_3sat(parse_dimacs("p cnf 1 1\n1 1 1 0\n"))
    assert set(structure.universe) == {"p1", "0", "1", "2"}
    assert len(team) == 3


def test_reduce_3sat_unsatisfiable_pair():
    cnf = parse_dimacs("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    assert not sat_brute(cnf)
    structure, team, formula = reduce_3sat(cnf)
    assert not check(structure, team, formula, Engine.OPTIMIZED)
    assert extract_valuation(cnf, structure, team) is None


def test_reduce_3sat_matches_brute_force_on_random_cnfs():
    rng = random.Random(86)
    for _ in range(30):
        cnf = random_cnf(rng, num_vars=3, num_clauses=rng.randint(1, 3))
        structure, team, formula = reduce_3sat(cnf)
        assert check(structure, team, formula, Engine.OPTIMIZED) is sat_brute(cnf)


def test_extracted_valuation_satisfies_cnf():
    rng = random.Random(303)
    found = 0
    for _ in range(40):
        cnf = random_cnf(rng, num_vars=4, num_clauses=rng.randint(1, 4))
        structure, team, _ = reduce_3sat(cnf)
        valuation = extract_valuation(cnf, structure, team)
        if valuation is None:
            assert not sat_brute(cnf)
            continue
        found += 1
        assert evaluate_cnf(cnf, valuation)
    assert found >= 25


def test_valuation_and_pdl_reduction_leave_no_reference_cycles():
    # both recurse through module-level functions, not through closures
    # that reach themselves
    rng = random.Random(304)
    for _ in range(10):
        cnf = random_cnf(rng, num_vars=4, num_clauses=rng.randint(1, 4))
        structure, team, _ = reduce_3sat(cnf)
        valuation, garbage = cyclic_garbage(extract_valuation, cnf, structure, team)
        assert garbage == 0
        assert valuation is None or evaluate_cnf(cnf, valuation)
        _, garbage = cyclic_garbage(reduce_pdl, random_pdl(rng, ("p1", "p2", "p3"), 3))
        assert garbage == 0


def test_reduced_instance_parameters():
    cnf = random_cnf(random.Random(17), num_vars=4, num_clauses=4)
    structure, team, formula = reduce_3sat(cnf)
    params = analyze(formula)
    assert (params.splits, params.foralls, params.arity, params.free_vars) == (2, 0, 1, 4)
    width, _ = treewidth_exact(gaifman(structure))
    assert width == 0


# --- propositional dependence logic -----------------------------------------------

def _true(p: str, negated: bool = False) -> RelAtom:
    return RelAtom("TRUE", (Var(p),), negated)


def test_parse_pdl():
    f = parse_pdl("p1 & !p2 | =(p1;p2)")
    assert f == Or(
        And(_true("p1"), _true("p2", negated=True)),
        DepAtom((Var("p1"),), (Var("p2"),)),
    )
    assert pdl_propositions(f) == ("p1", "p2")
    assert parse_pdl(pretty_pdl(f)) == f


def test_parse_pdl_rejects_quantifiers_and_equality():
    for text, message in (
        ("exists p1 p1", "expected a proposition, found 'exists' (at position 0)"),
        ("forall", "expected a proposition, found 'forall' (at position 0)"),
        ("p1 = p2", "unexpected token '=' after formula (at position 3)"),
        ("!(p)", "expected a proposition, found '(' (at position 1)"),
        ("=(p;)", "expected a proposition, found ')' (at position 4)"),
        ("=(p q)", "expected ';', found 'q' (at position 4)"),
        ("", "unexpected end of input (at position 0)"),
        # `TRUE(TRUE)` would not read back under {TRUE/1}
        ("TRUE & =(TRUE;p)", "expected a proposition, found 'TRUE' (at position 0)"),
        ("p & =(q;TRUE)", "expected a proposition, found 'TRUE' (at position 8)"),
    ):
        with pytest.raises(FormulaSyntaxError, match=f"^{re.escape(message)}$"):
            parse_pdl(text)


def test_pdl_round_trip_and_proposition_order():
    rng = random.Random(909)
    vocab = Vocabulary(relations={"TRUE": 1})
    for _ in range(500):
        f = random_pdl(rng, ("p1", "p2", "q", "r"), depth=rng.randint(0, 4))
        text = pretty_pdl(f)
        assert parse_pdl(text) == f
        names = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
        assert pdl_propositions(f) == tuple(dict.fromkeys(names))
        # a PDL formula is the first-order formula with each literal p as TRUE(p)
        fo_text = re.sub(
            r"=\([^)]*\)|([A-Za-z_]\w*)", lambda m: f"TRUE({m[1]})" if m[1] else m[0], text
        )
        assert parse_pdl(text) == parse_formula(fo_text, vocab)
        assert parse_formula(pretty(f), vocab) == f


def test_pdl_functions_reject_formulas_outside_pdl():
    vocab = Vocabulary(relations={"TRUE": 1, "R": 1}, functions={"f": 1}, constants={"c"})
    for text in ("R(x)", "TRUE(c)", "TRUE(f(x))", "x = y", "exists x TRUE(x)", "=(c;x)"):
        for outer in (text, f"TRUE(p) | (=(p;q) & {text})"):
            formula = parse_formula(outer, vocab)
            for call in (
                lambda: pdl_check([], formula),
                lambda: pdl_sat_brute(formula),
                lambda: pretty_pdl(formula),
                lambda: reduce_pdl(formula),
            ):
                with pytest.raises(TypeError, match="^not a PDL formula: "):
                    call()


def test_pdl_check_empty_team():
    f = parse_pdl("p & !p")
    assert pdl_check([], f)


def test_pdl_check_dependence_over_all_assignments():
    f = parse_pdl("=(p;q)")
    rows = [{"p": a, "q": b} for a in (0, 1) for b in (0, 1)]
    assert not pdl_check(rows, f)
    assert pdl_check([{"p": 0, "q": 1}, {"p": 1, "q": 1}], f)


def test_pdl_check_single_assignment_literal():
    assert pdl_check([{"p": 1}], parse_pdl("p"))
    assert not pdl_check([{"p": 0}], parse_pdl("p"))


def test_pdl_check_requires_total_assignments():
    with pytest.raises(ValueError, match="missing proposition"):
        pdl_check([{"p": 1}], parse_pdl("p & q"))


def test_pdl_check_split_uses_covers():
    f = parse_pdl("=(;p) | =(;q)")
    rows = [{"p": 0, "q": 0}, {"p": 0, "q": 1}, {"p": 1, "q": 1}]
    assert pdl_check(rows, f)
    assert not pdl_check(
        [{"p": 0, "q": 0}, {"p": 0, "q": 1}, {"p": 1, "q": 0}, {"p": 1, "q": 1}], f
    )


def test_pdl_sat_brute_examples():
    assert not pdl_sat_brute(parse_pdl("p & !p"))
    assert pdl_sat_brute(parse_pdl("=(;p)"))
    assert pdl_sat_brute(parse_pdl("=(p;q) & (p | !p)"))


def test_pdl_sat_brute_cap():
    wide = _true("p0")
    for i in range(1, 11):
        wide = And(wide, _true(f"p{i}"))
    with pytest.raises(ValueError, match="capped"):
        pdl_sat_brute(wide)


def test_pdl_sat_brute_agrees_with_team_enumeration():
    rng = random.Random(2020)
    props = ("p1", "p2")
    assignments = [
        {p: bits >> i & 1 for i, p in enumerate(props)} for bits in range(4)
    ]
    for _ in range(60):
        f = random_pdl(rng, props, depth=2)
        by_teams = False
        for mask in range(1, 16):
            team = [assignments[i] for i in range(4) if mask >> i & 1]
            if pdl_check(team, f):
                by_teams = True
                break
        assert pdl_sat_brute(f) is by_teams


# --- PDL to first-order reduction ----------------------------------------------------

def test_reduce_pdl_single_proposition():
    structure, team, formula = reduce_pdl(parse_pdl("p1"))
    assert formula == Exists("x1", RelAtom("TRUE", (Var("x1"),)))
    assert pretty(formula) == "exists x1 TRUE(x1)"
    assert structure.universe == ("0", "1")
    assert team.domain == () and len(team) == 1
    assert check(structure, team, formula)


def test_reduce_pdl_contradiction():
    structure, team, formula = reduce_pdl(parse_pdl("p1 & !p1"))
    assert not check(structure, team, formula)


def test_reduce_pdl_constancy_split():
    structure, team, formula = reduce_pdl(parse_pdl("=(;p1) | =(;p1)"))
    assert pdl_sat_brute(parse_pdl("=(;p1) | =(;p1)"))
    assert check(structure, team, formula)


def test_reduce_pdl_has_no_universal_quantifiers():
    rng = random.Random(41)
    for _ in range(40):
        f = random_pdl(rng, ("p1", "p2", "p3"), depth=2)
        structure, team, formula = reduce_pdl(f)
        params = analyze(formula)
        assert params.foralls == 0
        assert free_variables(formula) == frozenset()
        assert structure.size == 2


def test_reduce_pdl_agrees_with_brute_force():
    rng = random.Random(4242)
    for _ in range(50):
        f = random_pdl(rng, ("p1", "p2", "p3"), depth=2)
        structure, team, formula = reduce_pdl(f)
        assert check(structure, team, formula, Engine.OPTIMIZED) is pdl_sat_brute(f)


def test_pdl_team_semantics_matches_first_order_view():
    # not just satisfiability: satisfaction of each individual team must
    # coincide with the first-order evaluation of the translated formula
    from teamcheck import Team
    from brute import fo_view_of_pdl

    rng = random.Random(9009)
    props = ("p1", "p2")
    for _ in range(200):
        f = random_pdl(rng, props, depth=2)
        structure, fo = fo_view_of_pdl(f)
        mask = rng.randint(0, 15)
        rows = [
            {p: bits >> i & 1 for i, p in enumerate(props)}
            for bits in range(4)
            if mask >> bits & 1
        ]
        team = Team(
            props,
            frozenset(tuple(r[p] for p in props) for r in rows),
        )
        for engine in (Engine.NAIVE, Engine.OPTIMIZED):
            assert check(structure, team, fo, engine) is pdl_check(rows, f)


ONE_CLAUSE = CNF(3, [(1, 2, 3)])


def _valuation_of_team(cnf: CNF, domain: tuple[str, ...], rows: list[tuple[str, ...]]):
    structure, _, _ = reduce_3sat(ONE_CLAUSE)
    return extract_valuation(cnf, structure, Team.from_named_rows(domain, rows, structure))


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: parse_dimacs("p cnf 1\n"),
            (CNFError, "line 1: bad DIMACS header 'p cnf 1'"),
            id="header-of-three-fields",
        ),
        pytest.param(
            lambda: parse_dimacs("p cnf x 1\n"),
            (CNFError, "line 1: bad DIMACS header 'p cnf x 1'"),
            id="header-count-not-a-number",
        ),
        pytest.param(
            lambda: parse_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n"),
            (CNFError, "line 2: duplicate DIMACS header"),
            id="duplicate-header",
        ),
        pytest.param(
            lambda: parse_dimacs("c no header\n"),
            (CNFError, "missing DIMACS header"),
            id="missing-header",
        ),
        pytest.param(
            lambda: parse_dimacs("p cnf 3 1\n1 2 x 0\n"),
            (CNFError, "line 2: bad literal 'x'"),
            id="bad-literal",
        ),
        # numbers are ASCII digits with an optional '-'; int() alone reads these
        pytest.param(
            lambda: parse_dimacs("p cnf 3 1_0\n"),
            (CNFError, "line 1: bad DIMACS header 'p cnf 3 1_0'"),
            id="header-count-with-underscore",
        ),
        pytest.param(
            lambda: parse_dimacs("p cnf \uff13 1\n1 2 3 0\n"),
            (CNFError, "line 1: bad DIMACS header 'p cnf \uff13 1'"),
            id="header-count-fullwidth-digit",
        ),
        pytest.param(
            lambda: parse_dimacs("p cnf 3 1\n+3 1 2 0\n"),
            (CNFError, "line 2: bad literal '+3'"),
            id="literal-with-plus-sign",
        ),
        pytest.param(
            lambda: parse_dimacs("p cnf 3 1\n\u0661 2 3 0\n"),
            (CNFError, "line 2: bad literal '\u0661'"),
            id="literal-arabic-indic-digit",
        ),
        pytest.param(
            lambda: _valuation_of_team(ONE_CLAUSE, ("x",), [("p1",)]),
            (ValueError, "team does not have the reduced-instance shape"),
            id="valuation-team-shape",
        ),
        pytest.param(
            lambda: _valuation_of_team(
                CNF(3, [(1, 2, 3)] * 2), ("x", "y", "u", "v"), [("p1", "1", "1", "0")]
            ),
            (ValueError, "team does not cover the CNF's clause indices"),
            id="valuation-clause-range",
        ),
        pytest.param(
            lambda: pdl_check([{"p": 2}], parse_pdl("p")),
            (ValueError, "proposition 'p' has non-boolean value 2"),
            id="pdl-non-boolean-value",
        ),
    ],
)
def test_reduction_input_errors(call, expected):
    assert outcome(call) == expected
