"""End-to-end acceptance criteria.

Each test covers one criterion, runs it at its stated tolerance, and
prints a single pass/fail line (run with ``pytest -sv`` to see the lines
for passing criteria).  Instance corpora are deterministic and cached so
the parameter-relation criterion can revisit every instance the other
criteria used.
"""

from __future__ import annotations

import itertools
import random
import time

from teamcheck import (
    And,
    CNF,
    DepAtom,
    Engine,
    Team,
    Var,
    check,
    check_fo_tarski,
    evaluate_cnf,
    extract_valuation,
    free_variables,
    gaifman,
    has_dependence_atoms,
    parse_formula,
    pdl_check,
    pdl_propositions,
    pdl_sat_brute,
    reduce_3sat,
    reduce_pdl,
    sat_brute,
    treewidth_exact,
    validate_decomposition,
)
from teamcheck.cli import build_report, main as cli_main
from teamcheck.syntax import subformulas

from conftest import (
    DEPARTURES_EDGES,
    departures_reference_decomposition,
    load_departures_structure,
    load_flight_instance,
)
from depgen import (
    optimized_cost_bound,
    random_cnf,
    random_formula,
    random_instance,
    random_pdl,
    random_structure,
    random_team,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


_CACHE: dict[str, list] = {}


def _cached(name: str, build):
    if name not in _CACHE:
        _CACHE[name] = build()
    return _CACHE[name]


# --- criterion 1: departures-board dependence checks -----------------------------

FLIGHT_QUERIES = (
    ("=(Flight,Date,Time;Destination,Gate)", True),
    ("=(Gate,Date,Time;Destination,Flight)", True),
    ("=(Destination,Gate;Time)", False),
)


def test_criterion_1_flight_board_checks():
    start = time.monotonic()
    structure, team = load_flight_instance()
    ok = True
    for text, expected in FLIGHT_QUERIES:
        formula = parse_formula(text, structure.vocabulary())
        ok = ok and check(structure, team, formula) is expected
    from teamcheck import find_dep_violation

    atom = parse_formula(FLIGHT_QUERIES[2][0], structure.vocabulary())
    witness = find_dep_violation(structure, team, atom)
    ok = ok and witness is not None
    if witness:
        flights = {w.named(structure)["Flight"] for w in witness}
        ok = ok and flights == {"FIN-70", "FIN-80"}
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"three dependence checks plus witness pair ({elapsed:.3f}s)")


# --- criterion 2: structural pipeline on the departures fragment ------------------

def test_criterion_2_structural_pipeline():
    start = time.monotonic()
    structure = load_departures_structure()
    graph = gaifman(structure)
    ok = {frozenset(e) for e in graph.edges} == DEPARTURES_EDGES
    ok = ok and len(graph.edges) == 14
    width, decomposition = treewidth_exact(graph)
    ok = ok and width == 2 and validate_decomposition(graph, decomposition).ok
    reference = departures_reference_decomposition()
    ok = ok and validate_decomposition(graph, reference).ok and reference.width == 2
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(2, ok, f"14-edge Gaifman graph, exact treewidth 2 ({elapsed:.3f}s)")


# --- criterion 3: 3-SAT reduction against the brute-force oracle ------------------

def _exhaustive_small_cnfs() -> list[CNF]:
    literals = (1, -1, 2, -2, 3, -3)
    clauses = sorted(
        {tuple(sorted(c)) for c in itertools.combinations_with_replacement(literals, 3)}
    )
    family = [CNF(3, (clause,)) for clause in clauses]
    family += [
        CNF(3, pair)
        for pair in itertools.combinations_with_replacement(clauses, 2)
    ]
    return family


def _criterion_3_cnfs() -> list[CNF]:
    # 180 natural draws plus 20 rejection-sampled unsatisfiable ones, so the
    # completeness direction of the reduction is exercised as well
    rng = random.Random(93003)
    random_family = [
        random_cnf(rng, num_vars=rng.randint(2, 4), num_clauses=rng.randint(1, 4))
        for _ in range(180)
    ]
    unsat_block: list[CNF] = []
    while len(unsat_block) < 20:
        cnf = random_cnf(rng, num_vars=2, num_clauses=4)
        if not sat_brute(cnf):
            unsat_block.append(cnf)
    return _exhaustive_small_cnfs() + random_family + unsat_block


def test_criterion_3_sat_reduction_equivalence():
    start = time.monotonic()
    cnfs = _cached("crit3", _criterion_3_cnfs)
    disagreements = 0
    witness_failures = 0
    satisfied = 0
    for cnf in cnfs:
        structure, team, formula = reduce_3sat(cnf)
        expected = sat_brute(cnf)
        got = check(structure, team, formula, Engine.OPTIMIZED)
        if got is not expected:
            disagreements += 1
            continue
        valuation = extract_valuation(cnf, structure, team)
        if expected:
            satisfied += 1
            if valuation is None or not evaluate_cnf(cnf, valuation):
                witness_failures += 1
        elif valuation is not None:
            witness_failures += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and witness_failures == 0 and elapsed < 300.0
    _report(
        3,
        ok,
        f"{len(cnfs)} CNFs (exhaustive family plus 200 random), "
        f"{satisfied} satisfiable, 0 disagreements ({elapsed:.1f}s)",
    )


# --- criterion 4: PDL reduction equivalence ------------------------------------------

def _criterion_4_pdls():
    # as for the CNF corpus, guarantee a block of unsatisfiable formulas so
    # the full team enumeration runs without an early exit
    rng = random.Random(94004)
    formulas = [random_pdl(rng, ("p1", "p2", "p3"), depth=2) for _ in range(180)]
    unsat_block = []
    while len(unsat_block) < 20:
        candidate = random_pdl(rng, ("p1", "p2", "p3"), depth=2)
        if not pdl_sat_brute(candidate):
            unsat_block.append(candidate)
    return formulas + unsat_block


def _team_enumeration_satisfiable(formula) -> bool:
    props = pdl_propositions(formula)
    assignments = [
        {p: bits >> i & 1 for i, p in enumerate(props)}
        for bits in range(1 << len(props))
    ]
    indices = range(len(assignments))
    for size in range(1, len(assignments) + 1):
        for combo in itertools.combinations(indices, size):
            if pdl_check([assignments[i] for i in combo], formula):
                return True
    return False


def test_criterion_4_pdl_reduction_equivalence():
    start = time.monotonic()
    formulas = _cached("crit4", _criterion_4_pdls)
    disagreements = 0
    satisfiable = 0
    for formula in formulas:
        structure, team, fo_formula = reduce_pdl(formula)
        by_reduction = check(structure, team, fo_formula, Engine.OPTIMIZED)
        by_brute = pdl_sat_brute(formula)
        by_enumeration = _team_enumeration_satisfiable(formula)
        if not (by_reduction is by_brute is by_enumeration):
            disagreements += 1
        elif by_brute:
            satisfiable += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 120.0
    _report(
        4,
        ok,
        f"200 PDL formulas, three routes agree, {satisfiable} satisfiable ({elapsed:.1f}s)",
    )


# --- criterion 5: naive and optimized engines agree -----------------------------------

def _exhaustive_engine_family():
    from teamcheck import Structure

    structure = Structure(
        ["0", "1"],
        relations={"R": (1, [("1",)]), "E": (2, [("0", "1")])},
        functions={"f": (1, {"0": "1", "1": "0"})},
        constants={"c": "0"},
    )
    vocab = structure.vocabulary()
    formula_texts = [
        "R(x)",
        "!R(x)",
        "E(x,y)",
        "!E(x,y)",
        "x = y",
        "x = c",
        "R(f(x))",
        "=(x;y)",
        "=(;x)",
        "=(x,y;x)",
        "=(f(x);y)",
        "R(x) | R(x)",
        "=(;x) | =(;y)",
        "=(x;y) | =(x;y)",
        "R(x) & =(x;y)",
        "x = y | !E(x,y)",
        "(R(x) | E(x,y)) & =(;y)",
        "=(;x) | =(;x) | =(;x)",
        "exists z E(x,z)",
        "exists z (E(x,z) | R(z))",
        "forall z (E(z,x) | R(z))",
        "exists z (=(z;x) & E(y,z))",
        "exists z exists w E(z,w)",
        "forall z exists w E(z,w)",
        "exists z (R(z) & =(z;x))",
        "forall z =(x;z)",
        "exists z =(;z)",
        "forall z (R(z) | =(;z))",
    ]
    formulas = [parse_formula(text, vocab) for text in formula_texts]
    assert all(sum(1 for _ in subformulas(f)) <= 12 for f in formulas)
    all_rows = [(a, b) for a in range(2) for b in range(2)]
    teams = []
    for size in range(len(all_rows) + 1):
        for combo in itertools.combinations(all_rows, size):
            teams.append(Team(("x", "y"), frozenset(combo)))
    return [(structure, team, formula) for team in teams for formula in formulas]


def _criterion_5_random_instances():
    rng = random.Random(95005)
    instances = []
    while len(instances) < 500:
        candidate = random_instance(rng, max_rows=4, cost="naive", cost_cap=150_000)
        if sum(1 for _ in subformulas(candidate[2])) <= 12:
            instances.append(candidate)
    return instances


def test_criterion_5_engine_equivalence():
    start = time.monotonic()
    exhaustive = _cached("crit5_exhaustive", _exhaustive_engine_family)
    randoms = _cached("crit5_random", _criterion_5_random_instances)
    disagreements = 0
    for structure, team, formula in exhaustive + randoms:
        a = check(structure, team, formula, Engine.NAIVE)
        b = check(structure, team, formula, Engine.OPTIMIZED)
        if a is not b:
            disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 600.0
    _report(
        5,
        ok,
        f"{len(exhaustive)} exhaustive plus {len(randoms)} random instances, "
        f"0 disagreements ({elapsed:.1f}s)",
    )


# --- criterion 6: property suites -------------------------------------------------------

SUITE_SIZE = 1000

SUITE_SEEDS = {
    "empty-team": 61001,
    "locality": 61002,
    "downward": 61003,
    "flatness": 61004,
    "sentence": 61005,
    "dep-arity": 61006,
}


def _suite_instances(name: str) -> list:
    def build():
        rng = random.Random(SUITE_SEEDS[name])
        out = []
        if name == "empty-team":
            for _ in range(SUITE_SIZE):
                structure = random_structure(rng)
                formula = random_formula(rng, structure, ["x", "y", "z"], depth=3)
                out.append((structure, Team(("x", "y", "z"), frozenset()), formula))
        elif name == "locality":
            for _ in range(SUITE_SIZE):
                while True:
                    structure, team, formula = random_instance(rng, max_rows=4)
                    padded = team.duplicate("pad", structure)
                    bound = optimized_cost_bound(
                        formula, max(len(padded), 1), structure.size
                    )
                    if bound <= 150_000:
                        break
                out.append((structure, padded, formula))
        elif name == "downward":
            for _ in range(SUITE_SIZE):
                out.append(random_instance(rng, max_rows=5, cost_cap=60_000))
        elif name == "flatness":
            for _ in range(SUITE_SIZE):
                out.append(random_instance(rng, allow_dep=False, max_rows=4))
        elif name == "sentence":
            for _ in range(SUITE_SIZE):
                out.append(
                    random_instance(rng, close=True, allow_empty_team=False, max_rows=3)
                )
        elif name == "dep-arity":
            for _ in range(SUITE_SIZE):
                structure = random_structure(rng)
                domain = ("x", "y", "z")
                team = random_team(rng, structure, domain, max_rows=5)
                antecedent = tuple(
                    Var(rng.choice(domain)) for _ in range(rng.randint(0, 2))
                )
                consequent = tuple(
                    Var(rng.choice(domain)) for _ in range(rng.randint(1, 3))
                )
                out.append((structure, team, DepAtom(antecedent, consequent)))
        return out

    return _cached(f"crit6:{name}", build)


def test_criterion_6_property_suites():
    start = time.monotonic()
    violations: list[str] = []

    for structure, team, formula in _suite_instances("empty-team"):
        engines = [Engine.NAIVE, Engine.OPTIMIZED]
        if not has_dependence_atoms(formula):
            engines.append(Engine.FO_TARSKI)
        for engine in engines:
            if not check(structure, team, formula, engine):
                violations.append("empty-team")

    for structure, team, formula in _suite_instances("locality"):
        direct = check(structure, team, formula, Engine.OPTIMIZED)
        local = check(
            structure,
            team.restrict(sorted(free_variables(formula))),
            formula,
            Engine.OPTIMIZED,
        )
        if direct is not local:
            violations.append("locality")

    downward_satisfied = 0
    for structure, team, formula in _suite_instances("downward"):
        if not check(structure, team, formula, Engine.OPTIMIZED):
            continue
        downward_satisfied += 1
        rows = sorted(team.rows)
        for size in range(len(rows) + 1):
            for combo in itertools.combinations(rows, size):
                sub = Team(team.domain, frozenset(combo))
                if not check(structure, sub, formula, Engine.OPTIMIZED):
                    violations.append("downward")

    for structure, team, formula in _suite_instances("flatness"):
        by_team = check(structure, team, formula, Engine.OPTIMIZED)
        by_rows = all(
            check_fo_tarski(structure, assignment, formula)
            for assignment in team.assignments()
        )
        if by_team is not by_rows:
            violations.append("flatness")

    for structure, team, sentence in _suite_instances("sentence"):
        on_team = check(structure, team, sentence, Engine.OPTIMIZED)
        on_unit = check(
            structure, Team.of_empty_assignment(), sentence, Engine.OPTIMIZED
        )
        if on_team is not on_unit:
            violations.append("sentence")

    for structure, team, atom in _suite_instances("dep-arity"):
        narrow = DepAtom(atom.antecedent, (atom.consequent[0],))
        for y in atom.consequent[1:]:
            narrow = And(narrow, DepAtom(atom.antecedent, (y,)))
        if check(structure, team, atom) is not check(structure, team, narrow):
            violations.append("dep-arity")

    elapsed = time.monotonic() - start
    ok = not violations and downward_satisfied >= 200
    _report(
        6,
        ok,
        f"six suites x {SUITE_SIZE} instances, {len(violations)} violations, "
        f"{downward_satisfied} satisfied downward-closure bases ({elapsed:.1f}s)",
    )


# --- criterion 7: parameter relations on every instance above ---------------------------

def test_criterion_7_parameter_relations():
    start = time.monotonic()
    failures = 0
    count = 0

    def inspect(structure, team, formula):
        nonlocal failures, count
        count += 1
        report = build_report(structure, team, formula)
        sys_params = (
            report.splits,
            report.foralls,
            report.arity,
            report.vars,
            report.free_vars,
        )
        if report.size < max(sys_params):
            failures += 1
        if report.treewidth > report.structure_size - 1:
            failures += 1
        if set(team.domain) == free_variables(formula):
            if report.team_size > report.structure_size**report.free_vars:
                failures += 1

    flight_structure, flight_team = load_flight_instance()
    for text, _ in FLIGHT_QUERIES:
        inspect(
            flight_structure,
            flight_team,
            parse_formula(text, flight_structure.vocabulary()),
        )

    departures = load_departures_structure()
    inspect(
        departures,
        Team.from_named_rows(("x", "y"), [("F7", "C1")], departures),
        parse_formula("=(x;y)"),
    )

    for cnf in _cached("crit3", _criterion_3_cnfs):
        inspect(*reduce_3sat(cnf))

    for formula in _cached("crit4", _criterion_4_pdls):
        inspect(*reduce_pdl(formula))

    for instance in _cached("crit5_exhaustive", _exhaustive_engine_family):
        inspect(*instance)
    for instance in _cached("crit5_random", _criterion_5_random_instances):
        inspect(*instance)

    for suite in SUITE_SEEDS:
        for instance in _suite_instances(suite):
            inspect(*instance)

    elapsed = time.monotonic() - start
    ok = failures == 0
    _report(7, ok, f"{count} instances, {failures} relation violations ({elapsed:.1f}s)")


# --- criterion 8: scaling signature of the two engines -----------------------------------

def _bench_nodes(tmp_path, engine: str) -> list[int]:
    out = tmp_path / f"bench-{engine}.csv"
    rc = cli_main(
        [
            "bench",
            "--family",
            "team-size",
            "--range",
            "2..10",
            "--engine",
            engine,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert all(r[5] == "ok" for r in rows)
    return [int(r[3]) for r in rows]


def test_criterion_8_scaling_signature(tmp_path):
    start = time.monotonic()
    naive_nodes = _bench_nodes(tmp_path, "naive")
    opt_nodes = _bench_nodes(tmp_path, "opt")

    def average_ratio(nodes: list[int]) -> float:
        ratios = [b / a for a, b in zip(nodes, nodes[1:])]
        return sum(ratios) / len(ratios)

    naive_ratio = average_ratio(naive_nodes)
    opt_ratio = average_ratio(opt_nodes)
    elapsed = time.monotonic() - start
    ok = 2.5 <= naive_ratio <= 3.5 and 1.8 <= opt_ratio <= 2.2 and elapsed < 300.0
    _report(
        8,
        ok,
        f"naive growth {naive_ratio:.2f}/row, optimized {opt_ratio:.2f}/row ({elapsed:.1f}s)",
    )
