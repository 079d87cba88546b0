"""Seeded instance generators and independent oracles for the four workloads.

A workload returns one *pass*, a list of operations in a seeded order, and
the text of its instance files, keyed by their paths in a work directory;
``write_files`` writes them there.  An operation is one
verdict, given as the ``teamcheck`` command lines (argv lists for
``teamcheck.cli.main``) that produce it.  Sizes come from fixed ladders,
class counts per pass are fixed, and where cost depends on an instance
property that is cheap to compute, instances are stratified by it; the seed
decides the contents.  So two seeds give different instances with nearly
the same cost profile, and run-to-run spread measures the program and the
machine rather than the draw.

Each workload's oracle decides a verdict from the generator's own record of
the instance, without the engines.  Only the sat3 oracle calls into
``teamcheck``: its brute-force checks ``sat_brute``, ``extract_valuation``
and ``evaluate_cnf``, and the file parsers that read the reduced instance
back for ``extract_valuation``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One verdict: the argv lists it runs and the generator's record of it."""

    calls: tuple[tuple[str, ...], ...]
    case: object


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash through SHA-512, so they are stable across processes
    return random.Random(f"teamcheck-bench:{workload}:{seed}")


def _ladder(count: int, lo: float, hi: float) -> list[float]:
    """Midpoints of `count` equal-width steps over [lo, hi)."""
    return [lo + (hi - lo) * (k + 0.5) / count for k in range(count)]


def _expect_lines(out: str, expected: list[str]) -> str | None:
    got = out.splitlines()
    if got != expected:
        return f"expected {expected!r}, got {got!r}"
    return None


def _verdict_problem(code, out: str, satisfied: bool, engine: str) -> str | None:
    """A `check` result that disagrees with the oracle's verdict, described."""
    verdict = ["SAT" if satisfied else "UNSAT", f"engine={engine}"]
    if code != (0 if satisfied else 1) or out.splitlines()[:2] != verdict:
        return f"check exited {code} with {out!r}; the oracle says {verdict[0]}"
    return None


# --- sat3: reduce 3sat, then check --engine opt --------------------------------
#
# Natural random 3-CNFs (2-4 variables, 1-4 clauses; reduced teams of 3-12
# rows), kept only when satisfiable, plus a fixed block of unsatisfiable
# 9-row and 12-row instances over 2 variables, found by rejection sampling.
# The unsatisfiable ones search every split (1,537 and 12,289 expansions),
# the satisfiable ones stop early: 13 expansions at one clause, 38-83 at
# two, but 140-1,000 at three, depending on the draw.  So two-clause
# instances are the largest class, and the median lies well inside it
# (positions 25-72 of 110 in cost order).  The 9-row block holds the p85
# tail: below it lie at most 90 cheaper operations, above it the 12-row
# ones and the satisfiable 12-row instances that cost more than a 9-row
# refutation.

# satisfiable instances per variable count (2, 3, 4), by clause count
SAT3_NATURAL = {1: 8, 2: 16, 3: 4, 4: 2}
SAT3_UNSAT_9 = 18               # 3 clauses, 9 team rows
SAT3_UNSAT_12 = 2               # 4 clauses, 12 team rows


def _falsified_by(num_vars: int) -> dict[int, int]:
    """Per literal, the bitmask of the 2^num_vars valuations that falsify it."""
    masks = {}
    for j in range(1, num_vars + 1):
        true_at = sum(1 << bits for bits in range(1 << num_vars) if bits >> (j - 1) & 1)
        masks[-j] = true_at
        masks[j] = ((1 << (1 << num_vars)) - 1) ^ true_at
    return masks


def _sample_cnf(rng: random.Random, num_vars: int, num_clauses: int, satisfiable: bool):
    """Rejection sampling: uniform literals until the CNF has the wanted status."""
    falsified = _falsified_by(num_vars)
    literals = sorted(falsified)
    every = (1 << (1 << num_vars)) - 1
    while True:
        clauses = tuple(
            tuple(rng.choice(literals) for _ in range(3)) for _ in range(num_clauses)
        )
        killed = 0
        for clause in clauses:
            killed |= falsified[clause[0]] & falsified[clause[1]] & falsified[clause[2]]
        if (killed != every) == satisfiable:
            return clauses


@dataclass(frozen=True)
class Sat3Case:
    num_vars: int
    clauses: tuple
    prefix: str


def write_files(files: dict[Path, str]) -> None:
    for path, text in files.items():
        path.write_text(text)


def sat3_generate(seed: int, workdir: Path) -> tuple[list[Op], dict[Path, str]]:
    rng = _rng("sat3", seed)
    shapes = [
        (v, c, True) for v in (2, 3, 4) for c, count in SAT3_NATURAL.items() for _ in range(count)
    ]
    shapes += [(2, 3, False)] * SAT3_UNSAT_9 + [(2, 4, False)] * SAT3_UNSAT_12
    rng.shuffle(shapes)
    ops, files = [], {}
    for i, (num_vars, num_clauses, satisfiable) in enumerate(shapes):
        clauses = _sample_cnf(rng, num_vars, num_clauses, satisfiable)
        cnf_path = workdir / f"sat3_{i:03d}.cnf"
        lines = [f"p cnf {num_vars} {num_clauses}"]
        lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
        files[cnf_path] = "\n".join(lines) + "\n"
        prefix = str(workdir / f"sat3_{i:03d}")
        calls = (
            ("reduce", "3sat", str(cnf_path), prefix),
            (
                "check", f"{prefix}.structure", f"{prefix}.team", f"{prefix}.formula",
                "--engine", "opt",
            ),
        )
        ops.append(Op(calls, Sat3Case(num_vars, clauses, prefix)))
    return ops, files


def sat3_verify(case: Sat3Case, results) -> str | None:
    from teamcheck.model import parse_structure, parse_team
    from teamcheck.reductions import CNF, evaluate_cnf, extract_valuation, sat_brute

    (reduce_code, reduce_out), (check_code, check_out) = results
    paths = [f"{case.prefix}.{ext}" for ext in ("structure", "team", "formula")]
    if reduce_code != 0 or reduce_out.splitlines() != paths:
        return f"reduce exited {reduce_code} with {reduce_out!r}"
    cnf = CNF(case.num_vars, case.clauses)
    satisfiable = sat_brute(cnf)
    problem = _verdict_problem(check_code, check_out, satisfiable, "optimized")
    if problem:
        return problem
    if satisfiable:
        structure = parse_structure(Path(paths[0]).read_text())
        team = parse_team(Path(paths[1]).read_text(), structure)
        valuation = extract_valuation(cnf, structure, team)
        if valuation is None or not evaluate_cnf(cnf, valuation):
            return "SAT verdict but no clause-consistent valuation satisfies the CNF"
    return None


# --- skolem: exists y (E(x,y) & =(...;y)) on small digraphs -------------------
#
# Singleton supplementing functions for `exists y` over a 5-row team number
# |A|^5, and nearly every one is a memo miss.  A satisfiable instance is
# decided when the search reaches its least satisfying function in
# lexicographic order over the sorted rows, so satisfiable instances are
# picked with that function's rank, as a share of |A|^5, on a ladder of
# tenths (within 2.5% of each midpoint).  Unsatisfiable
# ones enumerate everything; their universe sizes 6, 7, 8 are weighted
# 1:2:1.  The two 7-vertex ones cost the same (ranks 27-28 of 34 in cost
# order), so the p80 tail falls inside that level, not between two.

SKOLEM_FORMULAS = {
    "constancy": "exists y (E(x,y) & =(;y))",
    "dependence": "exists y (E(x,y) & =(z;y))",
}
SKOLEM_ROWS = 5
SKOLEM_SIZES = (6, 7, 8)
SKOLEM_SAT_PER_SIZE = 10
SKOLEM_RANK_TOLERANCE = 0.025
SKOLEM_UNSAT_SIZES = (6, 7, 7, 8)
SKOLEM_EDGE_DENSITY = 0.4


@dataclass(frozen=True)
class SkolemCase:
    size: int
    edges: frozenset
    rows: tuple              # sorted (x, z) vertex-index pairs
    formula: str             # key of SKOLEM_FORMULAS


def _skolem_group(case: SkolemCase, z: int) -> int:
    return z if case.formula == "dependence" else 0


def _skolem_least_successors(case: SkolemCase) -> dict[int, int] | None:
    """Least common E-successor of each z-group's x values; None if one has none."""
    groups: dict[int, set[int]] = {}
    for x, z in case.rows:
        groups.setdefault(_skolem_group(case, z), set()).add(x)
    least = {}
    for key, xs in groups.items():
        common = [y for y in range(case.size) if all((x, y) in case.edges for x in xs)]
        if not common:
            return None
        least[key] = common[0]
    return least


def _skolem_witness_rank(case: SkolemCase, least: dict[int, int]) -> float:
    """Lexicographic rank of the least satisfying function, as a share of |A|^rows."""
    rank = 0
    for _, z in case.rows:
        rank = rank * case.size + least[_skolem_group(case, z)]
    return rank / case.size ** len(case.rows)


def _random_edges(rng: random.Random, size: int, sources) -> frozenset:
    return frozenset(
        (u, v)
        for u in sources
        for v in range(size)
        if u != v and rng.random() < SKOLEM_EDGE_DENSITY
    )


def _random_skolem_case(rng: random.Random, size: int, formula: str) -> SkolemCase:
    """A team and the edges out of its x values, which alone decide the verdict;
    `_complete_edges` draws the rest once the candidate is kept."""
    pairs = [(x, z) for x in range(size) for z in range(2)]
    rows = tuple(sorted(rng.sample(pairs, SKOLEM_ROWS)))
    sources = sorted({x for x, _ in rows})
    return SkolemCase(size, _random_edges(rng, size, sources), rows, formula)


def _complete_edges(rng: random.Random, case: SkolemCase) -> SkolemCase:
    others = [u for u in range(case.size) if u not in {x for x, _ in case.rows}]
    edges = case.edges | _random_edges(rng, case.size, others)
    return SkolemCase(case.size, edges, case.rows, case.formula)


def _skolem_cases(rng: random.Random) -> list[SkolemCase]:
    formulas = sorted(SKOLEM_FORMULAS)
    cases = []
    for size in SKOLEM_SIZES:
        # constancy ranks are multiples of about 1/(size-1), so some rungs
        # only take dependence instances; candidates alternate between the two
        for rung in _ladder(SKOLEM_SAT_PER_SIZE, 0.0, 1.0):
            for attempt in range(1_000_000):
                case = _random_skolem_case(rng, size, formulas[attempt % 2])
                least = _skolem_least_successors(case)
                if least and abs(_skolem_witness_rank(case, least) - rung) < SKOLEM_RANK_TOLERANCE:
                    cases.append(_complete_edges(rng, case))
                    break
            else:
                raise RuntimeError(f"no skolem instance near rank {rung}")
    for i, size in enumerate(SKOLEM_UNSAT_SIZES):
        while True:
            case = _random_skolem_case(rng, size, formulas[i % 2])
            if _skolem_least_successors(case) is None:
                cases.append(_complete_edges(rng, case))
                break
    rng.shuffle(cases)
    return cases


def skolem_generate(seed: int, workdir: Path) -> tuple[list[Op], dict[Path, str]]:
    rng = _rng("skolem", seed)
    formula_paths, files = {}, {}
    for key, text in SKOLEM_FORMULAS.items():
        formula_paths[key] = workdir / f"skolem_{key}.formula"
        files[formula_paths[key]] = text + "\n"
    ops = []
    for i, case in enumerate(_skolem_cases(rng)):
        names = [f"v{j}" for j in range(case.size)]
        structure = workdir / f"skolem_{i:03d}.structure"
        tuples = " ".join(f"({names[u]},{names[v]})" for u, v in sorted(case.edges))
        files[structure] = f"universe: {' '.join(names)}\nrelation E/2: {tuples}\n"
        team = workdir / f"skolem_{i:03d}.team"
        files[team] = "x z\n" + "".join(f"{names[x]} {names[z]}\n" for x, z in case.rows)
        calls = ((
            "check", str(structure), str(team), str(formula_paths[case.formula]),
            "--engine", "opt",
        ),)
        ops.append(Op(calls, case))
    return ops, files


def skolem_verify(case: SkolemCase, results) -> str | None:
    ((code, out),) = results
    return _verdict_problem(code, out, _skolem_least_successors(case) is not None, "optimized")


# --- bigteam: =(x,y;z) over 8k-50k rows ----------------------------------------
#
# Two thirds of each pass satisfy the atom (10k-50k rows).  The rest carry
# one planted violation (12k or 15k rows), placed so that the first
# violating row in canonical order is preceded by enough rows for the
# pairwise witness search to make 4M or 7M row-pair tests: the witness, not
# the atom check, is what these operations time.  Sizes come in levels of
# equal cost, so that the median (ranks 6-7 of 12 in cost order) and the
# p75 tail (ranks 9-10) each fall inside a level, not between two.

BIGTEAM_UNIVERSE = 240
BIGTEAM_SAT_ROWS = (10_000, 18_000, 26_000, 34_000, 42_000, 42_000, 42_000, 50_000)
# (rows, row-pair tests before the first violation)
BIGTEAM_UNSAT = ((12_000, 4e6), (12_000, 4e6), (15_000, 7e6), (15_000, 7e6))
BIGTEAM_FORMULA = "=(x,y;z)"


def _element(i: int) -> str:
    # zero padding makes name order equal declaration (index) order
    return f"e{i:03d}"


@dataclass(frozen=True)
class BigteamCase:
    team_path: str


def bigteam_generate(seed: int, workdir: Path) -> tuple[list[Op], dict[Path, str]]:
    rng = _rng("bigteam", seed)
    n = BIGTEAM_UNIVERSE
    structure = workdir / "bigteam.structure"
    formula = workdir / "bigteam.formula"
    files = {
        structure: "universe: " + " ".join(_element(i) for i in range(n)) + "\n",
        formula: BIGTEAM_FORMULA + "\n",
    }
    sizes = [(rows, None) for rows in BIGTEAM_SAT_ROWS] + list(BIGTEAM_UNSAT)
    rng.shuffle(sizes)
    ops = []
    for i, (rows, pair_tests) in enumerate(sizes):
        salt = rng.randrange(n)
        keys = sorted(rng.sample(range(n * n), rows if pair_tests is None else rows - 1))
        table = [(k // n, k % n, (k * 7 + salt) % n) for k in keys]
        if pair_tests is not None:
            # first violating row at sorted index i0 costs about
            # i0 * (rows - i0 / 2) pairwise tests
            i0 = int(rows - (rows * rows - 2 * pair_tests) ** 0.5)
            x, y, z = table[i0]
            table.insert(i0 + 1, (x, y, (z + 1 + rng.randrange(n - 1)) % n))
        rng.shuffle(table)
        team = workdir / f"bigteam_{i:03d}.team"
        files[team] = "x y z\n" + "".join(
            f"{_element(x)} {_element(y)} {_element(z)}\n" for x, y, z in table
        )
        calls = (("check", str(structure), str(team), str(formula), "--engine", "opt"),)
        ops.append(Op(calls, BigteamCase(str(team))))
    return ops, files


def bigteam_expected(team_path: str) -> list[str]:
    """Verdict lines from one grouping pass over the rows in canonical order."""
    lines = Path(team_path).read_text().splitlines()
    rows = sorted(tuple(line.split()) for line in lines[1:])
    first_of_group: dict[tuple, tuple] = {}
    violation = None
    for row in rows:
        first = first_of_group.setdefault(row[:2], row)
        if first[2] != row[2]:
            # rows sharing an antecedent are adjacent in sorted order, so the
            # first conflicting row pairs with its group's first row
            violation = (first, row)
            break
    if violation is None:
        return ["SAT", "engine=optimized", "expansions=1"]
    return [
        "UNSAT", "engine=optimized", "expansions=1",
        "witness_row1=" + " ".join(violation[0]),
        "witness_row2=" + " ".join(violation[1]),
    ]


def bigteam_verify(case: BigteamCase, results) -> str | None:
    ((code, out),) = results
    expected = bigteam_expected(case.team_path)
    if code != (0 if expected[0] == "SAT" else 1):
        return f"check exited {code}"
    return _expect_lines(out, expected)


# --- fo-params: params, then check --engine auto, on planted-width graphs -------
#
# Random k-trees on 12-20 vertices with edges removed at random, keeping one
# (k+1)-clique: a subgraph of a k-tree has treewidth at most k and a
# (k+1)-clique forces at least k, so the treewidth is exactly k.  The exact
# treewidth search settles these in a few milliseconds, so each pass also
# holds 4x4 and 4x5 grids (treewidth 4), which take it 0.1 s and 0.36 s; 16
# and 8 of them put the p90 tail inside the 4x4 level.  E is symmetric.  The
# formulas are dependence-free, so `auto` picks fo_tarski.

FO_VERTICES = (12, 21)
FO_WIDTHS = (2, 3, 4)
FO_KTREES_PER_WIDTH = 44
FO_GRIDS = ((4, 4),) * 16 + ((4, 5),) * 8
FO_EDGE_KEEP = 0.7
FO_TEAM_ROWS = (3, 9)

# template -> (text, (splits, foralls, arity, vars, free_vars, size), truth)
# The six syntactic values are counted by hand from the text; `truth` takes
# the symmetric adjacency sets and one (x, w) row.
FO_TEMPLATES = {
    "common-neighbour": (
        "exists y (E(x,y) & E(y,w))",
        (0, 0, 0, 3, 2, 8),
        lambda adj, x, w: bool(adj[x] & adj[w]),
    ),
    "radius-two": (
        "forall y (E(x,y) | x = y | exists z (E(x,z) & E(z,y)))",
        (2, 1, 0, 3, 1, 17),
        lambda adj, x, w: all(
            y in adj[x] or y == x or adj[x] & adj[y] for y in range(len(adj))
        ),
    ),
    "triangle": (
        "exists y exists z (E(x,y) & E(y,z) & E(z,x))",
        (0, 0, 0, 3, 1, 13),
        lambda adj, x, w: any(adj[x] & adj[y] for y in adj[x]),
    ),
    "neighbours-meet-w": (
        "forall y (!E(x,y) | E(y,w) | y = w)",
        (2, 1, 0, 3, 2, 12),
        lambda adj, x, w: all(y in adj[w] or y == w for y in adj[x]),
    ),
}


@dataclass(frozen=True)
class FoCase:
    size: int
    width: int
    edges: frozenset         # unordered pairs (u, v), u < v
    rows: tuple              # (x, w) vertex-index pairs, distinct
    template: str


def _planted_width_graph(rng: random.Random, size: int, width: int) -> frozenset:
    clique = list(range(width + 1))
    edges = set(combinations(clique, 2))
    cliques = [tuple(clique[:j] + clique[j + 1:]) for j in range(width + 1)]
    for v in range(width + 1, size):
        base = rng.choice(cliques)
        edges.update((u, v) for u in base)
        cliques.extend(tuple(c for c in base if c != u) + (v,) for u in base)
    kept = set(combinations(clique, 2))
    return frozenset(e for e in edges if e in kept or rng.random() < FO_EDGE_KEEP)


def _grid(rows: int, cols: int) -> set:
    """Edges of the rows x cols grid, whose treewidth is min(rows, cols)."""
    edges = set()
    for v in range(rows * cols):
        if v % cols + 1 < cols:
            edges.add((v, v + 1))
        if v + cols < rows * cols:
            edges.add((v, v + cols))
    return edges


def fo_params_generate(seed: int, workdir: Path) -> tuple[list[Op], dict[Path, str]]:
    rng = _rng("fo-params", seed)
    formula_paths, files = {}, {}
    for key, (text, _, _) in FO_TEMPLATES.items():
        formula_paths[key] = workdir / f"fo_{key}.formula"
        files[formula_paths[key]] = text + "\n"
    templates = sorted(FO_TEMPLATES)
    shapes = []
    for width in FO_WIDTHS:
        for size in _ladder(FO_KTREES_PER_WIDTH, *FO_VERTICES):
            shapes.append((int(size), width, None))
    shapes += [(a * b, min(a, b), (a, b)) for a, b in FO_GRIDS]
    rng.shuffle(shapes)
    ops = []
    for i, (size, width, grid) in enumerate(shapes):
        if grid:
            # row-major order: the exact search's cost and memory on a grid
            # depend on vertex order, so a fixed order keeps them seed-free
            edges = frozenset(_grid(*grid))
        else:
            # relabel so the planted clique is not always the first vertices
            perm = list(range(size))
            rng.shuffle(perm)
            edges = frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in _planted_width_graph(rng, size, width)
            )
        pairs = [(x, w) for x in range(size) for w in range(size)]
        rows = tuple(sorted(rng.sample(pairs, rng.randrange(*FO_TEAM_ROWS))))
        case = FoCase(size, width, edges, rows, templates[i % len(templates)])
        names = [f"n{j}" for j in range(size)]
        structure = workdir / f"fo_{i:03d}.structure"
        tuples = " ".join(
            f"({names[u]},{names[v]}) ({names[v]},{names[u]})" for u, v in sorted(edges)
        )
        files[structure] = f"universe: {' '.join(names)}\nrelation E/2: {tuples}\n"
        team = workdir / f"fo_{i:03d}.team"
        files[team] = "x w\n" + "".join(f"{names[x]} {names[w]}\n" for x, w in rows)
        paths = (str(structure), str(team), str(formula_paths[case.template]))
        calls = (("params",) + paths, ("check",) + paths + ("--engine", "auto"))
        ops.append(Op(calls, case))
    return ops, files


def fo_params_verify(case: FoCase, results) -> str | None:
    (params_code, params_out), (check_code, check_out) = results
    _, (splits, foralls, arity, nvars, free, size), truth = FO_TEMPLATES[case.template]
    expected = [
        f"splits={splits}",
        f"foralls={foralls}",
        f"arity={arity}",
        f"vars={nvars}",
        f"free_vars={free}",
        f"size={size}",
        f"structure_size={case.size}",
        f"team_size={len(case.rows)}",
        f"treewidth={case.width}(exact)",
    ]
    if params_code != 0:
        return f"params exited {params_code}"
    problem = _expect_lines(params_out, expected)
    if problem:
        return "params: " + problem
    adj = [set() for _ in range(case.size)]
    for u, v in case.edges:
        adj[u].add(v)
        adj[v].add(u)
    satisfied = all(truth(adj, x, w) for x, w in case.rows)
    return _verdict_problem(check_code, check_out, satisfied, "fo_tarski")


WORKLOADS = {
    "sat3": (sat3_generate, sat3_verify),
    "skolem": (skolem_generate, skolem_verify),
    "bigteam": (bigteam_generate, bigteam_verify),
    "fo-params": (fo_params_generate, fo_params_verify),
}
