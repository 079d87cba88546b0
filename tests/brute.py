"""Independent brute-force oracles used only by the test suite.

These implementations deliberately share no code with the package: DPLL
cross-checks the exhaustive SAT oracle, full permutation search and a
subset recurrence cross-check the branch-and-bound treewidth, subset
enumeration cross-checks team properties, and a literal line-by-line
reader cross-checks the team-file loader.
"""

from __future__ import annotations

import itertools

from teamcheck import CNF, Graph


def dpll(cnf: CNF) -> bool:
    """Unit-propagating DPLL over clause lists."""

    def simplify(clauses, lit):
        out = []
        for clause in clauses:
            if lit in clause:
                continue
            reduced = tuple(l for l in clause if l != -lit)
            if not reduced:
                return None
            out.append(reduced)
        return out

    def solve(clauses):
        if not clauses:
            return True
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is not None:
            reduced = simplify(clauses, unit)
            return reduced is not None and solve(reduced)
        lit = clauses[0][0]
        for choice in (lit, -lit):
            reduced = simplify(clauses, choice)
            if reduced is not None and solve(reduced):
                return True
        return False

    return solve([tuple(c) for c in cnf.clauses])


def fo_view_of_pdl(formula):
    """The first-order view of a propositional team formula over {0, 1}.

    A PDL formula already is a first-order formula whose propositions are
    free variables tested with the unary TRUE relation, so a boolean team
    maps to a first-order team with the propositions as its domain.
    Independent of the package's own existential-closure reduction.
    """
    from teamcheck import Structure

    return Structure(("0", "1"), relations={"TRUE": (1, [("1",)])}), formula


def treewidth_by_orders(graph: Graph) -> int:
    """Minimum elimination width over all vertex orders (n <= 7)."""
    n = len(graph.vertices)
    assert n <= 7, "permutation oracle is only meant for tiny graphs"
    if n == 0:
        return -1
    position = {v: i for i, v in enumerate(graph.vertices)}
    base = {i: set() for i in range(n)}
    for u, v in graph.edges:
        base[position[u]].add(position[v])
        base[position[v]].add(position[u])
    best = n - 1
    for order in itertools.permutations(range(n)):
        adj = {v: set(nb) for v, nb in base.items()}
        width = 0
        for v in order:
            neighbors = adj.pop(v)
            width = max(width, len(neighbors))
            if width >= best:
                break
            for u in neighbors:
                adj[u].discard(v)
                adj[u].update(neighbors - {u})
        else:
            best = min(best, width)
    return best


def treewidth_by_subsets(graph: Graph) -> int:
    """Treewidth by the subset recurrence of Bodlaender et al. (n <= 16).

    "On exact algorithms for treewidth": TW(empty) = -1 and TW(S) is the
    minimum over v in S of max(TW(S - v), |Q(S - v, v)|), where Q(S, v) is
    the set of vertices outside S + v reachable from v through S.  The
    result is TW of the whole vertex set.  Subsets are bitmasks, visited in
    increasing order so that S - v is always done before S.
    """
    n = len(graph.vertices)
    assert n <= 16, "subset oracle is only meant for small graphs"
    position = {v: i for i, v in enumerate(graph.vertices)}
    neighbors = [0] * n
    for u, v in graph.edges:
        neighbors[position[u]] |= 1 << position[v]
        neighbors[position[v]] |= 1 << position[u]

    def q_size(inner: int, v: int) -> int:
        reached = frontier = 1 << v
        while frontier:
            w = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = neighbors[w] & ~reached
            reached |= new
            frontier |= new & inner
        return bin(reached & ~inner & ~(1 << v)).count("1")

    tw = [0] * (1 << n)
    tw[0] = -1
    for subset in range(1, 1 << n):
        tw[subset] = min(
            max(tw[subset & ~(1 << v)], q_size(subset & ~(1 << v), v))
            for v in range(n)
            if subset >> v & 1
        )
    return tw[-1]


def dep_violation_pairwise(structure, team, atom):
    """First pair of rows, in sorted order, that violates a dependence atom.

    Scans every pair of rows (i < j) and evaluates terms straight from the
    structure's tables, so it shares no evaluation code with the package.
    Returns the pair as two value tuples, or None.
    """
    from teamcheck import Const, Var

    def value(term, row):
        if isinstance(term, Var):
            return row[team.domain.index(term.name)]
        if isinstance(term, Const):
            return structure.constants[term.name]
        return structure.functions[term.name][tuple(value(a, row) for a in term.args)]

    rows = sorted(team.rows)
    for i, first in enumerate(rows):
        for second in rows[i + 1:]:
            agree = all(value(t, first) == value(t, second) for t in atom.antecedent)
            if agree and any(value(t, first) != value(t, second) for t in atom.consequent):
                return first, second
    return None


def team_file_by_lines(text: str, structure):
    """A team file read line by line, as the README documents the format.

    '#' starts a comment and blank lines are skipped.  The first line with
    content is the header; a lone '-' header is the empty domain, over which
    a lone '-' row is the empty assignment.  Returns the Team, or the
    message of the TeamError that the file's first bad row must raise.
    """
    from teamcheck import Team

    index = {name: i for i, name in enumerate(structure.universe)}
    domain = None
    rows = set()
    for number, line in enumerate(text.splitlines(), 1):
        values = line.split("#")[0].split()
        if not values:
            continue
        if domain is None:
            if len(set(values)) < len(values):
                return "team header has duplicate variables"
            domain = () if values == ["-"] else tuple(values)
        elif not domain and values == ["-"]:
            rows.add(())
        elif len(values) != len(domain):
            return f"line {number}: row has {len(values)} values, expected {len(domain)}"
        else:
            for value in values:
                if value not in index:
                    return f"element {value!r} is not in the universe"
            rows.add(tuple(index[value] for value in values))
    if domain is None:
        return "team file is empty"
    return Team(domain, frozenset(rows))
