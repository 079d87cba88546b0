"""Independent brute-force oracles used only by the test suite.

These implementations deliberately share no code with the package: DPLL
cross-checks the exhaustive SAT oracle, full permutation search and a
subset recurrence cross-check the branch-and-bound treewidth, min-fill and
minor-min-width on adjacency sets cross-check the package's versions on
adjacency masks, label pairs cross-check the Gaifman graph's masks, subset
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


def gaifman_edges(structure) -> frozenset:
    """The Gaifman graph's edges as label pairs, ordered by universe position.

    Each relation tuple joins every two distinct members; functions and
    constants join nothing.
    """
    names = structure.universe
    edges = set()
    for table in structure.relations.values():
        for row in table:
            for u, v in itertools.combinations(row, 2):
                if u != v:
                    edges.add((names[min(u, v)], names[max(u, v)]))
    return frozenset(edges)


def set_adjacency(graph: Graph) -> dict[int, set[int]]:
    """Vertex position -> the set of its neighbours' positions."""
    position = {v: i for i, v in enumerate(graph.vertices)}
    adj = {i: set() for i in range(len(graph.vertices))}
    for u, v in graph.edges:
        adj[position[u]].add(position[v])
        adj[position[v]].add(position[u])
    return adj


def _eliminate(adj: dict[int, set[int]], v: int) -> set[int]:
    """Remove v and join its neighbours into a clique; returns them."""
    neighbors = adj.pop(v)
    for u in neighbors:
        adj[u].discard(v)
        adj[u].update(neighbors - {u})
    return neighbors


def _fill_count(adj: dict[int, set[int]], v: int) -> int:
    neighbors = sorted(adj[v])
    missing = 0
    for i, u in enumerate(neighbors):
        for w in neighbors[i + 1:]:
            if w not in adj[u]:
                missing += 1
    return missing


def min_fill_order_by_sets(graph: Graph) -> tuple[int, list[int]]:
    """Greedy min-fill elimination on adjacency sets: (width, ordering).

    The vertex of least fill goes first, ties to the lower position.
    """
    adj = set_adjacency(graph)
    width = 0
    order: list[int] = []
    while adj:
        v = min(adj, key=lambda u: (_fill_count(adj, u), u))
        width = max(width, len(adj[v]))
        order.append(v)
        _eliminate(adj, v)
    return width, order


def minor_min_width_by_sets(graph: Graph) -> int:
    """Minor-min-width on adjacency sets (Gogate and Dechter, UAI 2004).

    Contract a vertex of least degree into its neighbour of least degree,
    ties to the lower position, and keep the largest degree seen.
    """
    adj = set_adjacency(graph)
    bound = 0
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        neighbors = adj.pop(v)
        bound = max(bound, len(neighbors))
        for u in neighbors:
            adj[u].discard(v)
        if neighbors:
            target = min(neighbors, key=lambda u: (len(adj[u]), u))
            neighbors.discard(target)
            adj[target] |= neighbors
            for u in neighbors:
                adj[u].add(target)
    return bound


def decomposition_by_replay(graph: Graph, order: list[int]):
    """(bags, tree edges) of the elimination `order`, replayed on fresh sets.

    Bag i is order[i] with its neighbours when it is eliminated; it hangs on
    the bag of the neighbour eliminated first, or on bag i+1 if none is left.
    """
    labels = graph.vertices
    adj = set_adjacency(graph)
    step = {v: i for i, v in enumerate(order)}
    bags, edges = [], set()
    for i, v in enumerate(order):
        neighbors = _eliminate(adj, v)
        bags.append(frozenset(labels[u] for u in neighbors | {v}))
        if i + 1 < len(order):
            edges.add((i, min((step[u] for u in neighbors), default=i + 1)))
    return tuple(bags), frozenset(edges)


def treewidth_by_orders(graph: Graph) -> int:
    """Minimum elimination width over all vertex orders (n <= 7)."""
    n = len(graph.vertices)
    assert n <= 7, "permutation oracle is only meant for tiny graphs"
    if n == 0:
        return -1
    base = set_adjacency(graph)
    best = n - 1
    for order in itertools.permutations(range(n)):
        adj = {v: set(nb) for v, nb in base.items()}
        width = 0
        for v in order:
            width = max(width, len(adj[v]))
            if width >= best:
                break
            _eliminate(adj, v)
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
