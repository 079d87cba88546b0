"""Gaifman graphs, treewidth, and certifying tree decompositions.

A graph is its adjacency masks, one int per vertex position; the
treewidth code works on them and reads each decomposition bag off the
elimination step that made it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .evaluator import _bits
from .model import Structure, _check_writable, _content_lines
from .syntax import _NUMBER
from .value import Value, new_value


class GraphError(ValueError):
    """Malformed graph, oversized exact-treewidth input, or bad decomposition text."""


class Graph(Value):
    """An undirected graph without self-loops; vertices keep their order.

    Bit j of `adjacency[i]` is set iff vertices i and j are adjacent.
    `from_edges` is the checked constructor; `Graph(vertices, adjacency)`
    trusts its masks to be symmetric and free of self bits.
    """

    __slots__ = ()

    def __new__(cls, vertices: tuple, adjacency: tuple):
        return new_value(cls, (cls, vertices, adjacency))

    @classmethod
    def from_edges(cls, vertices: Iterable, edges: Iterable) -> "Graph":
        vertices = tuple(vertices)
        position = {v: i for i, v in enumerate(vertices)}
        if len(position) != len(vertices):
            raise GraphError("duplicate vertices")
        adjacency = [0] * len(vertices)
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphError(f"edge {edge!r} is not a pair of vertices") from None
            if u not in position or v not in position:
                raise GraphError(f"edge {edge!r} has an unknown endpoint")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            i, j = position[u], position[v]
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
        return cls(vertices, tuple(adjacency))

    @property
    def edges(self) -> frozenset:
        """The edges as label pairs, each ordered by vertex position."""
        names = self.vertices
        pairs = ((i, j) for i, mask in enumerate(self.adjacency) for j in _bits(mask) if i < j)
        return frozenset((names[i], names[j]) for i, j in pairs)


class TreeDecomposition(Value):
    """Bags of vertices joined by tree edges; width is max bag size minus one."""

    __slots__ = ()

    def __new__(cls, bags: Iterable[Iterable], tree_edges: Iterable[Iterable[int]]):
        bags = tuple(frozenset(b) for b in bags)
        tree_edges = frozenset(tuple(sorted(e)) for e in tree_edges)
        return new_value(cls, (cls, bags, tree_edges))

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(bag) for bag in self.bags) - 1


class ValidationResult(Value):
    __slots__ = ()

    def __new__(cls, ok: bool, violation: str | None = None):
        return new_value(cls, (cls, ok, violation))

    def __bool__(self) -> bool:
        return self.ok


def gaifman(structure: Structure) -> Graph:
    """The Gaifman graph: an edge joins distinct elements sharing a relation tuple.

    Relations alone make edges; function and constant symbols make none.
    """
    adjacency = [0] * len(structure.universe)
    for row in chain.from_iterable(structure.relations.values()):
        members = sum({1 << i for i in row})  # distinct bits, so their sum is their OR
        for i in row:
            adjacency[i] |= members
    masks = tuple(mask & ~(1 << i) for i, mask in enumerate(adjacency))
    return Graph(structure.universe, masks)


# --- treewidth ---------------------------------------------------------------
#
# Bit u of adj[v] is set iff uv is an edge.  Eliminating a vertex clears its
# bit in its neighbours' masks and joins them into a clique; `_bits` lists
# the set positions of a mask.

def _fill(adj: list[int], neighbors: int) -> int:
    """The missing edges among `neighbors`: the pairs not adjacent in `adj`."""
    degree = neighbors.bit_count()
    masks = map(adj.__getitem__, _bits(neighbors))
    inside = sum(map(int.bit_count, map(neighbors.__and__, masks)))  # each edge twice
    return (degree * degree - degree - inside) >> 1


def _min_fill_order(adj: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """Greedy min-fill elimination: (width of the ordering, elimination).

    The elimination lists each vertex in order with the mask of its
    neighbours when it goes; ties in fill go to the lower index.  After an
    elimination only the fill of its neighbours, and of their neighbours
    when it added edges, can change, so only theirs is counted again.
    """
    adj = list(adj)
    fill = [_fill(adj, nb) for nb in adj]
    alive = (1 << len(adj)) - 1
    width = 0
    steps: list[tuple[int, int]] = []
    while alive:
        v = min(_bits(alive), key=fill.__getitem__)
        neighbors = adj[v]
        width = max(width, neighbors.bit_count())
        steps.append((v, neighbors))
        alive ^= 1 << v
        if fill[v]:
            touched = neighbors
            for u in _bits(neighbors):
                adj[u] = (adj[u] | neighbors) & ~(1 << u | 1 << v)
                touched |= adj[u]
            for u in _bits(touched):
                fill[u] = _fill(adj, adj[u])
        else:
            # no edge added: each neighbour just loses v, and the pairs of v
            # with its own neighbours outside v's closed neighbourhood
            closed = neighbors | 1 << v
            for u in _bits(neighbors):
                fill[u] -= (adj[u] & ~closed).bit_count()
                adj[u] ^= 1 << v
    return width, steps


def _minor_min_width(adj: list[int]) -> int:
    """Minor-min-width: a treewidth lower bound that contracts towards a minor.

    Repeatedly take a vertex of minimum degree, raise the bound to that
    degree, and contract the vertex into its minimum-degree neighbour; ties
    go to the lower index.  Every graph on the way is a minor of the input,
    and treewidth never grows under minors, so each degree seen is at most
    the treewidth (Gogate and Dechter, UAI 2004).
    """
    adj = list(adj)
    alive = (1 << len(adj)) - 1
    bound = 0
    while alive.bit_count() > bound + 1:  # else no degree left exceeds the bound
        degree = list(map(int.bit_count, adj))
        v = min(_bits(alive), key=degree.__getitem__)
        neighbors = adj[v]
        bound = max(bound, degree[v])
        alive ^= 1 << v
        if neighbors:
            # every neighbour loses v, so their degrees keep their order
            target = min(_bits(neighbors), key=degree.__getitem__)
            rest = neighbors ^ 1 << target
            adj[target] = (adj[target] | rest) & ~(1 << v)
            for u in _bits(rest):
                adj[u] = (adj[u] | 1 << target) & ~(1 << v)
    return bound


# the most vertices `treewidth_exact` searches, whose time is exponential in them
EXACT_LIMIT = 20


def treewidth_exact(graph: Graph) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a certifying decomposition.

    Branch and bound over elimination orderings, seeded with the greedy
    min-fill ordering: visited vertex subsets are memoized with the best
    prefix width that reached them, eliminating a simplicial vertex never
    branches, and prefixes that cannot strictly improve on the incumbent
    are cut.  The search is skipped when the minor-min-width lower bound
    already meets the min-fill width, which is then optimal.  A graph of
    more than `EXACT_LIMIT` vertices is refused with `GraphError`.
    """
    n = len(graph.vertices)
    if n > EXACT_LIMIT:
        raise GraphError(f"graph has {n} vertices; exact treewidth is capped at {EXACT_LIMIT}")
    if n == 0:
        return treewidth_greedy(graph)

    full = list(graph.adjacency)
    best = _min_fill_order(full)
    if _minor_min_width(full) < best[0]:
        best = _branch(full, (1 << n) - 1, -1, [], {}, best)
    return best[0], _decomposition_from_order(graph, best[1])


def _branch(
    adj: list[int], remaining: int, prefix_width: int, steps: list[tuple[int, int]],
    reached: dict[int, int], best: tuple[int, list[tuple[int, int]]],
) -> tuple[int, list[tuple[int, int]]]:
    """`treewidth_exact`'s search below one prefix of eliminated vertices.

    `remaining` is the mask of the vertices not yet eliminated, and `adj`
    their adjacency after the prefix `steps`.  `reached` maps each visited
    mask to the best prefix width that reached it.  Returns the incumbent
    `best`, a (width, elimination) pair, or a better one.  A module-level
    function, so the recursion builds no closure that refers to itself: a
    call leaves no reference cycle behind.
    """
    seen = reached.get(remaining)
    if seen is not None and seen <= prefix_width:
        return best
    reached[remaining] = prefix_width
    if remaining & (remaining - 1) == 0:
        return prefix_width, steps + [(remaining.bit_length() - 1, 0)]
    candidates = _bits(remaining)
    for v in candidates:
        if not _fill(adj, adj[v]):
            candidates = [v]  # simplicial: eliminating it first loses nothing
            break
    for v in candidates:
        neighbors = adj[v]
        width = max(prefix_width, neighbors.bit_count())
        if width >= best[0]:
            continue
        reduced = list(adj)
        for u in _bits(neighbors):
            reduced[u] = (reduced[u] | neighbors) & ~(1 << u | 1 << v)
        best = _branch(reduced, remaining ^ 1 << v, width, steps + [(v, neighbors)], reached, best)
    return best


def treewidth_greedy(graph: Graph) -> tuple[int, TreeDecomposition]:
    """Min-fill heuristic upper bound with its (always valid) decomposition."""
    if not graph.vertices:
        return -1, TreeDecomposition((frozenset(),), frozenset())
    width, steps = _min_fill_order(list(graph.adjacency))
    return width, _decomposition_from_order(graph, steps)


def _decomposition_from_order(graph: Graph, steps: list[tuple[int, int]]) -> TreeDecomposition:
    """The tree decomposition induced by an elimination, read off its steps.

    Bag i holds the i-th eliminated vertex and its neighbours when it went,
    as the step recorded them.  It hangs on the bag of the neighbour
    eliminated first, which holds the others, or on bag i+1 when no
    neighbours are left; for edgeless graphs this chains singleton bags
    into a path.
    """
    labels = graph.vertices.__getitem__
    step = [0] * len(graph.vertices)
    for i, (v, _) in enumerate(steps):
        step[v] = i
    bags = tuple(frozenset(map(labels, _bits(neighbors | 1 << v))) for v, neighbors in steps)
    edges = frozenset(
        (i, min(map(step.__getitem__, _bits(neighbors)), default=i + 1))
        for i, (_, neighbors) in enumerate(steps[:-1])
    )
    # the bags are frozensets and each edge (i, j) has i < j, so the
    # constructor would change nothing
    return new_value(TreeDecomposition, (TreeDecomposition, bags, edges))


# --- validation ----------------------------------------------------------------

def _reachable(neighbors: dict, start, allowed) -> set:
    """The nodes reachable from `start` along `neighbors` through nodes in `allowed`."""
    seen, stack = {start}, [start]
    while stack:
        for j in neighbors[stack.pop()]:
            if j in allowed and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def validate_decomposition(graph: Graph, decomposition: TreeDecomposition) -> ValidationResult:
    """Check the three decomposition conditions plus tree-ness.

    Reports the first violated condition together with a witness: a bad
    tree edge, an uncovered vertex or edge, or the bag sets over which a
    vertex's occurrence is disconnected.
    """
    bags = decomposition.bags
    if not bags:
        if graph.vertices:
            return ValidationResult(False, "decomposition has no bags")
        return ValidationResult(True)

    count = len(bags)
    neighbors: dict[int, set[int]] = {i: set() for i in range(count)}
    for i, j in decomposition.tree_edges:
        if not (0 <= i < count and 0 <= j < count):
            return ValidationResult(False, f"tree edge ({i},{j}) references a missing bag")
        if i == j:
            return ValidationResult(False, f"tree edge ({i},{j}) is a self-loop")
        neighbors[i].add(j)
        neighbors[j].add(i)
    tree = _reachable(neighbors, 0, neighbors)
    if len(decomposition.tree_edges) != count - 1 or len(tree) != count:
        return ValidationResult(False, "bags and tree edges do not form a tree")

    vertex_set = set(graph.vertices)
    for i, bag in enumerate(bags):
        stray = bag - vertex_set
        if stray:
            return ValidationResult(
                False, f"bag {i} contains unknown vertex {sorted(stray, key=repr)[0]!r}"
            )

    for v in graph.vertices:
        if not any(v in bag for bag in bags):
            return ValidationResult(False, f"vertex {v!r} is not covered by any bag")

    for u, v in sorted(graph.edges, key=repr):
        if not any(u in bag and v in bag for bag in bags):
            return ValidationResult(False, f"edge ({u!r},{v!r}) is not inside any bag")

    for v in graph.vertices:
        holding = {i for i, bag in enumerate(bags) if v in bag}
        component = _reachable(neighbors, min(holding), holding)
        if component != holding:
            rest = sorted(holding - component)
            return ValidationResult(
                False,
                f"bags containing {v!r} are disconnected: {sorted(component)} vs {rest}",
            )

    return ValidationResult(True)


# --- decomposition text format ---------------------------------------------------
#
#     bag 0: F7 F8 C1
#     bag 1: F7 C1 09
#     edge 0 1
#
# A bag's index and its ':' are one word.  Vertex labels read back as strings,
# so a label whose `str` is empty or holds white space or `#` is refused.

def decomposition_to_text(decomposition: TreeDecomposition) -> str:
    labels = map(str, chain.from_iterable(decomposition.bags))
    _check_writable(labels, ("#",), GraphError, "decomposition")
    lines = []
    for i, bag in enumerate(decomposition.bags):
        members = " ".join(sorted(str(v) for v in bag))
        lines.append(f"bag {i}: {members}".rstrip())
    for i, j in sorted(decomposition.tree_edges):
        lines.append(f"edge {i} {j}")
    return "\n".join(lines) + "\n"


def decomposition_from_text(text: str) -> TreeDecomposition:
    bags: dict[int, frozenset[str]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "bag":
            if len(parts) < 2 or parts[1][-1:] != ":" or not _NUMBER.fullmatch(parts[1][:-1]):
                raise GraphError(f"line {lineno}: bad bag line")
            index = int(parts[1][:-1])
            if index in bags:
                raise GraphError(f"line {lineno}: duplicate bag {index}")
            bags[index] = frozenset(parts[2:])
        elif parts[0] == "edge":
            if len(parts) != 3 or not all(map(_NUMBER.fullmatch, parts[1:])):
                raise GraphError(f"line {lineno}: bad edge line")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"line {lineno}: unrecognized directive {parts[0]!r}")
    if not bags:
        raise GraphError("decomposition text has no bags")
    order = sorted(bags)
    renumber = {old: new for new, old in enumerate(order)}
    try:
        edge_set = frozenset((renumber[i], renumber[j]) for i, j in edges)
    except KeyError as exc:
        raise GraphError(f"edge references missing bag {exc.args[0]}") from None
    return TreeDecomposition(tuple(bags[i] for i in order), edge_set)
