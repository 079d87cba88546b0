from __future__ import annotations

import random
import re

import pytest

from teamcheck import (
    Graph,
    GraphError,
    Structure,
    TreeDecomposition,
    decomposition_from_text,
    decomposition_to_text,
    gaifman,
    treewidth_exact,
    treewidth_greedy,
    validate_decomposition,
)
from teamcheck.graph import ValidationResult, _min_fill_order, _minor_min_width

from brute import (
    decomposition_by_replay,
    gaifman_edges,
    min_fill_order_by_sets,
    minor_min_width_by_sets,
    treewidth_by_orders,
    treewidth_by_subsets,
)
from conftest import (
    DEPARTURES_EDGES,
    cyclic_garbage,
    departures_reference_decomposition,
    outcome,
)
from depgen import random_structure


def random_graph(rng: random.Random, n: int, p: float = 0.35) -> Graph:
    vertices = list(range(n))
    edges = [
        (u, v) for u in vertices for v in vertices if u < v and rng.random() < p
    ]
    return Graph.from_edges(vertices, edges)


def edge_sets(graph: Graph) -> set[frozenset]:
    return {frozenset(e) for e in graph.edges}


# --- gaifman -------------------------------------------------------------------

def test_gaifman_of_empty_vocabulary_is_edgeless():
    structure = Structure(["a", "b", "c"])
    graph = gaifman(structure)
    assert graph.vertices == ("a", "b", "c")
    assert not graph.edges


def test_gaifman_single_tuple_single_edge():
    structure = Structure(["a", "b"], relations={"E": (2, [("a", "b")])})
    assert edge_sets(gaifman(structure)) == {frozenset({"a", "b"})}


def test_gaifman_of_departures_fragment(departures_structure):
    graph = gaifman(departures_structure)
    assert len(graph.vertices) == 10
    assert edge_sets(graph) == DEPARTURES_EDGES
    assert len(graph.edges) == 14


def test_gaifman_ignores_tuple_order_and_repeats():
    a = Structure(["a", "b", "c"], relations={"R": (2, [("a", "b"), ("b", "c")])})
    b = Structure(["a", "b", "c"], relations={"R": (2, [("c", "b"), ("b", "a"), ("b", "a")])})
    assert edge_sets(gaifman(a)) == edge_sets(gaifman(b))


def test_gaifman_skips_repeated_elements_in_a_tuple():
    structure = Structure(["a", "b"], relations={"R": (2, [("a", "a")])})
    assert not gaifman(structure).edges


def test_gaifman_function_tables_contribute_no_edges():
    structure = Structure(
        ["a", "b"], functions={"f": (1, {"a": "b", "b": "a"})}
    )
    assert not gaifman(structure).edges


def gaifman_corpus():
    """300 seeded structures of 1 to 24 elements: up to three relations of
    arity 1 to 3 whose tuples repeat members, and some function tables and
    constants, which make no edges."""
    rng = random.Random(25)
    for _ in range(300):
        size = rng.randint(1, 24)
        universe = [f"e{i}" for i in range(size)]
        relations = {}
        for r in range(rng.randint(0, 3)):
            arity = rng.randint(1, 3)
            count = rng.randint(0, 2 * size)
            rows = [tuple(rng.choice(universe) for _ in range(arity)) for _ in range(count)]
            relations[f"R{r}"] = (arity, rows)
        functions = {}
        if rng.random() < 0.5:
            functions["f"] = (1, {(e,): rng.choice(universe) for e in universe})
        constants = {"c": rng.choice(universe)} if rng.random() < 0.5 else {}
        yield Structure(universe, relations, functions, constants)


def test_gaifman_masks_match_the_label_pair_oracle():
    with_functions = 0
    for structure in gaifman_corpus():
        graph = gaifman(structure)
        assert graph.vertices == structure.universe
        assert graph.edges == gaifman_edges(structure)
        masks = graph.adjacency
        for i, mask in enumerate(masks):
            assert not mask >> i & 1
            assert all(masks[j] >> i & 1 for j in range(len(masks)) if mask >> j & 1)
        assert Graph.from_edges(graph.vertices, graph.edges) == graph
        with_functions += bool(structure.functions)
    assert with_functions >= 100


# --- exact treewidth ---------------------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_tree_has_treewidth_one():
    tree = Graph.from_edges(range(7), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    width, decomposition = treewidth_exact(tree)
    assert width == 1
    assert validate_decomposition(tree, decomposition)
    assert decomposition.width == 1


def test_departures_gaifman_treewidth_two(departures_structure):
    graph = gaifman(departures_structure)
    width, decomposition = treewidth_exact(graph)
    assert width == 2
    assert validate_decomposition(graph, decomposition)
    assert decomposition.width == 2


def test_edgeless_graph_has_width_zero_with_path_of_singletons():
    graph = Graph.from_edges(["a", "b", "c", "d"], [])
    width, decomposition = treewidth_exact(graph)
    assert width == 0
    assert all(len(bag) == 1 for bag in decomposition.bags)
    assert validate_decomposition(graph, decomposition)
    # singleton bags are chained, not fanned out from one bag
    degree = {}
    for i, j in decomposition.tree_edges:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    assert max(degree.values()) <= 2


def test_single_vertex_graph():
    graph = Graph.from_edges(["v"], [])
    width, decomposition = treewidth_exact(graph)
    assert width == 0
    assert decomposition.bags == (frozenset({"v"}),)


def test_complete_graph_width():
    k4 = complete_graph(4)
    width, decomposition = treewidth_exact(k4)
    assert width == 3
    assert treewidth_by_orders(k4) == 3
    assert validate_decomposition(k4, decomposition)


def test_cycle_has_treewidth_two():
    cycle = Graph.from_edges(range(5), [(i, (i + 1) % 5) for i in range(5)])
    width, _ = treewidth_exact(cycle)
    assert width == 2


def test_exact_matches_permutation_oracle_on_small_graphs():
    rng = random.Random(1001)
    for _ in range(50):
        graph = random_graph(rng, rng.randint(1, 7), p=rng.choice((0.2, 0.4, 0.6)))
        width, decomposition = treewidth_exact(graph)
        assert width == treewidth_by_orders(graph)
        assert validate_decomposition(graph, decomposition)
        assert decomposition.width == width


def grid_graph(rows: int, cols: int) -> Graph:
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    edges = [((r, c), (r + 1, c)) for r, c in cells if r + 1 < rows]
    edges += [((r, c), (r, c + 1)) for r, c in cells if c + 1 < cols]
    return Graph.from_edges(cells, edges)


def partial_k_tree(rng: random.Random, n: int, k: int, drop: float) -> Graph:
    """A random k-tree on n vertices minus some edges outside its first (k+1)-clique."""
    seed_clique = list(range(k + 1))
    cliques = [tuple(c for c in seed_clique if c != v) for v in seed_clique]
    edges = {(u, v) for u in seed_clique for v in seed_clique if u < v}
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges |= {(u, v) for u in base}
        cliques += [tuple(c for c in base if c != u) + (v,) for u in base]
    kept = [(u, v) for u, v in edges if v <= k or rng.random() >= drop]
    return Graph.from_edges(range(n), kept)


def minor_min_width(graph: Graph) -> int:
    return _minor_min_width(list(graph.adjacency))


def min_fill_width(graph: Graph) -> int:
    return _min_fill_order(list(graph.adjacency))[0]


def oracle_graphs() -> list[Graph]:
    rng = random.Random(2)
    graphs = [
        random_graph(rng, rng.randint(8, 11), p=rng.choice((0.35, 0.5, 0.65)))
        for _ in range(40)
    ]
    return graphs + [grid_graph(3, 3), grid_graph(3, 4), grid_graph(2, 6)]


def test_exact_and_minor_min_width_match_subset_oracle():
    searched = improved = 0
    for graph in oracle_graphs():
        width, decomposition = treewidth_exact(graph)
        assert width == treewidth_by_subsets(graph)
        assert validate_decomposition(graph, decomposition)
        assert decomposition.width == width
        bound, upper = minor_min_width(graph), min_fill_width(graph)
        assert bound <= width <= upper
        if bound < upper:
            searched += 1
            improved += width < upper
    # the search itself still runs, and sometimes beats the min-fill ordering
    assert searched >= 5 and improved >= 1
    assert minor_min_width(Graph.from_edges(range(4), [])) == 0
    assert minor_min_width(complete_graph(5)) == 4


def test_exact_search_leaves_no_reference_cycles():
    # the branch and bound recurses through a module-level function, so the
    # search frees its tables by reference counting alone, searched or not
    searched = [g for g in oracle_graphs() if minor_min_width(g) < min_fill_width(g)]
    for graph in searched[:5] + [grid_graph(4, 4), complete_graph(1)]:
        (width, decomposition), garbage = cyclic_garbage(treewidth_exact, graph)
        assert garbage == 0
        assert validate_decomposition(graph, decomposition) and decomposition.width == width


def test_minor_min_width_meets_min_fill_on_grids_and_partial_k_trees():
    for graph in (grid_graph(4, 4), grid_graph(4, 5)):
        assert minor_min_width(graph) == min_fill_width(graph) == 4
    rng = random.Random(7)
    for k in (2, 3, 4):
        graph = partial_k_tree(rng, 18, k, drop=0.2)
        assert minor_min_width(graph) == min_fill_width(graph) == k
        width, decomposition = treewidth_exact(graph)
        assert width == k
        assert validate_decomposition(graph, decomposition)


def test_minor_min_width_claims_no_more_than_it_proves():
    # the 5x5 grid has treewidth 5 (the n x n grid has treewidth n); the
    # bound stops at 4, so the exact search is not skipped there
    grid = grid_graph(5, 5)
    assert minor_min_width(grid) == 4
    assert min_fill_width(grid) == 5


def heuristic_oracle_graphs() -> list[Graph]:
    # 0 to 24 vertices: both sides of the 20-vertex exact limit and of the
    # 2^16 and 2^24 branches of `_bits`
    rng = random.Random(24)
    graphs = [
        random_graph(rng, n, p=rng.choice((0.1, 0.2, 0.3, 0.45)))
        for n in range(25)
        for _ in range(5)
    ]
    graphs += [grid_graph(r, c) for r, c in ((3, 3), (4, 4), (4, 5), (5, 5), (3, 7), (2, 12))]
    rng = random.Random(7)
    for n in (10, 18, 20, 24):
        for k in (2, 3, 4):
            graphs += [partial_k_tree(rng, n, k, drop) for drop in (0.0, 0.2, 0.4)]
    return graphs


def elimination_order(decomposition: TreeDecomposition, graph: Graph) -> list[int]:
    """The order a decomposition came from: bag i's eliminated vertex is
    its one member that no later bag holds."""
    position = {v: i for i, v in enumerate(graph.vertices)}
    order = []
    for i, bag in enumerate(decomposition.bags):
        (gone,) = bag.difference(*decomposition.bags[i + 1:])
        order.append(position[gone])
    return order


def test_mask_heuristics_match_the_set_oracles():
    searched = 0
    for graph in heuristic_oracle_graphs():
        adj = list(graph.adjacency)
        width, steps = _min_fill_order(adj)
        order = [v for v, _ in steps]
        assert (width, order) == min_fill_order_by_sets(graph)
        bound = _minor_min_width(adj)
        assert bound == minor_min_width_by_sets(graph)
        if not graph.vertices:
            continue
        greedy_width, greedy = treewidth_greedy(graph)
        assert greedy_width == width
        assert (greedy.bags, greedy.tree_edges) == decomposition_by_replay(graph, order)
        if len(graph.vertices) <= 20:
            exact_width, exact = treewidth_exact(graph)
            replayed = decomposition_by_replay(graph, elimination_order(exact, graph))
            assert (exact.bags, exact.tree_edges) == replayed
            assert exact.width == exact_width <= width
            searched += bound < width
    assert searched >= 10


def test_exact_respects_vertex_limit():
    width, _ = treewidth_exact(Graph.from_edges(range(20), []))
    assert width == 0
    with pytest.raises(GraphError, match="graph has 21 vertices; exact treewidth is capped at 20"):
        treewidth_exact(Graph.from_edges(range(21), []))


# --- greedy upper bound ---------------------------------------------------------------

def test_greedy_on_complete_graph():
    width, decomposition = treewidth_greedy(complete_graph(4))
    assert width == 3
    assert validate_decomposition(complete_graph(4), decomposition)


def test_greedy_matches_exact_on_trees():
    tree = Graph.from_edges(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
    assert treewidth_greedy(tree)[0] == treewidth_exact(tree)[0] == 1


def test_greedy_on_edgeless_graph():
    graph = Graph.from_edges(range(3), [])
    width, decomposition = treewidth_greedy(graph)
    assert width == 0
    assert validate_decomposition(graph, decomposition)


def test_greedy_never_beats_exact():
    rng = random.Random(77)
    for _ in range(60):
        graph = random_graph(rng, rng.randint(1, 9))
        greedy_width, greedy_dec = treewidth_greedy(graph)
        exact_width, _ = treewidth_exact(graph)
        assert exact_width <= greedy_width
        assert validate_decomposition(graph, greedy_dec)


# --- validation ------------------------------------------------------------------------

def test_decompositions_have_one_bag_per_vertex_and_the_returned_width():
    rng = random.Random(31)
    for _ in range(300):
        small = random_graph(rng, rng.randint(1, 12), p=rng.choice((0.2, 0.4, 0.6)))
        large = random_graph(rng, rng.randint(1, 30), p=rng.choice((0.05, 0.15, 0.3)))
        for graph, (width, decomposition) in (
            (small, treewidth_exact(small)),
            (large, treewidth_greedy(large)),
        ):
            assert validate_decomposition(graph, decomposition)
            assert len(decomposition.bags) == len(graph.vertices)
            assert decomposition.width == width


def test_reference_decomposition_is_valid(departures_structure):
    graph = gaifman(departures_structure)
    decomposition = departures_reference_decomposition()
    assert validate_decomposition(graph, decomposition)
    assert decomposition.width == 2


def test_uncovered_edge_is_reported(departures_structure):
    graph = gaifman(departures_structure)
    good = departures_reference_decomposition()
    bags = list(good.bags)
    # F7 stays covered via the root bag, but edge F7-09 loses its only home
    bags[1] = frozenset({"C1", "09"})
    broken = TreeDecomposition(tuple(bags), good.tree_edges)
    result = validate_decomposition(graph, broken)
    assert not result
    assert "edge" in result.violation
    assert "F7" in result.violation and "09" in result.violation


def test_uncovered_vertex_is_reported():
    graph = Graph.from_edges(["a", "b"], [])
    result = validate_decomposition(
        graph, TreeDecomposition((frozenset({"a"}),), frozenset())
    )
    assert not result
    assert "vertex 'b'" in result.violation


def test_disconnected_occurrence_is_reported():
    graph = Graph.from_edges(["a", "b", "c"], [])
    bags = (frozenset({"a"}), frozenset({"b"}), frozenset({"a", "c"}))
    result = validate_decomposition(
        graph, TreeDecomposition(bags, frozenset({(0, 1), (1, 2)}))
    )
    assert not result
    assert result.violation == "bags containing 'a' are disconnected: [0] vs [2]"


def test_non_tree_edge_sets_are_reported():
    graph = Graph.from_edges(["a", "b"], [("a", "b")])
    bags = (frozenset({"a", "b"}), frozenset({"a"}))
    cyclic = TreeDecomposition(bags, frozenset())
    assert "tree" in validate_decomposition(graph, cyclic).violation
    # three edges for four bags, but a triangle with bag 3 left isolated
    bags = (frozenset({"a", "b"}), frozenset({"a"}), frozenset({"b"}), frozenset())
    triangle = TreeDecomposition(bags, frozenset({(0, 1), (1, 2), (0, 2)}))
    result = validate_decomposition(graph, triangle)
    assert not result
    assert result.violation == "bags and tree edges do not form a tree"


def test_unknown_bag_member_is_reported():
    graph = Graph.from_edges(["a"], [])
    result = validate_decomposition(
        graph, TreeDecomposition((frozenset({"a", "zz"}),), frozenset())
    )
    assert not result
    assert "unknown vertex" in result.violation


def test_exact_output_validates_on_random_graphs():
    rng = random.Random(321)
    for _ in range(200):
        graph = random_graph(rng, rng.randint(1, 12), p=rng.choice((0.15, 0.3, 0.5)))
        width, decomposition = treewidth_exact(graph)
        assert validate_decomposition(graph, decomposition)
        assert decomposition.width == width


# --- gaifman treewidth never exceeds universe size minus one -----------------------------

def test_treewidth_bounded_by_universe():
    rng = random.Random(55)
    for _ in range(100):
        structure = random_structure(rng, max_size=4)
        width, _ = treewidth_exact(gaifman(structure))
        assert width <= structure.size - 1


# --- text round trip -----------------------------------------------------------------------

def test_decomposition_text_round_trip(departures_structure):
    graph = gaifman(departures_structure)
    _, decomposition = treewidth_exact(graph)
    text = decomposition_to_text(decomposition)
    again = decomposition_from_text(text)
    assert validate_decomposition(graph, again)
    assert again.width == decomposition.width
    assert set(again.bags) == set(decomposition.bags)


def test_decomposition_text_errors():
    with pytest.raises(GraphError, match="no bags"):
        decomposition_from_text("edge 0 1\n")
    with pytest.raises(GraphError, match="bad edge"):
        decomposition_from_text("bag 0: a\nedge 0\n")
    with pytest.raises(GraphError, match="missing bag"):
        decomposition_from_text("bag 0: a\nedge 0 3\n")
    # str.isdigit accepts a superscript two, which int() rejects
    with pytest.raises(GraphError, match="^line 1: bad bag line$"):
        decomposition_from_text("bag \u00b2: a\n")
    with pytest.raises(GraphError, match="^line 2: bad edge line$"):
        decomposition_from_text("bag 0: a\nedge 0 \u00b2\n")
    # the index and its ':' are one word, as decomposition_to_text writes them
    for line in ("bag 0 : a b", "bag 0 a b", "bag 0:: a"):
        with pytest.raises(GraphError, match="^line 1: bad bag line$"):
            decomposition_from_text(line + "\n")
    # a label that would not read back as itself is refused when written;
    # an int label is written as its str
    assert decomposition_to_text(TreeDecomposition([{0, 1}], [])) == "bag 0: 0 1\n"
    for label in ("a b", "#d", ""):
        with pytest.raises(GraphError, match="cannot be written to a decomposition file"):
            decomposition_to_text(TreeDecomposition([{label, "c"}, {"c"}], [(0, 1)]))


def test_graph_constructor_rejects_bad_edges():
    with pytest.raises(GraphError, match="self-loop"):
        Graph.from_edges(["a"], [("a", "a")])
    with pytest.raises(GraphError, match="unknown endpoint"):
        Graph.from_edges(["a"], [("a", "b")])
    for edge in [("a",), ("a", "b", "c"), 5]:
        message = f"^edge {re.escape(repr(edge))} is not a pair of vertices$"
        with pytest.raises(GraphError, match=message):
            Graph.from_edges(["a", "b", "c"], [edge])


PATH_AB = Graph.from_edges(["a", "b"], [("a", "b")])
EMPTY_GRAPH = Graph.from_edges([], [])
ONE_EMPTY_BAG = TreeDecomposition([frozenset()], [])


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: Graph.from_edges(["a", "b", "a"], []),
            (GraphError, "duplicate vertices"),
            id="repeated-vertex",
        ),
        pytest.param(
            lambda: validate_decomposition(PATH_AB, TreeDecomposition([], [])),
            ValidationResult(False, "decomposition has no bags"),
            id="no-bags",
        ),
        pytest.param(
            lambda: validate_decomposition(EMPTY_GRAPH, TreeDecomposition([], [])),
            ValidationResult(True),
            id="no-bags-for-no-vertices",
        ),
        pytest.param(
            lambda: validate_decomposition(PATH_AB, TreeDecomposition([{"a", "b"}], [(0, 1)])),
            ValidationResult(False, "tree edge (0,1) references a missing bag"),
            id="edge-to-missing-bag",
        ),
        pytest.param(
            lambda: validate_decomposition(PATH_AB, TreeDecomposition([{"a", "b"}], [(0, 0)])),
            ValidationResult(False, "tree edge (0,0) is a self-loop"),
            id="self-loop-edge",
        ),
        pytest.param(
            # also not a tree: the edge faults are reported first
            lambda: validate_decomposition(
                PATH_AB, TreeDecomposition([{"a", "b"}, {"a"}], [(0, 1), (1, 1)])
            ),
            ValidationResult(False, "tree edge (1,1) is a self-loop"),
            id="self-loop-beside-a-valid-edge-in-no-tree",
        ),
        pytest.param(
            lambda: decomposition_from_text("bag 0: a\nbag 0: b\n"),
            (GraphError, "line 2: duplicate bag 0"),
            id="duplicate-bag",
        ),
        pytest.param(
            lambda: decomposition_from_text("bag 0: a\nnode 1\n"),
            (GraphError, "line 2: unrecognized directive 'node'"),
            id="unknown-directive",
        ),
        pytest.param(
            lambda: treewidth_exact(EMPTY_GRAPH), (-1, ONE_EMPTY_BAG), id="exact-empty-graph"
        ),
        pytest.param(
            lambda: treewidth_greedy(EMPTY_GRAPH), (-1, ONE_EMPTY_BAG), id="greedy-empty-graph"
        ),
    ],
)
def test_graph_input_errors_and_empty_graph(call, expected):
    assert outcome(call) == expected
