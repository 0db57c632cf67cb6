"""Graph queries against networkx as an independent oracle."""

import random
from itertools import combinations

import pytest

from surfcomplex import toruscomplex
from surfcomplex.toruscomplex import (
    ComplexGraph,
    bfs_distance,
    build_graph,
    truncation_diameter,
)

nx = pytest.importorskip("networkx")


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(len(g.vertices)))
    h.add_edges_from(g.edges)
    return h


def one_sided_distance(g, i, j):
    # The BFS from one end that bfs_distance ran before it searched from both.
    return next((d for d, layer in enumerate(toruscomplex._bfs_layers(g.adjacency, i)) if layer >> j & 1), None)


def check_against_networkx(g):
    lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    vs = g.vertices
    for i, a in enumerate(vs):
        for j, b in enumerate(vs):
            assert bfs_distance(g, a, b) == lengths[i].get(j) == one_sided_distance(g, i, j), (a, b)
    # The lexicographically first unreachable pair, else the first pair
    # realizing the largest distance.
    pairs = list(combinations(range(len(vs)), 2))
    unreachable = [(i, j) for i, j in pairs if j not in lengths[i]]
    if unreachable:
        i, j = unreachable[0]
        want = (None, (vs[i], vs[j]))
    elif pairs:
        diam = max(lengths[i][j] for i, j in pairs)
        i, j = next((i, j) for i, j in pairs if lengths[i][j] == diam)
        want = (diam, (vs[i], vs[j]))
    else:
        want = (0, None)
    assert truncation_diameter(g) == want


@pytest.mark.parametrize("height", [1, 2, 3])
def test_bfs_and_diameter_match_networkx(height):
    g = build_graph("surface-complex-s1", height)
    check_against_networkx(g)
    assert truncation_diameter(g)[0] == max(nx.eccentricity(nx_graph(g)).values())


@pytest.mark.parametrize("height", range(1, 9))
def test_farey_truncations_match_networkx(height):
    """n = 2, Farey graph truncations: distances beyond 2, with diameters
    2, 3, 4, 4, 5, 5, 6, 6 at heights 1 to 8."""
    g = build_graph("finegold-skeleton", height, 2)
    check_against_networkx(g)
    assert truncation_diameter(g)[0] == [2, 3, 4, 4, 5, 5, 6, 6][height - 1]


def test_height_5_pairs_match_networkx():
    """500 seeded pairs of the height-5 surface graph, where every distance
    is 1 or 2."""
    g = build_graph("surface-complex-s1", 5)
    h = nx_graph(g)
    rng = random.Random(25)
    pairs = [(rng.randrange(len(g.vertices)), rng.randrange(len(g.vertices))) for _ in range(500)]
    for i, j in pairs:
        want = nx.shortest_path_length(h, i, j)
        assert bfs_distance(g, g.vertices[i], g.vertices[j]) == want == one_sided_distance(g, i, j)
    assert {nx.shortest_path_length(h, i, j) for i, j in pairs} == {1, 2}


def sparse_graphs():
    # Random edge subsets: unreachable pairs and distances beyond 2.
    rng = random.Random(3)
    for n, height in ((2, 3), (3, 1), (3, 2)):
        full = build_graph("finegold-skeleton", height, n)
        for keep in (0.0, 0.02, 0.1, 0.3):
            edges = tuple(e for e in full.edges if rng.random() < keep)
            yield ComplexGraph(full.kind, height, full.vertices, edges)


def test_sparse_graphs_match_networkx():
    """Random edge subsets: unreachable pairs and distances beyond 2."""
    for g in sparse_graphs():
        check_against_networkx(g)


def test_far_pairs_step_from_both_ends(monkeypatch):
    """The first pair at distance >= 4 of the n = 3, height 2 graph with a
    tenth of its edges: the search takes a frontier step from each end, and
    each end's first step reads its own row."""
    g = list(sparse_graphs())[10]
    lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    i, j = next((i, j) for i in lengths for j in sorted(lengths[i]) if lengths[i][j] >= 4)
    layers = []
    members = toruscomplex._members
    monkeypatch.setattr(toruscomplex, "_members", lambda bits, idx: layers.append(bits) or members(bits, idx))
    assert bfs_distance(g, g.vertices[i], g.vertices[j]) == lengths[i][j]
    assert g.adjacency[i] in layers and g.adjacency[j] in layers
