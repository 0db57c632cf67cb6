"""Graph queries against networkx as an independent oracle."""

import random
from itertools import combinations

import pytest

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


def check_against_networkx(g):
    lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    vs = g.vertices
    for i, a in enumerate(vs):
        for j, b in enumerate(vs):
            assert bfs_distance(g, a, b) == lengths[i].get(j), (a, b)
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


def test_sparse_graphs_match_networkx():
    """Random edge subsets: unreachable pairs and distances beyond 2."""
    rng = random.Random(3)
    for n, height in ((2, 3), (3, 1), (3, 2)):
        full = build_graph("finegold-skeleton", height, n)
        for keep in (0.0, 0.02, 0.1, 0.3):
            edges = tuple(e for e in full.edges if rng.random() < keep)
            check_against_networkx(ComplexGraph(full.kind, height, full.vertices, edges))
