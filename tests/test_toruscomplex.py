"""Tests for the torus complex and the surface-complex graph of T^3."""

import hashlib
import json
import math
import random
from itertools import combinations, count, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex import toruscomplex
from surfcomplex.exactlin import IntMatrix, det
from surfcomplex.toruscomplex import (
    MAX_GRAPH_CANDIDATES,
    ComplexGraph,
    PathCertificate,
    ProjVector,
    bfs_distance,
    build_graph,
    canonicalize,
    connect_path,
    cross_product,
    edge_witness,
    enumerate_vertices,
    farey_neighbors,
    finegold_minors,
    graph_to_dot,
    graph_to_json_dict,
    intersection_components,
    is_finegold_simplex,
    s1_edge,
    truncation_diameter,
    two_hop_path,
)

V = lambda *coords: canonicalize(coords)


def primitive_classes(n, height):
    """Independent enumeration: all sign-classes of primitive vectors."""
    out = set()
    for tup in product(range(-height, height + 1), repeat=n):
        if any(tup) and math.gcd(*tup) == 1:
            first = next(e for e in tup if e != 0)
            out.add(tup if first > 0 else tuple(-e for e in tup))
    return out


def check_certificate(cert, a, b):
    assert cert.waypoints[0] == a and cert.waypoints[-1] == b
    assert 1 <= cert.num_edges <= 2
    for u, v in zip(cert.waypoints, cert.waypoints[1:]):
        assert s1_edge(u, v)
    for w in cert.witnesses:
        assert det(w) == 1
    assert det(cert.transform) == 1


# ---------------------------------------------------------- canonicalize


def test_canonicalize_examples():
    assert canonicalize((0, -1, 0)).coords == (0, 1, 0)
    assert canonicalize((1, 2, 0)).coords == (1, 2, 0)
    with pytest.raises(ValueError):
        canonicalize((-2, 4, -6))
    with pytest.raises(ValueError):
        canonicalize((0, 0, 0))
    with pytest.raises(ValueError):
        canonicalize((3,))
    for c in ((), (0,)):
        with pytest.raises(ValueError, match="vertex vectors need length >= 2"):
            canonicalize(c)


def test_canonicalize_idempotent_and_sign_invariant_exhaustive():
    for n in (2, 3):
        for tup in product(range(-5, 6), repeat=n):
            if not any(tup) or math.gcd(*tup) != 1:
                continue
            v = canonicalize(tup)
            assert canonicalize(v.coords) == v
            assert canonicalize(tuple(-e for e in tup)) == v


def test_projvector_rejects_noncanonical():
    with pytest.raises(ValueError):
        ProjVector((-1, 0, 0))
    with pytest.raises(ValueError):
        ProjVector((2, 4, 0))
    with pytest.raises(TypeError, match="non-integer coordinate"):
        ProjVector((1.0, 2))
    with pytest.raises(ValueError, match="zero vector is not a vertex"):
        ProjVector((0, 0))


# ----------------------------------------------------------------- edges


def test_s1_edge_examples():
    assert s1_edge(V(1, 0, 0), V(0, 1, 0))
    assert not s1_edge(V(1, 0, 0), V(1, 2, 0))
    assert s1_edge(V(1, 2, 0), V(0, 0, 1))
    with pytest.raises(ValueError):
        s1_edge(V(1, 0, 0), V(1, 0, 0))
    with pytest.raises(ValueError):
        s1_edge(V(1, 0, 0), canonicalize((-1, 0, 0)))


def test_intersection_components_examples():
    assert intersection_components(V(1, 0, 0), V(0, 1, 0)) == 1
    assert intersection_components(V(1, 0, 0), V(1, 2, 0)) == 2
    assert intersection_components(V(1, 1, 1), V(1, 2, 0)) == 1
    with pytest.raises(ValueError):
        intersection_components(V(1, 1, 1), V(1, 1, 1))
    with pytest.raises(ValueError, match="cross product needs length-3 vectors"):
        cross_product((1, 2), (3, 4, 5))


def test_edge_predicates_agree_exhaustive_height_3():
    """s1_edge <=> pair spans a 1-simplex <=> single intersection component."""
    vs = enumerate_vertices(3, 3)
    for a, b in combinations(vs, 2):
        edge = s1_edge(a, b)
        assert edge == is_finegold_simplex([a, b])
        assert edge == (intersection_components(a, b) == 1)


# --------------------------------------------------------------- simplex


def test_triangle_in_flag_complex_but_not_torus_complex():
    """All three pairs span edges, yet the triple is not a torus-complex
    2-simplex: the determinant of the representatives is +-2."""
    triple = [V(1, 0, 0), V(0, 1, 0), V(1, 1, 2)]
    for a, b in combinations(triple, 2):
        assert s1_edge(a, b)
    assert not is_finegold_simplex(triple)
    m = IntMatrix.from_columns([v.coords for v in triple])
    assert abs(det(m)) == 2


def test_simplex_examples():
    assert is_finegold_simplex([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
    assert is_finegold_simplex([V(2, 3, 5), V(1, 2, 0)])


def test_simplex_error_cases():
    with pytest.raises(ValueError):
        is_finegold_simplex([V(1, 0, 0)])
    with pytest.raises(ValueError):
        is_finegold_simplex([V(1, 0, 0)] * 2)
    with pytest.raises(ValueError):
        is_finegold_simplex([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(1, 1, 1), V(1, 1, 0)])


def test_finegold_minors_values():
    assert finegold_minors([V(1, 0, 0), V(0, 1, 0), V(1, 1, 2)]) == 2
    assert finegold_minors([V(2, 3, 5), V(1, 2, 0)]) == 1
    assert finegold_minors([V(1, 0, 0), V(1, 2, 0)]) == 2
    assert finegold_minors([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(1, 1, 2)]) == [1, 1, 2, 1]
    assert finegold_minors([V(1, 0), V(0, 1), V(1, 1)]) == [1, 1, 1]
    with pytest.raises(ValueError, match="repeated"):
        finegold_minors([V(1, 0, 0)] * 2)
    with pytest.raises(ValueError, match="all vertices must have length 3"):
        finegold_minors([V(1, 0, 0), V(0, 1)])


def test_four_vertex_simplex_facet_rule():
    quad = [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(1, 1, 1)]
    assert is_finegold_simplex(quad)
    # Replacing one vertex by a facet-breaking one fails.
    bad = [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(1, 1, 2)]
    assert not is_finegold_simplex(bad)


SIX_SIMPLEX = [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 0)]


def test_six_simplex_in_flag_complex():
    """Seven pairwise-adjacent classes span a 6-simplex of the flag
    complex.  (1,0,0) cannot be appended: paired with (1,2,0) the minor
    gcd is 2, so an eight-vertex list fails the pairwise test."""
    vs = [canonicalize(c) for c in SIX_SIMPLEX]
    for a, b in combinations(vs, 2):
        assert s1_edge(a, b)
    assert intersection_components(V(1, 0, 0), V(1, 2, 0)) == 2


# ----------------------------------------------------------------- paths


def test_two_hop_path_worked_example():
    """The constructive route from (2,3,5) to (0,0,1): intermediate
    (1,1,2), first witness columns (2,3,5), (1,1,2), (0,0,-1)."""
    cert = two_hop_path(V(2, 3, 5), V(0, 0, 1))
    assert [v.coords for v in cert.waypoints] == [(2, 3, 5), (1, 1, 2), (0, 0, 1)]
    assert cert.witnesses[0].entries == ((2, 1, 0), (3, 1, 0), (5, 2, -1))
    assert det(cert.witnesses[0]) == 1
    assert det(cert.witnesses[1]) == 1


def test_connect_path_direct_edge_shortcut():
    # (2,3,5) and (0,0,1) already span an edge (minor gcd 1), so the
    # certified path is a single hop.
    cert = connect_path(V(2, 3, 5), V(0, 0, 1))
    assert cert.num_edges == 1
    check_certificate(cert, V(2, 3, 5), V(0, 0, 1))


def test_connect_path_coordinate_pair():
    cert = connect_path(V(1, 0, 0), V(0, 1, 0))
    assert cert.num_edges == 1
    assert cert.witnesses[0] == IntMatrix.identity(3)
    assert cert.transform == IntMatrix.identity(3)


def test_connect_path_needs_two_hops():
    a, b = V(1, 2, 0), V(1, 0, 0)
    cert = connect_path(a, b)
    assert cert.num_edges == 2
    check_certificate(cert, a, b)
    g = build_graph("surface-complex-s1", 2)
    assert bfs_distance(g, a, b) == 2


def test_connect_path_rejects_equal_classes():
    with pytest.raises(ValueError):
        connect_path(V(1, 2, 0), V(1, 2, 0))


def test_connect_path_exhaustive_height_3():
    vs = enumerate_vertices(3, 3)
    for a, b in combinations(vs, 2):
        check_certificate(connect_path(a, b), a, b)


def test_connect_path_never_beats_bfs_height_3():
    """Inside a truncation, the certified edge count is at least the BFS
    distance (and never exceeds two)."""
    g = build_graph("surface-complex-s1", 3)
    adj = [[] for _ in g.vertices]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    from collections import deque

    for i, a in enumerate(g.vertices):
        dist = [-1] * len(g.vertices)
        dist[i] = 0
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for j in range(i + 1, len(g.vertices)):
            n_edges = connect_path(a, g.vertices[j]).num_edges
            assert n_edges <= 2
            if dist[j] >= 0:
                assert n_edges >= dist[j]


def primitive_vector3(bound=10**6):
    coord = st.integers(-bound, bound)
    return (
        st.tuples(coord, coord, coord)
        .filter(any)
        .map(lambda v: tuple(e // math.gcd(*v) for e in v))
    )


@settings(max_examples=300, deadline=None)
@given(primitive_vector3(), primitive_vector3())
def test_connect_path_random_large(u, w):
    a, b = canonicalize(u), canonicalize(w)
    if a == b:
        return
    check_certificate(connect_path(a, b), a, b)


def test_edge_witness_rejects_non_edges():
    with pytest.raises(ValueError, match="not an edge: pair meets in 2 components"):
        edge_witness(V(1, 0, 0), V(1, 2, 0))


def test_edge_witness_takes_three_cross_products(monkeypatch):
    # One for the edge test and witness in connect_path, one for each
    # determinant the certificate checks; none for a second edge test.
    calls = []
    cross = toruscomplex.cross_product
    monkeypatch.setattr(toruscomplex, "cross_product", lambda a, b: calls.append(1) or cross(a, b))
    edge_witness(V(2, 3, 5), V(0, 0, 1))
    assert len(calls) == 3


def _with_column(w, j, col):
    cols = [w.column(k) for k in range(3)]
    cols[j] = tuple(col)
    return IntMatrix.from_columns(cols)


def test_path_certificate_rejects_forgeries():
    """A hand-built certificate is checked by PathCertificate alone and
    raises ValueError on each kind of forgery."""
    a, mid, b = V(2, 3, 5), V(1, 1, 2), V(0, 0, 1)
    cert = two_hop_path(a, b)
    assert cert.waypoints == (a, mid, b)
    w0, w1 = cert.witnesses
    ident = IntMatrix.identity(3)
    c0, c1, c2 = (w0.column(k) for k in range(3))
    back = IntMatrix.from_columns([c1, c0, [-e for e in c2]])  # a det-1 witness of (mid, a)
    columns, det1 = "witness columns do not match", "witness determinant is not 1"
    forgeries = [
        (columns, (a, mid, b), (IntMatrix.from_columns([c1, c0, c2]), w1), ident),
        (columns, (a, mid, b), (back, w1), ident),
        (det1, (a, mid, b), (_with_column(w0, 2, [2 * e for e in c2]), w1), ident),
        (det1, (a, mid, b), (w0, _with_column(w1, 2, [-e for e in w1.column(2)])), ident),
        ("distinct", (a, a, b), (w0, w1), ident),
        ("distinct", (a, mid, a), (w0, back), ident),
        ("transform must have determinant 1", (a, mid, b), (w0, w1),
         IntMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))),
        ("transform must be 3x3", (a, mid, b), (w0, w1), IntMatrix.identity(2)),
        ("transform must be 3x3", (a, mid, b), (w0, w1), IntMatrix(((1, 0, 0, 0),) * 3)),
        ("one witness per edge", (a, mid, b), (w0,), ident),
        ("one witness per edge", (a, mid), (w0, w1), ident),
        ("two or three waypoints", (a,), (), ident),
        (columns, (a, mid, b), (IntMatrix.from_columns([c0, c1]), w1), ident),
    ]
    for message, waypoints, witnesses, transform in forgeries:
        with pytest.raises(ValueError, match=message):
            PathCertificate(waypoints, witnesses, transform)
    assert PathCertificate(cert.waypoints, cert.witnesses, cert.transform) == cert
    assert PathCertificate((mid, a), (back,), ident).num_edges == 1


def _mapped(helper, f):
    # The private helper, looked up when the test runs, with f applied to
    # each entry of its output.
    original = getattr(toruscomplex, helper)
    return lambda *args: tuple(f(e) for e in original(*args))


def test_construction_faults_raise_runtime_error(monkeypatch):
    """Once the inputs are accepted, a fault in building or verifying the
    certificate is an internal error, never invalid input."""
    # Within a path, toruscomplex canonicalizes only the middle vertex.
    canonical = toruscomplex.canonicalize
    doubled = lambda v: ProjVector(tuple(2 * e for e in canonical(v).coords))
    monkeypatch.setattr(toruscomplex, "canonicalize", doubled)
    for a, b in ((V(1, 2, 0), V(1, 0, 0)), (V(2, 4, 1), V(0, 0, 1))):
        with pytest.raises(RuntimeError, match="not primitive"):
            connect_path(a, b)
        with pytest.raises(RuntimeError):
            two_hop_path(a, b)
    monkeypatch.undo()
    monkeypatch.setattr(toruscomplex, "_witness_column", _mapped("_witness_column", lambda e: -e))
    # The negated helper leaves the canonical middle vertex intact.
    for a, b in ((V(1, 0, 0), V(0, 1, 0)), (V(1, 2, 0), V(1, 0, 0))):
        with pytest.raises(RuntimeError, match="determinant"):
            connect_path(a, b)
    with pytest.raises(RuntimeError, match="determinant"):
        edge_witness(V(1, 0, 0), V(0, 1, 0))
    # Invalid input stays a ValueError.
    with pytest.raises(ValueError):
        connect_path(V(1, 0, 0), V(1, 0, 0))


CERT_GOLDEN = json.loads((Path(__file__).parent / "golden" / "certificates.json").read_text())


def certificate_pairs(case):
    """Every pair of height-3 classes, every edge of the height-3
    truncation for "height3-edges", or `pairs` seeded draws with entries
    up to 10**k for the sample "1ek"."""
    if case["sample"] == "height3":
        return list(combinations(enumerate_vertices(3, 3), 2))
    if case["sample"] == "height3-edges":
        g = build_graph("surface-complex-s1", 3)
        return [(g.vertices[i], g.vertices[j]) for i, j in g.edges]
    bound, rng = 10 ** int(case["sample"][2:]), random.Random(case["seed"])
    draws = ([rng.randint(-bound, bound) for _ in range(3)] for _ in count())
    classes = (canonicalize(v) for v in draws if math.gcd(*v) == 1)
    return list(islice(((a, b) for a, b in zip(classes, classes) if a != b), case["pairs"]))


@pytest.mark.parametrize("case", CERT_GOLDEN, ids=lambda c: f"{c['function']}-{c['sample']}")
def test_certificates_match_golden(case):
    """The sha256 of the certificates' `to_json_dict()` (of the matrix's
    `to_lists()` for `edge_witness`) as compact JSON, in pair order: the
    bytes of every witness, middle vertex and transform."""
    build = {
        "connect_path": lambda a, b: connect_path(a, b).to_json_dict(),
        "two_hop_path": lambda a, b: two_hop_path(a, b).to_json_dict(),
        "edge_witness": lambda a, b: edge_witness(a, b).to_lists(),
    }[case["function"]]
    pairs = certificate_pairs(case)
    payload = json.dumps([build(a, b) for a, b in pairs], separators=(",", ":"))
    assert len(pairs) == case["pairs"]
    assert hashlib.sha256(payload.encode()).hexdigest() == case["sha256"]


# ----------------------------------------------------------- enumeration


def test_enumerate_vertices_examples():
    assert [v.coords for v in enumerate_vertices(2, 1)] == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(enumerate_vertices(3, 1)) == 13
    with pytest.raises(ValueError):
        enumerate_vertices(2, 0)
    with pytest.raises(ValueError):
        enumerate_vertices(1, 2)


def test_enumerate_vertices_matches_independent_enumeration():
    for n, h in ((2, 4), (3, 3)):
        got = [v.coords for v in enumerate_vertices(n, h)]
        assert got == sorted(primitive_classes(n, h))


# ---------------------------------------------------------------- graphs


def test_build_graph_height_1():
    g = build_graph("surface-complex-s1", 1)
    assert len(g.vertices) == 13
    expected_edges = sum(
        1 for a, b in combinations(g.vertices, 2) if intersection_components(a, b) == 1
    )
    assert len(g.edges) == expected_edges == 69
    assert all(i < j for i, j in g.edges)
    assert g.degree(V(0, 0, 1)) >= 4


def test_build_graph_kinds_agree_for_n3():
    for h in range(1, 5):
        a = build_graph("surface-complex-s1", h)
        b = build_graph("finegold-skeleton", h)
        assert a.vertices == b.vertices
        assert a.edges == b.edges


def test_build_graph_farey_fragment():
    g = build_graph("finegold-skeleton", 1, n=2)
    assert [v.coords for v in g.vertices] == [(0, 1), (1, -1), (1, 0), (1, 1)]
    i, j = g.vertices.index(V(0, 1)), g.vertices.index(V(1, 0))
    assert (min(i, j), max(i, j)) in g.edges


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph("surface-complex-s1", 1, n=2)
    with pytest.raises(ValueError):
        build_graph("nonsense", 1)


def test_build_graph_refuses_large_truncations_up_front(monkeypatch):
    """The candidate count (2h+1)^n is checked before any enumeration."""

    class Enumerated(Exception):
        pass

    def enumerate_stub(n, height):
        raise Enumerated

    monkeypatch.setattr(toruscomplex, "enumerate_vertices", enumerate_stub)
    assert 15**3 <= MAX_GRAPH_CANDIDATES < 17**3
    assert 63**2 <= MAX_GRAPH_CANDIDATES < 65**2
    for kind, h, n in (("surface-complex-s1", 7, 3), ("finegold-skeleton", 31, 2)):
        with pytest.raises(Enumerated):
            build_graph(kind, h, n)
    for kind, h, n in (("surface-complex-s1", 8, 3), ("finegold-skeleton", 32, 2),
                       ("finegold-skeleton", 1, 10**9), ("surface-complex-s1", 10**30, 3)):
        with pytest.raises(ValueError, match="truncation too large"):
            build_graph(kind, h, n)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="height must be >= 1"):
        build_graph("finegold-skeleton", 0, 20)


def test_build_graph_deterministic():
    assert build_graph("surface-complex-s1", 2) == build_graph("surface-complex-s1", 2)


GRAPH_GOLDEN = json.loads((Path(__file__).parent / "golden" / "graphs.json").read_text())


def test_graph_golden_covers_every_accepted_truncation():
    """graphs.json lists every (kind, n, height) that build_graph accepts."""
    accepted = {(kind, n, h) for n in range(2, 13) for h in range(1, 40)
                for kind in ("finegold-skeleton", "surface-complex-s1")
                if (kind == "finegold-skeleton" or n == 3)
                and (2 * h + 1) ** n <= MAX_GRAPH_CANDIDATES}
    assert {(c["kind"], c["n"], c["height"]) for c in GRAPH_GOLDEN} == accepted
    assert len(GRAPH_GOLDEN) == len(accepted)


@pytest.mark.parametrize("case", GRAPH_GOLDEN,
                         ids=lambda c: f"{c['kind']}-n{c['n']}-h{c['height']}")
def test_build_graph_matches_golden(case):
    """The sha256 of (vertex coordinates, edges) as JSON, pinned from the
    pairwise minor-gcd construction over the whole accepted domain."""
    g = build_graph(case["kind"], case["height"], case["n"])
    payload = json.dumps([[v.coords for v in g.vertices], g.edges], separators=(",", ":"))
    assert (len(g.vertices), len(g.edges)) == (case["vertices"], case["edges"])
    assert hashlib.sha256(payload.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("kind, n, heights", [("finegold-skeleton", 2, range(1, 9)),
                                              ("finegold-skeleton", 3, range(1, 5)),
                                              ("surface-complex-s1", 3, range(1, 5))])
def test_seeded_adjacency_matches_derived(kind, n, heights):
    for h in heights:
        g = build_graph(kind, h, n)
        derived = ComplexGraph(kind, h, g.vertices, g.edges)
        assert "adjacency" in vars(g) and "adjacency" not in vars(derived)
        assert g.adjacency == derived.adjacency


def test_graph_edges_match_the_pairwise_predicate():
    """The residue-class build against the minor gcds, pair by pair: the
    closed-form predicate at n = 3, the Smith-form `finegold_minors` at
    every n."""
    g = build_graph("surface-complex-s1", 3)
    vs = g.vertices
    assert list(g.edges) == [(i, j) for i, j in combinations(range(len(vs)), 2)
                             if intersection_components(vs[i], vs[j]) == 1]
    for h, n in ((2, 3), (9, 2), (2, 4), (1, 5)):
        g = build_graph("finegold-skeleton", h, n)
        vs = g.vertices
        assert list(g.edges) == [(i, j) for i, j in combinations(range(len(vs)), 2)
                                 if finegold_minors([vs[i], vs[j]]) == 1]


# ------------------------------------------------------------------- BFS


def test_graph_queries_match_a_scan_of_edges():
    for h in (1, 2, 3):
        g = build_graph("surface-complex-s1", h)
        for i, v in enumerate(g.vertices):
            scan = sorted([b for a, b in g.edges if a == i] + [a for a, b in g.edges if b == i])
            assert g.neighbors(i) == scan
            assert g.degree(v) == len(scan)
            assert g.index_of(v) == i
            assert g.adjacency[i] == sum(1 << j for j in scan)
        assert g.neighbors(-1) == g.neighbors(len(g.vertices)) == []
    # A repeated vertex is rejected.
    with pytest.raises(ValueError):
        ComplexGraph("surface-complex-s1", 1, (V(1, 0, 0), V(0, 1, 0), V(1, 0, 0)), ())


def test_bfs_distance_examples():
    g1 = build_graph("surface-complex-s1", 1)
    assert bfs_distance(g1, V(1, 0, 0), V(0, 0, 1)) == 1
    assert bfs_distance(g1, V(1, 1, 1), V(1, 1, 1)) == 0
    g2 = build_graph("surface-complex-s1", 2)
    assert bfs_distance(g2, V(1, 2, 0), V(1, 0, 0)) == 2


def test_bfs_distance_vertex_not_in_graph():
    g = build_graph("surface-complex-s1", 1)
    with pytest.raises(ValueError):
        bfs_distance(g, V(1, 2, 0), V(1, 0, 0))


def test_truncation_diameter_small():
    g = build_graph("surface-complex-s1", 1)
    diam, pair = truncation_diameter(g)
    assert diam == 2
    assert pair is not None and bfs_distance(g, *pair) == 2


def test_bfs_unreachable_in_edgeless_graph():
    g = ComplexGraph(
        kind="surface-complex-s1",
        height=1,
        vertices=(V(1, 0, 0), V(0, 1, 0)),
        edges=(),
    )
    assert bfs_distance(g, V(1, 0, 0), V(0, 1, 0)) is None
    diam, pair = truncation_diameter(g)
    assert diam is None and pair == (V(1, 0, 0), V(0, 1, 0))


def test_complex_graph_validation():
    with pytest.raises(ValueError):
        ComplexGraph("surface-complex-s1", 1, (V(1, 2, 0),), ())
    with pytest.raises(ValueError):
        ComplexGraph("surface-complex-s1", 1, (V(1, 0, 0), V(0, 1, 0)), ((1, 0),))
    with pytest.raises(ValueError):
        ComplexGraph("bogus", 1, (V(1, 0, 0),), ())
    with pytest.raises(ValueError, match="all vertices must have length 2"):
        ComplexGraph("finegold-skeleton", 1, (V(1, 0), V(1, 0, 0)), ())
    with pytest.raises(ValueError, match="height must be >= 1"):
        ComplexGraph("surface-complex-s1", 0, (V(1, 0, 0),), ())


def test_complex_graph_obeys_build_graph_rules():
    """A hand-built graph passes the same truncation check as build_graph:
    the same refusals, in the same words, on every kind, length and height."""
    unit = lambda n, i: ProjVector(tuple(int(j == i) for j in range(n)))
    for kind in ("finegold-skeleton", "surface-complex-s1", "bogus"):
        for n in (2, 3, 4):
            for height in (0, -1, 1, 1.5, 2.0):
                vs = (unit(n, 0), unit(n, 1))
                outcomes = []
                for make in (lambda: build_graph(kind, height, n),
                             lambda: ComplexGraph(kind, height, vs, ((0, 1),))):
                    try:
                        make()
                        outcomes.append(None)
                    except (TypeError, ValueError) as exc:
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1], (kind, n, height)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        ComplexGraph("finegold-skeleton", 1, (), ())


def test_complex_graph_surface_kind_requires_dimension_3():
    with pytest.raises(ValueError, match="^surface-complex-s1 requires dimension 3$"):
        ComplexGraph("surface-complex-s1", 1, (V(1, 0), V(0, 1)), ((0, 1),))


def test_complex_graph_height_must_be_an_integer():
    """As for build_graph, enumerate_vertices and farey_neighbors."""
    for height in (1.5, 2.0):
        with pytest.raises(TypeError, match="height must be an integer"):
            ComplexGraph("finegold-skeleton", height, (V(1, 0), V(0, 1)), ((0, 1),))
        for call in (lambda: build_graph("finegold-skeleton", height, 2),
                     lambda: enumerate_vertices(2, height), lambda: farey_neighbors(V(1, 0), height)):
            with pytest.raises(TypeError, match="height must be an integer"):
                call()


def test_complex_graph_rejects_repeated_or_unsorted_edges():
    vs = (V(0, 0, 1), V(0, 1, 0), V(1, 0, 0))
    assert ComplexGraph("surface-complex-s1", 1, vs, ((0, 1), (0, 2), (1, 2))).edges[-1] == (1, 2)
    for edges in (((0, 1), (0, 1)), ((0, 2), (0, 1)), ((1, 2), (0, 1)), ((0, 1), (0, 1, 2)),
                  ((0,),), ((-1, 0),), ((0, 1), (1, 3)), ((0, 1), (2, 2))):
        with pytest.raises(ValueError, match="edges must be strictly increasing index pairs"):
            ComplexGraph("surface-complex-s1", 1, vs, edges)
    with pytest.raises(ValueError, match="repeated vertex"):
        ComplexGraph("surface-complex-s1", 1, vs + (V(0, 1, 0),), ())


# ----------------------------------------------------------------- farey


def test_farey_neighbors_examples():
    got = {u.coords for u in farey_neighbors(V(1, 0), 1)}
    assert got == {(0, 1), (1, 1), (1, -1)}
    assert V(1, 0) in farey_neighbors(V(0, 1), 1)
    two = {u.coords for u in farey_neighbors(V(1, 1), 2)}
    assert {(1, 2), (2, 1)} <= two


def test_farey_neighbors_match_brute_force():
    """The solution-line construction equals filtering every candidate of
    the height box, for every canonical (p, q) at heights 1-24 and for a
    few vertices outside the box."""
    for h in range(1, 25):
        box = enumerate_vertices(2, h)
        for v in box + [V(30, 7), V(1, 50), V(13, -40)]:
            p, q = v.coords
            want = [u for u in box if abs(p * u.coords[1] - q * u.coords[0]) == 1]
            assert farey_neighbors(v, h) == want, (v, h)


def test_farey_neighbors_size_guard():
    """More than MAX_GRAPH_CANDIDATES points on the line of neighbors are
    refused before any vector is built."""
    limit = MAX_GRAPH_CANDIDATES // 2 - 1  # 2h + 1 points for (1, 0) and (0, 1)
    assert len(farey_neighbors(V(1, 0), limit)) == 2 * limit + 1
    assert len(farey_neighbors(V(0, 1), limit)) == 2 * limit + 1
    for v, h in ((V(1, 0), limit + 1), (V(0, 1), limit + 1), (V(1, 1), 10**9), (V(3, 8), 10**30)):
        with pytest.raises(ValueError, match="truncation too large"):
            farey_neighbors(v, h)


def test_farey_neighbors_rejects_wrong_length():
    with pytest.raises(ValueError):
        farey_neighbors(V(1, 0, 0), 1)
    with pytest.raises(ValueError, match="height"):
        farey_neighbors(V(1, 0), 0)


# --------------------------------------------------------- serialization


def test_graph_json_schema():
    g = build_graph("surface-complex-s1", 1)
    d = graph_to_json_dict(g)
    assert set(d) == {"kind", "height", "vertices", "edges"}
    assert d["kind"] == "surface-complex-s1"
    assert d["height"] == 1
    assert d["vertices"] == sorted(d["vertices"])
    assert all(i < j for i, j in d["edges"])
    json.dumps(d)  # serializable


def test_graph_dot_format():
    g = build_graph("finegold-skeleton", 1, n=2)
    dot = graph_to_dot(g)
    assert dot.startswith("graph {")
    assert '"1,0";' in dot
    assert ' -- ' in dot
    assert dot.rstrip().endswith("}")


def test_graph_dot_renders_each_label_once(monkeypatch):
    g = build_graph("surface-complex-s1", 2)
    calls = []
    label = ProjVector.label
    monkeypatch.setattr(ProjVector, "label", property(lambda v: calls.append(v) or label.fget(v)))
    assert graph_to_dot(g).count(" -- ") == len(g.edges)
    assert calls == list(g.vertices)


def test_graph_json_edges_are_the_graph_edges():
    g = build_graph("surface-complex-s1", 2)
    assert graph_to_json_dict(g)["edges"] is g.edges


# ------------------------------------------------------- local structure


def test_degree_growth_of_e3():
    """The degree of (0,0,1) grows without bound as the truncation height
    increases (local infiniteness of the complex); frozen counts from the
    enumeration itself."""
    target = V(0, 0, 1)
    degrees = []
    for h in range(1, 6):
        vs = enumerate_vertices(3, h)
        degrees.append(sum(1 for u in vs if u != target and s1_edge(u, target)))
    assert degrees == [12, 40, 112, 216, 440]
    assert all(x <= y for x, y in zip(degrees, degrees[1:]))
