"""Independent checks of surfcomplex outputs.

This module imports nothing from surfcomplex and shares no code with it.
It works on plain data only: tuples, lists and the parsed JSON that the
library's public serializers and the CLI print.  Every check raises
VerificationError with a one-line reason, or returns None.

The oracles for the seeded subsets are sympy's Smith form (torsion of
first homology) and networkx's shortest paths (truncation distances);
both are imported lazily so that they never count towards the memory or
time of the measured loop.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product


class VerificationError(Exception):
    """An output that contradicts what the program promises."""


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise VerificationError(why)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# -- integers -----------------------------------------------------------


def digits(n: int) -> int:
    """Decimal digits of |n| (1 for zero), exact at any size and never
    subject to the interpreter's int-to-str conversion limit."""
    n = abs(n)
    if n.bit_length() < 10_000:
        return len(str(n))
    # floor((bits - 1) * log10(2)) + 1 is a lower bound on the digit count;
    # 1233 / 4096 is just below log10(2).
    d = ((n.bit_length() - 1) * 1233 >> 12) + 1
    while n >= 10**d:
        d += 1
    return d


@contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit while parsing program output."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def det3(m) -> int:
    """Closed-form 3x3 determinant of a row-major matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross(u, v) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def pair_minor_gcd(u, v) -> int:
    """gcd of the 2x2 minors of the n x 2 matrix (u v); for n == 3 this is
    the content of the cross product."""
    g = 0
    for i, j in combinations(range(len(u)), 2):
        g = math.gcd(g, u[i] * v[j] - u[j] * v[i])
    return g


def _det(rows) -> int:
    # Laplace expansion along the first row; only used for k <= 4.
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for c, x in enumerate(rows[0]):
        if x:
            minor = [r[:c] + r[c + 1:] for r in rows[1:]]
            total += (-1) ** c * x * _det(minor)
    return total


def max_minor_gcd(cols) -> int:
    """gcd of the k x k minors of the n x k matrix whose columns are cols."""
    n, k = len(cols[0]), len(cols)
    g = 0
    for rs in combinations(range(n), k):
        g = math.gcd(g, _det([[col[r] for col in cols] for r in rs]))
    return g


def canonical(v) -> tuple[int, ...]:
    """Representative of the class of v with positive first nonzero entry."""
    v = tuple(v)
    first = next(e for e in v if e != 0)
    return v if first > 0 else tuple(-e for e in v)


def _check_vertex(v, n: int, what: str) -> tuple[int, ...]:
    _require(isinstance(v, (list, tuple)) and len(v) == n, f"{what}: not a length-{n} vector")
    _require(all(_is_int(e) for e in v), f"{what}: non-integer entry")
    _require(any(v), f"{what}: zero vector")
    _require(math.gcd(*v) == 1, f"{what}: not primitive")
    _require(canonical(v) == tuple(v), f"{what}: not canonical")
    return tuple(v)


# -- certificates -------------------------------------------------------


def certificate(cert: dict, a, b) -> None:
    """Check a path certificate, in the JSON form, from a to b.

    Every waypoint is primitive and canonical, the path starts at a and
    ends at b (up to sign), each witness is a 3x3 integer matrix of
    determinant exactly 1 whose first two columns are that edge's
    waypoints, every edge has a cross product of content 1, and the path
    takes one hop exactly when a and b already span an edge.
    """
    wps, ws = cert.get("waypoints"), cert.get("witnesses")
    _require(isinstance(wps, list) and len(wps) in (2, 3), "need two or three waypoints")
    _require(isinstance(ws, list) and len(ws) == len(wps) - 1, "need one witness per edge")
    _require(cert.get("edges") == len(ws), "edge count disagrees with witnesses")
    path = [_check_vertex(v, 3, f"waypoint {i}") for i, v in enumerate(wps)]
    _require(path[0] == canonical(a), "path does not start at a")
    _require(path[-1] == canonical(b), "path does not end at b")
    _require(len(set(path)) == len(path), "repeated waypoint")
    one_hop = math.gcd(*cross(a, b)) == 1
    _require(one_hop == (len(ws) == 1), "one hop exactly when (a, b) is an edge")
    for k, (u, v, w) in enumerate(zip(path, path[1:], ws)):
        _require(
            isinstance(w, list) and len(w) == 3
            and all(isinstance(r, list) and len(r) == 3 and all(_is_int(e) for e in r) for r in w),
            f"witness {k}: not a 3x3 integer matrix",
        )
        _require(tuple(r[0] for r in w) == u, f"witness {k}: column 0 is not the edge start")
        _require(tuple(r[1] for r in w) == v, f"witness {k}: column 1 is not the edge end")
        _require(det3(w) == 1, f"witness {k}: determinant is not 1")
        _require(math.gcd(*cross(u, v)) == 1, f"edge {k}: cross product content is not 1")
    t = cert.get("transform")
    _require(
        isinstance(t, list) and len(t) == 3 and all(isinstance(r, list) and len(r) == 3 for r in t),
        "transform is not 3x3",
    )
    _require(det3(t) == 1, "transform determinant is not 1")


def certificate_size(cert: dict, a, b) -> tuple[float, int | None]:
    """(most digits in a witness entry or waypoint / most digits in the
    input, digits of the middle waypoint or None for one hop)."""
    top = max(digits(e) for m in cert["witnesses"] for r in m for e in r)
    top = max(top, max(digits(e) for v in cert["waypoints"] for e in v))
    mid = max(digits(e) for e in cert["waypoints"][1]) if len(cert["waypoints"]) == 3 else None
    return top / max(digits(e) for e in (*a, *b)), mid


# -- graphs -------------------------------------------------------------


def vertices(n: int, height: int) -> list[tuple[int, ...]]:
    """Canonical primitive vectors of length n and max-norm <= height, in
    lexicographic order."""
    rng = range(-height, height + 1)
    return sorted(
        v for v in product(rng, repeat=n)
        if any(v) and math.gcd(*v) == 1 and canonical(v) == v
    )


class Truncation:
    """A height truncation rebuilt from scratch, adjacency as int bitsets."""

    def __init__(self, n: int, height: int):
        self.n, self.height = n, height
        self.vertices = vertices(n, height)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        vs = self.vertices
        adj = [0] * len(vs)
        edges = 0
        for i, j in combinations(range(len(vs)), 2):
            if pair_minor_gcd(vs[i], vs[j]) == 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                edges += 1
        self.adj, self.edge_count = adj, edges
        self._diameter = None

    def levels(self, s: int) -> list[int]:
        """BFS level sets from s, as bitsets."""
        seen = frontier = 1 << s
        out = [frontier]
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= self.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
            if frontier:
                out.append(frontier)
        return out

    def distance(self, a, b) -> int | None:
        bit = 1 << self.index[tuple(b)]
        for d, level in enumerate(self.levels(self.index[tuple(a)])):
            if level & bit:
                return d
        return None

    def diameter(self):
        """(diameter or None, first realizing pair) over pairs i < j in
        vertex order; None with the first unreachable pair."""
        if self._diameter is None:
            every = (1 << len(self.vertices)) - 1
            best, pair = 0, None
            for i in range(len(self.vertices)):
                later = every & ~((1 << (i + 1)) - 1)
                lv = self.levels(i)
                reached = 0
                for level in lv:
                    reached |= level
                missing = later & ~reached
                if missing:
                    j = (missing & -missing).bit_length() - 1
                    self._diameter = (None, (self.vertices[i], self.vertices[j]))
                    return self._diameter
                for d in range(len(lv) - 1, 0, -1):
                    hit = lv[d] & later
                    if hit:
                        if d > best:
                            j = (hit & -hit).bit_length() - 1
                            best, pair = d, (self.vertices[i], self.vertices[j])
                        break
            self._diameter = (best, pair)
        return self._diameter

    def check_graph(self, verts, edges) -> None:
        """verts: vertex coordinate tuples; edges: (i, j) pairs."""
        _require([tuple(v) for v in verts] == self.vertices, f"height {self.height}: vertex list differs")
        _require(len(edges) == self.edge_count, f"height {self.height}: edge count differs")
        prev = (-1, -1)
        for e in edges:
            i, j = e
            _require(tuple(e) > prev and i < j, f"height {self.height}: edges not sorted pairs")
            _require(self.adj[i] >> j & 1 == 1, f"height {self.height}: ({i}, {j}) is not an edge")
            prev = tuple(e)

    def check_diameter(self, diam, pair) -> None:
        want, want_pair = self.diameter()
        _require(diam == want, f"height {self.height}: diameter {diam}, expected {want}")
        got = None if pair is None else (tuple(pair[0]), tuple(pair[1]))
        _require(got == want_pair, f"height {self.height}: realizing pair differs")

    def check_distance(self, a, b, dist) -> None:
        want = self.distance(a, b)
        _require(dist == want, f"distance {dist}, expected {want}")


def networkx_distances(trunc: Truncation, probes) -> None:
    """Check (a, b, dist) probes against networkx on the same truncation."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(len(trunc.vertices)))
    for i, row in enumerate(trunc.adj):
        j = row >> (i + 1)
        k = i + 1
        while j:
            if j & 1:
                g.add_edge(i, k)
            j >>= 1
            k += 1
    for a, b, dist in probes:
        ia, ib = trunc.index[tuple(a)], trunc.index[tuple(b)]
        try:
            want = nx.shortest_path_length(g, ia, ib)
        except nx.NetworkXNoPath:
            want = None
        _require(dist == want, f"networkx distance {want}, program {dist}")


def farey_neighbors(v, height: int) -> tuple[list[tuple[int, int]], int]:
    """(neighbors of slope v within the truncation, candidates scanned):
    canonical (r, s) with max-norm <= height and |p*s - q*r| == 1."""
    p, q = v
    cands = vertices(2, height)
    return [u for u in cands if abs(p * u[1] - q * u[0]) == 1], len(cands)


def simplex(vs, complex_kind: str, n: int, payload: dict) -> None:
    """Check a `torus simplex` report against recomputed minors."""
    _require([list(v) for v in vs] == payload["vertices"], "vertex echo differs")
    if complex_kind == "surface":
        want = [[i, j, pair_minor_gcd(vs[i], vs[j])] for i, j in combinations(range(len(vs)), 2)]
        _require(payload["pair_minor_gcds"] == want, "pair minor gcds differ")
        _require(payload["is_simplex"] == all(g == 1 for _, _, g in want), "is_simplex differs")
        return
    if len(vs) <= n:
        g = max_minor_gcd(vs)
        _require(payload["minors_gcd"] == g, "minors gcd differs")
        _require(payload["is_simplex"] == (g == 1), "is_simplex differs")
    else:
        want = [max_minor_gcd([v for j, v in enumerate(vs) if j != omit]) for omit in range(len(vs))]
        _require(payload["facet_minors_gcds"] == want, "facet minor gcds differ")
        _require(payload["is_simplex"] == all(g == 1 for g in want), "is_simplex differs")


# -- Seifert reports ----------------------------------------------------


_VERDICTS = {
    "nonzero-euler-number": "IsoCurveComplex",
    "identical-fibers-cone": "ConeExact",
    "spherical-base-cone-bound": "ConeBounded",
    "product-diameter-bound": "ProductS1Connected",
    "lcm-connectivity-level": "ConnectedAtLevelD",
}


def seifert_report(genus: int, b: int, fibers, rep: dict) -> None:
    """Check an info report against the invariant tuple it came from:
    normalization, Euler number, covering degree, verdict table, ranks,
    the torsion divisibility chain, and, when e != 0, the torsion order
    |e| * prod(alpha)."""
    nb, kept = b, []
    for alpha, beta in fibers:
        q, r = divmod(beta, alpha)
        nb += q
        if alpha != 1:
            kept.append((alpha, r))
    kept.sort()
    _require(rep["genus"] == genus and rep["b"] == nb, "normalized genus or b differs")
    _require([tuple(f) for f in rep["fibers"]] == kept, "normalized fibers differ")
    e = Fraction(nb) + sum((Fraction(beta, alpha) for alpha, beta in kept), Fraction(0))
    _require(rep["euler_number"] == f"{e.numerator}/{e.denominator}", "euler number differs")
    d = (math.lcm(*(a for a, _ in kept)) if kept else 1) if e == 0 else None
    _require(rep["d"] == d, "covering degree differs")
    k = len(kept)
    if e != 0:
        theorem = "nonzero-euler-number"
    elif genus == 0:
        identical = k in (4, 5) and len(set(kept)) == 1
        theorem = "identical-fibers-cone" if identical else "spherical-base-cone-bound"
    elif k == 0 and nb == 0:
        theorem = "product-diameter-bound"
    else:
        theorem = "lcm-connectivity-level"
    _require(rep["theorem"] == theorem and rep["verdict"] == _VERDICTS[theorem], "verdict differs")
    _require(rep["diameter_bound"] == (4 if theorem == "product-diameter-bound" else None), "diameter bound differs")
    free, torsion = rep["h1"]["free_rank"], rep["h1"]["torsion"]
    _require(rep["h2_rank"] == free, "h2 rank differs from h1 free rank")
    _require(free == 2 * genus + (1 if e == 0 else 0), "h1 free rank differs")
    _require(all(_is_int(t) and t >= 2 for t in torsion), "torsion entry below 2")
    _require(all(y % x == 0 for x, y in zip(torsion, torsion[1:])), "torsion is not a divisibility chain")
    if e != 0:
        order = abs(e * math.prod(a for a, _ in kept))
        _require(math.prod(torsion) == order, "torsion order differs from |e| * prod(alpha)")


def seifert_sympy(genus: int, b: int, fibers, rep: dict) -> None:
    """Check free rank and torsion against sympy's Smith form of the
    abelianized presentation, built from the raw (unnormalized) tuple."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    k = len(fibers)
    rows = [[1] * k + [-b]]
    for j, (alpha, beta) in enumerate(fibers):
        row = [0] * (k + 1)
        row[j], row[k] = alpha, beta
        rows.append(row)
    diag = [int(x) for x in invariant_factors(Matrix(rows), domain=ZZ)]
    nonzero = [x for x in diag if x != 0]
    _require(rep["h1"]["free_rank"] == 2 * genus + (k + 1) - len(nonzero), "sympy: free rank differs")
    _require(rep["h1"]["torsion"] == [x for x in nonzero if x > 1], "sympy: torsion differs")
