"""Torus complexes over the integers and the surface-complex graph of T^3.

Vertices are primitive, nonzero integer vectors up to sign, i.e. points of
rational projective space, kept in a canonical form whose first nonzero
coordinate is positive.  In the 3-torus such a class is the homology class
of an essential flat torus, and two distinct classes are joined by an edge
when representatives can be made to meet in a single essential curve.
Computationally that happens exactly when the gcd of the 2x2 minors of the
3x2 matrix of representatives is 1, equivalently when the pair extends to
a basis of Z^3.  In residue classes: a prime divides every minor exactly
when the two vectors are the same point of P^{n-1}(F_p), so a pair is an
edge when no prime identifies them.  `build_graph` buckets the vertices
by their point mod p for each prime up to 2*height^2 (a bound on the
minors) instead of testing pairs.

Two simplex tests coexist:

* `is_finegold_simplex`: a set of classes spans a simplex of the torus
  complex when its matrix of representatives is a submatrix of an element
  of SL(n, Z) (gcd of maximal minors equal to 1; facet-wise for n+1
  vertices).
* the flag rule of the surface-complex graph: every pairwise-adjacent set
  spans.  The two agree on edges but not on triangles, and the triple
  (1,0,0), (0,1,0), (1,1,2) separates them.

`connect_path` produces, for any two distinct classes, a path of at most
two edges together with determinant-1 witness matrices for every edge, so
the output is a self-certifying object rather than a bare assertion.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, reduce
from itertools import chain, compress, islice, product, repeat, starmap
from math import gcd, isqrt
from operator import itemgetter, lt, mod, mul, or_, xor

from .exactlin import IntMatrix, _any_digits, _building, _eliminate, _Frozen, content, minors_gcd, xgcd

__all__ = [
    "ProjVector",
    "PathCertificate",
    "ComplexGraph",
    "GRAPH_KINDS",
    "MAX_GRAPH_CANDIDATES",
    "canonicalize",
    "cross_product",
    "finegold_minors",
    "is_finegold_simplex",
    "intersection_components",
    "edge_witness",
    "two_hop_path",
    "connect_path",
    "enumerate_vertices",
    "build_graph",
    "bfs_distance",
    "truncation_diameter",
    "farey_neighbors",
    "graph_to_json_dict",
    "graph_to_dot",
]


class ProjVector(_Frozen, order=True):
    """A primitive integer vector up to sign, in canonical form.

    Canonical means content 1 and positive first nonzero coordinate, so
    each projective class has exactly one representative and equality of
    classes is plain equality.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self.coords
        if len(c) < 2:
            raise ValueError("vertex vectors need length >= 2")
        for e in c:
            if type(e) is not int:
                raise TypeError(f"non-integer coordinate {e!r}")
        g = gcd(*c)
        if g == 0:
            raise ValueError("zero vector is not a vertex")
        if g != 1:
            with _any_digits():
                raise ValueError(f"vector is not primitive (content {g})")
        if next(filter(None, c)) < 0:
            raise ValueError("not canonical: first nonzero coordinate is negative")

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def label(self) -> str:
        return ",".join(str(e) for e in self.coords)


def canonicalize(v: Sequence[int]) -> ProjVector:
    """Canonical representative of the class of v, up to sign.

    Only flips the sign: `ProjVector` rejects the zero vector, vectors of
    length < 2 and non-primitive vectors, which are never rescaled.
    """
    c = tuple(v)
    if next(filter(None, c), 0) < 0:
        c = tuple(-e for e in c)
    return ProjVector(c)


def cross_product(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    """Cross product of two length-3 integer vectors.

    Its entries are the 2x2 minors of the 3x2 matrix (a b), up to sign and
    order, so its content counts minimal intersection components of the
    corresponding flat tori.
    """
    if len(a) != 3 or len(b) != 3:
        raise ValueError("cross product needs length-3 vectors")
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _pair(a: ProjVector, b: ProjVector) -> tuple[tuple[int, int, int], int]:
    # The one input check of a pair (length 3, distinct classes), then its
    # cross product a x b and that product's content, the component count.
    if len(a) != 3 or len(b) != 3:
        raise ValueError("expected length-3 vertices")
    if a == b:
        raise ValueError("vertices must be distinct projective classes")
    with _building():
        c = cross_product(a.coords, b.coords)
        return c, gcd(*c)


def intersection_components(a: ProjVector, b: ProjVector) -> int:
    """Minimal number of intersection components of the two flat tori.

    Computed as the content of the cross product, the gcd of the 2x2
    minors of (a b); always >= 1 for distinct classes.  The one edge
    predicate: (a, b) is an edge of the surface-complex graph of T^3, its
    tori meeting in a single curve, exactly when it is 1.  `build_graph`
    gets the same edges, at every n, from `_coprime_minor_pairs`.
    """
    return _pair(a, b)[1]


def _vertex_length(vs: Sequence[ProjVector]) -> int:
    if len(set(map(len, vs))) > 1:
        raise ValueError(f"all vertices must have length {len(vs[0])}")
    return len(vs[0]) if vs else 0


def finegold_minors(vs: Sequence[ProjVector]) -> int | list[int]:
    """The maximal-minor gcds behind `is_finegold_simplex`, n = len(vs[0]):
    for k <= n vertices, that of their n x k matrix of representatives, by
    one elimination and, for k < n, a lattice index mod a nonzero minor; for
    n + 1 vertices, |det| of each facet, omitting vertex 0, 1, ..., n in turn,
    read, up to sign, off the last row of (V | I) after n Bareiss steps.
    After the input checks, a ValueError is an internal fault (RuntimeError)."""
    vs = list(vs)
    n = _vertex_length(vs)
    if not 2 <= len(vs) <= n + 1:
        raise ValueError(f"simplex size {len(vs)} out of range for dimension {n}")
    if len(set(vs)) != len(vs):
        raise ValueError("vertices must be distinct projective classes")
    cols = [v.coords for v in vs]
    with _building():
        if len(vs) <= n:
            return minors_gcd(IntMatrix.from_columns(cols), len(vs))
        m = [list(c) + [int(i == j) for j in range(n + 1)] for i, c in enumerate(cols)]
        return [abs(e) for e in m[n][n:]] if _eliminate(m, n) else [0] * (n + 1)


def is_finegold_simplex(vs: Sequence[ProjVector]) -> bool:
    """Simplex test of the torus complex over SL(n, Z), n = len(vs[0]): true
    when every gcd of `finegold_minors` is 1 (for k+1 == n vertices,
    |det| == 1; flipping one sign realizes +1 within the same classes)."""
    gcds = finegold_minors(vs)
    return all(g == 1 for g in (gcds if isinstance(gcds, list) else [gcds]))


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _det3(x: Sequence[int], y: Sequence[int], z: Sequence[int]) -> int:
    # Determinant of the 3x3 matrix with rows (or columns) x, y, z.
    return _dot(x, cross_product(y, z))


def _bezout(c: Sequence[int]) -> tuple[int, int, int]:
    # Some w with c . w == gcd(c), from two xgcd calls.
    g, x, y = xgcd(c[0], c[1])
    _, p, q = xgcd(g, c[2])
    return (p * x, p * y, q)


def _exact_combo(p: Sequence[int], q: Sequence[int], s: int, t: int, g: int) -> tuple[int, int, int]:
    # (s*p - t*q)/g, for a combination whose entries g divides.
    return ((s * p[0] - t * q[0]) // g, (s * p[1] - t * q[1]) // g, (s * p[2] - t * q[2]) // g)


def _reduced(w: Sequence[int], u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    # w less s*u + t*v, (s, t) the coordinates of w's projection onto the
    # plane of (u, v) rounded half up (Babai's nearest-plane step), so the
    # result depends only on w modulo Z*u + Z*v and is symmetric in u and v.
    uu, vv, uv = _dot(u, u), _dot(v, v), _dot(u, v)
    wu, wv = _dot(w, u), _dot(w, v)
    d = uu * vv - uv * uv
    s = (2 * (wu * vv - wv * uv) + d) // (2 * d)
    t = (2 * (wv * uu - wu * uv) + d) // (2 * d)
    return (w[0] - s * u[0] - t * v[0], w[1] - s * u[1] - t * v[1], w[2] - s * u[2] - t * v[2])


def _check_edge(u: ProjVector, v: ProjVector, w: IntMatrix) -> None:
    # The one check of an edge's witness: columns (u, v, *) and
    # det == (u x v) . w == 1, which also makes u != v and the 2x2 minors
    # of (u v) coprime, i.e. (u, v) an edge.
    cols = tuple(zip(*w.entries))
    if w.rows != 3 or len(cols) != 3 or cols[:2] != (u.coords, v.coords):
        raise ValueError("witness columns do not match the edge")
    if _det3(*cols) != 1:
        raise ValueError("witness determinant is not 1")


def edge_witness(a: ProjVector, b: ProjVector) -> IntMatrix:
    """Determinant-1 matrix whose first two columns represent the edge (a, b).

    The third column w solves (a x b) . w == 1, which exists exactly when
    the pair spans an edge; det(a | b | w) == (a x b) . w == 1 exactly.
    The solutions are then exactly w0 + s*a + t*b, and w is the Bezout
    vector w0 of a x b with its coordinates along a and b rounded away, so
    w does not depend on w0 and its Euclidean norm is at most
    (|a| + |b|)/2 + 1.  It is the witness of the one-hop `connect_path`
    certificate, checked there; a non-edge raises ValueError before any build.
    """
    c, g = _pair(a, b)
    if g != 1:
        raise ValueError(f"not an edge: pair meets in {g} components")
    return _one_hop(a, b, c).witnesses[0]


class PathCertificate(_Frozen):
    """A path of at most two edges, carrying its own proof.

    `waypoints` lists the visited classes (two or three distinct ones);
    `witnesses` holds one determinant-1 matrix per edge whose first two
    columns are the canonical representatives of that edge's endpoints;
    `transform` is a determinant-1 change of coordinates: for two hops the
    one of `two_hop_path`, which sends the middle vertex to (0,1,0) and the
    end to (0,0,1), for one hop the identity.  Construction checks the
    waypoints, every witness and that claim on the transform, and is the
    one place where certificates are verified.
    """

    waypoints: tuple[ProjVector, ...]
    witnesses: tuple[IntMatrix, ...]
    transform: IntMatrix

    def __post_init__(self) -> None:
        if len(self.waypoints) not in (2, 3):
            raise ValueError("a certificate has two or three waypoints")
        if len(set(self.waypoints)) != len(self.waypoints):
            raise ValueError("waypoints must be distinct classes")
        if len(self.witnesses) != len(self.waypoints) - 1:
            raise ValueError("one witness per edge required")
        if self.transform.rows != 3 or self.transform.cols != 3:
            raise ValueError("transform must be 3x3")
        if _det3(*self.transform.entries) != 1:
            raise ValueError("transform must have determinant 1")
        for u, v, w in zip(self.waypoints, self.waypoints[1:], self.witnesses):
            _check_edge(u, v, w)
        t, m, b = self.transform.entries, self.waypoints[-2].coords, self.waypoints[-1].coords
        if len(self.witnesses) == 1:
            if t != _IDENTITY_3.entries:
                raise ValueError("a one-hop transform must be the identity")
        elif [_dot(r, m) for r in t] != [0, 1, 0] or [_dot(r, b) for r in t] != [0, 0, 1]:
            raise ValueError("transform must send the middle vertex to (0,1,0), the end to (0,0,1)")

    @property
    def num_edges(self) -> int:
        return len(self.witnesses)

    def to_json_dict(self) -> dict:
        return {
            "waypoints": [list(v.coords) for v in self.waypoints],
            "edges": self.num_edges,
            "witnesses": [w.to_lists() for w in self.witnesses],
            "transform": self.transform.to_lists(),
        }


def two_hop_path(a: ProjVector, b: ProjVector) -> PathCertificate:
    """Constructive two-edge path from a to b, never taking a shortcut.

    With g = gcd(b x a) and n = (b x a)/g, every m with n . m == 1 is
    adjacent to a: a is primitive in the kernel of n, so it extends to a
    basis (a, k) of that kernel, and (a, k, m) is a basis of Z^3; likewise
    for b.  The middle vertex is the Bezout vector of b x a, such an m,
    reduced modulo (a, b) as in `edge_witness` and canonicalized: its
    Euclidean norm is at most (|a| + |b|)/2 + 1, and no witness entry
    exceeds |a| + |b| + 1.  As b == beta*a mod g, k = (b - beta*a)/g and
    k' = (a - beta^-1*b)/g, reduced up to sign, are the witness columns of
    (a, m) and (m, b).  With w that of (m, b), T = (w | m | b)^-1, with
    rows (m x b, b x w, w x m), sends b to (0,0,1) and m to (0,1,0).
    """
    return _two_hop(a, b, *_pair(a, b))


def connect_path(a: ProjVector, b: ProjVector) -> PathCertificate:
    """Certified path of at most two edges between distinct classes.

    One hop when (a, b) is already an edge; otherwise the constructive
    route of `two_hop_path`.  The certificate verifies every witness
    (determinant exactly 1) as it is constructed; a failure there is an
    internal fault and raises RuntimeError.
    """
    c, g = _pair(a, b)
    return _one_hop(a, b, c) if g == 1 else _two_hop(a, b, c, g)


# The transform of every one-hop certificate, shared: IntMatrix is frozen.
_IDENTITY_3 = IntMatrix.identity(3)


def _one_hop(a: ProjVector, b: ProjVector, c: tuple[int, int, int]) -> PathCertificate:
    # The certificate of the edge (a, b), from c = a x b of its `_pair`.
    x, y = a.coords, b.coords
    with _building():
        witness = IntMatrix(tuple(zip(x, y, _reduced(_bezout(c), x, y))))
        return PathCertificate(waypoints=(a, b), witnesses=(witness,), transform=_IDENTITY_3)


def _two_hop(a: ProjVector, b: ProjVector, c: tuple[int, int, int], g: int) -> PathCertificate:
    # The route of `two_hop_path`, from c = a x b and g = gcd(c) of its `_pair`.
    x, y = a.coords, b.coords
    with _building():
        mid = canonicalize(_reduced(_bezout((-c[0], -c[1], -c[2])), x, y))
        m = mid.coords
        # det(x, m, y) == sg*g.  x is primitive mod g and x x y == 0 mod g, so
        # y == beta*x mod g with beta a unit, read off a Bezout vector of x mod g.
        sg, xg = -_dot(c, m) // g, (x[0] % g, x[1] % g, x[2] % g)
        lam = _bezout(xg)
        beta = _dot(lam, y) * pow(_dot(lam, xg), -1, g) % g
        # det(x, m, k) == det(m, y, k') == sg for k = (y - beta*x)/g, k' = (x - beta^-1*y)/g.
        v = _reduced(_exact_combo(y, x, sg, sg * beta, g), x, m)
        w = _reduced(_exact_combo(x, y, sg, sg * pow(beta, -1, g), g), m, y)
        witnesses = (IntMatrix(tuple(zip(x, m, v))), IntMatrix(tuple(zip(m, y, w))))
        t = IntMatrix((cross_product(m, y), cross_product(y, w), cross_product(w, m)))
        return PathCertificate(waypoints=(a, mid, b), witnesses=witnesses, transform=t)


GRAPH_KINDS = ("finegold-skeleton", "surface-complex-s1")
# build_graph refuses a truncation with more candidate vectors (2h+1)^n:
# n = 3 up to height 7, n = 2 up to height 31.
MAX_GRAPH_CANDIDATES = 4096
# enumerate_vertices refuses more: n = 3 up to height 22, n = 2 up to height 157.
_MAX_ENUMERATED = 100_000


def _check_truncation(height: int, n: int = 2, kind: str = GRAPH_KINDS[0]) -> None:
    # The one truncation check; with the defaults, its n and height parts.
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    if type(n) is not int:
        raise TypeError(f"dimension must be an integer, got {n!r}")
    if kind == "surface-complex-s1" and n != 3:
        raise ValueError("surface-complex-s1 requires dimension 3")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if type(height) is not int:
        raise TypeError(f"height must be an integer, got {height!r}")
    if height < 1:
        raise ValueError("height must be >= 1")


def _check_candidates(height: int, n: int, limit: int) -> None:
    # With n >= 2 and height >= 1, (2h+1)^n >= 2^n.
    if n >= limit.bit_length() or (2 * height + 1) ** n > limit:
        raise ValueError(f"truncation too large: (2*{height}+1)^{n} candidate vectors, "
                         f"over the limit of {limit}")


def enumerate_vertices(n: int, height: int) -> list[ProjVector]:
    """All canonical classes of length n with max-norm <= height, in
    lexicographic order; over 100,000 candidates (2h+1)^n raise ValueError."""
    _check_truncation(height, n)
    _check_candidates(height, n, _MAX_ENUMERATED)
    out = []
    rng = range(-height, height + 1)
    # product over an ascending range is already lexicographic.
    for tup in product(rng, repeat=n):
        first = next((e for e in tup if e != 0), 0)
        if first <= 0:
            continue
        if content(tup) != 1:
            continue
        out.append(ProjVector(tup))
    return out


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _members(bits: int, idx: Sequence[int]) -> list[int]:
    # The entries of idx at the set bits, ascending: one C-level read of
    # the bit string, least significant bit first.
    return list(compress(idx, bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)))


def _coprime_minor_pairs(vectors: Sequence[tuple[int, ...]], height: int) -> tuple[int, ...]:
    # Bitsets of the pairs with coprime 2x2 minors (minors_gcd 1 on the
    # columns (u v)), all at once: bit j of entry i is set exactly when
    # vectors i and j form such a pair.  The vectors are primitive, pairwise
    # not proportional, with first nonzero entry positive and every entry of
    # absolute value <= height.
    # A prime p divides every 2x2 minor of (u v) exactly when u and v are
    # the same point of P^{n-1}(F_p) (neither is 0 mod p, being primitive).
    # The minors are at most 2*height^2 in size and not all 0, so only the
    # primes up to that bound can, and checking all of them keeps the result
    # exact.  For each such prime the vectors are bucketed by their point
    # mod p, scaled by the inverse of the first entry that is nonzero mod p,
    # and clash[i] collects the buckets of vector i, which hold i itself.
    bits = [1 << i for i in range(len(vectors))]
    clash = [0] * len(vectors)
    cols = list(zip(*vectors))
    # The first nonzero entry lies in [1, height]: a unit mod every p > height.
    firsts = [next(filter(None, v)) for v in vectors]
    for p in range(2, 2 * height * height + 1):
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        leads = firsts if p > height else [next(e for e in v if e % p) % p for v in vectors]
        # Every lead is a residue in [1, min(p - 1, height)].
        inv = [0, *map(pow, range(1, min(p, height + 1)), repeat(-1), repeat(p))]
        scale = list(map(inv.__getitem__, leads))
        keys = list(zip(*[map(mod, map(mul, col, scale), repeat(p)) for col in cols]))
        buckets: dict[tuple[int, ...], int] = {}
        for k, b in zip(keys, bits):
            buckets[k] = buckets.get(k, 0) | b
        clash = list(map(or_, clash, map(buckets.__getitem__, keys)))
    full = (1 << len(vectors)) - 1
    return tuple(map(xor, repeat(full), clash))


class ComplexGraph(_Frozen):
    """A height-truncated 1-skeleton: distinct vertices of one length n (in
    lexicographic order from `build_graph`), edges as strictly increasing
    pairs of int indices (i, j) with i < j; kind, n and height as
    `build_graph` accepts them, all checked, edges in O(E).  The vertex index
    and the adjacency bitsets are derived on first use and kept; `build_graph`
    seeds the bitsets and checks them, not its edges, in O(V)."""

    kind: str
    height: int
    vertices: tuple[ProjVector, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self._check_vertices()
        es = self.edges
        if set(map(type, chain.from_iterable(es))) - {int}:
            raise TypeError("edge indices must be integers")
        # Once sorted, es[0][0] is the least i.
        if es and not (set(map(len, es)) == {2} and all(map(lt, es, islice(es, 1, None)))
                       and es[0][0] >= 0 and all(starmap(lt, es))
                       and max(map(itemgetter(1), es)) < len(self.vertices)):
            raise ValueError("edges must be strictly increasing index pairs (i, j), "
                             "0 <= i < j < len(vertices)")

    def _check_vertices(self) -> None:
        _check_truncation(self.height, _vertex_length(self.vertices), self.kind)
        for v in self.vertices:
            if max(abs(e) for e in v.coords) > self.height:
                with _any_digits():
                    raise ValueError(f"vertex ({v.label}) exceeds height {self.height}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("repeated vertex")

    @classmethod
    def _of_bitsets(cls, kind: str, height: int, vertices: tuple, adj: tuple[int, ...]) -> ComplexGraph:
        # build_graph's route: the vertex check, n rows in [0, 2^n) and no bit on the
        # diagonal (symmetry is trusted), so the bits above it of ascending rows are
        # increasing pairs i < j < n, sharing one index list's ints; a list first, as a
        # growing tuple is resized.
        g = object.__new__(cls)
        g.__dict__.update(kind=kind, height=height, vertices=vertices, adjacency=adj)
        g._check_vertices()
        idx, edges = list(range(len(vertices))), []
        if len(adj) != len(idx) or min(adj) < 0 or max(adj) >> len(idx):
            raise ValueError(f"adjacency needs {len(idx)} rows in [0, 2^{len(idx)})")
        for i, row in zip(idx, adj):
            if (upper := row >> i) & 1:
                raise ValueError(f"adjacency row {i} has its own bit set")
            js = _members(upper >> 1 << i + 1, idx)
            edges += zip(repeat(i, len(js)), js)
        g.__dict__["edges"] = tuple(edges)
        return g

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {v.coords: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Bit j of adjacency[i] is set exactly when {i, j} is an edge."""
        adj = [0] * len(self.vertices)
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)

    def index_of(self, v: ProjVector) -> int:
        """Position of v in `vertices`, keyed by `v.coords`, a tuple of ints hashed
        in C; TypeError for a non-ProjVector, ValueError for a class not in the graph."""
        if not isinstance(v, ProjVector):
            with _any_digits():
                raise TypeError(f"vertex must be a ProjVector, got {v!r}")
        try:
            return self._index[v.coords]
        except KeyError:
            with _any_digits():
                raise ValueError(f"vertex ({v.label}) is not in the graph") from None

    def neighbors(self, i: int) -> list[int]:
        """Ascending neighbor indices; empty for an index outside the graph."""
        n = len(self.vertices)
        return _members(self.adjacency[i], range(n)) if 0 <= i < n else []

    def degree(self, v: ProjVector) -> int:
        return self.adjacency[self.index_of(v)].bit_count()


def build_graph(kind: str, height: int, n: int = 3) -> ComplexGraph:
    """Truncation of the chosen 1-skeleton to vertices of max-norm <= height.

    The two kinds produce identical edge sets for n == 3; the
    "finegold-skeleton" kind also accepts other dimensions (n == 2 gives a
    fragment of the Farey graph), while "surface-complex-s1" is defined
    for n == 3 only.  Both kinds and every n take one path: adjacency
    bitsets by residue classes (`_coprime_minor_pairs`), checked
    in O(V) (n rows below 2^n, none with its own bit set), not edge by edge,
    then the sorted edges read off them; the graph keeps the bitsets as its
    `adjacency`.  Any other kind, n < 2, a height not an integer >= 1, or
    over MAX_GRAPH_CANDIDATES (4096) candidate vectors (2*height+1)**n raise
    before any enumeration; then a ValueError is an internal fault and
    raises RuntimeError.
    """
    _check_truncation(height, n, kind)
    _check_candidates(height, n, MAX_GRAPH_CANDIDATES)
    with _building():
        vertices = tuple(enumerate_vertices(n, height))
        adj = _coprime_minor_pairs([v.coords for v in vertices], height)
        return ComplexGraph._of_bitsets(kind, height, vertices, adj)


def _reach(adj: tuple[int, ...], layer: int) -> int:
    # The one frontier step: the OR of the rows of the vertices in layer.
    return reduce(or_, _members(layer, adj), 0)


def _bfs_layers(adj: tuple[int, ...], start: int):
    # Bitsets of the vertices at distance 0, 1, 2, ... from start.
    seen = layer = 1 << start
    while layer:
        yield layer
        layer = _reach(adj, layer) & ~seen
        seen |= layer


def bfs_distance(g: ComplexGraph, a: ProjVector, b: ProjVector) -> int | None:
    """Shortest edge count between a and b inside the truncation.

    None when no path exists within the truncated graph.  Because
    intermediate vertices of true geodesics may exceed the height bound,
    a finite value is an upper bound for the distance in the full complex,
    never an exact claim about it.  The search grows from both ends, the
    smaller frontier first, so distances 1 and 2 take one bit test or AND.
    """
    ia, ib = g.index_of(a), g.index_of(b)
    adj = g.adjacency
    if ia == ib or adj[ia] >> ib & 1:
        return 0 if ia == ib else 1
    with _building():
        # Balls around a and b, radii summing to dist, with their rims: they first meet at d(a, b).
        near, far, dist = (adj[ia] | 1 << ia, adj[ia]), (adj[ib] | 1 << ib, adj[ib]), 2
        while not near[0] & far[0]:
            if near[1].bit_count() > far[1].bit_count():
                near, far = far, near
            if not (layer := _reach(adj, near[1]) & ~near[0]):
                return None
            near, dist = (near[0] | layer, layer), dist + 1
        return dist


def truncation_diameter(g: ComplexGraph) -> tuple[int | None, tuple[ProjVector, ProjVector] | None]:
    """Max pairwise BFS distance in the truncation and a realizing pair.

    Returns (None, pair) when some pair is unreachable within the
    truncation.  Deterministic: the lexicographically first realizing pair
    is reported.
    """
    with _building():
        adj, vs = g.adjacency, g.vertices
        idx = range(len(vs))
        best = 0
        pair: tuple[ProjVector, ProjVector] | None = None
        for i, near in enumerate(adj):
            later = (1 << len(vs)) - (2 << i)
            far = later & ~near
            # Distance 2 through a common neighbor; a full BFS from i only
            # when some later vertex has none.
            if all(near & adj[j] for j in _members(far, idx)):
                layers = [near & later, far]
            else:
                layers = [layer & later for layer in _bfs_layers(adj, i)][1:]
                missed = later & ~sum(layers)
                if missed:
                    return None, (vs[i], vs[_members(missed, idx)[0]])
            for dist in range(len(layers), best, -1):
                if layers[dist - 1]:
                    best, pair = dist, (vs[i], vs[_members(layers[dist - 1], idx)[0]])
                    break
        return best, pair


def farey_neighbors(v: ProjVector, height: int) -> list[ProjVector]:
    """Neighbors of a Farey vertex within the height truncation.

    For v = (p, q), these are the canonical (r, s) with max-norm <= height
    and |p*s - q*r| == 1: classes of curves on the 2-torus meeting a curve
    of slope v exactly once, signed and sorted as int pairs, then one
    ProjVector each.  Over MAX_GRAPH_CANDIDATES points of their line raise
    ValueError before any is built; a later ValueError is a RuntimeError.
    """
    if len(v) != 2:
        raise ValueError("farey vertices have length 2")
    _check_truncation(height)
    p, q = v.coords
    # Each neighbor class has one representative (r0, s0) + t*(p, q) with
    # p*s - q*r == 1.  Clip t by the larger of |p| and |q|, check the other.
    with _building():
        _, s0, r0 = xgcd(p, -q)
        c0, step = (r0, p) if p >= abs(q) else (s0, q) if q > 0 else (-s0, -q)
        ts = range(-((height + c0) // step), (height - c0) // step + 1)
    if ts.stop - ts.start > MAX_GRAPH_CANDIDATES:
        raise ValueError(f"truncation too large: {ts.stop - ts.start} candidate neighbors, "
                         f"over the limit of {MAX_GRAPH_CANDIDATES}")
    with _building():
        line = [(r, s) for t in ts for r, s in [(r0 + t * p, s0 + t * q)] if abs(r) <= height >= abs(s)]
        return list(map(ProjVector, sorted((r, s) if (r or s) > 0 else (-r, -s) for r, s in line)))


def graph_to_json_dict(g: ComplexGraph) -> dict:
    """The graph as a JSON-ready dict; its "edges" is `g.edges` itself, a
    tuple of pairs, which `json` writes as arrays."""
    return {
        "kind": g.kind,
        "height": g.height,
        "vertices": [list(v.coords) for v in g.vertices],
        "edges": g.edges,
    }


def graph_to_dot(g: ComplexGraph) -> str:
    names = [f'"{v.label}"' for v in g.vertices]
    edges = (f"  {names[i]} -- {names[j]};" for i, j in g.edges)
    return "\n".join(["graph {", *(f"  {name};" for name in names), *edges, "}", ""])
