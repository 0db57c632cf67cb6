"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Expected values are exact; the two timed criteria carry their
stated budgets as assertions.
"""

import math
import random
import time
from itertools import combinations, combinations_with_replacement

from surfcomplex.exactlin import IntMatrix, det, invariant_factors, smith_normal_form, xgcd
from surfcomplex.seifert import (
    SeifertInvariants,
    Verdict,
    classify_surface_complex,
    euler_number,
    h1,
    h2_rank,
    pi1_presentation,
    torus_link_components,
)
from surfcomplex.toruscomplex import (
    canonicalize,
    connect_path,
    enumerate_vertices,
    intersection_components,
    is_finegold_simplex,
)

V = lambda *coords: canonicalize(coords)


class _report:
    """Prints 'criterion N PASS/FAIL: description' when the block exits."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} {status}: {self.description}")
        return False


def _random_primitive_vector(rng, bound):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(v):
            g = math.gcd(*v)
            return tuple(e // g for e in v)


def _verify_certificate(cert):
    assert cert.num_edges <= 2
    for u, w in zip(cert.waypoints, cert.waypoints[1:]):
        assert intersection_components(u, w) == 1
    for witness in cert.witnesses:
        assert det(witness) == 1


def test_criterion_1_diameter_two_constructive():
    with _report(1, "constructive diameter-2 paths with determinant-1 witnesses"):
        start = time.monotonic()
        vertices = enumerate_vertices(3, 5)
        pairs = 0
        for a, b in combinations(vertices, 2):
            _verify_certificate(connect_path(a, b))
            pairs += 1
        assert pairs > 100_000

        rng = random.Random(20260809)
        done = 0
        while done < 1000:
            a = canonicalize(_random_primitive_vector(rng, 10**6))
            b = canonicalize(_random_primitive_vector(rng, 10**6))
            if a == b:
                continue
            _verify_certificate(connect_path(a, b))
            done += 1
        elapsed = time.monotonic() - start
        assert elapsed <= 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_2_flag_triangle_counterexample():
    with _report(2, "triangle in the flag complex but not in the torus complex"):
        triple = [V(1, 0, 0), V(0, 1, 0), V(1, 1, 2)]
        for a, b in combinations(triple, 2):
            assert intersection_components(a, b) == 1
        assert not is_finegold_simplex(triple)
        m = IntMatrix.from_columns([v.coords for v in triple])
        assert det(m) in (2, -2)


def test_criterion_3_six_simplex():
    with _report(3, "seven pairwise-adjacent classes; eighth vector excluded"):
        vectors = [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 0)]
        vs = [canonicalize(c) for c in vectors]
        checked = 0
        for a, b in combinations(vs, 2):
            assert intersection_components(a, b) == 1
            checked += 1
        assert checked == 21
        # The classical eight-vector list also contains (1,0,0); that vector
        # cannot join the simplex because paired with (1,2,0) the minor gcd
        # is 2, so only the seven above span.
        assert intersection_components(V(1, 0, 0), V(1, 2, 0)) == 2


def test_criterion_4_local_infiniteness_proxy():
    with _report(4, "degree of (0,0,1) nondecreasing in height, >= 50 at height 10"):
        target = V(0, 0, 1)
        degrees = []
        for h in range(1, 11):
            vs = enumerate_vertices(3, h)
            degrees.append(sum(1 for u in vs if u != target and intersection_components(u, target) == 1))
        assert all(x <= y for x, y in zip(degrees, degrees[1:]))
        assert degrees[-1] >= 50
        # frozen observed counts
        assert degrees == [12, 40, 112, 216, 440, 624, 1080, 1496, 2128, 2688]


def _h1_oracle(inv):
    pres = pi1_presentation(inv)
    n = len(pres.generators)
    rows = []
    for word in pres.relators:
        row = [0] * n
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    if not rows:
        rows = [[0] * n]
    diag = invariant_factors(rows)
    nonzero = [d for d in diag if d != 0]
    return n - len(nonzero), tuple(d for d in nonzero if d > 1)


def test_criterion_5_homology_grid():
    with _report(5, "homology grid: rank law and full-presentation oracle"):
        start = time.monotonic()
        pair_types = [
            (a, b) for a in range(2, 7) for b in range(1, a) if math.gcd(a, b) == 1
        ]
        checked = 0
        for g in range(0, 3):
            for b in range(-3, 4):
                for k in range(0, 5):
                    for fibers in combinations_with_replacement(pair_types, k):
                        inv = SeifertInvariants(g, b, fibers)
                        hom = h1(inv)
                        e_is_zero = euler_number(inv) == 0
                        assert hom.free_rank == 2 * g + (1 if e_is_zero else 0)
                        assert h2_rank(inv) == hom.free_rank
                        free, torsion = _h1_oracle(inv)
                        assert (hom.free_rank, hom.torsion) == (free, torsion)
                        checked += 1
        assert checked == 3 * 7 * (1 + 11 + 66 + 286 + 1001)
        elapsed = time.monotonic() - start
        assert elapsed <= 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_6_reduction_example():
    with _report(6, "Smith form of [[9, -10]] has cokernel Z"):
        res = smith_normal_form(IntMatrix(((9, -10),)))
        assert res.D.entries == ((1, 0),)
        assert res.U @ IntMatrix(((9, -10),)) @ res.V == res.D


def test_criterion_7_classification_table():
    with _report(7, "verdict table over twelve hand-built invariant tuples"):
        cases = [
            (SeifertInvariants(2, 1), Verdict.ISO_CURVE_COMPLEX, None, None),
            (SeifertInvariants(0, 1), Verdict.ISO_CURVE_COMPLEX, None, None),
            (SeifertInvariants(1, 1, ((2, 1), (3, 1))), Verdict.ISO_CURVE_COMPLEX, None, None),
            (SeifertInvariants(0, -1, ((4, 1),) * 4), Verdict.CONE_EXACT, 4, None),
            (SeifertInvariants(0, -2, ((2, 1),) * 4), Verdict.CONE_EXACT, 2, None),
            (SeifertInvariants(0, -1, ((5, 1),) * 5), Verdict.CONE_EXACT, 5, None),
            (SeifertInvariants(0, 0), Verdict.CONE_BOUNDED, 1, None),
            (
                SeifertInvariants(0, -2, ((3, 1), (3, 1), (3, 2), (3, 2))),
                Verdict.CONE_BOUNDED,
                3,
                None,
            ),
            (SeifertInvariants(0, -2, ((3, 1),) * 6), Verdict.CONE_BOUNDED, 3, None),
            (SeifertInvariants(1, 0), Verdict.PRODUCT_S1_CONNECTED, 1, 4),
            (SeifertInvariants(2, 0), Verdict.PRODUCT_S1_CONNECTED, 1, 4),
            (
                SeifertInvariants(1, 0, ((2, 1), (2, -1))),
                Verdict.CONNECTED_AT_LEVEL_D,
                2,
                None,
            ),
        ]
        assert len(cases) == 12
        for inv, verdict, d, diameter_bound in cases:
            report = classify_surface_complex(inv)
            assert report.verdict is verdict, inv
            assert report.d == d, inv
            assert report.diameter_bound == diameter_bound, inv


def _trace_link_components(m, n):
    m, n = abs(m), abs(n)
    if n == 0:
        return m
    seen = [False] * n
    orbits = 0
    for start in range(n):
        if not seen[start]:
            orbits += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = (p + m) % n
    return orbits


def test_criterion_8_torus_link_components():
    with _report(8, "torus-link component counts match orbit tracing"):
        for m in range(-12, 13):
            for n in range(-12, 13):
                if (m, n) == (0, 0):
                    continue
                assert torus_link_components(m, n) == _trace_link_components(m, n)
        rng = random.Random(8)
        done = 0
        while done < 200:
            m = rng.randint(-10**6, 10**6)
            n = rng.randint(-10**6, 10**6)
            if (m, n) == (0, 0) or math.gcd(m, n) != 1:
                continue
            assert torus_link_components(m, n) == 1
            done += 1


def test_criterion_9_kernel_certificates():
    with _report(9, "SNF certificates on random matrices; Bezout identity exhaustively"):
        rng = random.Random(99)
        for _ in range(500):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-100, 100) for _ in range(n)] for _ in range(m)]
            )
            res = smith_normal_form(a)
            assert res.U @ a @ res.V == res.D
            assert det(res.U) in (1, -1)
            assert det(res.V) in (1, -1)
            diag = res.diagonal()
            assert all(d >= 0 for d in diag)
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0
            for i in range(a.rows):
                for j in range(a.cols):
                    if i != j:
                        assert res.D.entries[i][j] == 0
        for a in range(-200, 201):
            for b in range(-200, 201):
                g, x, y = xgcd(a, b)
                assert g == math.gcd(a, b)
                assert a * x + b * y == g
