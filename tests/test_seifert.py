"""Tests for the Seifert fibered space calculator.

Two independent oracles live here: first homology recomputed by
abelianizing the full fundamental-group presentation (exponent-sum matrix
over every generator, reduced by Smith normal form), and torus-link
component counts recomputed by tracing orbits of the return map on a
transversal circle.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex.exactlin import invariant_factors
from surfcomplex.seifert import (
    SeifertInvariants,
    Verdict,
    classify_surface_complex,
    euler_number,
    h1,
    h2_rank,
    horizontal_degree,
    info_json_dict,
    normalize,
    pi1_presentation,
    torus_link_components,
)

SFS = SeifertInvariants


# ---------------------------------------------------------------- oracles


def h1_from_full_presentation(inv):
    """Abelianize the fundamental-group presentation directly: exponent-sum
    every relator over every generator and reduce the full matrix."""
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
    free = n - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return free, torsion


def trace_link_components(m, n):
    """Count components of the (m, n) multicurve by orbit tracing: the
    curve crosses a transversal circle in |n| points (or |m| when n == 0)
    and the return map is a rotation; components = orbits."""
    m, n = abs(m), abs(n)
    if n == 0:
        return m
    seen = [False] * n
    orbits = 0
    for start in range(n):
        if seen[start]:
            continue
        orbits += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = (p + m) % n
    return orbits


def fiber_pairs(alpha_max):
    return [
        (a, b)
        for a in range(2, alpha_max + 1)
        for b in range(1, a)
        if math.gcd(a, b) == 1
    ]


# ------------------------------------------------------------- invariants


def test_invariants_validation():
    with pytest.raises(ValueError):
        SFS(-1, 0)
    with pytest.raises(ValueError):
        SFS(0, 0, ((4, 2),))
    with pytest.raises(ValueError):
        SFS(0, 0, ((0, 1),))
    with pytest.raises(ValueError):
        SFS(0, 0, ((-2, 1),))
    with pytest.raises(ValueError, match="b must be an integer"):
        SFS(0, 1.5)
    with pytest.raises(ValueError, match="fiber must be an integer pair"):
        SFS(0, 0, ((2,),))


def test_normalize_examples():
    assert normalize(SFS(0, 0, ((2, 3),))) == SFS(0, 1, ((2, 1),))
    inv = SFS(1, -1, ((4, 1),) * 4)
    assert normalize(inv) == inv
    assert normalize(SFS(0, 2)) == SFS(0, 2)
    # alpha == 1 folds away, negative beta reduces upward
    assert normalize(SFS(0, 0, ((1, 5), (2, -1)))) == SFS(0, 4, ((2, 1),))
    assert normalize(SFS(1, 0, ((2, 1), (2, -1)))) == SFS(1, -1, ((2, 1), (2, 1)))


def test_normalize_sorts_and_preserves_euler():
    inv = SFS(1, 0, ((5, 3), (2, -1), (3, 7)))
    norm = normalize(inv)
    assert norm.fibers == tuple(sorted(norm.fibers))
    assert euler_number(norm) == euler_number(inv)
    assert normalize(norm) == norm


# ------------------------------------------------------------------ euler


def test_euler_number_examples():
    assert euler_number(SFS(2, 1)) == 1
    assert euler_number(SFS(0, -1, ((4, 1),) * 4)) == 0
    assert euler_number(SFS(1, 0, ((2, 1), (2, -1)))) == 0
    assert euler_number(SFS(0, 0, ((3, 2), (5, 3)))) == Fraction(19, 15)


def test_euler_number_matches_a_sum_of_fractions():
    pairs = [(a, b) for a in (1, 2, 3, 4, 6, 10**6 + 3) for b in (-7, -1, 1, 5, 10**9)
             if math.gcd(a, b) == 1]
    for b in (-2, 0, 3):
        for fibers in combinations_with_replacement(pairs, 3):
            e = euler_number(SFS(1, b, fibers))
            assert e == b + sum(Fraction(beta, alpha) for alpha, beta in fibers)


# ----------------------------------------------------- horizontal degree


def test_horizontal_degree_examples():
    assert horizontal_degree(SFS(0, -1, ((4, 1),) * 4)) == 4
    assert horizontal_degree(SFS(0, 0)) == 1
    # lcm over distinct multiplicities: alphas 3,3,5,5 give 15
    assert horizontal_degree(SFS(0, -2, ((3, 1), (3, 2), (5, 2), (5, 3)))) == 15
    with pytest.raises(ValueError):
        horizontal_degree(SFS(2, 1))


# ----------------------------------------------------------- presentation


def test_pi1_presentation_s2xs1_like():
    pres = pi1_presentation(SFS(0, 0))
    assert pres.generators == ("h",)
    assert pres.relators == ()


def test_pi1_presentation_three_torus():
    pres = pi1_presentation(SFS(1, 0))
    assert pres.generators == ("a1", "b1", "h")
    assert pres.relators == ((1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3))


def test_pi1_presentation_counts():
    pres = pi1_presentation(SFS(0, -1, ((2, 1), (3, 1), (5, 1))))
    assert len(pres.generators) == 4
    assert len(pres.relators) == 1 + 3 + 3
    # generic relator count: one surface word, 2g+k commutators, k fiber words
    pres = pi1_presentation(SFS(2, 3, ((2, 1), (5, 2))))
    assert len(pres.relators) == 1 + (2 * 2 + 2) + 2


def test_pi1_presentation_words():
    pres = pi1_presentation(SFS(0, 2, ((3, -2),)))
    # surface: h^-2 x1 ; fiber: x1^3 h^-2   (generators x1=1, h=2)
    assert pres.relators[0] == (-2, -2, 1)
    assert pres.relators[-1] == (1, 1, 1, -2, -2)


# --------------------------------------------------------------- homology


def test_h1_examples():
    res = h1(SFS(1, 0))
    assert (res.free_rank, res.torsion, res.eta_is_fiber_class) == (3, (), True)
    res = h1(SFS(1, 0, ((2, 1), (2, -1))))
    assert (res.free_rank, res.torsion, res.eta_is_fiber_class) == (3, (), False)


def test_h1_reduction_example():
    # the x1, x2 relation block [[9, -10]] has cokernel Z
    assert invariant_factors([[9, -10]]) == (1,)


def test_h1_torsion_exists_for_some_zero_euler_space():
    res = h1(SFS(0, 0, ((2, 1), (2, 1), (2, -1), (2, -1))))
    assert euler_number(SFS(0, 0, ((2, 1), (2, 1), (2, -1), (2, -1)))) == 0
    assert res.free_rank == 1
    assert res.torsion != ()


def test_h2_rank_examples():
    assert h2_rank(SFS(1, 0)) == 3
    assert h2_rank(SFS(0, -1, ((4, 1),) * 4)) == 1
    assert h2_rank(SFS(2, 1)) == 4


def test_h1_matches_full_presentation_oracle_small_grid():
    pairs = fiber_pairs(5)
    for g in range(0, 3):
        for b in range(-2, 3):
            for k in range(0, 3):
                for fibers in combinations_with_replacement(pairs, k):
                    inv = SFS(g, b, fibers)
                    mine = h1(inv)
                    free, torsion = h1_from_full_presentation(inv)
                    assert (mine.free_rank, mine.torsion) == (free, torsion), inv
                    assert h2_rank(inv) == free


_unnormalized_fiber = st.tuples(st.integers(1, 6), st.integers(-6, 6)).filter(
    lambda f: math.gcd(f[0], f[1]) == 1
)
_invariants = st.builds(
    SFS,
    st.integers(0, 2),
    st.integers(-3, 3),
    st.lists(_unnormalized_fiber, max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(_invariants)
def test_h1_oracle_and_normalize_invariance_random(inv):
    mine = h1(inv)
    free, torsion = h1_from_full_presentation(inv)
    assert (mine.free_rank, mine.torsion) == (free, torsion)
    norm = normalize(inv)
    assert euler_number(norm) == euler_number(inv)
    assert h1(norm) == mine
    assert h2_rank(norm) == h2_rank(inv) == mine.free_rank
    assert classify_surface_complex(norm) == classify_surface_complex(inv)
    e = euler_number(inv)
    assert mine.free_rank == 2 * inv.genus + (1 if e == 0 else 0)


def test_invariance_under_normalize_exhaustive_k2():
    pairs = [
        (a, b)
        for a in range(1, 7)
        for b in range(-6, 7)
        if math.gcd(a, b) == 1
    ]
    for g in (0, 1, 2):
        for b in range(-3, 4):
            for k in (0, 1, 2):
                for fibers in combinations_with_replacement(pairs, k):
                    inv = SFS(g, b, fibers)
                    norm = normalize(inv)
                    assert euler_number(norm) == euler_number(inv)
                    assert h1(norm) == h1(inv)
                    assert classify_surface_complex(norm) == classify_surface_complex(inv)


# ------------------------------------------------------------ torus links


def test_torus_link_components_examples():
    assert torus_link_components(3, 5) == 1
    assert torus_link_components(0, 1) == 1
    assert torus_link_components(2, 2) == 2
    with pytest.raises(ValueError):
        torus_link_components(0, 0)


def test_torus_link_components_matches_orbit_tracing():
    for m in range(-12, 13):
        for n in range(-12, 13):
            if m == 0 and n == 0:
                continue
            assert torus_link_components(m, n) == trace_link_components(m, n)


# --------------------------------------------------------- classification


def test_classify_examples():
    r = classify_surface_complex(SFS(2, 1))
    assert r.verdict is Verdict.ISO_CURVE_COMPLEX
    assert r.base_surface == (2, 0)
    assert r.d is None

    r = classify_surface_complex(SFS(0, -1, ((4, 1),) * 4))
    assert r.verdict is Verdict.CONE_EXACT
    assert r.base_surface == (0, 4)
    assert r.d == 4

    r = classify_surface_complex(SFS(1, 0, ((2, 1), (2, -1))))
    assert r.verdict is Verdict.CONNECTED_AT_LEVEL_D
    assert r.d == 2

    r = classify_surface_complex(SFS(1, 0))
    assert r.verdict is Verdict.PRODUCT_S1_CONNECTED
    assert r.diameter_bound == 4
    assert r.d == 1


def test_classify_d_present_iff_euler_zero():
    for inv in (SFS(0, 1), SFS(2, 1), SFS(1, 1, ((2, 1), (3, 1)))):
        r = classify_surface_complex(inv)
        assert r.d is None and euler_number(inv) != 0
    for inv in (SFS(0, 0), SFS(1, 0), SFS(0, -1, ((4, 1),) * 4)):
        r = classify_surface_complex(inv)
        assert r.d is not None and euler_number(inv) == 0


def test_cone_exact_requires_4_or_5_identical_fibers():
    pairs = fiber_pairs(5)
    for k in range(0, 6):
        for fibers in combinations_with_replacement(pairs, k):
            total = sum(Fraction(b, a) for a, b in fibers)
            if total.denominator != 1:
                continue
            inv = SFS(0, -int(total), fibers)
            r = classify_surface_complex(inv)
            identical = len(set(fibers)) <= 1
            expect_exact = k in (4, 5) and identical and k > 0
            assert (r.verdict is Verdict.CONE_EXACT) == expect_exact, inv


# ------------------------------------------------------------------ JSON


def test_info_json_schema_and_values():
    d = info_json_dict(SFS(0, -1, ((4, 1),) * 4))
    assert set(d) == {
        "genus", "b", "fibers", "euler_number", "d", "h1", "h2_rank",
        "verdict", "theorem", "diameter_bound",
    }
    assert d["genus"] == 0
    assert d["b"] == -1
    assert d["fibers"] == [[4, 1]] * 4
    assert d["euler_number"] == "0/1"
    assert d["d"] == 4
    assert d["h1"] == {"free_rank": 1, "torsion": [4, 4]}
    assert d["h2_rank"] == 1
    assert d["verdict"] == "ConeExact"
    assert d["diameter_bound"] is None


def test_info_json_reports_normalized_tuple():
    d = info_json_dict(SFS(0, 0, ((2, 3),)))
    assert d["b"] == 1
    assert d["fibers"] == [[2, 1]]
    assert d["euler_number"] == "3/2"
    assert d["d"] is None
