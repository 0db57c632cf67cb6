"""Tests for the Seifert fibered space calculator.

Independent oracles live here: first homology recomputed by abelianizing
the full fundamental-group presentation (exponent-sum matrix over every
generator, reduced by Smith normal form) and by the Smith form of the
(k+1) x (k+1) fiber block alone, and torus-link component counts
recomputed by tracing orbits of the return map on a transversal circle.
"""

import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex.cli import main
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


def h1_from_fiber_block(inv):
    """Free rank and torsion from the Smith form of the (k+1) x (k+1) block
    over (x_1, ..., x_k, h): rows (1, ..., 1, -b) and alpha_i x_i + beta_i h."""
    k = len(inv.fibers)
    rows = [[1] * k + [-inv.b]]
    for j, (alpha, beta) in enumerate(inv.fibers):
        row = [0] * (k + 1)
        row[j], row[k] = alpha, beta
        rows.append(row)
    diag = invariant_factors(rows)
    return 2 * inv.genus + diag.count(0), tuple(d for d in diag if d > 1)


def random_tuples(count, seed):
    """Seeded valid tuples of up to seven fibers: alpha a product of 2, 3
    and 5, 1, small, or up to 1e12; beta of either sign and unreduced, with
    repeated fibers; every other tuple has its Euler number forced to 0 by
    one more fiber and b."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        fibers = []
        for _ in range(rng.randrange(7)):
            alpha = rng.choice((
                2 ** rng.randrange(5) * 3 ** rng.randrange(4) * 5 ** rng.randrange(3),
                1, rng.randrange(2, 30), rng.randrange(2, 10**12)))
            beta = rng.randrange(-3 * alpha - 3, 3 * alpha + 4)
            while math.gcd(alpha, beta) != 1:
                beta += 1
            fibers += [(alpha, beta)] * rng.choice((1, 1, 1, 2, 3))
        b = rng.randrange(-5, 6)
        if i % 2:
            frac = sum(Fraction(beta, alpha) for alpha, beta in fibers) % 1
            if frac:
                fibers.append((frac.denominator, -frac.numerator))
            b = -int(sum(Fraction(beta, alpha) for alpha, beta in fibers))
        rng.shuffle(fibers)
        out.append(SFS(rng.randrange(3), b, tuple(fibers)))
    return out


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
    with pytest.raises(ValueError, match="genus must be a nonnegative integer, got True"):
        SFS(True, False, ((2, True),))
    with pytest.raises(ValueError, match="b must be an integer, got False"):
        SFS(0, False)
    with pytest.raises(ValueError, match=r"fiber must be an integer pair, got \(2, True\)"):
        SFS(0, 0, ((2, True),))


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


def letters(pres):
    return sum(map(len, pres.relators))


def test_pi1_presentation_letter_count():
    """The count behind the size limit is exact: |b| + 12g + 5k plus
    alpha + |beta| per fiber."""
    for inv in (SFS(0, 0), SFS(1, 0), SFS(0, 2, ((3, -2),)), SFS(2, -3, ((2, 1), (5, -2), (7, 3)))):
        g, k = inv.genus, len(inv.fibers)
        assert letters(pi1_presentation(inv)) == abs(inv.b) + 12 * g + 5 * k + sum(
            alpha + abs(beta) for alpha, beta in inv.fibers)


def test_pi1_presentation_refuses_large_presentations_up_front():
    assert letters(pi1_presentation(SFS(0, 0, ((10**6 - 6, 1),)))) == 10**6
    for inv in (SFS(0, 0, ((10**6 - 5, 1),)), SFS(0, 0, ((10**9, 1),)), SFS(0, 0, ((10**30, 1),)),
                SFS(10**30, 0)):
        tracemalloc.start()
        with pytest.raises(ValueError, match="^presentation too large: .* over the limit of 1000000$"):
            pi1_presentation(inv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 100_000


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


def test_h2_rank_of_48_fibers_with_30_digit_alphas_is_fast():
    """h2_rank is read off the Euler number, with no Smith form of the
    fiber block, whose reduction took seconds on this tuple."""
    rng = random.Random(1)
    inv = normalize(SFS(0, 1, tuple((rng.randrange(10**29, 10**30), 1) for _ in range(48))))
    start = time.perf_counter()
    assert h2_rank(inv) == 0
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("seed", range(3))
def test_h1_matches_smith_form_of_the_fiber_block(seed):
    """The closed form against the Smith route it replaced, and the order
    of H1 of a rational homology sphere, |e| * prod(alpha), which needs no
    Smith form at all."""
    tuples = random_tuples(1000, seed)
    assert sum(euler_number(inv) == 0 for inv in tuples) >= 500
    for inv in tuples:
        mine = h1(inv)
        assert (mine.free_rank, mine.torsion) == h1_from_fiber_block(inv), inv
        e = euler_number(inv)
        if e != 0:
            assert math.prod(mine.torsion) == abs(e) * math.prod(a for a, _ in inv.fibers), inv


def test_seifert_info_on_100_fibers_with_30_digit_alphas_is_fast(capsys):
    rng = random.Random(1)
    argv = ["seifert", "info", "--genus", "0", "--b", "1"]
    for _ in range(100):
        argv += ["--fiber", f"{rng.randrange(10**29, 10**30)}:1"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ""


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


def test_info_json_is_exact_past_the_int_str_digit_limit():
    """The Euler number here has over 4,400 digits, past Python's default
    limit of 4,300 for int/str conversion; the limit is restored after."""
    a = 10**2199 + 1
    e = 1 + Fraction(1, a) + Fraction(1, a + 2)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = f"{e.numerator}/{e.denominator}"
        sys.set_int_max_str_digits(4300)
        got = info_json_dict(SFS(0, 1, ((a, 1), (a + 2, 1))))["euler_number"]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == want
