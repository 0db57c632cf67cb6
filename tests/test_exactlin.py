"""Tests for the exact integer linear algebra kernel.

Expected values are either trivial, verified by substitution, or computed
by the independent oracles in this file (brute-force minimal Bezout
search, a Euclid-loop minimal Bezout pair, permutation-expansion
determinants, direct minor enumeration).
"""

import json
import math
import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex import exactlin
from surfcomplex.exactlin import (
    IntMatrix,
    complete_to_unimodular,
    content,
    det,
    invariant_factors,
    minors_gcd,
    smith_normal_form,
    xgcd,
)


# ---------------------------------------------------------------- oracles


def brute_minimal_bezout(a, b):
    """Exhaustive minimal Bezout pair: scan all candidate x, pick the
    (|x|, |y|)-lexicographically smallest solution, preferring x > 0."""
    g = math.gcd(a, b)
    if g == 0:
        return (0, 0, 0)
    best = None
    bound = max(1, abs(b) // g) + 1
    for x in range(-bound, bound + 1):
        if b == 0:
            if a * x == g:
                y_candidates = [0]
            else:
                continue
        else:
            if (g - a * x) % b != 0:
                continue
            y_candidates = [(g - a * x) // b]
        for y in y_candidates:
            key = (abs(x), abs(y), 0 if x > 0 else 1)
            if best is None or key < best[0]:
                best = (key, x, y)
    return (g, best[1], best[2])


def euclid_minimal_bezout(a, b):
    """Minimal Bezout pair from the classic extended Euclid iteration, slid
    along the solution line {(x + t*b/g, y - t*a/g)} to the pair with the
    (|x|, |y|)-lexicographically smallest key, preferring x > 0."""
    g = math.gcd(a, b)
    if g == 0:
        return (0, 0, 0)
    if b == 0:
        return (g, 1 if a > 0 else -1, 0)
    old_r, r, old_x, x = a, b, 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
    if old_r < 0:
        old_x = -old_x
    step = abs(b) // g
    candidates = [(c, (g - a * c) // b) for c in (old_x % step, old_x % step - step)]
    return (g, *min(candidates, key=lambda p: (abs(p[0]), abs(p[1]), 0 if p[0] > 0 else 1)))


def permutation_det(rows):
    """Leibniz-formula determinant, independent of the elimination code."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def all_minors(rows, k):
    m, n = len(rows), len(rows[0])
    out = []
    for rs in combinations(range(m), k):
        for cs in combinations(range(n), k):
            out.append(permutation_det([[rows[i][j] for j in cs] for i in rs]))
    return out


def with_dependence(rows, c, how):
    if how == "row":
        return rows[:-1] + [[c * e for e in rows[0]]]
    if how == "column":
        return [row[:-1] + [c * row[0]] for row in rows]
    return rows


def check_snf(a: IntMatrix):
    res = smith_normal_form(a)
    assert res.U @ a @ res.V == res.D
    assert det(res.U) in (1, -1)
    assert det(res.V) in (1, -1)
    diag = res.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert res.D.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if y != 0:
            assert x != 0 and y % x == 0
        # zeros only trail
        if x == 0:
            assert y == 0
    return res


# ------------------------------------------------------------------ xgcd


def test_xgcd_examples():
    assert xgcd(2, 3) == (1, -1, 1)
    assert xgcd(0, 5) == (5, 0, 1)
    # 9*(-1) + (-10)*(-1) == 1: the sign-normalized minimal pair.
    assert xgcd(9, -10) == (1, -1, -1)
    assert xgcd(0, 0) == (0, 0, 0)
    # Ties on |x| (2|x| == |b|/g): the sign of a picks the representative.
    assert xgcd(3, 2) == (1, 1, -1)
    assert xgcd(-11, 2) == (1, -1, -5)


def test_xgcd_matches_brute_force_minimal_pair():
    for a in range(-40, 41):
        for b in range(-40, 41):
            assert xgcd(a, b) == brute_minimal_bezout(a, b), (a, b)


def test_xgcd_matches_euclid_loop_up_to_400_digits():
    """Random pairs of 1 to 400 digits, with random signs, zeros and
    common factors, against the Euclid-loop reference."""
    rng = random.Random(6)
    for _ in range(3000):
        a, b = (rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 400)) for _ in range(2))
        f = rng.choice((1, 1, 2, 6, rng.randrange(1, 10**30)))
        for x, y in ((a, b), (a * f, b * f), (0, b), (a, 0), (a, a * f), (b * f, b)):
            assert xgcd(x, y) == euclid_minimal_bezout(x, y), (x, y)


@given(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12))
def test_xgcd_identity_and_bounds(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g
    if g != 0:
        assert abs(x) <= max(1, abs(b) // g)
        assert abs(y) <= max(1, abs(a) // g)
    if b != 0:
        assert 2 * abs(x) * g <= abs(b)


# --------------------------------------------------------------- content


def test_content():
    assert content((-2, 4, -6)) == 2
    assert content((0, 0, 1)) == 1
    assert content((9, -10, 0)) == 1
    assert content((0, 0, 0)) == 0
    with pytest.raises(ValueError):
        content(())


# ------------------------------------------------------------------- det


def test_det_examples():
    assert det(IntMatrix(((0, 1, 0), (-1, 2, 0), (0, 0, 1)))) == 1
    assert det(IntMatrix.identity(3)) == 1
    assert det(IntMatrix(((1, 0, 1), (0, 1, 1), (0, 0, 2)))) == 2


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(IntMatrix(((1, 2, 3), (4, 5, 6))))


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-50, 50), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_permutation_expansion(rows):
    assert det(IntMatrix.from_rows(rows)) == permutation_det(rows)


# ------------------------------------------------------------ minors_gcd


def test_minors_gcd_examples():
    a = IntMatrix.from_columns([(1, 0, 0), (0, 1, 2)])
    assert minors_gcd(a, 2) == 1
    b = IntMatrix.from_columns([(1, 0, 0), (1, 2, 0)])
    assert minors_gcd(b, 2) == 2
    c = IntMatrix.from_columns([(2, 3, 5)])
    assert minors_gcd(c, 1) == 1
    with pytest.raises(ValueError):
        minors_gcd(a, 3)
    with pytest.raises(ValueError):
        minors_gcd(a, 0)


@given(
    st.one_of(
        st.tuples(
            st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4),
            st.integers(1, 2),
        ),
        # A square matrix and its one full minor, the determinant.
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
                st.just(n),
            )
        ),
        # A tall matrix and its maximal minors, k = cols < rows: the last row
        # may be c times the first, or the last column c times the first.
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(
                st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=k + 1, max_size=6),
                st.integers(-3, 3),
                st.sampled_from(("row", "column", "neither")),
            ).map(lambda t: (with_dependence(*t), k))
        ),
    )
)
def test_minors_gcd_matches_enumeration(case):
    rows, k = case
    a = IntMatrix.from_rows(rows)
    assert minors_gcd(a, k) == math.gcd(*all_minors(rows, k))


# ----------------------------------------------------------------- SNF


def test_snf_reduction_example():
    res = check_snf(IntMatrix(((9, -10),)))
    assert res.D.entries == ((1, 0),)


def test_snf_zero_matrix():
    a = IntMatrix(((0, 0), (0, 0), (0, 0)))
    res = check_snf(a)
    assert res.D == a
    assert res.U == IntMatrix.identity(3)
    assert res.V == IntMatrix.identity(2)


def test_snf_divisibility_example():
    res = check_snf(IntMatrix(((2, 4), (6, 8))))
    assert res.diagonal() == (2, 4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_snf_certificates_random(m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-100, 100), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    a = IntMatrix.from_rows(rows)
    res = check_snf(a)
    if m == n:
        prod = 1
        for d in res.diagonal():
            prod *= d
        assert prod == abs(det(a))


def test_minors_gcd_iff_snf_ones_exhaustive_3x2():
    """minors_gcd(A, k) == 1 exactly when the Smith form of A starts with
    k ones, over all 3x2 matrices with entries in [-3, 3]."""
    span = range(-3, 4)
    for entries in product(span, repeat=6):
        rows = [entries[0:2], entries[2:4], entries[4:6]]
        diag = invariant_factors(rows)
        a = IntMatrix.from_rows(rows)
        for k in (1, 2):
            ones = sum(1 for d in diag[:k] if d == 1)
            assert (minors_gcd(a, k) == 1) == (ones == k)


def test_invariant_factors_matches_full_snf():
    """The bare run of the Smith core (invariant_factors) and the augmented
    one (smith_normal_form) agree on the diagonal: 300 seeded matrices of 1
    to 7 rows and columns, with zero rows and columns and entries up to
    10**40."""
    rows = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
    assert invariant_factors(rows) == smith_normal_form(IntMatrix.from_rows(rows)).diagonal()
    rng = random.Random(23)
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        top = 10 ** rng.choice((1, 2, 6, 20, 40))
        rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            rows[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        assert invariant_factors(rows) == smith_normal_form(IntMatrix.from_rows(rows)).diagonal(), rows


def test_invariant_factors_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        invariant_factors([[2], [4, 6]])
    with pytest.raises(ValueError, match="ragged rows"):
        invariant_factors([[2, 4], [6]])


def test_invariant_factors_rejects_non_integer_entries():
    for rows in ([[2.0, 4]], [[2, 4], [6, 8.5]], [[True, 0], [0, 2]]):
        with pytest.raises(TypeError, match="non-integer entry"):
            invariant_factors(rows)


def test_invariant_factors_rejects_empty_matrices():
    for rows in ([[]], [], [[], []]):
        with pytest.raises(ValueError, match="matrix needs at least one row and one column"):
            invariant_factors(rows)


def test_snf_certificates_match_golden():
    """U, D and V exactly as pinned in golden/snf.json: 200 seeded matrices
    up to 7x7 (zero rows and columns, 1 x n and m x 1 shapes, entries up to
    about 1e12), captured from the implementation that predates the single
    augmented-matrix reduction.  U and V are not unique, so only this pins
    the certificates themselves."""
    cases = json.loads((Path(__file__).parent / "golden" / "snf.json").read_text())
    assert len(cases) == 200
    for case in cases:
        res = smith_normal_form(IntMatrix.from_rows(case["A"]))
        got = (res.U.to_lists(), res.D.to_lists(), res.V.to_lists())
        assert got == (case["U"], case["D"], case["V"]), case["A"]


# ------------------------------------------------- unimodular completion


def test_complete_to_unimodular_examples():
    m = complete_to_unimodular((0, 0, 1))
    assert m.column(0) == (0, 0, 1)
    assert det(m) == 1
    assert sorted(abs(e) for row in m.entries for e in row) == [0, 0, 0, 0, 0, 0, 1, 1, 1]

    m = complete_to_unimodular((2, 3, 5))
    assert m.column(0) == (2, 3, 5)
    assert det(m) == 1

    assert complete_to_unimodular((1, 0, 0)) == IntMatrix.identity(3)


def test_complete_to_unimodular_rejects_imprimitive(monkeypatch):
    with pytest.raises(ValueError):
        complete_to_unimodular((2, 4, 6))
    with pytest.raises(ValueError):
        complete_to_unimodular((0, 0, 0))
    with pytest.raises(ValueError):
        complete_to_unimodular(())
    with pytest.raises(TypeError, match="non-integer entry 1.5"):
        complete_to_unimodular((1.5, 1))
    with pytest.raises(ValueError, match="no determinant-1 completion"):
        complete_to_unimodular((-1,))
    monkeypatch.setattr(exactlin, "det", lambda A: -1)
    with pytest.raises(RuntimeError, match="unimodular completion failed verification"):
        complete_to_unimodular((2, 3, 5))


def test_complete_to_unimodular_exhaustive_height_10():
    span = range(-10, 11)
    for v in product(span, repeat=3):
        if v == (0, 0, 0) or math.gcd(*v) != 1:
            continue
        m = complete_to_unimodular(v)
        assert m.column(0) == v
        assert det(m) == 1


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=5))
def test_complete_to_unimodular_random_large(v):
    g = math.gcd(*v)
    if g == 0:
        return
    v = tuple(e // g for e in v)
    m = complete_to_unimodular(v)
    assert m.column(0) == v
    assert det(m) == 1


# --------------------------------------------------------------- matrix


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(())
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(TypeError):
        IntMatrix(((1.5, 2),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        IntMatrix(((1, 2),)) @ IntMatrix(((1, 2),))


def test_int_matrix_ops():
    a = IntMatrix(((1, 2), (3, 4)))
    assert a @ IntMatrix.identity(2) == a
    assert a.column(1) == (2, 4)
    assert IntMatrix.from_columns([(1, 3), (2, 4)]) == a
