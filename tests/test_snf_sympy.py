"""Smith normal forms and determinants checked against sympy.

Invariant factors are compared with sympy's own Smith normal form, and
the certificates of `smith_normal_form` are checked with sympy products
and determinants alone.  `det`, and the facet gcds of `finegold_minors`
from one elimination, are compared with sympy's determinants; the gcd of the
maximal minors of a matrix that is not square, from `minors_gcd` and from
`finegold_minors` on fewer than n vertices, with the product of sympy's
invariant factors.  The closed-form first homology of `seifert.h1` is
compared with sympy's Smith form of the Seifert fiber block.  Nothing else
of `surfcomplex` is used, apart from `canonicalize` to draw vertices.
"""

import math
import random
from fractions import Fraction

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from surfcomplex.exactlin import IntMatrix, det, invariant_factors, minors_gcd, smith_normal_form
from surfcomplex.seifert import SeifertInvariants, h1
from surfcomplex.toruscomplex import canonicalize, finegold_minors


def random_matrices(count, seed):
    """Seeded matrices up to 7x7: entries up to 1e12, sparse to dense."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice((1, 3, 10, 1000, 10**6, 10**12))
        density = rng.choice((0.2, 0.5, 1.0))
        out.append(
            [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        )
    return out


@pytest.mark.parametrize("seed", range(4))
def test_invariant_factors_match_sympy(seed):
    for rows in random_matrices(100, seed):
        D = sympy_snf(Matrix(rows), domain=ZZ)
        want = tuple(abs(D[i, i]) for i in range(min(D.shape)))
        assert invariant_factors(rows) == want, rows


@pytest.mark.parametrize("seed", range(4, 8))
def test_smith_certificates_check_in_sympy(seed):
    for rows in random_matrices(50, seed):
        res = smith_normal_form(IntMatrix.from_rows(rows))
        U, D, V = (Matrix(x.to_lists()) for x in (res.U, res.D, res.V))
        assert U * Matrix(rows) * V == D, rows
        assert U.det() in (1, -1) and V.det() in (1, -1), rows
        assert D == sympy_snf(Matrix(rows), domain=ZZ).applyfunc(abs), rows


def random_square_matrices(count, seed):
    """Seeded square matrices up to 12x12, entries up to 1e12; about one in
    three gets a row that is a combination of two others (entries then up
    to 6e12), so it is singular; sparse ones are singular by chance."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        bound = rng.choice((1, 3, 10, 1000, 10**6, 10**12))
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 1 / 3:
            i = rng.randrange(n)
            j, k = (rng.choice([r for r in range(n) if r != i]) for _ in range(2))
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[i] = [x * e + y * f for e, f in zip(rows[j], rows[k])]
        out.append(rows)
    return out


@pytest.mark.parametrize("seed", range(8, 10))
def test_det_matches_sympy(seed):
    matrices = random_square_matrices(100, seed)
    want = [Matrix(rows).det() for rows in matrices]
    assert 0 in want and any(want)
    for rows, d in zip(matrices, want):
        assert det(IntMatrix.from_rows(rows)) == d, rows


def draw_classes(count, draw):
    """count distinct classes from the primitive vectors that draw() returns."""
    vs = []
    while len(vs) < count:
        v = draw()
        if math.gcd(*v) == 1 and canonicalize(v) not in vs:
            vs.append(canonicalize(v))
    return vs


@pytest.mark.parametrize("n", range(4, 9))
def test_facet_minors_match_sympy_determinants(n):
    """n + 1 seeded classes in Z^n: facet j's gcd is |det| of the other n.
    Three sets per n: generic classes, with no facet 0; the same with
    vertex 1 made a +-combination of vertices 0 and 2, so the facets that
    hold all three are 0 and, as the first n rows are dependent, a pivot
    must come from the last row; and n + 1 classes in one hyperplane, so
    every facet is 0 and the elimination stops early."""
    rng = random.Random(n)
    generic = draw_classes(n + 1, lambda: [rng.randint(-9, 9) for _ in range(n)])
    a, b = generic[0].coords, generic[2].coords
    combined = next(w for w in ([p + q for p, q in zip(a, b)], [p - q for p, q in zip(a, b)])
                    if math.gcd(*w) == 1 and canonicalize(w) not in generic)
    dependent = [generic[0], canonicalize(combined), *generic[2:]]
    basis = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]

    def in_hyperplane():
        xs = [rng.randint(-2, 2) for _ in basis]
        return [sum(x * row[i] for x, row in zip(xs, basis)) for i in range(n)]

    flat = draw_classes(n + 1, in_hyperplane)
    for vs, zero_facets in ((generic, []), (dependent, list(range(3, n + 1))), (flat, list(range(n + 1)))):
        cols = [v.coords for v in vs]
        # The facet's columns as rows: the transpose has the same determinant.
        want = [abs(Matrix(cols[:j] + cols[j + 1:]).det()) for j in range(n + 1)]
        assert [j for j, w in enumerate(want) if w == 0] == zero_facets, cols
        assert finegold_minors(vs) == want, cols


def sympy_maximal_minors_gcd(rows):
    D = sympy_snf(Matrix(rows), domain=ZZ)
    return math.prod(abs(D[i, i]) for i in range(min(D.shape)))


def random_oblong_matrices(count, seed):
    """Seeded tall and wide matrices up to 12 rows, entries up to 1e12;
    about one in three gets a line along its short side that is a
    combination of two others (or a multiple of one), so its rank drops."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.sample(range(1, 13), 2)
        bound = rng.choice((1, 3, 10, 1000, 10**6, 10**12))
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        lines = rows if m < n else [list(col) for col in zip(*rows)]
        if len(lines) > 1 and rng.random() < 1 / 3:
            i = rng.randrange(len(lines))
            j, k = (rng.choice([r for r in range(len(lines)) if r != i]) for _ in range(2))
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            lines[i] = [x * e + y * f for e, f in zip(lines[j], lines[k])]
        out.append(lines if m < n else [list(row) for row in zip(*lines)])
    return out


@pytest.mark.parametrize("seed", range(10, 12))
def test_maximal_minors_gcd_matches_sympy(seed):
    matrices = random_oblong_matrices(100, seed)
    want = [sympy_maximal_minors_gcd(rows) for rows in matrices]
    assert 0 in want and 1 in want and any(w > 1 for w in want)
    for rows, g in zip(matrices, want):
        assert minors_gcd(IntMatrix.from_rows(rows), min(len(rows), len(rows[0]))) == g, rows


@pytest.mark.parametrize("n", range(4, 11))
def test_fewer_than_n_vertices_match_sympy_invariant_factors(n):
    """k < n seeded classes in Z^n: the gcd of the k x k minors of their
    n x k matrix is the product of its k invariant factors."""
    rng = random.Random(100 + n)
    for k in range(2, n):
        vs = draw_classes(k, lambda: [rng.randint(-9, 9) for _ in range(n)])
        cols = [v.coords for v in vs]
        assert finegold_minors(vs) == sympy_maximal_minors_gcd([list(r) for r in zip(*cols)]), cols


def test_seifert_h1_matches_sympy_on_the_fiber_block():
    """200 seeded tuples of up to six fibers, alpha up to 1e6 or a product
    of 2, 3 and 5, beta of either sign; in every other tuple one more fiber
    and b force the Euler number to 0."""
    rng = random.Random(19)
    zero = 0
    for n in range(200):
        fibers = []
        for _ in range(rng.randrange(6)):
            alpha = rng.choice((2 ** rng.randrange(4) * 3 ** rng.randrange(3) * 5 ** rng.randrange(2),
                                rng.randrange(1, 10**6)))
            beta = rng.randrange(-2 * alpha, 2 * alpha + 1)
            while math.gcd(alpha, beta) != 1:
                beta += 1
            fibers.append((alpha, beta))
        b = rng.randrange(-4, 5)
        if n % 2:
            frac = sum(Fraction(beta, alpha) for alpha, beta in fibers) % 1
            if frac:
                fibers.append((frac.denominator, -frac.numerator))
            b = -int(sum(Fraction(beta, alpha) for alpha, beta in fibers))
        k = len(fibers)
        rows = [[1] * k + [-b]] + [[alpha if c == j else 0 for c in range(k)] + [beta]
                                   for j, (alpha, beta) in enumerate(fibers)]
        D = sympy_snf(Matrix(rows), domain=ZZ)
        diag = [abs(D[j, j]) for j in range(k + 1)]
        zero += diag.count(0)
        hom = h1(SeifertInvariants(1, b, tuple(fibers)))
        assert hom.free_rank == 2 + diag.count(0), (b, fibers)
        assert hom.torsion == tuple(d for d in diag if d > 1), (b, fibers)
    assert zero >= 100
