"""Smith normal forms checked against sympy.

Invariant factors are compared with sympy's own Smith normal form, and
the certificates of `smith_normal_form` are checked with sympy products
and determinants alone; no other kernel of `surfcomplex.exactlin` is used.
"""

import random

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from surfcomplex.exactlin import IntMatrix, invariant_factors, smith_normal_form


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
