"""Exact integer linear algebra over Python's arbitrary-precision ints.

Everything here is exact: no floats, no modular shortcuts, no overflow.
The module supplies the kernels the rest of the package is built on:
extended gcd with a deterministic minimal Bezout pair, fraction-free
determinants, Smith normal form with unimodular certificate matrices,
gcds of k x k minors read from its invariant factors, and completion of
a primitive vector to a determinant-1 matrix.  The one computation
modulo primes, finding all pairs of bounded vectors with coprime 2x2
minors at once, covers every prime up to a bound on the minors, so it is
exact too.

All values are immutable once constructed and safe to share between
threads; every function is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mod, mul, or_, xor
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "SNFResult",
    "xgcd",
    "det",
    "minors_gcd",
    "smith_normal_form",
    "invariant_factors",
    "content",
    "complete_to_unimodular",
]


class _building:
    # Once the inputs are accepted, a ValueError is an internal fault.
    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, ValueError):
            raise RuntimeError(f"construction failed: {exc}") from exc


def _check_rows(rows: Sequence[Sequence[int]]) -> None:
    # The one matrix check, for IntMatrix and raw rows alike.
    if not rows or not rows[0]:
        raise ValueError("matrix needs at least one row and one column")
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("ragged rows")
        for e in row:
            if not isinstance(e, int):
                raise TypeError(f"non-integer entry {e!r}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_rows(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_columns(cls, cols: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(zip(*(tuple(c) for c in cols))))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = tuple(zip(*other.entries))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            )
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition U @ A @ V == D with unimodular U and V.

    D is diagonal with nonnegative entries d1 | d2 | d3 | ... ; any sign is
    absorbed into U.  D is the unique Smith form of the input.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols)))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with a deterministic minimal Bezout pair.

    Returns (g, x, y) with a*x + b*y == g and g == gcd(a, b) >= 0.  Among
    all Bezout pairs the one minimizing (|x|, |y|) is returned, preferring
    x > 0 on the (degenerate) ties; the result is unique and reproducible,
    with |x| <= max(1, |b/g|) and |y| <= max(1, |a/g|).  xgcd(0, 0) is
    (0, 0, 0).
    """
    if a == 0 and b == 0:
        return (0, 0, 0)
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    if a == 0:
        return (abs(b), 0, 1 if b > 0 else -1)
    g = math.gcd(a, b)
    # The solutions x form the class of (a/g)^-1 mod |b|/g, computed in C;
    # the minimal pair is one of its two representatives nearest zero.
    step = abs(b) // g
    x_hi = pow(a // g, -1, step)
    best: tuple[tuple[int, int, int], int, int] | None = None
    for cand in (x_hi, x_hi - step):
        y = (g - a * cand) // b
        key = (abs(cand), abs(y), 0 if cand > 0 else 1)
        if best is None or key < best[0]:
            best = (key, cand, y)
    assert best is not None
    return (g, best[1], best[2])


def content(v: Sequence[int]) -> int:
    """gcd of the entries, >= 0; zero exactly for the zero vector."""
    vv = tuple(v)
    if not vv:
        raise ValueError("empty vector")
    return math.gcd(*vv)


def det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    m = [list(row) for row in A.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def minors_gcd(A: IntMatrix, k: int) -> int:
    """gcd (>= 0) of all k x k minors of A.

    This is the SL(n, Z)-submatrix criterion in computable form: an n x k
    integer matrix extends to a unimodular matrix exactly when the gcd of
    its k x k minors is 1.  By the determinantal divisor theorem (Newman,
    Integral Matrices) that gcd is d1 * ... * dk, the first k invariant factors.
    """
    if k < 1 or k > min(A.rows, A.cols):
        raise ValueError(f"minor size {k} out of range for {A.rows}x{A.cols}")
    return math.prod(invariant_factors(A)[:k])


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
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
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


def _combine_rows(M: list[list[int]], t: int, i: int, x: int, y: int, p: int, q: int) -> None:
    # (row_t, row_i) <- (x*row_t + y*row_i, p*row_i - q*row_t); det of the
    # 2x2 block is x*p + y*q == 1.
    rt, ri = M[t], M[i]
    M[t] = [x * u + y * w for u, w in zip(rt, ri)]
    M[i] = [p * w - q * u for u, w in zip(rt, ri)]


def _combine_cols(M: list[list[int]], t: int, j: int, x: int, y: int, p: int, q: int) -> None:
    for row in M:
        u, w = row[t], row[j]
        row[t] = x * u + y * w
        row[j] = p * w - q * u


def _swap_cols(M: list[list[int]], a: int, b: int) -> None:
    for row in M:
        row[a], row[b] = row[b], row[a]


def _snf_core(D: list[list[int]], m: int, n: int) -> None:
    """Reduce the top-left m x n block of D to Smith form in place; the
    row operations act on whole rows and the column operations on every row."""
    size = min(m, n)

    # When the pivot divides the target, plain subtraction clears it and
    # leaves the pivot row/column untouched; otherwise a gcd combine
    # strictly shrinks |D[t][t]|, so alternating row and column passes
    # terminates.

    def clear_col(t: int) -> bool:
        changed = False
        for i in range(t + 1, m):
            b = D[i][t]
            if b == 0:
                continue
            a = D[t][t]
            if b % a == 0:
                q = b // a
                D[i] = [w - q * u for u, w in zip(D[t], D[i])]
            else:
                g, x, y = xgcd(a, b)
                _combine_rows(D, t, i, x, y, a // g, b // g)
            changed = True
        return changed

    def clear_row(t: int) -> bool:
        changed = False
        for j in range(t + 1, n):
            b = D[t][j]
            if b == 0:
                continue
            a = D[t][t]
            if b % a == 0:
                q = b // a
                for row in D:
                    row[j] -= q * row[t]
            else:
                g, x, y = xgcd(a, b)
                _combine_cols(D, t, j, x, y, a // g, b // g)
            changed = True
        return changed

    def reduce_at(t: int) -> None:
        clear_col(t)
        while clear_row(t):
            if not clear_col(t):
                break

    for t in range(size):
        # Deterministic pivot: smallest nonzero absolute value, scanning
        # rows first, then columns.
        best = None
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v != 0:
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best, piv = key, (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            D[t], D[i] = D[i], D[t]
        if j != t:
            _swap_cols(D, t, j)
        reduce_at(t)

    # Enforce the divisibility chain d1 | d2 | ... by splicing offending
    # pairs back together and re-reducing.
    while True:
        clean = True
        for t in range(size - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if b != 0 and abs(b) % abs(a) != 0:
                for row in D:
                    row[t] += row[t + 1]
                reduce_at(t)
                clean = False
        if clean:
            break

    for t in range(size):
        if D[t][t] < 0:
            D[t] = [-e for e in D[t]]


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Smith normal form with unimodular certificates.

    Returns SNFResult(U, D, V) with U @ A @ V == D exactly, |det U| == 1,
    |det V| == 1, and D diagonal, nonnegative, with each diagonal entry
    dividing the next.  The pivot rule (smallest nonzero absolute value,
    row-then-column tie break) makes the computation deterministic.  U and
    V are read off the reduction of (A | I_m) stacked over I_n.
    """
    m, n = A.rows, A.cols
    M = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(A.entries)]
    M += [[int(i == j) for j in range(n)] for i in range(n)]
    _snf_core(M, m, n)
    return SNFResult(
        U=IntMatrix.from_rows(row[n:] for row in M[:m]),
        D=IntMatrix.from_rows(row[:n] for row in M[:m]),
        V=IntMatrix.from_rows(M[m:]),
    )


def invariant_factors(rows: IntMatrix | Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith form, without certificate bookkeeping.

    Accepts an IntMatrix or raw rows; returns all min(m, n) diagonal
    entries, including trailing zeros.
    """
    D = [list(row) for row in (rows.entries if isinstance(rows, IntMatrix) else rows)]
    _check_rows(D)
    _snf_core(D, len(D), len(D[0]))
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]))))


def complete_to_unimodular(v: Sequence[int]) -> IntMatrix:
    """Square matrix with determinant exactly 1 whose first column is v.

    Requires content(v) == 1.  Built by running the gcd chain that reduces
    v to the first standard basis vector and accumulating the inverse
    column operations (Hermite-style back substitution).
    """
    vv = tuple(v)
    _check_rows((vv,))
    if content(vv) != 1:
        raise ValueError(f"vector is not primitive (content {content(vv)})")
    if vv == (-1,):
        raise ValueError("(-1,) has no determinant-1 completion")
    n = len(vv)
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    g = vv[0]
    for i in range(1, n):
        b = vv[i]
        g2, x, y = xgcd(g, b)
        if g2 == 0:
            continue
        # (col 0, col i) <- ((g*col 0 + b*col i)/g2, x*col i - y*col 0).
        _combine_cols(M, 0, i, g // g2, b // g2, x, y)
        g = g2
    out = IntMatrix.from_rows(M)
    if out.column(0) != vv or det(out) != 1:
        raise RuntimeError("unimodular completion failed verification")
    return out

