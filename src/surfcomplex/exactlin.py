"""Exact integer linear algebra over Python's arbitrary-precision ints.

Everything here is exact: no floats, no overflow.  The module supplies
the kernels the rest of the package is built on: extended gcd with a
deterministic minimal Bezout pair, fraction-free determinants, Smith
normal form with unimodular certificate matrices, gcds of k x k minors
(maximal ones by elimination, others from invariant factors), and
completion of a primitive vector to a determinant-1 matrix.  Its two
modular steps are exact: maximal minors work mod a nonzero minor d, with
d*Z^k in the row lattice, and coprime 2x2 minors of bounded vectors are
found mod every prime up to a bound on the minors.

All values are immutable once constructed and safe to share between
threads; every function is a pure function of its inputs.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import mod, mul, or_, xor

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


class _any_digits:
    # Exact at any magnitude: lift Python's int/str digit limit inside the
    # block and restore it for the caller.
    def __enter__(self) -> None:
        self.saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc) -> None:
        sys.set_int_max_str_digits(self.saved)


class _Frozen:
    # The frozen value classes' base: a subclass's fields are its own
    # annotations, in order, with class-level defaults.  __init__ (which calls
    # __post_init__ through the instance, if the class has one), __eq__,
    # __hash__ and, with order=True, the four comparisons are compiled once per
    # class as dataclass(frozen=True) writes them, specialised to its fields:
    # generic ones, over *args and a key tuple, slow the hot paths.
    def __init_subclass__(cls, order: bool = False) -> None:
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = (f"{f}=_cls.{f}" if f in cls.__dict__ else f for f in fields)
        mine, theirs = (f"({''.join(f'{who}.{f},' for f in fields)})" for who in ("self", "other"))
        src = [f"def __init__(self, {', '.join(params)}):",
               *(f" _set(self, {f!r}, {f})" for f in fields),
               " self.__post_init__()" if hasattr(cls, "__post_init__") else "",
               f"def __hash__(self): return hash({mine})"]
        for name, op in [("eq", "==")] + order * [("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">=")]:
            src.append(f"def __{name}__(self, other):\n if other.__class__ is self.__class__:"
                       f" return {mine} {op} {theirs}\n return NotImplemented")
        exec("\n".join(src), {"_set": object.__setattr__, "_cls": cls}, methods := {})
        for name, method in methods.items():
            setattr(cls, name, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _check_rows(rows: Sequence[Sequence[int]]) -> None:
    # The one matrix check, for IntMatrix and raw rows alike.
    if not rows or not rows[0]:
        raise ValueError("matrix needs at least one row and one column")
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("ragged rows")
        for e in row:
            if type(e) is not int:
                raise TypeError(f"non-integer entry {e!r}")


class IntMatrix(_Frozen):
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


class SNFResult(_Frozen):
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


def _eliminate(m: list[list[int]], k: int) -> int:
    # Bareiss, in place: k pivot steps, over all rows, on the first k columns of
    # at least k rows give a nonzero k x k minor, or 0 if they are dependent.
    # Carried along, m[i][j] for i, j >= k ends as the minor on rows <k, i, cols <k, j.
    sign = prev = 1
    for t in range(k):
        if m[t][t] == 0:
            for i in range(t + 1, len(m)):
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[t][t]
        for i in range(t + 1, len(m)):
            row_i, row_t = m[i], m[t]
            head = row_i[t]
            for j in range(t + 1, len(row_t)):
                row_i[j] = (row_i[j] * pivot - head * row_t[j]) // prev
            row_i[t] = 0
        prev = pivot
    return sign * prev


def det(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    return _eliminate([list(row) for row in A.entries], A.cols)


def _lattice_index(rows: Sequence[Sequence[int]], d: int) -> int:
    # Index in Z^k of the row lattice, given d > 0 with d*Z^k in it (Domich,
    # Kannan and Trotter 1987).  Rows enter a triangular basis from d*I, mod d
    # right of pivot j: the basis rows from i > j on, not yet reached, span d*e_i.
    k = len(rows[0])
    H = [[d * (i == j) for j in range(k)] for i in range(k)]
    for row in rows:
        v = [e % d for e in row]
        for j in range(k):
            if v[j]:
                h = H[j]
                g, x, y = xgcd(h[j], v[j])
                a, b = h[j] // g, v[j] // g
                H[j] = [(x * p + y * q) % d for p, q in zip(h, v)]
                v = [(a * q - b * p) % d for p, q in zip(h, v)]
    return math.prod(H[j][j] for j in range(k))


def minors_gcd(A: IntMatrix, k: int) -> int:
    """gcd (>= 0) of all k x k minors of A.

    This is the SL(n, Z)-submatrix criterion in computable form: an n x k
    integer matrix extends to a unimodular matrix exactly when the gcd of
    its k x k minors is 1.  For maximal k, Bareiss elimination finds one
    nonzero minor d, or shows all are 0; unless A is square, the gcd is the
    index, computed mod d, of the row lattice of A or of its transpose,
    whichever is tall.  Smaller k takes d1 * ... * dk, the invariant factors.
    """
    if k < 1 or k > min(A.rows, A.cols):
        raise ValueError(f"minor size {k} out of range for {A.rows}x{A.cols}")
    if k < min(A.rows, A.cols):
        return math.prod(invariant_factors(A)[:k])
    rows = A.entries if A.rows >= A.cols else tuple(zip(*A.entries))
    d = abs(_eliminate([list(row) for row in rows], k))
    return d if d == 0 or len(rows) == k else _lattice_index(rows, d)


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

