"""Invariants of closed totally orientable Seifert fibered spaces.

A space is given by its invariant tuple: base genus g, the integer b, and
coprime pairs (alpha_i, beta_i) describing the exceptional fibers.  From
the tuple the module computes the rational Euler number b + sum(beta/alpha),
the standard fundamental-group presentation, first homology with exact
torsion in closed form (a gcd/lcm sweep of the alphas and the Euler
number, no Smith reduction), the rank of second homology, the covering
degree of a horizontal surface, torus-link component counts, and a
classification of the structure of the space's surface complex.

Terminology note: the integer b alone is sometimes also called the Euler
number.  Horizontal surfaces exist exactly when the rational quantity
b + sum(beta_i/alpha_i) vanishes, so that is what the classifier keys on;
reports carry both b and the rational value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from .exactlin import _any_digits, _building

__all__ = [
    "SeifertInvariants",
    "PresentationData",
    "HomologySummary",
    "StructureReport",
    "Verdict",
    "normalize",
    "euler_number",
    "horizontal_degree",
    "pi1_presentation",
    "h1",
    "h2_rank",
    "torus_link_components",
    "classify_surface_complex",
    "info_json_dict",
]


@dataclass(frozen=True)
class SeifertInvariants:
    """Invariant tuple <g, b, (alpha_1, beta_1), ..., (alpha_k, beta_k)>.

    genus is the (orientable) base genus, b an integer, and each fiber pair
    must satisfy alpha >= 1 and gcd(alpha, beta) == 1.  Canonical form
    (alpha >= 2, beta in [1, alpha-1], fibers sorted) is produced by
    `normalize`; alpha == 1 pairs are legal input and get folded into b.
    """

    genus: int
    b: int
    fibers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "fibers", tuple(tuple(f) for f in self.fibers))
        if type(self.genus) is not int or self.genus < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {self.genus!r}")
        if type(self.b) is not int:
            raise ValueError(f"b must be an integer, got {self.b!r}")
        for f in self.fibers:
            if len(f) != 2 or not all(type(e) is int for e in f):
                raise ValueError(f"fiber must be an integer pair, got {f!r}")
            alpha, beta = f
            if alpha <= 0:
                raise ValueError(f"fiber multiplicity must be positive, got {alpha}")
            if math.gcd(alpha, beta) != 1:
                raise ValueError(f"fiber pair {f} is not coprime")


def normalize(inv: SeifertInvariants) -> SeifertInvariants:
    """Canonical form: beta reduced into [1, alpha-1] with the excess folded
    into b, alpha == 1 fibers removed, fibers sorted.  The Euler number is
    unchanged, so equal manifolds compare equal after normalization."""
    b = inv.b
    kept = []
    for alpha, beta in inv.fibers:
        q, r = divmod(beta, alpha)
        b += q
        if alpha == 1:
            continue
        kept.append((alpha, r))
    return SeifertInvariants(inv.genus, b, tuple(sorted(kept)))


def euler_number(inv: SeifertInvariants) -> Fraction:
    """e = b + sum(beta_i / alpha_i), exact; invariant under `normalize`.

    Horizontal surfaces exist exactly when e == 0.  Summed over the common
    denominator L = lcm(alpha_i) and reduced once."""
    lcm = math.lcm(*(alpha for alpha, _ in inv.fibers))
    return Fraction(inv.b * lcm + sum(beta * (lcm // alpha) for alpha, beta in inv.fibers), lcm)


def horizontal_degree(inv: SeifertInvariants) -> int:
    """Covering degree of a horizontal surface over the base orbifold:
    lcm(alpha_1, ..., alpha_k), and 1 when there are no exceptional fibers.

    Defined only for Euler number 0 (no horizontal surface otherwise)."""
    e = euler_number(inv)
    if e != 0:
        raise ValueError(f"no horizontal surface: Euler number is {e}, not 0")
    return math.lcm(*(alpha for alpha, _ in inv.fibers))


@dataclass(frozen=True)
class PresentationData:
    """Fundamental-group presentation: generator names and Tietze relators.

    Generators are ordered a1, b1, ..., ag, bg, x1, ..., xk, h.  A relator
    is a word of signed 1-based generator indices (negative = inverse).
    There is one surface relator, one commutator [gen, h] per non-central
    generator, and one x_i^alpha_i h^beta_i relator per fiber; an empty
    surface relator (the S^2 x S^1-like case) is dropped.
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]


# pi1_presentation refuses a presentation of more letters (about 15 MB).
_MAX_PRESENTATION_LETTERS = 10**6


def pi1_presentation(inv: SeifertInvariants) -> PresentationData:
    """The standard presentation, stored letter by letter: |b| + 12*genus +
    5*k + the sum of alpha + |beta| letters over the k fibers.  A tuple of
    more than 10**6 letters raises ValueError, counted before anything is
    built."""
    g, k = inv.genus, len(inv.fibers)
    letters = abs(inv.b) + 12 * g + 5 * k + sum(alpha + abs(beta) for alpha, beta in inv.fibers)
    if letters > _MAX_PRESENTATION_LETTERS:
        raise ValueError(f"presentation too large: {letters} letters, "
                         f"over the limit of {_MAX_PRESENTATION_LETTERS}")
    names: list[str] = []
    for i in range(1, g + 1):
        names += [f"a{i}", f"b{i}"]
    names += [f"x{i}" for i in range(1, k + 1)]
    names.append("h")
    h = 2 * g + k + 1

    surface: list[int] = [-h] * inv.b if inv.b > 0 else [h] * (-inv.b)
    for i in range(g):
        ai, bi = 2 * i + 1, 2 * i + 2
        surface += [ai, bi, -ai, -bi]
    surface += [2 * g + 1 + j for j in range(k)]

    relators: list[tuple[int, ...]] = []
    if surface:
        relators.append(tuple(surface))
    for idx in range(1, 2 * g + k + 1):
        relators.append((idx, h, -idx, -h))
    for j, (alpha, beta) in enumerate(inv.fibers):
        xj = 2 * g + 1 + j
        word = [xj] * alpha + ([h] * beta if beta > 0 else [-h] * (-beta))
        relators.append(tuple(word))
    return PresentationData(tuple(names), tuple(relators))


@dataclass(frozen=True)
class HomologySummary:
    """First homology: free rank, exact torsion, and whether the
    distinguished extra generator is the fiber class itself.

    torsion entries are >= 2 and each divides the next.
    eta_is_fiber_class is True exactly in the product case (no exceptional
    fibers, b == 0 after normalization), where the class dual to a
    horizontal surface is the regular fiber; otherwise it is a reduced
    combination of fiber generators.
    """

    free_rank: int
    torsion: tuple[int, ...]
    eta_is_fiber_class: bool


def h1(inv: SeifertInvariants) -> HomologySummary:
    """First homology of the abelianized presentation, in closed form.

    The a_i, b_i generators contribute Z^{2g} untouched.  The block over
    (x_1, ..., x_k, h) has the rows (1, ..., 1, -b) and alpha_i x_i +
    beta_i h.  Let s_1 | ... | s_k be the Smith form of diag(alpha_i).  The
    block's torsion is s_1, ..., s_{k-2} and |e|*s_{k-1}*s_k when e != 0,
    and s_1, ..., s_{k-2} beside one free Z when e == 0; entries 1 are
    dropped.  At a prime p the fibers with p not dividing alpha drop out
    and the others have unit beta, so if their p-valuations are a_1 >= a_2
    >= ..., the p-part is Z/p^(v_p(e)+a_1+a_2) (Z when e == 0) plus the
    Z/p^a_i for i >= 3.  With e != 0 the order is |e|*prod(alpha), as for
    any rational homology sphere (Orlik, Seifert Manifolds, LNM 291).
    The cost is O(k^2) gcds and no Smith reduction.
    """
    return _h1(inv, euler_number(inv))


def _h1(inv: SeifertInvariants, e: Fraction) -> HomologySummary:
    # Smith form of diag(alpha) by a pairwise gcd/lcm sweep, padded with
    # two 1s so that s[-2] and s[-1] exist; s[-1] = lcm(alpha) is a
    # multiple of e's denominator.
    s = [1, 1] + [alpha for alpha, _ in inv.fibers]
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] == 1:
                break
            d = math.gcd(s[i], s[j])
            s[i], s[j] = d, s[i] // d * s[j]
    if e != 0:
        s[-2:] = [abs(e.numerator) * s[-2] * (s[-1] // e.denominator)]
    else:
        del s[-2:]
    # normalize folds every alpha == 1 fiber into b: no fibers are left and
    # b becomes b + sum(beta) exactly when all alpha are 1.
    return HomologySummary(
        free_rank=2 * inv.genus + (e == 0),
        torsion=tuple(d for d in s if d > 1),
        eta_is_fiber_class=(all(alpha == 1 for alpha, _ in inv.fibers)
                            and inv.b + sum(beta for _, beta in inv.fibers) == 0),
    )


def h2_rank(inv: SeifertInvariants) -> int:
    """Rank of second homology: equal to the free rank of first homology
    (universal coefficients plus duality), hence 2g + 1 when the Euler
    number vanishes and 2g otherwise."""
    return 2 * inv.genus + (euler_number(inv) == 0)


def torus_link_components(m: int, n: int) -> int:
    """Components of the (m, n) multicurve on a torus: gcd(|m|, |n|)."""
    if m == 0 and n == 0:
        raise ValueError("(0, 0) is not a multicurve class")
    return math.gcd(m, n)


class Verdict(enum.Enum):
    ISO_CURVE_COMPLEX = "IsoCurveComplex"
    CONE_BOUNDED = "ConeBounded"
    CONE_EXACT = "ConeExact"
    CONNECTED_AT_LEVEL_D = "ConnectedAtLevelD"
    PRODUCT_S1_CONNECTED = "ProductS1Connected"


@dataclass(frozen=True)
class StructureReport:
    """Classifier output for the structure of the surface complex.

    base_surface is (genus, punctures) of the surface obtained from the
    base orbifold by deleting cone-point neighborhoods.  d is the
    horizontal covering degree, present exactly when the Euler number is
    0.  diameter_bound is set only in the product branch.  theorem names
    the classification rule that fired.
    """

    verdict: Verdict
    base_surface: tuple[int, int]
    d: int | None
    diameter_bound: int | None
    theorem: str


def classify_surface_complex(inv: SeifertInvariants) -> StructureReport:
    """Verdict table for the surface complex, applied in order.

    1. e != 0: the complex is isomorphic to the curve complex of the
       punctured base surface (vertical surfaces are everything).
    2. e == 0, genus 0, four or five exceptional fibers with identical
       invariants: exactly the cone on that curve complex.
    3. e == 0, genus 0 otherwise: contains the curve complex and is
       contained in its cone.
    4. e == 0, positive genus, no exceptional fibers, b == 0 (a product
       with the circle): connected at intersection level 1 with diameter
       at most 4.
    5. e == 0, positive genus otherwise: connected at level
       d = lcm(alpha_i).
    """
    norm = normalize(inv)
    return _classify(norm, euler_number(norm))


def _classify(norm: SeifertInvariants, e: Fraction) -> StructureReport:
    # The verdict table over normalized invariants and their Euler number.
    g, k = norm.genus, len(norm.fibers)
    base = (g, k)
    if e != 0:
        return StructureReport(
            Verdict.ISO_CURVE_COMPLEX, base, None, None, "nonzero-euler-number"
        )
    d = math.lcm(*(alpha for alpha, _ in norm.fibers))
    if g == 0:
        if k in (4, 5) and len(set(norm.fibers)) == 1:
            return StructureReport(
                Verdict.CONE_EXACT, base, d, None, "identical-fibers-cone"
            )
        return StructureReport(
            Verdict.CONE_BOUNDED, base, d, None, "spherical-base-cone-bound"
        )
    if k == 0 and norm.b == 0:
        return StructureReport(
            Verdict.PRODUCT_S1_CONNECTED, base, d, 4, "product-diameter-bound"
        )
    return StructureReport(
        Verdict.CONNECTED_AT_LEVEL_D, base, d, None, "lcm-connectivity-level"
    )


def info_json_dict(inv: SeifertInvariants) -> dict:
    """Machine-readable report over the normalized invariants.

    Schema: {"genus": int, "b": int, "fibers": [[alpha, beta], ...],
    "euler_number": "p/q", "d": int|null, "h1": {"free_rank": int,
    "torsion": [int, ...]}, "h2_rank": int, "verdict": str,
    "theorem": str, "diameter_bound": int|null}.
    inv is valid once built, so a ValueError inside is an internal fault.
    The Euler number is exact at any magnitude.
    """
    with _building(), _any_digits():
        norm = normalize(inv)
        e = euler_number(norm)
        hom = _h1(norm, e)
        report = _classify(norm, e)
        return {
            "genus": norm.genus,
            "b": norm.b,
            "fibers": [list(f) for f in norm.fibers],
            "euler_number": f"{e.numerator}/{e.denominator}",
            "d": report.d,
            "h1": {"free_rank": hom.free_rank, "torsion": list(hom.torsion)},
            "h2_rank": hom.free_rank,
            "verdict": report.verdict.value,
            "theorem": report.theorem,
            "diameter_bound": report.diameter_bound,
        }
