"""Path certificates checked by code that did not build them.

Every certificate is read back from `to_json_dict()` alone and checked
with sympy determinants and plain integer arithmetic; no kernel of
`surfcomplex.exactlin` is used for the checks.  The closed-form transform
is compared with sympy's inverse of the certificate's own last frame, and
every entry is held to the size bound of the Babai-reduced construction.
"""

import math
import random
from itertools import combinations, product

import pytest
import sympy

from surfcomplex.toruscomplex import canonicalize, connect_path, two_hop_path


def random_pairs(bound, count, seed):
    rng = random.Random(seed)

    def primitive():
        while True:
            v = [rng.randint(-bound, bound) for _ in range(3)]
            if any(v) and math.gcd(*v) == 1:
                return canonicalize(v)

    pairs = [(primitive(), primitive()) for _ in range(count)]
    return [(a, b) for a, b in pairs if a != b]


def is_canonical(v):
    return math.gcd(*v) == 1 and next(e for e in v if e != 0) > 0


def check_certificate_json(d, a, b):
    """The whole check, from the JSON: canonical distinct waypoints from a
    to b, and per edge a 3x3 witness with the edge's endpoints as its first
    two columns and determinant 1; a 3x3 transform of determinant 1."""
    waypoints = d["waypoints"]
    assert waypoints[0] == list(a.coords) and waypoints[-1] == list(b.coords)
    assert d["edges"] == len(waypoints) - 1 == len(d["witnesses"]) in (1, 2)
    assert all(is_canonical(v) for v in waypoints)
    assert len({tuple(v) for v in waypoints}) == len(waypoints)
    for u, v, w in zip(waypoints, waypoints[1:], d["witnesses"]):
        m = sympy.Matrix(w)
        assert m.shape == (3, 3)
        assert list(m.col(0)) == u and list(m.col(1)) == v
        assert m.det() == 1
        pair = m[:, :2]
        minors = [pair.extract([i, j], [0, 1]).det() for i, j in ((0, 1), (0, 2), (1, 2))]
        assert math.gcd(*minors) == 1
    t = sympy.Matrix(d["transform"])
    assert t.shape == (3, 3) and t.det() == 1
    return t


@pytest.mark.parametrize("bound, seed", [(10**6, 1), (10**50, 2)])
def test_certificates_check_independently(bound, seed):
    pairs = random_pairs(bound, 60, seed)
    for a, b in pairs:
        t = check_certificate_json(connect_path(a, b).to_json_dict(), a, b)
        two_hop = two_hop_path(a, b).to_json_dict()
        t2 = check_certificate_json(two_hop, a, b)
        # The transform sends b to e3 and the middle vertex into z == 0.
        assert list(t2 * sympy.Matrix(b.coords)) == [0, 0, 1]
        assert (t2 * sympy.Matrix(two_hop["waypoints"][1]))[2] == 0
        if t != sympy.eye(3):
            assert t == t2


@pytest.mark.parametrize("bound, seed", [(10**6, 3), (10**50, 4)])
def test_transform_is_inverse_of_last_frame(bound, seed):
    """transform == M^-1 as sympy inverts it, with M = (w | m | b): w the
    third column of the last witness, m the middle vertex."""
    e3 = canonicalize((0, 0, 1))
    pairs = random_pairs(bound, 40, seed) + [(a, e3) for a, _ in random_pairs(bound, 5, seed)]
    for a, b in pairs:
        d = two_hop_path(a, b).to_json_dict()
        w = [row[2] for row in d["witnesses"][1]]
        m = sympy.Matrix([w, d["waypoints"][1], list(b.coords)]).T
        assert sympy.Matrix(d["transform"]) == m.inv()


def height_4_pairs():
    vs = [v for v in product(range(-4, 5), repeat=3) if any(v) and is_canonical(v)]
    return [(canonicalize(a), canonicalize(b)) for a, b in combinations(vs, 2)]


@pytest.mark.parametrize("bound", [4, 10**6, 10**50, 10**400], ids=["height4", "1e6", "1e50", "1e400"])
def test_certificate_entries_stay_at_input_size(bound):
    """Every waypoint and witness entry is at most |a| + |b| + 2 in
    absolute value, |.| the integer square root of the squared norm."""
    for a, b in height_4_pairs() if bound == 4 else random_pairs(bound, 200, 5):
        limit = math.isqrt(sum(e * e for e in a.coords)) + math.isqrt(sum(e * e for e in b.coords)) + 2
        d = connect_path(a, b).to_json_dict()
        entries = [e for w in d["witnesses"] for row in w for e in row]
        entries += [e for v in d["waypoints"] for e in v]
        assert max(map(abs, entries)) <= limit, (a, b)
