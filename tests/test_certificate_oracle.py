"""Path certificates checked by code that did not build them.

Every certificate is read back from `to_json_dict()` alone and checked
with sympy determinants and plain integer arithmetic; no kernel of
`surfcomplex.exactlin` is used for the checks.  The closed-form transform
is compared with sympy's inverse of the completion the library builds.
"""

import math
import random

import pytest
import sympy

from surfcomplex import complete_to_unimodular
from surfcomplex.toruscomplex import canonicalize, connect_path, two_hop_path

# The cyclic permutation e1 -> e3, e2 -> e1, e3 -> e2.
P = sympy.Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


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
def test_transform_is_permuted_inverse_of_completion(bound, seed):
    """transform == P * M^-1 with M = (b | c1 | c2) the completion of b, as
    sympy inverts it; the identity when b is (0, 0, 1)."""
    e3 = canonicalize((0, 0, 1))
    pairs = random_pairs(bound, 40, seed) + [(a, e3) for a, _ in random_pairs(bound, 5, seed)]
    for a, b in pairs:
        t = sympy.Matrix(two_hop_path(a, b).to_json_dict()["transform"])
        if b == e3:
            assert t == sympy.eye(3)
            continue
        m = sympy.Matrix(complete_to_unimodular(b.coords).to_lists())
        assert t == P * m.inv()
