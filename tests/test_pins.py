"""Byte pins of the graph writers and of the unimodular completion.

golden/pins.json was captured from the implementation before the writers
stopped re-rendering labels and copying edges, and before
`complete_to_unimodular` shared the Smith core's column step; every
digest must stay as captured.
"""

import hashlib
import json
import math
import random
from itertools import product
from pathlib import Path

import pytest

from surfcomplex.exactlin import complete_to_unimodular
from surfcomplex.toruscomplex import build_graph, graph_to_dot, graph_to_json_dict

PINS = json.loads((Path(__file__).parent / "golden" / "pins.json").read_text())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", [c for c in PINS if "kind" in c],
                         ids=lambda c: f"{c['kind']}-n{c['n']}-h{c['height']}")
def test_graph_writers_match_golden(case):
    """The sha256 of `graph_to_dot(g)` and of the CLI's JSON bytes,
    `json.dumps(graph_to_json_dict(g), indent=2)`, on truncations larger
    than the CLI goldens."""
    g = build_graph(case["kind"], case["height"], case["n"])
    assert (len(g.vertices), len(g.edges)) == (case["vertices"], case["edges"])
    assert sha256(graph_to_dot(g)) == case["dot_sha256"]
    assert sha256(json.dumps(graph_to_json_dict(g), indent=2)) == case["json_sha256"]


def completion_sample(case):
    """Every primitive vector of [-10, 10]^3 in lexicographic order for
    "cube10"; for "1e6", seeded draws of length 2 to 5 with entries in
    [-10**6, 10**6], the primitive ones kept."""
    if case["sample"] == "cube10":
        return [v for v in product(range(-10, 11), repeat=3) if math.gcd(*v) == 1]
    rng, out = random.Random(case["seed"]), []
    while len(out) < case["vectors"]:
        v = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(2, 5))]
        if math.gcd(*v) == 1:
            out.append(v)
    return out


@pytest.mark.parametrize("case", [c for c in PINS if "sample" in c], ids=lambda c: c["sample"])
def test_completions_match_golden(case):
    """The sha256 of every completion's entries as compact JSON, in sample
    order: column 0 and the determinant are not all that is pinned."""
    vectors = completion_sample(case)
    payload = json.dumps([complete_to_unimodular(v).entries for v in vectors],
                         separators=(",", ":"))
    assert len(vectors) == case["vectors"]
    assert sha256(payload) == case["sha256"]
