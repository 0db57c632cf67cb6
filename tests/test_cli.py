"""CLI behavior: output schemas, determinism, and exit codes."""

import contextlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from surfcomplex import exactlin, seifert, toruscomplex
from surfcomplex.cli import main, parse_fiber, parse_vector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --------------------------------------------------------------- parsing


def test_parse_helpers():
    assert parse_vector("2,-3,5") == (2, -3, 5)
    assert parse_fiber("4:-3") == (4, -3)
    with pytest.raises(ValueError):
        parse_vector("2,x,5")
    with pytest.raises(ValueError):
        parse_fiber("4")
    with pytest.raises(ValueError):
        parse_fiber("4:1:2")


# ------------------------------------------------------------ torus path


def test_torus_path_direct_edge(capsys):
    d = run_json(capsys, "torus", "path", "2,3,5", "0,0,1")
    assert d["waypoints"] == [[2, 3, 5], [0, 0, 1]]
    assert d["edges"] == 1
    assert len(d["witnesses"]) == 1
    assert d["transform"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_torus_path_two_hops(capsys):
    d = run_json(capsys, "torus", "path", "1,2,0", "1,0,0")
    assert d["edges"] == 2
    assert d["waypoints"][0] == [1, 2, 0]
    assert d["waypoints"][-1] == [1, 0, 0]
    assert len(d["witnesses"]) == 2


def test_torus_path_text(capsys):
    code, out, err = run(capsys, "torus", "path", "1,0,0", "0,1,0", "--format", "text")
    assert code == 0
    assert out.strip() == "1,0,0 -> 0,1,0"


def test_torus_path_rejects_imprimitive(capsys):
    code, out, err = run(capsys, "torus", "path", "2,4,6", "0,0,1")
    assert code == 2
    assert out == ""
    assert "error:" in err and "\n" not in err.strip()


def test_torus_path_rejects_equal_classes(capsys):
    code, _, err = run(capsys, "torus", "path", "1,0,0", "1,0,0")
    assert code == 2
    assert "distinct" in err
    # leading-minus vectors need the -- separator; (-1,0,0) is the class of (1,0,0)
    code, _, err = run(capsys, "torus", "path", "--", "1,0,0", "-1,0,0")
    assert code == 2
    assert "distinct" in err


# -------------------------------------------------------- torus distance


def test_torus_distance(capsys):
    d = run_json(capsys, "torus", "distance", "1,2,0", "1,0,0", "--height", "2")
    assert d["distance"] == 2
    d = run_json(capsys, "torus", "distance", "1,0,0", "0,0,1", "--height", "1")
    assert d["distance"] == 1


def test_torus_distance_vertex_outside_truncation(capsys):
    code, _, err = run(capsys, "torus", "distance", "1,2,0", "1,0,0", "--height", "1")
    assert code == 2
    assert "not in the graph" in err


# --------------------------------------------------------- torus simplex


def test_torus_simplex_counterexample(capsys):
    d = run_json(capsys, "torus", "simplex", "1,0,0", "0,1,0", "1,1,2", "--complex", "finegold")
    assert d["is_simplex"] is False
    assert d["minors_gcd"] == 2


def test_torus_simplex_surface_flag_rule(capsys):
    d = run_json(capsys, "torus", "simplex", "1,0,0", "0,1,0", "1,1,2", "--complex", "surface")
    assert d["is_simplex"] is True
    assert all(g == 1 for _, _, g in d["pair_minor_gcds"])


def test_torus_simplex_facets(capsys):
    d = run_json(capsys, "torus", "simplex", "1,0,0", "0,1,0", "0,0,1", "1,1,1")
    assert d["is_simplex"] is True
    assert d["facet_minors_gcds"] == [1, 1, 1, 1]


@pytest.mark.parametrize("vertices, message", [
    (("1,0,0",), "need at least two distinct vertices"),
    (("1,0", "0,1"), "expected length-3 vertices"),
    (("1,0,0", "0,1,0", "0,0,1,0"), "expected length-3 vertices"),
    (("1,0,0", "0,1,0", "-1,0,0"), "vertices must be distinct projective classes"),
])
def test_torus_simplex_surface_rejects_what_torus_path_rejects(capsys, vertices, message):
    code, out, err = run(capsys, "torus", "simplex", "--complex", "surface", "--", *vertices)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_torus_simplex_farey_dim2(capsys):
    d = run_json(capsys, "torus", "simplex", "1,0", "0,1")
    assert d["is_simplex"] is True


@pytest.mark.parametrize("vertices, counts", [
    (("1,0,0", "0,1,0", "0,0,1", "1,1,2"), (1, 0, 0)),
    (("2,3,5", "1,2,0"), (0, 1, 0)),
    (("1,0,0", "0,1,0"), (0, 1, 0)),
])
def test_torus_simplex_runs_one_elimination_per_input(capsys, monkeypatch, vertices, counts):
    """One elimination per input, counted as (facet eliminations,
    minors_gcd, invariant_factors): n + 1 vertices give every facet from
    one pass, fewer give one minor gcd, and is_simplex is read off those
    gcds, not computed again.  Every gcd is of maximal minors, which come
    from fraction-free elimination and never reach the Smith core."""
    calls = {"_eliminate": [], "minors_gcd": [], "invariant_factors": []}
    for module, name in ((toruscomplex, "_eliminate"), (toruscomplex, "minors_gcd"),
                         (exactlin, "invariant_factors")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, f=original, seen=calls[name]: seen.append(args) or f(*args))
    run_json(capsys, "torus", "simplex", *vertices)
    assert tuple(map(len, calls.values())) == counts


def seeded_vertices(count, n):
    """count distinct classes of length n, entries in [-9, 9], seed 7."""
    rng = random.Random(7)
    classes = {}  # canonical class -> the vector drawn first, in drawing order
    while len(classes) < count:
        v = [rng.randint(-9, 9) for _ in range(n)]
        if math.gcd(*v) == 1:
            classes.setdefault(toruscomplex.canonicalize(v), v)
    return [",".join(map(str, v)) for v in classes.values()]


@pytest.mark.parametrize("n", [32, 100])
def test_torus_simplex_on_n_plus_1_vertices_of_length_n_is_fast(capsys, n):
    """n + 1 seeded vertices of length n: all facet gcds come from one
    Bareiss elimination, whose entries stay minors of the input, while a
    Smith form of one facet grows its entries and took seconds at n = 32,
    and n + 1 separate determinants took 18.7 s at n = 100."""
    vertices = seeded_vertices(n + 1, n)
    start = time.perf_counter()
    d = run_json(capsys, "torus", "simplex", "--", *vertices)
    assert time.perf_counter() - start < 1.0
    assert len(d["facet_minors_gcds"]) == n + 1


def test_torus_simplex_on_63_vertices_of_length_64_is_fast(capsys):
    """Fewer than n seeded vertices (a 10 KB command line): one Bareiss
    elimination finds a nonzero maximal minor d, and the gcd is a lattice
    index kept mod d, where a Smith form of the same block ran over 15
    minutes."""
    vertices = seeded_vertices(63, 64)
    start = time.perf_counter()
    d = run_json(capsys, "torus", "simplex", "--", *vertices)
    assert time.perf_counter() - start < 2.0
    assert d["minors_gcd"] >= 1


# ----------------------------------------------------------- torus graph


def test_torus_graph_json_schema(capsys):
    d = run_json(capsys, "torus", "graph", "--height", "1")
    assert set(d) == {"kind", "height", "vertices", "edges"}
    assert d["kind"] == "surface-complex-s1"
    assert len(d["vertices"]) == 13
    assert all(i < j for i, j in d["edges"])


def test_torus_graph_dot(capsys):
    code, out, _ = run(capsys, "torus", "graph", "--height", "1", "--kind", "finegold",
                       "--dim", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert '"1,0" -- "1,1";' in out


def test_torus_graph_deterministic(capsys):
    _, out1, _ = run(capsys, "torus", "graph", "--height", "2")
    _, out2, _ = run(capsys, "torus", "graph", "--height", "2")
    assert out1 == out2


# -------------------------------------------------------- torus diameter


def test_torus_diameter(capsys):
    d = run_json(capsys, "torus", "diameter", "--height", "1")
    assert d["diameter"] == 2
    assert len(d["pair"]) == 2


# ----------------------------------------------------------------- farey


def test_farey_neighbors(capsys):
    d = run_json(capsys, "farey", "neighbors", "1,0", "--height", "1")
    assert d["vertex"] == [1, 0]
    assert d["neighbors"] == [[0, 1], [1, -1], [1, 1]]


def test_torus_simplex_dimension_20_is_fast(capsys):
    """Ten vectors in dimension 20 whose maximal minors are all even: the
    gcd comes from one elimination and a lattice index mod one nonzero
    minor, not from C(20, 10) minors."""
    e = [[int(i == j) for j in range(20)] for i in range(20)]
    vs = [[x + y for x, y in zip(e[0], e[1])], [x - y for x, y in zip(e[0], e[1])]] + e[2:10]
    start = time.perf_counter()
    d = run_json(capsys, "torus", "simplex", "--", *(",".join(map(str, v)) for v in vs))
    assert time.perf_counter() - start < 1.0
    assert d["minors_gcd"] == 2
    assert d["is_simplex"] is False


# ---------------------------------------------------- exact at any size


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int/str digit limit to read huge JSON ints."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_torus_path_at_2500_digits(capsys):
    rng = random.Random(2500)
    x = [rng.randrange(10**2499, 10**2500) for _ in range(4)]
    a, b = [x[0], x[1], 1], [1, x[2], x[3]]
    code, out, err = run(capsys, "torus", "path", ",".join(map(str, a)), ",".join(map(str, b)))
    assert code == 0, err
    with unlimited_int_digits():
        d = json.loads(out)
    assert d["waypoints"][0] == a and d["waypoints"][-1] == b
    assert len(d["witnesses"]) == d["edges"]
    for (u, v), w in zip(zip(d["waypoints"], d["waypoints"][1:]), d["witnesses"]):
        assert [row[:2] for row in w] == [list(pair) for pair in zip(u, v)]
        assert det3(w) == 1


def test_5000_digit_coordinate_parses(capsys):
    digits = "1" + "0" * 4998 + "7"
    code, out, err = run(capsys, "torus", "simplex", f"{digits},3,0", "0,0,1")
    assert code == 0, err
    with unlimited_int_digits():
        d = json.loads(out)
        assert d["vertices"] == [[int(digits), 3, 0], [0, 0, 1]]
    assert d["minors_gcd"] == 1


def test_main_restores_the_digit_limit(capsys):
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (saved, 6000):
            sys.set_int_max_str_digits(limit)
            for argv in (["torus", "path", "2,3,5", "0,0,1"],
                         ["torus", "path", "2,4,6", "0,0,1"],
                         ["torus", "path", "--bogus"]):
                main(argv)
                capsys.readouterr()
                assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(saved)


# --------------------------------------------------------------- seifert


def test_seifert_info_cone_exact(capsys):
    d = run_json(
        capsys, "seifert", "info", "--genus", "0", "--b", "-1",
        "--fiber", "4:1", "--fiber", "4:1", "--fiber", "4:1", "--fiber", "4:1",
    )
    assert d["verdict"] == "ConeExact"
    assert d["d"] == 4
    assert d["euler_number"] == "0/1"
    assert d["h2_rank"] == 1


def test_seifert_info_product(capsys):
    d = run_json(capsys, "seifert", "info", "--genus", "1", "--b", "0")
    assert d["verdict"] == "ProductS1Connected"
    assert d["diameter_bound"] == 4
    assert d["h1"] == {"free_rank": 3, "torsion": []}


def test_seifert_info_rejects_bad_fiber(capsys):
    code, _, err = run(capsys, "seifert", "info", "--genus", "0", "--b", "0", "--fiber", "4:2")
    assert code == 2
    assert "coprime" in err
    code, _, err = run(capsys, "seifert", "info", "--genus", "0", "--b", "0", "--fiber", "x")
    assert code == 2
    code, out, err = run(capsys, "seifert", "info", "--genus", "0", "--b", "0", "--fiber", "2:x")
    assert (code, out, err) == (2, "", "error: malformed fiber '2:x': expected integers\n")


def test_seifert_info_text(capsys):
    code, out, _ = run(capsys, "seifert", "info", "--genus", "2", "--b", "1", "--format", "text")
    assert code == 0
    assert "verdict=IsoCurveComplex" in out


# ------------------------------------------------------------ exit codes


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "torus", "path", "1,0,0", "0,1,0", "--bogus")
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "torus")
    assert code == 2


def test_bad_height_exits_2(capsys):
    code, _, err = run(capsys, "torus", "graph", "--height", "0")
    assert code == 2
    assert "height" in err


def test_oversized_truncation_exits_2_quickly(capsys):
    for argv in (("torus", "graph", "--height", "50"),
                 ("torus", "distance", "1,0,0", "0,1,0", "--height", "50"),
                 ("torus", "diameter", "--height", "50")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert "truncation too large" in err


def test_oversized_farey_query_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "farey", "neighbors", "1,0", "--height", "1000000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: truncation too large")


def _broken(name, f):
    # The module's function, looked up when the test runs, with f applied
    # to its output.
    original = getattr(toruscomplex, name)
    return lambda *args: f(original(*args))


@pytest.mark.parametrize("argv", [("1,2,0", "1,0,0"), ("2,4,1", "0,0,1")])
def test_broken_middle_pair_is_an_internal_error(capsys, monkeypatch, argv):
    """Accepted inputs whose construction goes wrong exit 1, not 2."""
    # Within a path, toruscomplex canonicalizes only the middle vertex; the
    # CLI canonicalizes the two inputs before, so the fault is armed only
    # while connect_path runs.
    doubled = _broken("canonicalize", lambda v: toruscomplex.ProjVector(tuple(2 * e for e in v.coords)))
    connect_path = toruscomplex.connect_path

    def faulty_connect_path(a, b):
        with monkeypatch.context() as m:
            m.setattr(toruscomplex, "canonicalize", doubled)
            return connect_path(a, b)

    monkeypatch.setattr(toruscomplex, "connect_path", faulty_connect_path)
    code, out, err = run(capsys, "torus", "path", *argv)
    assert code == 1 and out == ""
    assert err.startswith("internal error:")


def test_broken_vertex_list_is_an_internal_error(capsys, monkeypatch):
    """A fault in the graph that build_graph makes for itself, after its
    inputs are accepted, exits 1."""
    repeated = _broken("enumerate_vertices", lambda vs: vs[:1] + vs)
    monkeypatch.setattr(toruscomplex, "enumerate_vertices", repeated)
    code, out, err = run(capsys, "torus", "graph", "--height", "1")
    assert (code, out, err) == (1, "", "internal error: construction failed: repeated vertex\n")


_ROW_COUNT = "adjacency needs 13 rows in [0, 2^13)"


@pytest.mark.parametrize("bad_rows, fault", [
    (lambda adj: adj[:-1] + (adj[-1] | 1 << len(adj),), _ROW_COUNT),
    (lambda adj: adj[:-1] + (-1,), _ROW_COUNT),
    (lambda adj: adj[:-1], _ROW_COUNT),
    (lambda adj: tuple(row | 1 << i for i, row in enumerate(adj)), "adjacency row 0 has its own bit set"),
], ids=["bit-at-n", "negative-row", "row-missing", "own-bit"])
def test_broken_adjacency_rows_are_an_internal_error(capsys, monkeypatch, bad_rows, fault):
    """build_graph checks the rows it reads its edges off: n of them, each
    in [0, 2^n) and none with its own bit set, for its n vertices (13 at
    height 1)."""
    monkeypatch.setattr(toruscomplex, "_coprime_minor_pairs", _broken("_coprime_minor_pairs", bad_rows))
    message = f"construction failed: {fault}"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        toruscomplex.build_graph("surface-complex-s1", 1)
    code, out, err = run(capsys, "torus", "graph", "--height", "1")
    assert (code, out, err) == (1, "", f"internal error: {message}\n")


@pytest.mark.parametrize("argv", [("1,2,0", "1,0,0"), ("2,3,5", "0,0,1")])
def test_broken_bezout_column_is_an_internal_error(capsys, monkeypatch, argv):
    # Negated, so that the middle vertex, canonicalized from the same
    # helper, stays intact and the witness check itself fails.
    negated = _broken("_witness_column", lambda w: tuple(-e for e in w))
    monkeypatch.setattr(toruscomplex, "_witness_column", negated)
    code, out, err = run(capsys, "torus", "path", *argv)
    assert code == 1 and out == ""
    assert err.startswith("internal error:")


def test_broken_seifert_report_is_an_internal_error(capsys, monkeypatch):
    """The tuple is validated before the report is built, so a ValueError
    from inside the report exits 1, not 2."""
    def fault(inv, e):
        raise ValueError("injected fault")

    monkeypatch.setattr(seifert, "_h1", fault)
    code, out, err = run(capsys, "seifert", "info", "--genus", "0", "--b", "-1",
                         "--fiber", "2:1", "--fiber", "2:1")
    assert (code, out, err) == (1, "", "internal error: construction failed: injected fault\n")


@pytest.mark.parametrize("module, name, argv", [
    (exactlin, "_lattice_index", ("torus", "simplex", "1,0,0", "0,1,0")),
    (exactlin, "_eliminate", ("torus", "simplex", "1,0,0", "0,1,0", "0,0,1")),
    (toruscomplex, "_eliminate", ("torus", "simplex", "1,0,0", "0,1,0", "0,0,1", "1,1,2")),
    (toruscomplex, "cross_product", ("torus", "simplex", "1,0,0", "0,1,0", "--complex", "surface")),
    (toruscomplex, "_coprime_minor_pairs", ("torus", "graph", "--height", "1")),
    (toruscomplex, "_bfs_layers", ("torus", "distance", "1,0,0", "0,1,0", "--height", "1")),
    (toruscomplex, "_members", ("torus", "diameter", "--height", "1")),
    (toruscomplex, "xgcd", ("farey", "neighbors", "1,0", "--height", "3")),
    (toruscomplex, "graph_to_dot", ("torus", "graph", "--height", "1", "--format", "dot")),
    (toruscomplex, "_witness_column", ("torus", "path", "2,3,5", "0,0,1")),
    (seifert, "_h1", ("seifert", "info", "--genus", "0", "--b", "-1",
                      "--fiber", "2:1", "--fiber", "2:1")),
], ids=["simplex", "simplex-square", "simplex-facets", "simplex-surface", "graph", "distance",
        "diameter", "farey", "graph-dot", "path", "seifert"])
def test_internal_fault_exits_1_in_every_subcommand(capsys, monkeypatch, module, name, argv):
    """A ValueError from inside the work, after the inputs are accepted, is
    an internal fault: exit 1, never exit 2 as if the input were invalid."""
    def fault(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(module, name, fault)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "internal error: construction failed: injected fault\n")


TESTS = Path(__file__).resolve().parent


def spawn(*argv):
    # `python -m surfcomplex.cli` on this checkout's sources.
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    return subprocess.run([sys.executable, "-m", "surfcomplex.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_process_exit_status():
    """The process path: `entrypoint()` turns main's code into the exit status."""
    done = spawn("torus", "path", "2,3,5", "0,0,1")
    assert done.returncode == 0
    assert done.stdout == (TESTS / "golden" / "path-one-hop-json.out").read_text()
    assert spawn("torus", "path", "2,4,6", "0,0,1").returncode == 2
    done = spawn("torus", "path", "2,3,5", "0,0,1", "--bogus")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: surfcomplex")


def test_determinism_of_path_output(capsys):
    _, out1, _ = run(capsys, "torus", "path", "5,7,11", "3,1,0")
    _, out2, _ = run(capsys, "torus", "path", "5,7,11", "3,1,0")
    assert out1 == out2
