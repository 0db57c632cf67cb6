"""The four workloads.

Each workload drives surfcomplex only through its public functions, one
operation at a time (a closed loop with one client).  Work is grouped in
rounds: a round is one pass over the workload's fixed mix, with inputs
drawn from the seeded generator, so every round has the same shape and a
run that stops between rounds keeps the mix.  Only the call into the
program is timed (`Ledger.call`); drawing inputs and checking outputs
happen between calls.

Why these four:

* certify: `connect_path` on four magnitude classes.  Exercises the
  integer kernels, `edge_witness` and `PathCertificate`; no graph code.
* truncate: graph builds of both kinds at heights 3-5, diameter, BFS
  probes and Farey neighbors.  Exercises the graph layer; no witnesses.
* seifert-grid: Seifert reports.  The only workload where Smith
  reduction does the work.
* cli-cold: one fresh CLI process per operation over all seven
  subcommands, where start-up and import time dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from random import Random
from statistics import median

import verify
from verify import VerificationError

FAILED = object()


class Workload:
    name = ""
    round_ops = 1  # most operations one round attempts
    min_rounds = 1  # rounds every run completes; also the traced run's length
    setup_repeats = 9
    trace_pairs = 1  # untraced and traced passes of a --trace 1 run
    rss_of_children = False
    # Failure classes (`kind/class` keys of Ledger.failed_by) that are a
    # known defect of the program rather than a wrong answer; any other
    # failure makes the run incorrect.
    expected_failures: frozenset = frozenset()
    kernel = "compute"  # the reference kernel that times are scaled by (run.KERNELS)
    mode = "timed"  # or "untraced" / "traced": a pass of a --trace 1 run

    def __init__(self, sc, seed: int, tiny: bool, src: str):
        self.sc, self.tiny, self.src = sc, tiny, src
        self.rng = Random(f"{self.name}/{seed}")
        self.sub = Random(f"{self.name}/{seed}/subset")
        self.warm_rng = Random(f"{self.name}/{seed}/warm-up")
        self.counts: Counter = Counter()
        self.deferred: list = []
        self.rounds_done = 0
        if tiny:
            self.min_rounds = max(1, self.min_rounds // 40)

    @property
    def accounting(self) -> bool:
        """True while the run is inside its fixed-length prefix, over which
        count metrics are taken so that they repeat for a seed."""
        return self.rounds_done < self.min_rounds

    def prepare(self) -> None:
        """Input generation that precedes the timed loop."""

    def warm_up(self) -> None:
        """A few untimed operations so that lazy set-up is done."""

    def round(self, ledger) -> None:
        raise NotImplementedError

    def defer(self, fn, *args) -> None:
        self.deferred.append((self.accounting, fn, args))

    def finish(self, ledger) -> None:
        """Checks against the oracles, after the timed loop; a rejection
        counts as failed if the output came from the fixed prefix."""
        for counting, fn, args in self.deferred:
            ledger.counting = counting
            ledger.check(fn, *args)
        ledger.counting = False
        self.deferred.clear()

    def untraced_time(self, ledger) -> float:
        return ledger.busy

    def report(self) -> dict:
        return {}


def _primitive(rng: Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """Random canonical primitive vector with entries of magnitude < hi,
    with at least one entry of magnitude >= lo."""
    while True:
        v = tuple(rng.randrange(-hi + 1, hi) for _ in range(n))
        if any(v) and max(map(abs, v)) >= lo and math.gcd(*v) == 1:
            return verify.canonical(v)


# -- certify ------------------------------------------------------------

CERT_CLASSES = (("h5", 0, 0), ("e3", 10**2, 10**3), ("e6", 10**5, 10**6), ("e50", 10**49, 10**50))


class CertAccount:
    """Certificate size and two-hop share per magnitude class."""

    def __init__(self):
        self.pairs: Counter = Counter()
        self.two_hop: Counter = Counter()
        self.ratio: dict[str, float] = {}
        self.mid_digits = 0

    def add(self, cls: str, cert: dict, a, b) -> None:
        ratio, mid = verify.certificate_size(cert, a, b)
        self.pairs[cls] += 1
        self.two_hop[cls] += mid is not None
        self.ratio[cls] = max(self.ratio.get(cls, 0.0), ratio)
        if mid is not None:
            self.mid_digits = max(self.mid_digits, mid)

    def report(self) -> dict:
        total = sum(self.pairs.values())
        return {
            "cert_digit_ratio_max": max(self.ratio.values(), default=0.0),
            "two_hop_share": sum(self.two_hop.values()) / total if total else 0.0,
            "mid_digits_max": self.mid_digits,
            "by_class": {
                c: {"pairs": n, "two_hop_share": self.two_hop[c] / n, "digit_ratio_max": self.ratio[c]}
                for c, n in self.pairs.items()
            },
        }


class Certify(Workload):
    name = "certify"
    round_ops = len(CERT_CLASSES)
    min_rounds = 1000
    trace_pairs = 7

    def prepare(self) -> None:
        self.h5 = verify.vertices(3, 5)
        self.cert = CertAccount()

    def _pair(self, rng: Random, lo: int, hi: int):
        if hi == 0:
            return tuple(rng.sample(self.h5, 2))
        while True:
            a, b = _primitive(rng, 3, lo, hi), _primitive(rng, 3, lo, hi)
            if a != b:
                return a, b

    def warm_up(self) -> None:
        tc = self.sc.toruscomplex
        for _ in range(2):
            for _, lo, hi in CERT_CLASSES:
                a, b = self._pair(self.warm_rng, lo, hi)
                tc.connect_path(tc.canonicalize(a), tc.canonicalize(b))

    def round(self, ledger) -> None:
        tc = self.sc.toruscomplex
        for cls, lo, hi in CERT_CLASSES:
            a, b = self._pair(self.rng, lo, hi)
            ledger.note((a, b))
            pa, pb = tc.canonicalize(a), tc.canonicalize(b)
            cert = ledger.call("connect_path", tc.connect_path, pa, pb)
            if cert is FAILED:
                continue
            doc = cert.to_json_dict()
            ledger.tag("connect_path." + ("two_hop" if doc["edges"] == 2 else "one_hop"))
            if ledger.check(verify.certificate, doc, a, b) and self.accounting:
                self.cert.add(cls, doc, a, b)
        self.rounds_done += 1

    def report(self) -> dict:
        return {"cert": self.cert.report()}


# -- truncate -----------------------------------------------------------


class Truncate(Workload):
    """Per round: both graph kinds and the diameter at each height, BFS
    probes on the largest graph and Farey queries at one height.  The
    probes are the bulk of the operations, so that both the median and the
    p90 tail fall inside their cluster, away from the border between two
    kinds of operation.  The light operations are spread between the
    builds and diameters, so that the reference-kernel samples taken
    between operations cover the whole round."""

    name = "truncate"
    heights = (3, 4, 5)
    probes = 150
    farey = 20
    round_ops = 3 * len(heights) + probes + farey
    kernel = "graph"
    networkx_probes = 40

    def prepare(self) -> None:
        if self.tiny:
            self.heights, self.probes, self.farey = (2, 3), 6, 4
        self.truth: dict[int, verify.Truncation] = {}
        self.nx_probes: list = []

    def truncation(self, h: int) -> verify.Truncation:
        if h not in self.truth:
            self.truth[h] = verify.Truncation(3, h)
        return self.truth[h]

    def warm_up(self) -> None:
        tc = self.sc.toruscomplex
        g = tc.build_graph("surface-complex-s1", 2)
        tc.build_graph("finegold-skeleton", 2)
        tc.truncation_diameter(g)
        tc.bfs_distance(g, g.vertices[0], g.vertices[-1])
        tc.farey_neighbors(tc.canonicalize((2, 3)), 5)

    def _build(self, ledger, kind: str, h: int):
        tc = self.sc.toruscomplex
        ledger.note((kind, h))
        g = ledger.call("build_graph", tc.build_graph, kind, h)
        if g is not FAILED:
            ledger.check(self.truncation(h).check_graph, [v.coords for v in g.vertices], g.edges)
            if self.accounting:
                n = len(g.vertices)
                self.counts["pairs_tested"] += n * (n - 1) // 2
                self.counts["edges"] += len(g.edges)
        return g

    def _diameter(self, ledger, g, h: int) -> None:
        if g is FAILED:
            return
        res = ledger.call("truncation_diameter", self.sc.toruscomplex.truncation_diameter, g)
        if res is not FAILED:
            diam, pair = res
            pair = None if pair is None else (pair[0].coords, pair[1].coords)
            ledger.check(self.truncation(h).check_diameter, diam, pair)

    def _probe(self, ledger, g) -> None:
        if g is FAILED:
            return
        vs = g.vertices
        i, j = self.rng.sample(range(len(vs)), 2)
        ledger.note((i, j))
        dist = ledger.call("bfs_distance", self.sc.toruscomplex.bfs_distance, g, vs[i], vs[j])
        if dist is FAILED:
            return
        a, b = vs[i].coords, vs[j].coords
        ok = ledger.check(self.truncation(g.height).check_distance, a, b, dist)
        picked = self.sub.random() < 0.25
        if ok and picked and self.accounting and len(self.nx_probes) < self.networkx_probes:
            self.nx_probes.append((a, b, dist))

    def _farey(self, ledger) -> None:
        tc = self.sc.toruscomplex
        hf = 24  # a fixed height keeps each round's cost seed-independent
        v = _primitive(self.rng, 2, 1, hf + 1)
        ledger.note((v, hf))
        out = ledger.call("farey_neighbors", tc.farey_neighbors, tc.canonicalize(v), hf)
        if out is FAILED:
            return
        want, cands = verify.farey_neighbors(v, hf)
        if ledger.check(_same, [u.coords for u in out], want, "farey neighbors differ") and self.accounting:
            self.counts["farey_neighbors"] += len(want)
            self.counts["farey_candidates"] += cands

    def round(self, ledger) -> None:
        top = self.heights[-1]
        graphs = {top: self._build(ledger, "surface-complex-s1", top)}
        steps = []
        for h in self.heights:
            if h != top:
                steps.append(("surface-complex-s1", h))
            steps += [("finegold-skeleton", h), ("diameter", h)]
        light = sorted([(i / self.probes, "probe") for i in range(self.probes)]
                       + [(i / self.farey, "farey") for i in range(self.farey)])
        per_step = -(-len(light) // len(steps))
        for k, (what, h) in enumerate(steps):
            for _, op in light[k * per_step:(k + 1) * per_step]:
                if op == "probe":
                    self._probe(ledger, graphs[top])
                else:
                    self._farey(ledger)
            if what == "diameter":
                self._diameter(ledger, graphs.pop(h), h)
            else:
                g = self._build(ledger, what, h)
                if what == "surface-complex-s1":
                    graphs[h] = g
        self.rounds_done += 1

    def finish(self, ledger) -> None:
        if self.nx_probes:
            args = (self.truncation(self.heights[-1]), self.nx_probes)
            self.deferred.append((True, verify.networkx_distances, args))  # probes of the prefix
        self.nx_probes = []
        super().finish(ledger)


def _same(got, want, why: str) -> None:
    if got != want:
        raise VerificationError(why)


# -- seifert-grid -------------------------------------------------------


def _fiber(rng: Random, alpha_hi: int) -> tuple[int, int]:
    alpha = rng.randint(2, alpha_hi)
    while True:
        beta = rng.randint(-2 * alpha, 2 * alpha)
        if math.gcd(alpha, beta) == 1:
            return alpha, beta


def seifert_tuple(rng: Random, shape: int) -> tuple[int, int, tuple]:
    """(genus, b, fibers) of one of eight shapes: generic tuples with small
    and large alpha, Euler number zero built from complementary pairs,
    identical fibers, products with the circle, and unnormalized input
    (alpha == 1 fibers, beta outside [1, alpha - 1])."""
    genus = rng.randint(0, 2)
    alpha_hi = 12 if shape % 2 == 0 else 10**6
    if shape in (0, 1):
        fibers = [_fiber(rng, alpha_hi) for _ in range(rng.randint(0, 6))]
        return genus, rng.randint(-6, 6), tuple(fibers)
    if shape in (2, 3, 7):
        fibers = []
        for _ in range(rng.randint(1, 3)):
            alpha, beta = _fiber(rng, alpha_hi)
            beta %= alpha
            fibers += [(alpha, beta), (alpha, alpha - beta)]
        rng.shuffle(fibers)
        g = rng.randint(1, 2) if shape == 7 else genus
        return g, -len(fibers) // 2, tuple(fibers)
    if shape == 4:
        k = rng.choice((4, 5))
        alpha = rng.choice((2, 4)) if k == 4 else 5
        beta = rng.choice([x for x in range(1, alpha) if math.gcd(x, alpha) == 1])
        b = -(k * beta // alpha) if rng.random() < 0.75 else rng.randint(-6, 6)
        return 0, b, ((alpha, beta),) * k
    if shape == 5:
        m = rng.randint(0, 3)
        return rng.randint(1, 2), 0, ((1, m), (1, -m)) if m else ()
    # shape 6: unnormalized; alpha == 1 fibers and shifted betas
    fibers = [(1, rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(0, 4)):
        alpha, beta = _fiber(rng, 12)
        fibers.append((alpha, beta + alpha * rng.randint(-3, 3)))
    rng.shuffle(fibers)
    return genus, rng.randint(-6, 6), tuple(fibers)


class SeifertGrid(Workload):
    name = "seifert-grid"
    round_ops = 8
    min_rounds = 500
    trace_pairs = 5
    sympy_rate = 1 / 32
    sympy_cap = 120

    def warm_up(self) -> None:
        sf = self.sc.seifert
        for shape in range(8):
            genus, b, fibers = seifert_tuple(self.warm_rng, shape)
            sf.info_json_dict(sf.SeifertInvariants(genus, b, fibers))

    def round(self, ledger) -> None:
        sf = self.sc.seifert
        for shape in range(self.round_ops):
            genus, b, fibers = seifert_tuple(self.rng, shape)
            ledger.note((genus, b, fibers))
            rep = ledger.call("info_json_dict", sf.info_json_dict, sf.SeifertInvariants(genus, b, fibers))
            if rep is FAILED:
                continue
            ok = ledger.check(verify.seifert_report, genus, b, fibers, rep)
            if ok and self.sub.random() < self.sympy_rate and len(self.deferred) < self.sympy_cap:
                self.defer(verify.seifert_sympy, genus, b, fibers, rep)
        self.rounds_done += 1


# -- cli-cold -----------------------------------------------------------


def _vec(v) -> str:
    return ",".join(str(e) for e in v)


class CliCold(Workload):
    name = "cli-cold"
    round_ops = 10
    min_rounds = 5
    rss_of_children = True
    # The CLI exits 2 on 2500-digit paths: json.dumps hits Python's
    # 4300-digit int-to-str limit.
    expected_failures = frozenset({"torus path/e2500/exit 2"})
    kernel = "spawn"

    def prepare(self) -> None:
        self.cmd = [sys.executable, "-m", "surfcomplex.cli"]
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.env.pop("PYTHONSTARTUP", None)
        self.h3 = verify.vertices(3, 3)
        self.truth: dict[tuple[int, int], verify.Truncation] = {}
        self.cert = CertAccount()
        self.exits: Counter = Counter()
        self.startup: list[float] = []

    def truncation(self, n: int, h: int) -> verify.Truncation:
        if (n, h) not in self.truth:
            self.truth[(n, h)] = verify.Truncation(n, h)
        return self.truth[(n, h)]

    def _spawn(self, args: list[str]):
        return subprocess.run(self.cmd + args, env=self.env, capture_output=True, timeout=120)

    def _main(self, args: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sc.cli.main(args)
        return code, out.getvalue(), err.getvalue()

    def warm_up(self) -> None:
        self._spawn(["seifert", "info", "--genus", "0", "--b", "-1", "--fiber", "2:1", "--fiber", "2:1"])
        self._spawn(["torus", "path", "2,3,5", "0,0,1"])

    def _ops(self):
        """One round: (kind, argv, check) triples."""
        rng = self.rng
        ops = []
        for cls, lo, hi in (("e6", 10**5, 10**6), ("e6", 10**5, 10**6), ("e2500", 10**2499, 10**2600)):
            while True:
                a, b = _primitive(rng, 3, lo, hi), _primitive(rng, 3, lo, hi)
                if a != b:
                    break
            ops.append(("torus path", ["torus", "path", "--", _vec(a), _vec(b)], ("path", cls, a, b)))
        a, b = rng.sample(self.h3, 2)
        ops.append(("torus distance", ["torus", "distance", "--height", "3", "--", _vec(a), _vec(b)],
                    ("distance", a, b)))
        k = rng.randint(2, 4)
        vs = rng.sample(self.h3, k)
        kind = rng.choice(("finegold", "surface"))
        ops.append(("torus simplex", ["torus", "simplex", "--complex", kind, "--", *map(_vec, vs)],
                    ("simplex", vs, kind)))
        kind = rng.choice(("finegold", "surface"))
        n = 2 if kind == "finegold" and rng.random() < 0.5 else 3
        h = 6 if n == 2 else 2
        fmt = rng.choice(("json", "dot"))
        ops.append(("torus graph", ["torus", "graph", "--height", str(h), "--kind", kind, "--dim", str(n),
                                    "--format", fmt], ("graph", n, h, kind, fmt)))
        ops.append(("torus diameter", ["torus", "diameter", "--height", "3"], ("diameter",)))
        hf = rng.randint(8, 32)
        v = _primitive(rng, 2, 1, hf + 1)
        ops.append(("farey neighbors", ["farey", "neighbors", "--height", str(hf), "--", _vec(v)],
                    ("farey", v, hf)))
        for shape in (rng.randrange(8), rng.randrange(8)):
            genus, b, fibers = seifert_tuple(rng, shape)
            argv = ["seifert", "info", "--genus", str(genus), f"--b={b}"]
            for alpha, beta in fibers:
                argv.append(f"--fiber={alpha}:{beta}")
            ops.append(("seifert info", argv, ("seifert", genus, b, fibers)))
        return ops

    def _check(self, spec, stdout: str) -> None:
        with verify.unlimited_int_digits():
            doc = json.loads(stdout) if spec[0] != "graph" or spec[4] == "json" else None
        what = spec[0]
        if what == "path":
            _, cls, a, b = spec
            verify.certificate(doc, a, b)
            if self.accounting:
                self.cert.add(cls, doc, a, b)
        elif what == "distance":
            _, a, b = spec
            _same([doc["from"], doc["to"], doc["height"]], [list(a), list(b), 3], "distance echo differs")
            dist = doc["distance"]
            self.truncation(3, 3).check_distance(a, b, None if dist == "unreachable-in-truncation" else dist)
        elif what == "simplex":
            _, vs, kind = spec
            _same(doc["complex"], kind, "complex echo differs")
            verify.simplex(vs, kind, 3, doc)
        elif what == "graph":
            _, n, h, kind, fmt = spec
            truth = self.truncation(n, h)
            if fmt == "json":
                tag = {"finegold": "finegold-skeleton", "surface": "surface-complex-s1"}[kind]
                _same([doc["kind"], doc["height"]], [tag, h], "graph echo differs")
                truth.check_graph(doc["vertices"], doc["edges"])
            else:
                verts, edges = _parse_dot(stdout)
                index = {v: i for i, v in enumerate(verts)}
                truth.check_graph(verts, [tuple(sorted((index[u], index[v]))) for u, v in edges])
        elif what == "diameter":
            truth = self.truncation(3, 3)
            _same(doc["height"], 3, "height echo differs")
            diam = doc["diameter"]
            truth.check_diameter(None if diam == "unreachable-in-truncation" else diam, doc["pair"])
        elif what == "farey":
            _, v, hf = spec
            _same([doc["vertex"], doc["height"]], [list(v), hf], "farey echo differs")
            _same([tuple(u) for u in doc["neighbors"]], verify.farey_neighbors(v, hf)[0], "farey neighbors differ")
        else:
            _, genus, b, fibers = spec
            verify.seifert_report(genus, b, fibers, doc)
            self.defer(verify.seifert_sympy, genus, b, fibers, doc)
        if what in ("graph", "distance", "diameter") and self.accounting:
            n, h = (spec[1], spec[2]) if what == "graph" else (3, 3)
            v = len(self.truncation(n, h).vertices)
            self.counts["pairs_tested"] += v * (v - 1) // 2
            self.counts["edges"] += self.truncation(n, h).edge_count
        if what == "farey" and self.accounting:
            want, cands = verify.farey_neighbors(spec[1], spec[2])
            self.counts["farey_neighbors"] += len(want)
            self.counts["farey_candidates"] += cands

    def round(self, ledger) -> None:
        for kind, argv, spec in self._ops():
            ledger.note(argv)
            if self.mode == "traced":
                res = ledger.call(kind, self._main, argv)
                if res is not FAILED:
                    self._settle(ledger, kind, *res, spec)
                continue
            proc = ledger.call(kind, self._spawn, argv)
            if proc is FAILED:
                continue
            out = proc.stdout.decode()
            if self.mode == "untraced":
                t, (code, inproc_out, _) = ledger.inproc(self._main, argv)
                self.startup.append(ledger.last - t)
                if (code, inproc_out) != (proc.returncode, out):
                    ledger.reject(kind, "in-process output differs from the subprocess")
            if self.accounting:
                self.exits[proc.returncode] += 1
                self.counts["stdout_bytes"] += len(proc.stdout)
            self._settle(ledger, kind, proc.returncode, out, proc.stderr.decode(), spec)
        self.rounds_done += 1

    def _settle(self, ledger, kind, code, out, err, spec) -> None:
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            cls = f"{spec[1]}/exit {code}" if spec[0] == "path" else f"exit {code}"
            ledger.fail(kind, last[0][:160], cls=cls)
            return
        ledger.check(self._check, spec, out)

    def untraced_time(self, ledger) -> float:
        return ledger.inproc_busy

    def import_ms(self, repeats: int = 5) -> float:
        """Median cumulative import time of surfcomplex.cli in a fresh
        interpreter, from -X importtime."""
        samples = []
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import surfcomplex.cli"],
                env=self.env, capture_output=True, timeout=120, check=True,
            )
            for line in proc.stderr.decode().splitlines():
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*surfcomplex\.cli$", line)
                if m:
                    samples.append(int(m.group(1)) / 1000)
        return median(samples) if samples else 0.0

    def report(self) -> dict:
        return {"cert": self.cert.report()}


def _parse_dot(text: str):
    verts, edges = [], []
    for line in text.splitlines()[1:-1]:
        parts = re.findall(r'"([^"]*)"', line)
        if len(parts) == 1:
            verts.append(tuple(int(x) for x in parts[0].split(",")))
        elif len(parts) == 2:
            edges.append(tuple(tuple(int(x) for x in p.split(",")) for p in parts))
        else:
            raise VerificationError(f"unparsable DOT line {line!r}")
    if not text.startswith("graph {") or text.rstrip().splitlines()[-1] != "}":
        raise VerificationError("DOT output is not an undirected graph block")
    return verts, edges


WORKLOADS = {w.name: w for w in (Certify, Truncate, SeifertGrid, CliCold)}
