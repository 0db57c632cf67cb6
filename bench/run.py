"""surfcomplex benchmark: one workload, one run.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

With --trace 0 only the calls into surfcomplex are timed, and the run
reports the end-to-end metrics; with --trace 1 it runs the workload's
fixed prefix in untraced and traced passes (spans around every public
function) and reports the per-layer metrics.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is {"meta": ...} with the run's environment, sample counts,
unscaled times and certificate accounting.  `python3 bench/report.py`
runs every workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from tracing import FUNCTIONS, Tracer
from workloads import FAILED, WORKLOADS, CliCold

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
CAPACITY = 1 << 20  # latency samples kept per run
BLOCK_S = 0.25  # timed seconds of whole rounds per throughput block
REF_EVERY_S = 0.05  # timed seconds between two samples of the reference kernel
# Percentiles op_ms_tail may report.  Above p99 the samples on a shared
# two-core machine are set by neighbours' interference, not by the program.
LADDER = (50, 75, 90, 99)
MODULES = ("exactlin", "toruscomplex", "seifert", "cli")

# Spans whose call counts and self times are per-layer metrics.
LAYER_CALLS = {
    "exactlin.xgcd", "exactlin.det", "exactlin.complete_to_unimodular", "exactlin.inverse_unimodular",
    "exactlin.minors_gcd", "exactlin.invariant_factors",
    "toruscomplex.connect_path", "toruscomplex.two_hop_path", "toruscomplex.edge_witness",
    "seifert.normalize", "seifert.h1", "seifert.classify_surface_complex", "seifert.info_json_dict",
}
LAYER_SELF = LAYER_CALLS | {
    "toruscomplex.s1_edge", "toruscomplex.enumerate_vertices", "toruscomplex.build_graph",
    "toruscomplex.truncation_diameter", "toruscomplex.bfs_distance", "toruscomplex.farey_neighbors",
    "toruscomplex.graph_to_json_dict", "toruscomplex.graph_to_dot", "cli.main",
}


@dataclass(frozen=True)
class _Pair:
    a: int
    b: tuple


_REF_MOD = 7**120 + 2


def compute_slowness() -> float:
    """Time a fixed pure-Python kernel built from the same kinds of work
    as the program: frozen dataclasses, tuples, a dict, small gcds and
    big-integer products; return its time over 1 ms, the reference speed.
    Garbage collection is off while it runs, so the program's heap does
    not change its cost."""
    gc.disable()
    t0 = perf_counter()
    x, acc, table, big = 1, 0, {}, 7**120
    for i in range(600):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        p = _Pair(x & 0xFFFF, (x, i))
        table[i & 31] = p
        acc += math.gcd(p.a + 1, i + 1) + len(p.b)
        if i % 8 == 0:
            big = big * (x | 1) % _REF_MOD
    dt = perf_counter() - t0
    gc.enable()
    return dt / 0.001


def spawn_slowness() -> float:
    """Time a bare interpreter start (`python -I -S -c pass`): process
    creation and interpreter start-up, the bulk of a CLI call, which
    follow the compute kernel's speed only in part.  Return its time over
    15 ms, the reference speed."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return (perf_counter() - t0) / 0.015


def graph_slowness() -> float:
    """The compute kernel's slowness to the power 0.7.  The graph layer
    walks large edge tuples and adjacency lists, so it is partly bound by
    memory and follows the core's speed only in part: between the fast
    and the slow spells of the machine this benchmark was written on,
    its BFS probes and diameters changed by the compute kernel's factor
    to a power of 0.6 to 0.8."""
    return compute_slowness() ** 0.7


KERNELS = {"compute": compute_slowness, "graph": graph_slowness, "spawn": spawn_slowness}


class Ledger:
    """Per-run accounting: latencies of timed calls, failures, rejections
    and a digest of every input.  Latencies live in a preallocated array
    so that the run's memory does not grow with its operation count.

    `attempted`, `failed` and `failed_by` count only while `counting` is
    set, over the fixed prefix, so that they repeat for a seed; `ops` and
    `lost` count every operation, for throughput.  A failure whose class
    is not in `expected` is also a rejection: the run is then incorrect.

    Every REF_EVERY_S of timed calls, between two operations, the ledger
    also samples the workload's reference kernel, and it notes for each
    operation the last sample before it; `slowness` turns the samples
    around an operation into the machine's speed while it ran."""

    def __init__(self, expected: frozenset = frozenset(), kernel=compute_slowness,
                 tracer: Tracer | None = None):
        self.lat = array("f", [0.0]) * CAPACITY
        self.kind = array("B", [0]) * CAPACITY
        self.at = array("I", [0]) * CAPACITY  # index in `ref` of the sample before the operation
        self.kinds: list[str] = []
        self.n = 0
        self.busy = 0.0
        self.kernel = kernel
        self.ref: list[float] = []  # kernel samples, as slowness
        self._ref_busy = 0.0
        self.inproc_busy = 0.0
        self.last = 0.0
        self.attempted = self.failed = self.incorrect = 0
        self.ops = self.lost = 0
        self.counting = True
        self.expected = expected
        self.failed_by: Counter = Counter()
        self.notes: list[str] = []
        self.digest = hashlib.sha256()
        self.tracer = tracer

    def _kind_id(self, kind: str) -> int:
        if kind not in self.kinds:
            self.kinds.append(kind)
        return self.kinds.index(kind)

    def note(self, inputs) -> None:
        self.digest.update(repr(inputs).encode())

    def call(self, kind: str, fn, *args):
        """Time one operation; return its output, or FAILED if it raised."""
        if not self.ref or self.busy - self._ref_busy >= REF_EVERY_S:
            self.ref.append(self.kernel())
            self._ref_busy = self.busy
        if self.tracer is not None:
            self.tracer.op_id += 1
        self.ops += 1
        self.attempted += self.counting
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the operation failed; the run goes on
            out = exc
        dt = perf_counter() - t0
        self.busy += dt
        self.last = dt
        if self.n < CAPACITY:
            self.lat[self.n] = dt
            self.kind[self.n] = self._kind_id(kind)
            self.at[self.n] = len(self.ref) - 1
            self.n += 1
        if isinstance(out, Exception):
            self.fail(kind, f"{type(out).__name__}: {out}")
            return FAILED
        return out

    def tag(self, kind: str) -> None:
        """Relabel the last timed operation."""
        self.kind[self.n - 1] = self._kind_id(kind)

    def inproc(self, fn, *args):
        """Time a call that is not an operation of the workload."""
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        self.inproc_busy += dt
        return dt, out

    def fail(self, kind: str, why: str, cls: str | None = None) -> None:
        key = f"{kind}/{cls}" if cls else kind
        self.lost += 1
        self.incorrect += key not in self.expected
        if self.counting:
            self.failed += 1
            self.failed_by[key] += 1
        if len(self.notes) < 8:
            self.notes.append(f"{key}: {why[:200]}")

    def absorb(self, other: "Ledger") -> None:
        """Add another pass's counts over the same inputs to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.incorrect += other.incorrect
        self.failed_by += other.failed_by
        self.notes += other.notes

    def reject(self, kind: str, why: str) -> None:
        self.fail(kind, "rejected: " + why, cls="rejected")

    def check(self, fn, *args) -> bool:
        """Run a verifier outside the timed interval; a verifier that
        raises rejects the output of the last operation."""
        try:
            fn(*args)
        except Exception as exc:  # any error while checking output is a rejection
            self.reject(self.kinds[self.kind[self.n - 1]] if self.n else "?", f"{type(exc).__name__}: {exc}")
            return False
        return True

    def slowness(self) -> list[float]:
        """Per operation, the median of the two kernel samples before it
        and the two after it."""
        ref = self.ref
        local = [median(ref[max(0, j - 1): j + 3]) for j in range(len(ref))]
        return [local[j] for j in self.at[: self.n]]

    def latencies(self, kind: str) -> list[float]:
        k = self.kinds.index(kind)
        return sorted(x for x, y in zip(self.lat[: self.n], self.kind[: self.n]) if y == k)


def tail(sorted_lat: list[float], floor: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    LADDER that leaves at least ten samples beyond it in `floor` samples,
    the count every run reaches, so that the percentile does not change
    with the machine's speed.  Nearest rank over all samples."""
    p = max([q for q in LADDER if floor - math.ceil(q / 100 * floor) >= 10], default=LADDER[0])
    rank = math.ceil(p / 100 * len(sorted_lat))
    return p, sorted_lat[rank - 1], len(sorted_lat) - rank


def import_fresh() -> SimpleNamespace:
    """Import surfcomplex from this checkout's src/, dropping any copy
    already loaded, so that every set-up pays the import."""
    for key in [k for k in sys.modules if k == "surfcomplex" or k.startswith("surfcomplex.")]:
        del sys.modules[key]
    pkg = importlib.import_module("surfcomplex")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"surfcomplex imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"surfcomplex.{m}") for m in MODULES}
    return SimpleNamespace(surfcomplex=pkg, **mods)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.decode().strip() or None


def set_up(cls, seed: int, tiny: bool):
    """Time `setup_repeats` set-ups (import, input generation, warm-up),
    each after a sample of the reference kernel; return the last workload,
    the set-up times and the reference samples."""
    times, ref = [], []
    kernel = KERNELS[cls.kernel]
    for _ in range(2 if tiny else cls.setup_repeats):
        gc.collect()  # each set-up starts from a clean heap, as a new process would
        ref.append(kernel())
        t0 = perf_counter()
        wl = cls(import_fresh(), seed, tiny, str(SRC))
        wl.prepare()
        wl.warm_up()
        times.append(perf_counter() - t0)
    ref.append(kernel())
    return wl, times, ref


def run_rounds(wl, ledger: Ledger, seconds: float | None) -> list[tuple[int, int, int]]:
    """Whole rounds: the fixed prefix, then more while another round of
    the last one's length still fits in `seconds` of timed calls.  The
    ledger counts attempts and failures over the prefix only.

    Returns the blocks of consecutive rounds that span at least BLOCK_S of
    timed calls (a short last block joins the one before it), each as
    (first operation, end operation, verified operations)."""
    blocks: list[tuple[int, int, int]] = []
    start, block_ok, block_s = 0, 0, 0.0
    rounds = 0
    while True:
        ok0, busy0 = ledger.ops - ledger.lost, ledger.busy
        wl.round(ledger)
        rounds += 1
        block_ok += ledger.ops - ledger.lost - ok0
        block_s += ledger.busy - busy0
        if block_s >= BLOCK_S:
            blocks.append((start, ledger.n, block_ok))
            start, block_ok, block_s = ledger.n, 0, 0.0
        if rounds < wl.min_rounds:
            continue
        ledger.counting = False
        last = ledger.busy - busy0
        if seconds is None or ledger.busy + last > seconds or ledger.n + wl.round_ops > CAPACITY:
            break
    if block_s:
        first, _, ok = blocks.pop() if blocks else (0, 0, 0)
        blocks.append((first, ledger.n, ok + block_ok))
    return blocks


def end_to_end(wl, seconds: float, setup_times: list[float], setup_ref: list[float]):
    """Timed run.  Times are reported at the reference speed: each
    operation's time is divided by the machine's slowness around it
    (`Ledger.slowness`), each set-up's by the mean of the samples before
    and after it.  On a shared machine that slowness drifts by tens of
    percent within seconds; the unscaled figures are in `meta.raw`."""
    ledger = Ledger(wl.expected_failures, KERNELS[wl.kernel])
    blocks = run_rounds(wl, ledger, seconds)
    ledger.ref.append(ledger.kernel())
    rss = peak_rss_mb(wl.rss_of_children)
    wl.finish(ledger)
    lat, slowness = ledger.lat[: ledger.n], ledger.slowness()
    scaled = [t / s for t, s in zip(lat, slowness)]
    pct, tail_s, beyond = tail(sorted(scaled), ledger.attempted)
    raw_lat = sorted(lat)
    _, raw_tail, _ = tail(raw_lat, ledger.attempted)
    setup_slow = [(a + b) / 2 for a, b in zip(setup_ref, setup_ref[1:])]
    raw = {"ops_per_s": median(ok / sum(lat[i:j]) for i, j, ok in blocks),
           "op_ms_p50": median(raw_lat) * 1e3, "op_ms_tail": raw_tail * 1e3, "setup_s": median(setup_times)}
    metrics = {
        "ops_per_s": {"value": median(ok / sum(scaled[i:j]) for i, j, ok in blocks), "unit": "1/s"},
        "op_ms_p50": {"value": median(scaled) * 1e3, "unit": "ms"},
        "op_ms_tail": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": median(t / s for t, s in zip(setup_times, setup_slow)), "unit": "s"},
    }
    by_kind = {}
    for k in ledger.kinds:
        kl = ledger.latencies(k)
        if not kl:
            continue
        by_kind[k] = {"samples": len(kl), "p50_ms": median(kl) * 1e3, "max_ms": kl[-1] * 1e3}
    meta = {
        "raw": raw,
        "slowness": {"run": median(slowness), "setup": median(setup_slow), "samples": len(ledger.ref),
                     "kernel": wl.kernel, "min": min(ledger.ref), "max": max(ledger.ref)},
        "rounds": wl.rounds_done,
        "timed_s": ledger.busy,
        "ops": ledger.ops,
        "ops_per_s_overall": (ledger.ops - ledger.lost) / ledger.busy,
        "samples": {"ops_per_s": len(blocks), "op_ms_p50": len(lat), "op_ms_tail": len(lat),
                    "peak_rss_mb": 1, "setup_s": len(setup_times), "slowness": len(ledger.ref)},
        "op_ms_tail_percentile": pct,
        "op_ms_tail_beyond": beyond,
        "failed_ratio": ledger.failed / ledger.attempted,
        "by_kind": by_kind,
        "setup_s_all": setup_times,
        **wl.report(),
    }
    return ledger, metrics, meta


def one_pass(cls, sc, seed: int, tiny: bool, tracer: Tracer | None):
    """The fixed prefix once, untraced or with `tracer` installed."""
    wl = cls(sc, seed, tiny, str(SRC))
    wl.mode = "traced" if tracer else "untraced"
    wl.prepare()
    ledger = Ledger(wl.expected_failures, KERNELS[wl.kernel], tracer)
    if tracer:
        tracer.install()
    try:
        run_rounds(wl, ledger, None)
    finally:
        if tracer:
            tracer.uninstall()
    wl.finish(ledger)
    return wl, ledger


def per_layer(cls, seed: int, tiny: bool, sc, spans_path: Path | None):
    """Run the fixed prefix untraced and traced, `trace_pairs` times each,
    alternating which goes first; per-layer metrics come from the last
    traced pass, the overhead from the median difference within a pair."""
    plain_s, traced_s_all = [], []
    result = plain = None
    for i in range(cls.trace_pairs):
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = Tracer(vars(sc)) if traced_side else None
            wl, ledger = one_pass(cls, sc, seed, tiny, tracer)
            if traced_side:
                traced_s_all.append(ledger.busy)
                traced, second = wl, ledger
                last_tracer = tracer
            else:
                plain_s.append(wl.untraced_time(ledger))
                plain = plain or wl
            if result is None:
                result = ledger
            else:
                result.absorb(ledger)
    tracer = last_tracer

    calls, self_s, total = tracer.times()
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            key = f"{mod}.{fn}"
            if key in LAYER_CALLS:
                put(f"{key}.calls", calls[key], "count")
            if key in LAYER_SELF:
                put(f"{key}.self_s", self_s[key], "s")
    put("exactlin.IntMatrix.constructed", tracer.counts["exactlin.IntMatrix.__post_init__"], "count")
    put("toruscomplex.PathCertificate.verify_s", total["toruscomplex.PathCertificate.verify"], "s")

    cert = (traced.report().get("cert") or {})
    by_class = cert.get("by_class", {})
    put("toruscomplex.two_hop_share", cert.get("two_hop_share", 0.0), "ratio")
    pairs = traced.counts["pairs_tested"]
    put("toruscomplex.build_graph.pairs_tested", pairs, "count")
    put("toruscomplex.build_graph.edge_ratio", traced.counts["edges"] / pairs if pairs else 0.0, "ratio")
    cands = traced.counts["farey_candidates"]
    put("toruscomplex.farey_neighbors.hit_ratio", traced.counts["farey_neighbors"] / cands if cands else 0.0, "ratio")

    is_cli = isinstance(plain, CliCold)
    put("cli.startup_ms", median(plain.startup) * 1e3 if is_cli else 0.0, "ms")
    put("cli.import_ms", plain.import_ms() if is_cli else 0.0, "ms")
    put("cli.stdout_bytes", plain.counts["stdout_bytes"], "bytes")
    for code in (0, 1, 2):
        put(f"cli.exit.{code}", plain.exits[code] if is_cli else 0, "count")

    put("cert.digit_ratio_max", cert.get("cert_digit_ratio_max", 0.0), "ratio")
    for c in ("h5", "e3", "e6", "e50"):
        put(f"cert.digit_ratio_max.{c}", by_class.get(c, {}).get("digit_ratio_max", 0.0), "ratio")
        put(f"cert.two_hop_share.{c}", by_class.get(c, {}).get("two_hop_share", 0.0), "ratio")
    put("cert.mid_digits_max", cert.get("mid_digits_max", 0), "digits")

    untraced_s = median(plain_s)
    overhead_s = median(t - u for t, u in zip(traced_s_all, plain_s))
    self_sum = sum(self_s.values())
    put("trace.untraced_s", untraced_s, "s")
    put("trace.traced_s", median(traced_s_all), "s")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_pct", 100 * overhead_s / untraced_s if untraced_s else 0.0, "%")
    put("trace.self_sum_s", self_sum, "s")
    put("trace.unaccounted_s", second.busy - self_sum, "s")
    put("trace.spans", len(tracer.kind), "count")

    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    meta = {"rounds": traced.rounds_done, "ops": second.attempted, "trace_pairs": cls.trace_pairs,
            "untraced_s_all": plain_s, "traced_s_all": traced_s_all,
            "spans_file": str(spans_path) if spans_path else None, **traced.report()}
    return result, m, meta


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-tests")
    args = ap.parse_args(argv)

    if not (SRC / "surfcomplex" / "__init__.py").is_file():
        print(f"error: no surfcomplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    # One core for this process and the CLI processes it starts, so that
    # the reference kernel runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl, setup_times, setup_ref = set_up(cls, args.seed, args.tiny)

    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        ledger, metrics, meta = per_layer(cls, args.seed, args.tiny, wl.sc, spans)
    else:
        ledger, metrics, meta = end_to_end(wl, args.seconds, setup_times, setup_ref)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "input_digest": ledger.digest.hexdigest(),
        "failed_by": dict(ledger.failed_by),
        "failures": ledger.notes,
        **meta,
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": ledger.incorrect == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
