"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 bench/selftest.py

* a tiny run of every workload, untraced and traced, emits exactly the
  metrics BENCHMARK.json names, with their units, and verifies clean;
* the verifier rejects a certificate with one witness entry off by one;
* only the known 2500-digit CLI failure leaves a run correct, and the
  result counts attempts and failures over the fixed prefix only;
* the same seed gives identical inputs and identical count metrics, and
  another seed gives other inputs;
* without the sources next to it the benchmark exits nonzero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
from run import Ledger  # noqa: E402
from workloads import WORKLOADS, CliCold  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "ratio", "digits", "bytes"}


def tiny_run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc):
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


# One edge (a, b) with a x b = (1, 1, -1): every entry of the witness has a
# nonzero cofactor or sits in a waypoint column, so any +-1 change breaks it.
EDGE = {
    "waypoints": [[1, 2, 3], [2, 3, 5]],
    "edges": 1,
    "witnesses": [[[1, 2, 1], [2, 3, 0], [3, 5, 0]]],
    "transform": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
}


class Verifier(unittest.TestCase):
    def test_valid_certificate_passes(self):
        verify.certificate(EDGE, (1, 2, 3), (2, 3, 5))

    def test_tampered_witness_entry_is_rejected(self):
        for r in range(3):
            for c in range(3):
                for delta in (1, -1):
                    cert = json.loads(json.dumps(EDGE))
                    cert["witnesses"][0][r][c] += delta
                    with self.subTest(entry=(r, c), delta=delta):
                        with self.assertRaises(verify.VerificationError):
                            verify.certificate(cert, (1, 2, 3), (2, 3, 5))

    def test_tampered_program_certificate_is_rejected(self):
        sys.path.insert(0, str(ROOT / "src"))
        try:
            from surfcomplex import canonicalize, connect_path
        finally:
            sys.path.remove(str(ROOT / "src"))
        a, b = (1, 2, 0), (1, 0, 0)
        cert = connect_path(canonicalize(a), canonicalize(b)).to_json_dict()
        self.assertEqual(cert["edges"], 2)
        verify.certificate(cert, a, b)
        for k in range(2):
            tampered = json.loads(json.dumps(cert))
            tampered["witnesses"][k][1][0] += 1
            with self.assertRaises(verify.VerificationError):
                verify.certificate(tampered, a, b)

    def test_digits_beyond_the_str_limit(self):
        n = 10**5000
        self.assertEqual(verify.digits(n), 5001)
        self.assertEqual(verify.digits(-(n - 1)), 5000)
        self.assertEqual(verify.digits(0), 1)

    def test_wrong_seifert_torsion_is_rejected(self):
        rep = {"genus": 0, "b": -1, "fibers": [[4, 1], [4, 1], [4, 1], [4, 1]],
               "euler_number": "0/1", "d": 4, "h1": {"free_rank": 1, "torsion": [4, 4]},
               "h2_rank": 1, "verdict": "ConeExact", "theorem": "identical-fibers-cone",
               "diameter_bound": None}
        fibers = ((4, 1),) * 4
        verify.seifert_report(0, -1, fibers, rep)
        verify.seifert_sympy(0, -1, fibers, rep)
        rep["h1"]["torsion"] = [2, 8]
        with self.assertRaises(verify.VerificationError):
            verify.seifert_sympy(0, -1, fibers, rep)


class Accounting(unittest.TestCase):
    def test_only_the_known_cli_failure_is_expected(self):
        ledger = Ledger(CliCold.expected_failures)
        ledger.call("torus path", lambda: None)
        ledger.fail("torus path", "int too large to convert", cls="e2500/exit 2")
        self.assertEqual((ledger.failed, ledger.incorrect), (1, 0))
        ledger.fail("torus path", "internal error", cls="e6/exit 1")
        ledger.fail("seifert info", "usage", cls="exit 2")
        self.assertEqual((ledger.failed, ledger.incorrect), (3, 2))

    def test_an_operation_that_raises_makes_the_run_incorrect(self):
        ledger = Ledger()
        ledger.call("connect_path", lambda: 1 // 0)
        self.assertEqual((ledger.attempted, ledger.failed, ledger.incorrect), (1, 1, 1))

    def test_counts_cover_the_fixed_prefix_only(self):
        ledger = Ledger()
        ledger.call("connect_path", lambda: None)
        ledger.counting = False
        ledger.call("connect_path", lambda: 1 // 0)
        self.assertEqual((ledger.attempted, ledger.failed), (1, 0))
        self.assertEqual((ledger.ops, ledger.lost, ledger.incorrect), (2, 1, 1))


class Runs(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = tiny_run(name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    meta, result = parse(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], meta["failures"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if name != "cli-cold":
                        self.assertEqual(result["failed"], 0, meta["failures"])

    def test_same_seed_same_inputs_and_counts(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second, other = (parse(tiny_run(name, 1, seed=s)) for s in (11, 11, 12))
                self.assertEqual(first[0]["input_digest"], second[0]["input_digest"])
                self.assertNotEqual(first[0]["input_digest"], other[0]["input_digest"])
                counts = [
                    {k: v["value"] for k, v in r[1]["metrics"].items() if units[k] in COUNT_UNITS}
                    for r in (first, second)
                ]
                self.assertEqual(counts[0], counts[1])

    def test_no_sources_exits_nonzero_without_a_result(self):
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = tiny_run("certify", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
