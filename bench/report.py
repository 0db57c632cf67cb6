"""Run every workload once and print each metric by name with its unit.

    python3 bench/report.py                  # end-to-end metrics
    python3 bench/report.py --trace          # per-layer metrics (traced runs)

Each workload runs in its own process (bench/run.py) at seed 1 for
BENCHMARK.json's run_seconds, so peak memory is per workload.  Besides the metrics in BENCHMARK.json, the end-to-end
report prints each run's failed ratio, the percentile behind op_ms_tail,
the machine's measured slowness with the unscaled times and, for certify
and cli-cold, the certificate digit ratio.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    """One run of bench/run.py; its meta line and its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true", help="per-layer metrics from traced runs")
    args = ap.parse_args(argv)

    correct = True
    for name in WORKLOADS:
        meta, result = run(name, 1, args.trace)
        correct &= result["correct"]
        print(f"== {name}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}  seed={meta['seed']}  python={meta['python']}  "
              f"nproc={meta['nproc']}  git={meta['git_sha']}")
        for metric, m in result["metrics"].items():
            print(f"{name:13} {metric:44} {m['value']:>16.6g} {m['unit']}")
        if not args.trace:
            extra = {"failed_ratio": (meta["failed_ratio"], "ratio")}
            if "cert" in meta:
                extra["cert_digit_ratio_max"] = (meta["cert"]["cert_digit_ratio_max"], "ratio")
            for metric, (value, unit) in extra.items():
                print(f"{name:13} {metric:44} {value:>16.6g} {unit}")
            print(f"{name:13} op_ms_tail is p{meta['op_ms_tail_percentile']} of "
                  f"{meta['samples']['op_ms_tail']} samples ({meta['op_ms_tail_beyond']} beyond); "
                  f"ops_per_s is the median of {meta['samples']['ops_per_s']} blocks")
            raw = ", ".join(f"{k} {v:.6g}" for k, v in meta["raw"].items())
            print(f"{name:13} slowness {meta['slowness']['run']:.3f} "
                  f"(set-up {meta['slowness']['setup']:.3f}); unscaled: {raw}")
        if meta["failed_by"]:
            print(f"{name:13} failures by kind: {meta['failed_by']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
