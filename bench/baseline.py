"""Two ten-seed sets of end-to-end runs, summarised as bench/baseline.json.

    python3 bench/baseline.py > bench/baseline.json

Runs every workload at seeds 1-10 (set 1), then at seeds 11-20 (set 2),
each run `bench/run.py --trace 0` for BENCHMARK.json's run_seconds.  For
each set, workload and end-to-end metric it records the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
quartile distance over the median; and how far set 2's median sits from
set 1's, as a share of set 1's.  Progress goes to stderr.
"""

from __future__ import annotations

import json
import platform
import sys
from statistics import median, quantiles

from report import SPEC, run
from workloads import WORKLOADS

SETS = (range(1, 11), range(11, 21))


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}


def main() -> int:
    sets = []
    git_sha = None
    for seeds in SETS:
        workloads = {}
        for name in WORKLOADS:
            runs = []
            for seed in seeds:
                meta, result = run(name, seed, False)
                git_sha = meta["git_sha"]
                if not result["correct"]:
                    raise SystemExit(f"{name} seed {seed}: incorrect: {meta['failures']}")
                runs.append({
                    "seed": seed,
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "op_ms_tail_percentile": meta["op_ms_tail_percentile"],
                    "slowness": meta["slowness"]["run"],
                })
                print(name, seed, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()},
                      file=sys.stderr, flush=True)
            metrics = {m: summary([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]}
            workloads[name] = {"metrics": metrics, "runs": runs}
            print(name, {m: round(s["spread"], 3) for m, s in metrics.items()}, file=sys.stderr, flush=True)
        sets.append({"seeds": [seeds.start, seeds.stop - 1], "workloads": workloads})

    drift = {
        name: {m: s["median"] / sets[0]["workloads"][name]["metrics"][m]["median"] - 1
               for m, s in w["metrics"].items()}
        for name, w in sets[1]["workloads"].items()
    }
    out = {
        "what": f"end-to-end runs, --trace 0, --seconds {SPEC['run_seconds']}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha,
        "bounds": {m["name"]: m["bound"] for m in SPEC["end_to_end"]},
        "second_median_vs_first": drift,
        "sets": sets,
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
