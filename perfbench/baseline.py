"""Record the benchmark's baseline: every workload untraced on each seed,
then one traced run per workload.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each end-to-end metric it stores the median over the seeds, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread,
(q3 - q1) / median.  It also stores every run's result digest and the
per-layer numbers of the traced run, with the tracing overhead.  The
workloads run one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    record = {
        "hardware": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "run_seconds": RUN_SECONDS,
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        results, digests, raw = [], {}, []
        for seed in SEEDS:
            info, result = run(name, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed} failed its gate: {info['failures']}")
            results.append(result)
            digests[seed] = info["digest"]
            raw.append(info)
            print(f"{name} seed {seed}: {result['metrics']}", file=sys.stderr)
        metrics = {
            m: {"unit": results[0]["metrics"][m]["unit"],
                **spread([r["metrics"][m]["value"] for r in results])}
            for m in results[0]["metrics"]
        }
        raw_metrics = {
            m: spread([i[m] for i in raw]) for m in ("setup_raw_s", "wall_raw_s", "op_p50_raw_ms")
        }
        info, traced = run(name, SEEDS[0], 1)
        record["workloads"][name] = {
            "setup_covers": workload.setup_covers,
            "units": workload.units,
            "end_to_end": metrics,
            "raw_unscaled": raw_metrics,
            "attempted_per_run": [r["attempted"] for r in results],
            "failed_per_run": [r["failed"] for r in results],
            "digests": digests,
            "traced_seed": SEEDS[0],
            "traced_digest": info["digest"],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
