"""Benchmark of the runs users of `burau` make.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Workloads (see workloads.py): verify_fixtures, curve_search, bucket_walk,
twist_hom.  Each runs single-process in fresh worker processes, so set-up
time and memory include the import and the empty `lru_cache`s that every CLI
call starts with.

--trace 0 measures the end-to-end metrics with no tracing loaded:
  setup_s      median set-up time over several fresh processes
  wall_s       median time of one pass over the seeded work list
  op_p50_ms    median latency of one unit of work, timed around the call;
               each unit counts once, at its fastest over the passes
  peak_rss_mb  peak resident memory of the run process
Passes repeat until S seconds have gone (at least one pass).  Times are
rescaled to a fixed CPU speed by clock.py; the raw times are in the info
line.
--trace 1 makes one untraced and one traced pass in a fresh process and
reports the per-layer metrics, with the tracing overhead between the two.

Every pass goes through the workload's correctness gate; units that fail it
count in `failed`.  The line before the result holds the result digest,
the sample counts, op_p90_ms where at least 100 units were timed, and the
failure messages.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROCESSES = 9  # set-up-only processes; the run process adds one sample
DEADLINE_S = 170  # the whole command must end well within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline: float) -> dict:
    """Run one fresh worker process and return its JSON line.  On timeout
    `subprocess.run` kills the worker and waits for it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = [spawn([*common, "--mode", "setup"], deadline) for _ in range(SETUP_PROCESSES)]
    run = spawn([*common, "--mode", "run"], deadline)
    setups.append(run)
    lat = run["latencies_s"]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
        "wall_s": (statistics.median(run["pass_s"]), "s", len(run["pass_s"])),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms", len(lat) * run["passes"]),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB", 1),
    }
    info = {
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        "wall_raw_s": statistics.median(run["pass_raw_s"]),
        "op_p50_raw_ms": statistics.median(run["latencies_raw_s"]) * 1000,
    }
    if len(lat) >= 100:
        info["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1000
    return run, metrics, info


def traced(args, deadline: float):
    run = spawn(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--mode", "trace"],
        deadline,
    )
    metrics = {name: (value, unit, 1) for name, (value, unit) in run["per_layer"].items()}
    info = {"spans_file": run["spans_file"]}
    return run, metrics, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "burau" / "__init__.py").is_file():
        print(f"no burau sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        run, metrics, info = (traced if args.trace else end_to_end)(args, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    info.update(
        workload=args.workload,
        seed=args.seed,
        digest=run["digest"],
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted if attempted else 1.0,
        samples={name: n for name, (_, _, n) in metrics.items()},
        inputs=run["inputs"],
        inputs_s=run["inputs_s"],
        failures=run["failures"],
    )
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit:6s} n={n}", file=sys.stderr)
    print(f"digest {run['digest']}  attempted {attempted}  failed {failed}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
