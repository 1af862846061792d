"""Peak resident memory of one benchmark workload after each of a fixed
number of kept passes, at two revisions.

    python3 scripts/rss_by_passes.py --parent REV [--change REV] [--workload W] [--passes N]

`peak_rss_mb` is read once, at the end of a timed run, and the run keeps
every pass's outcomes (perfbench/worker.py, `_timed_passes`); so a change
that makes passes faster also makes more of them fit, and the peak grows
with their count.  This script separates the two: for each revision it
starts one fresh process in that revision's committed tree (extracted as
bench_pairs.py does), sets the workload up as the worker does, draws the
inputs for seed 1, runs N passes (default 20) keeping every outcome, and
reads `ru_maxrss` and the pass time after each one.  It prints one JSON
object: per side the peak RSS in MiB after each pass, the pass times in
seconds, and their median.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_pairs import SEED, extract, git

PROBE = """
import json, resource, statistics, sys
from time import perf_counter
sys.path[:0] = ["perfbench", "src"]
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]]
ctx = workload.setup()
work, _ = workload.inputs(ctx, int(sys.argv[2]))
kept, rss, times = [], [], []
for _ in range(int(sys.argv[3])):
    started = perf_counter()
    kept.append(workload.run_pass(ctx, work, None))
    times.append(round(perf_counter() - started, 4))
    rss.append(round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2))
print(json.dumps({"peak_rss_mb": rss, "pass_s": times,
                  "median_pass_s": statistics.median(times)}))
"""


def probe(checkout: Path, workload: str, passes: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, workload, str(SEED), str(passes)],
        cwd=checkout, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent commit")
    ap.add_argument("--change", default="HEAD", help="revision of the change (HEAD)")
    ap.add_argument("--workload", default="curve_search")
    ap.add_argument("--passes", type=int, default=20)
    args = ap.parse_args(argv)
    if not hasattr(tarfile, "data_filter"):
        ap.error("needs tarfile's extraction filters: Python 3.10.12, 3.11.4 or later")
    report = {
        "command": f"python3 scripts/rss_by_passes.py --parent {args.parent} "
        f"--change {args.change} --workload {args.workload} --passes {args.passes}",
        "parent_commit": git("rev-parse", "--short", args.parent),
        "change_commit": git("rev-parse", "--short", args.change),
    }
    with tempfile.TemporaryDirectory(prefix="rss_by_passes_") as tmp:
        for side in ("parent", "change"):
            tree = extract(getattr(args, side), Path(tmp) / side)
            report[side] = probe(tree, args.workload, args.passes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
