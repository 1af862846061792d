"""Benchmark a change against its parent in alternating pairs of runs and
write the comparison as a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV [--change REV] --out BENCH_<n>.json

Each side is the committed tree of its revision (`--change` defaults to
HEAD), extracted with `git archive` into a temporary directory, so neither
the working tree nor the repository's list of worktrees is touched; the
extraction needs tarfile's filters (Python 3.10.12, 3.11.4 or later).  The
workloads, the end-to-end metrics with their bounds and the run length come
from the change's BENCHMARK.json.  Each workload runs PAIRS = 10 pairs;
pair k runs

    <command> --workload W --seed 1 --seconds <run_seconds> --trace 0

once on each side, the parent first when k is odd (counting from 1) and the
change first when k is even.  A run that exits non-zero, reads
`correct: false` or reports a failed unit stops the script, and nothing is
written.

For each workload and metric the file gives the median, quartiles
(`statistics.quantiles`, inclusive method), least and greatest run of each
side; the change's median over the parent's; the pairs in which the change
read lower; the parent's interquartile range over its median; and a verdict:
`unresolved` where that range is wider than the bound, unless every change
run reads lower than every parent run, else `worse than bound` where the
median rose by more than the bound, else `within bound`.  Every end-to-end
metric must be lower-is-better.  No gain is claimed (`claim` is null).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 1
PAIRS = 10


class RunFailed(RuntimeError):
    pass


def extract(rev: str, dest: Path) -> Path:
    """The committed files of `rev`, written under `dest`."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=REPO, capture_output=True, check=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout.strip()


def parse_run(returncode: int, stdout: str, stderr: str, label: str) -> dict:
    """The metrics and digest of one benchmark run: the last stdout line is
    the result object, the line before it the info object with the digest.
    A failed or incorrect run raises `RunFailed`."""
    if returncode != 0:
        raise RunFailed(f"{label}: exit status {returncode}\n{stderr[-2000:]}")
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise RunFailed(f"{label}: expected an info and a result line, got {lines!r}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RunFailed(
            f"{label}: correct {result['correct']}, failed {result['failed']} "
            f"of {result['attempted']}: {info.get('failures')}"
        )
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": info["digest"],
    }


def run_once(command: list, checkout: Path, workload: str, seconds: int, label: str) -> dict:
    args = [*command, "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    return parse_run(proc.returncode, proc.stdout, proc.stderr, label)


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(median, 5),
        "q1": round(q1, 5),
        "q3": round(q3, 5),
        "min": round(min(values), 5),
        "max": round(max(values), 5),
    }


def verdict(parent: list, change: list, bound: float) -> str:
    """How the change's runs of one lower-is-better metric compare with the
    parent's under the metric's bound."""
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if (q3 - q1) / median > bound and max(change) >= min(parent):
        return "unresolved"
    if statistics.median(change) / median - 1 > bound:
        return "worse than bound"
    return "within bound"


def workload_entry(parent_runs: list, change_runs: list, metrics: list) -> dict:
    """The comparison of one workload: `parent_runs` and `change_runs` are the
    parsed runs in pair order, and `metrics` the end-to-end entries of
    BENCHMARK.json, each lower-is-better with its bound."""
    pairs = len(parent_runs)
    entry = {"pairs": pairs, "pairs_parent_first": (pairs + 1) // 2}
    values = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        values[side] = {m["name"]: [r["metrics"][m["name"]] for r in runs] for m in metrics}
        entry[side] = {name: summary(v) for name, v in values[side].items()}
        entry[side]["runs_correct"] = f"{len(runs)}/{pairs}"
    for key in ("change_over_parent_median", "pairs_change_lower",
                "parent_iqr_over_median", "verdict"):
        entry[key] = {}
    for m in metrics:
        name = m["name"]
        parent, change = values["parent"][name], values["change"][name]
        q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        entry["change_over_parent_median"][name] = round(statistics.median(change) / median, 4)
        wins = sum(c < p for p, c in zip(parent, change))
        entry["pairs_change_lower"][name] = f"{wins}/{pairs}"
        entry["parent_iqr_over_median"][name] = round((q3 - q1) / median, 4)
        entry["verdict"][name] = verdict(parent, change, m["bound"])
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        entry[f"digest_{side}"] = list(dict.fromkeys(r["digest"] for r in runs))
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent commit")
    ap.add_argument("--change", default="HEAD", help="revision of the change (HEAD)")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    if not hasattr(tarfile, "data_filter"):
        ap.error("needs tarfile's extraction filters: Python 3.10.12, 3.11.4 or later")
    revs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: extract(rev, Path(tmp) / side) for side, rev in revs.items()}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        if any(m["better"] != "lower" for m in bench["end_to_end"]):
            print("every end-to-end metric must be lower-is-better", file=sys.stderr)
            return 1
        seconds = bench["run_seconds"]
        workloads = {}
        for w in bench["workloads"]:
            runs = {"parent": [], "change": []}
            for k in range(1, PAIRS + 1):
                for side in ("parent", "change") if k % 2 else ("change", "parent"):
                    label = f"{w['name']} pair {k} {side}"
                    try:
                        runs[side].append(
                            run_once(bench["command"], trees[side], w["name"], seconds, label)
                        )
                    except RunFailed as exc:
                        print(exc, file=sys.stderr)
                        return 1
                    print(f"{label}: {runs[side][-1]['metrics']}", file=sys.stderr)
            workloads[w["name"]] = workload_entry(
                runs["parent"], runs["change"], bench["end_to_end"]
            )
    report = {
        "change": git("log", "-1", "--format=%s", args.change),
        "parent_commit": git("rev-parse", "--short", args.parent),
        "change_commit": git("rev-parse", "--short", args.change),
        "command": " ".join(bench["command"])
        + f" --workload W --seed {SEED} --seconds {seconds} --trace 0",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, "
        f"Python {platform.python_version()}",
        "order": f"{PAIRS} pairs per workload, seed {SEED}; odd pairs ran the "
        "parent first, even pairs the change first",
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "claim": None,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
