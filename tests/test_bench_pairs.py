"""The statistics and run checks of scripts/bench_pairs.py, on fixed
numbers."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_pairs import RunFailed, parse_run, summary, verdict, workload_entry  # noqa: E402


def _stdout(correct=True, failed=0, wall_s=0.1):
    info = {"digest": "d1", "failures": []}
    result = {
        "correct": correct,
        "attempted": 4,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}},
    }
    return f"noise\n{json.dumps(info)}\n{json.dumps(result)}\n"


def test_summary_uses_inclusive_quartiles():
    assert summary([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4, "min": 1, "max": 5}
    # positions 0.75 and 2.25 of four values interpolate
    assert summary([1.0, 2.0, 3.0, 5.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.5, "min": 1.0, "max": 5.0,
    }


def test_verdict_follows_the_bound_and_the_parent_spread():
    parent = [10.0, 10.0, 10.0, 10.0, 10.0]
    assert verdict(parent, [10.2] * 5, 0.25) == "within bound"
    assert verdict(parent, [12.6] * 5, 0.25) == "worse than bound"
    # parent IQR 4 / 10 is wider than the 0.25 bound
    spread = [8.0, 8.0, 10.0, 12.0, 12.0]
    assert verdict(spread, [9.0] * 5, 0.25) == "unresolved"
    assert verdict(spread, [7.5] * 5, 0.25) == "within bound"  # every run lower


def test_workload_entry_counts_pairs_wins_and_digests():
    def runs(values, digest):
        return [{"metrics": {"wall_s": v}, "digest": digest} for v in values]

    entry = workload_entry(
        runs([1.0, 2.0, 3.0, 4.0], "a"),
        runs([0.5, 2.5, 2.0, 4.0], "a"),
        [{"name": "wall_s", "better": "lower", "bound": 0.25}],
    )
    assert entry["pairs"] == 4 and entry["pairs_parent_first"] == 2
    assert entry["parent"]["wall_s"]["median"] == 2.5
    assert entry["change"]["wall_s"]["median"] == 2.25
    assert entry["parent"]["runs_correct"] == "4/4"
    assert entry["change_over_parent_median"] == {"wall_s": 0.9}
    assert entry["pairs_change_lower"] == {"wall_s": "2/4"}  # the tie counts for neither
    assert entry["parent_iqr_over_median"] == {"wall_s": 0.6}
    assert entry["verdict"] == {"wall_s": "unresolved"}
    assert entry["digest_parent"] == entry["digest_change"] == ["a"]


def test_parse_run_reads_the_result_and_refuses_failed_runs():
    assert parse_run(0, _stdout(), "", "x") == {"metrics": {"wall_s": 0.1}, "digest": "d1"}
    with pytest.raises(RunFailed, match="exit status 1"):
        parse_run(1, "", "boom", "x")
    with pytest.raises(RunFailed, match="correct False"):
        parse_run(0, _stdout(correct=False), "", "x")
    with pytest.raises(RunFailed, match="failed 1 of 4"):
        parse_run(0, _stdout(failed=1), "", "x")
    with pytest.raises(RunFailed, match="an info and a result line"):
        parse_run(0, "{}\n", "", "x")
