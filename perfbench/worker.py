"""One fresh process of the benchmark: set up, then set up only, run, or
trace one workload, and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (report set-up time only), `run` (timed passes until S
seconds have gone) or `trace` (one untimed pass, then the caches are
cleared and set-up plus the same pass run again under the tracer).  Every
mode but `setup` ends with the correctness gate.  `run.py` starts these
processes; see there.
"""

from time import perf_counter

from clock import Clock

CLOCK = Clock()
CLOCK.start()
_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _gate(workload, ctx, work, passes):
    """Check the first pass in full; later passes must repeat its output."""
    units, failures = workload.check(ctx, work, passes[0])
    first = digest(workload.summary(passes[0]))
    attempted, failed = units, len(failures)
    for outcomes in passes[1:]:
        attempted += units
        if digest(workload.summary(outcomes)) != first:
            failed += units
            failures.append("a repeated pass gave a different result")
    return attempted, failed, failures, first


def _timed_passes(workload, ctx, work, seconds, out):
    """Untraced passes until `seconds` have gone; times go into `out`.
    Every pass repeats the same units, so each unit's latency is its
    fastest over the passes, which sheds momentary contention."""
    units: list[list[tuple[float, float]]] = []

    def record(start, end):
        units[-1].append((start, end))
        CLOCK.sample_between_units()

    passes, spans = [], []
    run_started = perf_counter()
    while not passes or perf_counter() - run_started < seconds:
        units.append([])
        started = perf_counter()
        passes.append(workload.run_pass(ctx, work, record))
        spans.append((started, perf_counter()))
    CLOCK.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["pass_s"] = [CLOCK.scaled(a, b) for a, b in spans]
    out["pass_raw_s"] = [b - a - CLOCK.sampling_s(a, b) for a, b in spans]
    by_unit = list(zip(*units))
    out["latencies_s"] = [min(CLOCK.scaled(a, b) for a, b in u) for u in by_unit]
    out["latencies_raw_s"] = [min(b - a - CLOCK.sampling_s(a, b) for a, b in u) for u in by_unit]
    out["passes"] = len(passes)
    return passes


def _traced_pass(workload, ctx, work, seed, out):
    """One untimed reference pass, then the same pass under the tracer
    after clearing the caches and running set-up again; the per-layer
    metrics go into `out`."""
    from burau.garside import garside_context
    from burau.matrices import generator_matrix
    from tracer import Tracer

    started = perf_counter()
    reference = workload.run_pass(ctx, work, None)
    untraced = (started, perf_counter())
    garside_context.cache_clear()
    generator_matrix.cache_clear()
    tracer = Tracer(CLOCK)
    tracer.install()
    try:
        setup_start = perf_counter()
        workload.setup()
        pass_start = perf_counter()
        traced = workload.run_pass(ctx, work, None)
        pass_end = perf_counter()
    finally:
        tracer.uninstall()
    CLOCK.stop()
    untraced_s = CLOCK.scaled(*untraced)
    traced_s = CLOCK.scaled(pass_start, pass_end)
    # span times are raw; rescale them by the traced pass's own factor
    raw_s = pass_end - pass_start - CLOCK.sampling_s(pass_start, pass_end)
    layer = tracer.metrics(workload.walk_bands, traced_s / raw_s)
    layer["trace.setup_s"] = (CLOCK.scaled(setup_start, pass_start), "s")
    layer["trace.untraced_pass_s"] = (untraced_s, "s")
    layer["trace.traced_pass_s"] = (traced_s, "s")
    layer["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")
    out["per_layer"] = layer
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write_spans(spans_file)
    out["spans_file"] = str(spans_file.relative_to(ROOT))
    return [reference, traced]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    import burau  # the whole package, as the CLI imports it

    if not Path(burau.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported burau from {burau.__file__}, not from this checkout")

    workload = WORKLOADS[args.workload]
    ctx = workload.setup()
    setup_end = perf_counter()
    out = {"setup_raw_s": setup_end - _STARTED - CLOCK.sampling_s(_STARTED, setup_end)}
    if args.mode == "setup":
        CLOCK.stop()
        out["setup_s"] = CLOCK.scaled(_STARTED, setup_end)
        print(json.dumps(out))
        return 0

    started = perf_counter()
    work, out["inputs"] = workload.inputs(ctx, args.seed)
    out["inputs_s"] = perf_counter() - started

    if args.mode == "run":
        passes = _timed_passes(workload, ctx, work, args.seconds, out)
    else:
        passes = _traced_pass(workload, ctx, work, args.seed, out)
    out["setup_s"] = CLOCK.scaled(_STARTED, setup_end)

    attempted, failed, failures, result_digest = _gate(workload, ctx, work, passes)
    out.update(attempted=attempted, failed=failed, failures=failures[:20], digest=result_digest)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
