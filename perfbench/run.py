"""Benchmark of davisspin: one command per run of one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under src/ without
installing it. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _check(workload, phase, errors: list[str]) -> None:
    try:
        workload.check(phase)
    except Exception as error:  # noqa: BLE001 - any wrong output makes correct false
        errors.append(f"{type(error).__name__}: {error}")


def _summary(workload, phase) -> str:
    latencies = sorted(phase.latencies)
    p90 = (statistics.quantiles(latencies, n=10)[-1] * 1e3
           if len(latencies) >= 100 else None)
    repeated = 1 - workload.distinct_inputs(phase.attempted) / phase.attempted
    return (f"{workload.name}: {phase.attempted} ops in {phase.elapsed:.2f} s, "
            f"{phase.failed} failed, whole-run p50 "
            f"{statistics.median(latencies) * 1e3:.3f} ms, p90 "
            + (f"{p90:.3f} ms" if p90 is not None else "n/a (fewer than 100 ops)")
            + f", repeated inputs {repeated:.1%}, set-up samples "
            + ", ".join(f"{s:.3f}" for s in workload.setup_samples))


def untraced(workload, seed: int, seconds: float) -> dict:
    from tracing import Tracer
    import workloads
    tracer = Tracer(False)
    errors: list[str] = []
    workload.prepare(seed, tracer)
    phase, = workloads.measure(workload.run_round, seconds, [tracer])
    _check(workload, phase, errors)
    print(_summary(workload, phase), file=sys.stderr)
    for error in phase.errors + errors:
        print(f"failed: {error}", file=sys.stderr)
    return _result(not errors, phase.attempted, phase.failed,
                   workloads.end_to_end(workload, phase))


def traced(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics from a layer sweep in a fresh child, then the
    workload's rounds run twice each, untraced and traced, on the same
    inputs; the gap between the two phases is the tracing overhead."""
    from tracing import Tracer, self_times
    import workloads
    sweep = workloads.run_child([str(workloads.PROBE), "layers", "--seed", str(seed)])
    if sweep.returncode != 0:
        raise RuntimeError(f"layer sweep failed: {sweep.stderr.strip()}")
    layers = json.loads(sweep.stdout.splitlines()[-1])

    tracer = Tracer(True)
    errors: list[str] = []
    workload.prepare(seed, tracer)
    plain, spanned = workloads.measure(workload.run_round, seconds,
                                       [Tracer(False), tracer])
    for phase in (plain, spanned):
        _check(workload, phase, errors)
    plain_e2e = workloads.end_to_end(workload, plain)
    spanned_e2e = workloads.end_to_end(workload, spanned)
    overhead = 100 * (plain_e2e["ops_per_s"][0] / spanned_e2e["ops_per_s"][0] - 1)

    tracer.spans[:0] = layers["spans"]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    print(_summary(workload, spanned), file=sys.stderr)
    print(f"spans written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    for title, spans in (("layer sweep", layers["spans"]),
                         ("workload", tracer.spans[len(layers["spans"]):])):
        print(f"{title} spans:", file=sys.stderr)
        for name, entry in sorted(self_times(spans).items(),
                                  key=lambda item: -item[1]["self_s"]):
            print(f"  self {entry['self_s']:9.3f} s  total {entry['total_s']:9.3f} s  "
                  f"x{entry['count']:<5} {name}", file=sys.stderr)
    for error in plain.errors + spanned.errors + errors:
        print(f"failed: {error}", file=sys.stderr)
    # The traced run's own end-to-end numbers, untraced and traced phase.
    print(json.dumps({"untraced_phase": _result(True, plain.attempted, plain.failed,
                                                plain_e2e)["metrics"],
                      "traced_phase": _result(True, spanned.attempted, spanned.failed,
                                              spanned_e2e)["metrics"]}))
    metrics = {name: (value, name.rsplit("_", 1)[1])
               for name, value in layers["metrics"].items()}
    metrics["trace.overhead_pct"] = (overhead, "%")
    return _result(not errors, plain.attempted + spanned.attempted,
                   plain.failed + spanned.failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-verify", "spin-nu-stream", "decompose-queries"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "davisspin" / "__init__.py"
    if not package.is_file():
        print(f"no davisspin package at {package.relative_to(ROOT)}: run from the "
              "root of a davisspin checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    start = time.perf_counter()
    run = traced if args.trace else untraced
    result = run(workload, args.seed, args.seconds)
    print(f"run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
