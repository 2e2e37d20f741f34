"""Steadiness check: two sets of runs of each workload on fresh seeds, the
two sets alternating which goes first, then each end-to-end metric's median,
quartiles and spread (q3 - q1 over the median) per set, and the gap between
the set medians, measured against the bounds in BENCHMARK.json.

  python3 perfbench/steady.py

It runs every workload in BENCHMARK.json, RUNS times per set: set A uses
seeds 1 .. RUNS, set B seeds RUNS + 1 .. 2 RUNS. The report goes to standard
output and perfbench/out/steadiness.json. The exit code is 1 if a spread or
the size of the gap between the set medians, in either direction, is outside
its bound, or if the share of failed ops differs between the sets."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    results = {name: {"A": [], "B": []} for name in names}
    for i in range(RUNS):
        for name in names:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = 1 + i + (RUNS if label == "B" else 0)
                result = run_once(spec, name, seed)
                results[name][label].append(result)
                print(f"run {i} {name} set {label} seed {seed}: correct "
                      f"{result['correct']}, {result['attempted']} ops, "
                      f"{result['failed']} failed", file=sys.stderr, flush=True)

    report, ok = {}, True
    for name in names:
        sets = results[name]
        shares = {label: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for label, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        ok &= correct and shares["A"] == shares["B"]
        report[name] = {"correct": correct, "failed_share": shares, "metrics": {}}
        print(f"\n{name}: correct {correct}, failed share A {shares['A']:.4f} "
              f"B {shares['B']:.4f}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = {label: spread([r["metrics"][key]["value"] for r in runs])
                     for label, runs in sets.items()}
            a, b = stats["A"]["median"], stats["B"]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            fine = (all(s["spread"] <= bound for s in stats.values())
                    and abs(b - a) / a <= bound)
            ok &= fine
            report[name]["metrics"][key] = {**stats, "gap_worse": worse,
                                            "bound": bound, "ok": fine}
            print(f"  {key:12} A median {a:10.4f} [{stats['A']['q1']:.4f}, "
                  f"{stats['A']['q3']:.4f}] spread {stats['A']['spread']:.3f} | "
                  f"B median {b:10.4f} spread {stats['B']['spread']:.3f} | "
                  f"B worse by {worse:+.3f} (bound {bound}) "
                  f"{'ok' if fine else 'OUT OF BOUND'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(
        {"runs": results, "report": report}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
