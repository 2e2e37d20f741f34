"""Child-process entry points of the benchmark, each run in a fresh
interpreter with the checkout's src on PYTHONPATH:

  python3 perfbench/probe.py import          seconds to import davisspin.cli
  python3 perfbench/probe.py setup           seconds of the decompose-queries set-up calls
  python3 perfbench/probe.py layers --seed N per-layer timings, as one JSON line

Each prints its result as the last line of standard output."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import inputs
from tracing import Tracer


def _import_seconds() -> float:
    start = time.perf_counter()
    import davisspin.cli  # noqa: F401
    return time.perf_counter() - start


def decompose_setup(tracer):
    """The program calls made before the first query: the classes, the
    character table and the index decomposition."""
    from davisspin import ghat, reptheory, spinindex
    with tracer.span("ghat.conjugacy_classes"):
        classes = ghat.conjugacy_classes()
    with tracer.span("reptheory.chartable_ghat"):
        chars = reptheory.chartable_ghat()
    with tracer.span("spinindex.decompose_davis_index"):
        decomposition = spinindex.decompose_davis_index()
    return classes, chars, decomposition


def _setup_seconds() -> float:
    import davisspin.cli  # noqa: F401
    start = time.perf_counter()
    decompose_setup(Tracer(False))
    return time.perf_counter() - start


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3


def _timed(tracer, name, call, *args):
    with tracer.span(name) as record:
        call(*args)
    return record["end"] - record["start"]


def layer_sweep(seed: int) -> dict:
    """Calls each layer's public function in dependency order in this fresh
    process: a build layer's time is its first call, made once every layer
    below it is warm. Per-call times are medians over the workloads' own
    seeded inputs."""
    tracer = Tracer(True, process="layers")
    metrics = {}
    with tracer.span("cli.import") as record:
        import davisspin.cli  # noqa: F401
    metrics["cli.import_s"] = record["end"] - record["start"]
    from davisspin import exactfield, ghat, icosa, quatmat, reptheory, spinindex

    stream = inputs.nu_stream(seed, count=64)
    queries = inputs.decompose_queries(seed, count=10)

    build = [("icosa.enumerate_2I", icosa.enumerate_2I, ()),
             ("icosa.alpha", icosa.alpha, (icosa.G1,)),
             ("ghat.conjugacy_classes", ghat.conjugacy_classes, ()),
             ("reptheory.chartable_ghat", reptheory.chartable_ghat, ()),
             ("reptheory.orthogonality_checks", reptheory.orthogonality_checks, ()),
             ("reptheory.galois_permutation", reptheory.galois_permutation, ()),
             ("spinindex.davis_spin_character", spinindex.davis_spin_character, ()),
             ("spinindex.decompose_davis_index", spinindex.decompose_davis_index, ())]
    for name, call, args in build:
        metrics[f"{name}_s"] = _timed(tracer, name, call, *args)

    classes = ghat.conjugacy_classes()
    chars = reptheory.chartable_ghat()
    index = {cls.name: n for n, cls in enumerate(classes)}
    functions = []
    power_calls = []
    for query in queries:
        if query.kind == "tensor":
            functions.append(tuple(a * b for a, b in zip(chars[query.i].values,
                                                         chars[query.j].values)))
        else:
            functions.append(tuple(
                chars[query.i].values[index[ghat.power_map(cls, query.j).name]]
                for cls in classes))
            power_calls.extend((cls, query.j) for cls in classes[::6])
    metrics["reptheory.decompose_ms"] = _median_ms(
        _timed(tracer, "reptheory.decompose", reptheory.decompose, f)
        for f in functions[:6])
    metrics["reptheory.inner_product_ms"] = _median_ms(
        _timed(tracer, "reptheory.inner_product", reptheory.inner_product, f, char.values)
        for f in functions for char in chars[::9])
    metrics["ghat.power_map_ms"] = _median_ms(
        _timed(tracer, "ghat.power_map", ghat.power_map, cls, k)
        for cls, k in power_calls)

    def scalar(payload):
        return exactfield.GoldenNumber.from_json(payload)

    fixed_points, spin2, operands = [], [], []
    for nu_input in stream:
        argv = list(nu_input.argv)
        phat = json.loads(argv[argv.index("--phat") + 1])
        point = [scalar(part) for part in json.loads(argv[argv.index("--x") + 1])]
        if nu_input.dim == 4:
            entries = [quatmat.Quaternion(*(scalar(part) for part in phat[key]))
                       for key in "abcd"]
            operands.extend(c for entry in entries for c in entry.coords
                            if not c.is_zero())
            matrix = quatmat.SpinMatrix4(*entries)
            fixed_points.append(spinindex.IsolatedFixedPoint4(
                quatmat.HyperboloidPoint(point), matrix))
        else:
            matrix = quatmat.SpinMatrix2(exactfield.GoldenComplex.from_json(phat["a"]),
                                         exactfield.GoldenComplex.from_json(phat["b"]))
            spin2.append((matrix, point[2]))
    metrics["quatmat.eta4_ms"] = _median_ms(
        _timed(tracer, "quatmat.eta4", quatmat.eta4, fp.phat) for fp in fixed_points)
    metrics["spinindex.nu_isolated_4d_ms"] = _median_ms(
        _timed(tracer, "spinindex.nu_isolated_4d", spinindex.nu_isolated_4d, fp)
        for fp in fixed_points)
    metrics["spinindex.nu_numeric_oracle_ms"] = _median_ms(
        _timed(tracer, "spinindex.nu_numeric_oracle", spinindex.nu_numeric_oracle,
               fp.phat, fp.x) for fp in fixed_points)
    metrics["spinindex.nu_isolated_2d_ms"] = _median_ms(
        _timed(tracer, "spinindex.nu_isolated_2d", spinindex.nu_isolated_2d, m, x3)
        for m, x3 in spin2)

    def products(pairs):
        for x, y in pairs:
            x * y

    pairs = list(zip(operands, operands[1:] + operands[:1]))
    batches = [pairs[n:n + 50] for n in range(0, len(pairs) - 49, 50)]
    metrics["exactfield.golden_mul_us"] = statistics.median(
        _timed(tracer, "exactfield.golden_mul", products, batch) / len(batch)
        for batch in batches) * 1e6
    return {"metrics": metrics, "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("import", "setup", "layers"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.mode == "import":
        print(_import_seconds())
    elif args.mode == "setup":
        print(_setup_seconds())
    else:
        print(json.dumps(layer_sweep(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
