"""The three workloads. Each is a closed loop with one client, run in its own
fresh benchmark process with no threads. A workload prepares (set-up, input
generation and set-up checks), then measures whole rounds of ops until the
run length has passed, then checks every output it kept.

  cold-verify        each op runs `python -m davisspin.cli verify --format json`
                     in a fresh interpreter; a round is two ops.
  spin-nu-stream     each op is one `spin-nu` evaluation through
                     davisspin.cli.main(argv); a round is 80 ops.
  decompose-queries  each op builds a class function and decomposes it with
                     reptheory.decompose; a round is a tensor query and an
                     Adams query."""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
CHILD_TIMEOUT_S = 150
EXTRA_SETUPS = 2  # set-ups in fresh children, besides the run's own


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def probe(mode: str) -> float:
    done = run_child([str(PROBE), mode])
    if done.returncode != 0:
        raise RuntimeError(f"probe {mode} failed: {done.stderr.strip()}")
    return float(done.stdout.splitlines()[-1])


@dataclass
class Phase:
    """What one timed phase saw: per-op latencies in seconds, the median
    latency of each round, the phase's length, ops attempted and failed, the
    outputs of the ops that did not fail, kept for checking, and the errors
    of those that did."""

    latencies: list[float] = field(default_factory=list)
    round_p50s: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def measure(run_round, seconds: float, tracers) -> list[Phase]:
    """Whole rounds until `seconds` have passed, at least one, for each
    tracer. With several tracers, each round index runs once under each of
    them in turn, on the same inputs, so drift in the host's speed falls
    on all of them alike; each phase's length is the sum of its rounds."""
    phases = [Phase() for _ in tracers]
    round_index = 0
    while True:
        for phase, tracer in zip(phases, tracers):
            done = len(phase.latencies)
            start = time.perf_counter()
            run_round(round_index, phase, tracer)
            phase.elapsed += time.perf_counter() - start
            if len(phase.latencies) > done:
                phase.round_p50s.append(statistics.median(phase.latencies[done:]))
        round_index += 1
        if phases[0].elapsed >= seconds:
            return phases


def timed_op(phase: Phase, tracer, name: str, op_id: int, call):
    """Time one op, count it, and keep its output; an op that raises counts
    as failed."""
    phase.attempted += 1
    with tracer.span(name, op=op_id):
        start = time.perf_counter()
        try:
            output = call()
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            phase.failed += 1
            phase.errors.append(f"op {op_id}: {type(error).__name__}: {error}")
            return
        phase.latencies.append(time.perf_counter() - start)
    phase.outputs.append(output)


class ColdVerify:
    name = "cold-verify"
    ops_per_round = 2
    rss_of = resource.RUSAGE_CHILDREN  # the verify children

    def prepare(self, seed: int, tracer) -> None:
        # The seed is unused: verify takes no input. The import probes also
        # leave the package's bytecode cached, so every op reads the same.
        self.setup_samples = [probe("import") for _ in range(1 + EXTRA_SETUPS)]

    def run_round(self, round_index: int, phase: Phase, tracer) -> None:
        for n in range(self.ops_per_round):
            timed_op(phase, tracer, "subprocess: davisspin.cli verify",
                     round_index * self.ops_per_round + n,
                     lambda: run_child(["-m", "davisspin.cli", "verify",
                                        "--format", "json"]))

    def distinct_inputs(self, ops: int) -> int:
        return 1

    def check(self, phase: Phase) -> None:
        for done in phase.outputs:
            checks.check_verify_output(done.returncode, done.stdout)


class SpinNuStream:
    name = "spin-nu-stream"
    ops_per_round = inputs.STREAM_PERIOD  # so every round has the same mix
    rss_of = resource.RUSAGE_SELF

    def prepare(self, seed: int, tracer) -> None:
        with tracer.span("setup"):
            with tracer.span("import davisspin.cli"):
                start = time.perf_counter()
                from davisspin import cli
                own = time.perf_counter() - start
        self.setup_samples = [own] + [probe("import") for _ in range(EXTRA_SETUPS)]
        self.main = cli.main
        self.stream = inputs.nu_stream(seed)

    def run_round(self, round_index: int, phase: Phase, tracer) -> None:
        main, stream = self.main, self.stream
        first = round_index * self.ops_per_round
        for op_id in range(first, first + self.ops_per_round):
            nu_input = stream[op_id % len(stream)]

            def call():
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    exit_code = main(list(nu_input.argv))
                return nu_input, exit_code, buffer.getvalue()

            timed_op(phase, tracer, "cli.main spin-nu", op_id, call)

    def distinct_inputs(self, ops: int) -> int:
        return len({nu_input.argv for nu_input in self.stream[:ops]})

    def check(self, phase: Phase) -> None:
        for output in phase.outputs:
            checks.check_nu_output(*output)


class DecomposeQueries:
    name = "decompose-queries"
    ops_per_round = 2
    rss_of = resource.RUSAGE_SELF

    def prepare(self, seed: int, tracer) -> None:
        import probe as probe_module
        import davisspin.cli  # noqa: F401 - imports stay out of set-up, as in the probe
        from davisspin import ghat, reptheory
        with tracer.span("setup"):
            start = time.perf_counter()
            classes, chars, decomposition = probe_module.decompose_setup(tracer)
            own = time.perf_counter() - start
        self.setup_samples = [own] + [probe("setup") for _ in range(EXTRA_SETUPS)]
        self.ghat, self.reptheory = ghat, reptheory
        self.classes, self.chars = classes, chars
        self.index = {cls.name: n for n, cls in enumerate(classes)}
        self.queries = inputs.decompose_queries(seed, characters=len(chars))

        # Set-up checks, in the benchmark's own integer arithmetic.
        self.table = [[checks.ztau(value) for value in char.values] for char in chars]
        self.sizes = [cls.size for cls in classes]
        self.orders = [cls.order for cls in classes]
        identities = [n for n, cls in enumerate(classes) if cls.order == 1]
        checks.require(len(identities) == 1, "no single identity class")
        self.identity = identities[0]
        checks.require(len(classes) == 54, f"{len(classes)} classes, not 54")
        checks.check_character_table(self.table, self.sizes, self.identity, 28800)
        dims = [row[self.identity][0] for row in self.table]
        checks.check_index(list(decomposition.multiplicities),
                           [char.label.render() for char in chars], dims,
                           decomposition.plus.label.render(),
                           decomposition.minus.label.render(),
                           decomposition.harmonic_minimum,
                           decomposition.harmonic_step)

    def run_round(self, round_index: int, phase: Phase, tracer) -> None:
        ghat, reptheory = self.ghat, self.reptheory
        classes, chars, index = self.classes, self.chars, self.index
        first = round_index * self.ops_per_round
        for op_id in range(first, first + self.ops_per_round):
            query = self.queries[op_id % len(self.queries)]

            def call():
                with tracer.span("build class function"):
                    if query.kind == "tensor":
                        powers = None
                        values = tuple(a * b for a, b in zip(chars[query.i].values,
                                                             chars[query.j].values))
                    else:
                        powers = [index[ghat.power_map(cls, query.j).name]
                                  for cls in classes]
                        values = tuple(chars[query.i].values[n] for n in powers)
                with tracer.span("reptheory.decompose"):
                    multiplicities = reptheory.decompose(values)
                return query, powers, values, multiplicities

            timed_op(phase, tracer, f"query: {query.kind}", op_id, call)

    def distinct_inputs(self, ops: int) -> int:
        return len(set(self.queries[:ops]))

    def check(self, phase: Phase) -> None:
        table = self.table
        for output in phase.outputs:
            query, powers, values, multiplicities = output
            values = [checks.ztau(value) for value in values]
            if query.kind == "tensor":
                expected = checks.tensor_values(table, query.i, query.j)
            else:
                checks.check_adams_classes(self.orders, powers, query.j)
                expected = [table[query.i][n] for n in powers]
            checks.require(values == expected, f"class function of {query} is wrong")
            checks.check_decomposition(query.kind, table, self.identity, values,
                                       [checks.integer(m) for m in multiplicities])


WORKLOADS = {w.name: w for w in (ColdVerify, SpinNuStream, DecomposeQueries)}


def end_to_end(workload, phase: Phase) -> dict:
    """op_p50_ms is the mean over rounds of each round's median latency. The
    host's speed drifts over seconds, and a round is a whole period of the
    input mix, so each round's median is taken at one speed; a median over
    the whole run instead jumps between the speeds the run happened to see."""
    completed = phase.attempted - phase.failed
    return {
        "setup_s": (statistics.median(workload.setup_samples), "s"),
        "op_p50_ms": (statistics.mean(phase.round_p50s) * 1e3, "ms"),
        "ops_per_s": (completed / phase.elapsed, "1/s"),
        "peak_rss_mb": (resource.getrusage(workload.rss_of).ru_maxrss / 1024, "MB"),
    }
