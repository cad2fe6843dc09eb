#!/usr/bin/env python3
"""Benchmark of the telecloning package: one command, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload circuit-audit --seed 1 --seconds 20 --trace 0

``--trace 0`` generates the seeded inputs, runs the workload as a closed
loop for ``--seconds``, times ``setup_s`` in fresh interpreters before and
after the loop, and prints the end-to-end metrics, with times corrected to
a nominal machine speed (see speed.py). ``--trace 1`` runs the workload's fixed list
of traced ops once untraced and once with spans around every public call
into the package, and prints the per-layer metrics and the tracing
overhead. Every op's output is checked against an oracle in both modes.
Ops that a workload audits (the wide-range configs of circuit-audit, where
the program has known defects) run once, untimed, after the measurement:
their known-defect failures are reported, not counted as failed ops.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# fresh interpreters timed before the loop, and as many again after it, so
# that one slow spell of the host does not set the median
SETUP_REPEATS = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the keys of workloads.WORKLOADS, listed here so that the arguments parse
# before the package is known to be importable
WORKLOAD_NAMES = ("mc-sample", "circuit-audit", "calibrate-sweep")

# per-layer spans reported by the traced run, as "<module>.<public name>"
SPANS = (
    "cli.main", "config.load_config", "resource.build_telecloning_resource",
    "gaussian.GaussianState", "gaussian.SymplecticMatrix",
    "gaussian.apply_symplectic", "gaussian.loss_channel",
    "gaussian.symplectic_eigenvalues", "homodyne.shot_stream",
    "protocol.circuit_states", "protocol.clone_output_state",
    "protocol.run_circuit_analytic", "protocol.run_analytic",
    "protocol.run_monte_carlo", "metrics.fidelity_general",
    "opo.squeezing_spectra", "opo.fit_params",
)

# a fresh interpreter imports the CLI and runs one short op of the workload
SETUP_CODE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import telecloning.cli
calls = json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if "fit" in calls:
        telecloning.fit_params(calls["fit"])
    codes = [telecloning.cli.main(argv) for argv in calls["cli"]]
sys.exit(max(codes))
"""


class Tally:
    """Op latencies, passed items and failures by stage for one pass.

    With a running speed probe, the time its kernel took during an op is
    taken out of that op's time.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.spans: list[tuple[float, float]] = []  # wall (start, end) per op
        self.times: list[float] = []
        self.items = 0
        self.failures: collections.Counter = collections.Counter()
        self.unexpected = 0  # failures that are not a known defect of the program
        self.first_traceback: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def throughput(self, times: list[float] | None = None) -> float:
        """Items of passed ops per second of op time."""
        return self.items / sum(self.times if times is None else times)

    def corrected_times(self) -> list[float]:
        """Op times scaled to nominal machine speed by the running probe."""
        return [t * self.probe.factor(*span) for t, span in zip(self.times, self.spans)]

    def run(self, workload, op) -> None:
        probed = self.probe.seconds if self.probe else 0.0
        t0 = perf_counter()
        try:
            outcome = workload.run(op)
        except Exception as exc:  # an op that crashes is a failure, not an abort
            outcome = None
            stage = f"exception: {exc.__class__.__name__}"
            if self.first_traceback is None:
                self.first_traceback = traceback.format_exc()
        t1 = perf_counter()
        self.spans.append((t0, t1))
        self.times.append(t1 - t0 - (self.probe.seconds - probed if self.probe else 0.0))
        if outcome is not None:
            try:
                stage = workload.check(op, outcome)
            except Exception as exc:  # output too malformed for the oracle
                stage = f"check: raised {exc.__class__.__name__}"
        if stage is None:
            self.items += op.items
        else:
            self.failures[stage] += 1
            self.unexpected += not workload.known_defect(op, stage)


def pin_threads() -> None:
    """One BLAS/OpenMP thread: every matrix here is at most 8x8."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def run_child(*args: str) -> float:
    """Wall time of a fresh interpreter running ``python -c <args>``."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60, check=False)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"interpreter exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def measure_setup(calls: dict) -> tuple[list[float], list[float]]:
    """Raw and corrected times of fresh interpreters importing the CLI and
    running one op.

    A reference interpreter runs before the first setup interpreter and
    after each one; a setup time is scaled to nominal speed by the mean of
    the two reference times beside it (see speed.py).
    """
    from speed import REFERENCE_CODE, reference_factor
    raw, corrected = [], []
    before = run_child(REFERENCE_CODE)
    for _ in range(SETUP_REPEATS):
        raw.append(run_child(SETUP_CODE, str(SRC), json.dumps(calls)))
        after = run_child(REFERENCE_CODE)
        corrected.append(raw[-1] * reference_factor(before, after))
        before = after
    return raw, corrected


def run_warmup(calls: dict) -> None:
    import workloads
    import telecloning
    if "fit" in calls:
        telecloning.fit_params(calls["fit"])
    for argv in calls["cli"]:
        code = workloads.cli_call(argv, workloads.Outcome())
        if code != 0:
            raise RuntimeError(f"warm-up op {argv} exited {code}")


def timed_loop(workload, ops, seconds: float, probe) -> Tally:
    tally = Tally(probe)
    deadline = perf_counter() + seconds
    k = 0
    while perf_counter() < deadline:
        for _ in range(workload.group):
            tally.run(workload, ops[k % len(ops)])
            k += 1
    return tally


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten ops beyond it."""
    import numpy as np
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0):
        value = float(np.percentile(times, pct))
        if sum(t > value for t in times) >= 10:
            return pct, value
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, ops, seconds: float, out) -> tuple[Tally, dict]:
    from speed import NOMINAL_RATE, NOMINAL_REFERENCE_S, SpeedProbe
    calls = workload.warmup_calls(ops)
    raw_setup, setup = measure_setup(calls)
    run_warmup(calls)
    probe = SpeedProbe()
    with probe.running():
        tally = timed_loop(workload, ops, seconds, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_after, setup_after = measure_setup(calls)
    raw_setup += raw_after
    setup += setup_after
    times = tally.corrected_times()
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "throughput": metric(tally.throughput(times), "items/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    print(f"machine speed: {statistics.median(setup) / statistics.median(raw_setup):.4f} "
          f"of nominal in setup, {sum(times) / sum(tally.times):.4f} in the loop "
          f"(reference interpreter nominal {NOMINAL_REFERENCE_S:g} s; "
          f"{len(probe.ends)} kernels, nominal {NOMINAL_RATE:g}/s); setup_s, "
          "throughput and op times below are corrected to nominal speed", file=out)
    print(f"raw: setup_s {statistics.median(raw_setup):.4f} s, "
          f"throughput {tally.throughput():.4f} items/s, "
          f"op_p50_ms {statistics.median(tally.times) * 1e3:.4f} ms", file=out)
    print(f"throughput counts {workload.item}s of passed ops per second of op time",
          file=out)
    found = tail(times)
    if found is None:
        print(f"op_tail_ms: not reported, {tally.attempted} ops are too few", file=out)
    else:
        print(f"op_tail_ms: p{found[0]:g} = {found[1] * 1e3:.4f} ms "
              f"over {tally.attempted} ops", file=out)
    return tally, metrics


def traced(workload, ops, seed: int, spans_dir: Path, out) -> tuple[Tally, dict]:
    from tracer import Tracer, patched, peak_alloc_wrapper, traced_callables
    listed = workload.traced_ops(ops)
    run_warmup(workload.warmup_calls(ops))
    plain = Tally()
    for op in listed:
        plain.run(workload, op)

    tracer = Tracer()
    spanned = Tally()
    with tracer.installed():
        for op in listed:
            tracer.op_id = op.index
            spanned.run(workload, op)
    summary = tracer.summary()
    spans_path = spans_dir / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_csv(spans_path)
    print(f"{len(tracer.name)} spans over {len(listed)} ops written to "
          f"{os.path.relpath(spans_path, ROOT)}", file=out)

    # tracemalloc slows every allocation, so the peak comes from a pass of
    # its own over the first op only
    peaks: list[int] = []
    measured = Tally()
    if summary["protocol.run_monte_carlo"]["calls"]:
        fn = traced_callables()["protocol.run_monte_carlo"][2]
        with patched({"protocol.run_monte_carlo": peak_alloc_wrapper(fn, peaks)}):
            measured.run(workload, listed[0])

    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = metric(summary[name]["calls"], "count")
        metrics[f"{name}.self_s"] = metric(summary[name]["self_s"], "s")
    metrics["protocol.run_monte_carlo.peak_alloc_mb"] = metric(
        max(peaks, default=0) / 2**20, "MB")
    for layer in sorted({name.split(".")[0] for name in summary}):
        metrics[f"layer.{layer}.self_s"] = metric(
            sum(v["self_s"] for k, v in summary.items()
                if k.startswith(layer + ".")), "s")
    metrics["trace.throughput_untraced"] = metric(plain.throughput(), "items/s")
    metrics["trace.throughput_traced"] = metric(spanned.throughput(), "items/s")
    metrics["trace.overhead_share"] = metric(
        1.0 - spanned.throughput() / plain.throughput(), "ratio")
    combined = Tally()
    for part in (plain, spanned, measured):
        combined.times += part.times
        combined.failures += part.failures
        combined.unexpected += part.unexpected
        combined.first_traceback = combined.first_traceback or part.first_traceback
    return combined, metrics


def split(workload, ops) -> tuple[list, list]:
    """The ops of the timed loop and traced run, and the audited ops."""
    return ([op for op in ops if not workload.audited(op)],
            [op for op in ops if workload.audited(op)])


def defect_audit(workload, audited, out) -> Tally:
    """Run every audited op once, untimed, and print its failures by stage."""
    audit = Tally()
    for op in audited:
        audit.run(workload, op)
    if audited:
        print(f"defect audit: {audit.failed - audit.unexpected} of {audit.attempted} "
              "audited ops failed at a known defect (untimed, not in `failed`)",
              file=out)
        for stage, count in sorted(audit.failures.items()):
            print(f"  audit failed {count}x at {stage}", file=out)
    return audit


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "telecloning" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    out = sys.stdout
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, workdir)
        ops, audited = split(workload, workload.make_inputs(args.seed))
        print(f"env: {json.dumps(environment(), sort_keys=True)}", file=out)
        print(f"workload {workload.name}: {workload.__doc__}", file=out)
        if args.trace:
            tally, metrics = traced(workload, ops, args.seed, WORK, out)
        else:
            tally, metrics = end_to_end(workload, ops, args.seconds, out)
        audit = defect_audit(workload, audited, out)
        if args.trace:
            metrics["known_defect_ratio"] = metric(
                (audit.failed - audit.unexpected) / max(audit.attempted, 1), "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fail_ratio = {tally.failed / tally.attempted!r} ratio "
          f"({tally.failed} of {tally.attempted} ops)", file=out)
    for stage, count in sorted(tally.failures.items()):
        print(f"  failed {count}x at {stage}", file=out)
    wrong = tally.unexpected + audit.unexpected
    print(f"{wrong} failed ops are not a known defect; "
          f"correct is {str(wrong == 0).lower()}", file=out)
    for part in (tally, audit):
        if part.first_traceback:
            print(part.first_traceback, file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}", file=out)
    print(json.dumps({"correct": wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
