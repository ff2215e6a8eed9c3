"""holonorm benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload matrix-1d --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; holonorm is imported from ``src/``.
Operations run back to back, each starting when the previous one has
finished, until ``--seconds`` have passed and every operation has run at least
once.  Each operation's outputs are checked (see ``checks.py`` and
``workloads.py``); the values and witnesses, the environment and any failures
are written to ``perfbench/out/``.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
every operation runs once untraced and once traced, and the per-layer metrics
and the tracing overhead are reported.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 11  # timed set-ups per run; the median is reported
MAX_ERRORS = 20


class BenchError(Exception):
    """The benchmark cannot run here."""


def use_checkout_source():
    """Import holonorm from the checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "holonorm", "__init__.py")):
        raise BenchError(f"no holonorm sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import holonorm

    if not os.path.abspath(holonorm.__file__).startswith(SRC + os.sep):
        raise BenchError(f"holonorm was imported from {holonorm.__file__}, not from {SRC}")


def benchmark_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# -- set-up time ------------------------------------------------------------------


def setup_probe(workload: str, seed: int):
    """Import holonorm and generate the workload's inputs, then report ready."""
    use_checkout_source()
    import workloads

    workloads.make_ops(workload, seed, OUT_DIR)
    print("ready", flush=True)


class SetupClock:
    """Time from process start to the first timed call, measured in fresh
    processes that import holonorm and generate the workload's inputs.

    One untimed probe runs first, so that bytecode caches exist as they do
    for any user after the first run.  The timed probes are spread over the
    run, between operations, so that their median does not hang on the
    machine's state at one moment.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        t0 = perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - t0
                proc.communicate(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        return elapsed

    def tick(self, progress: float):
        """Probe if the run has progressed past the next probe's share."""
        if len(self.times) < SETUP_PROBES and progress >= len(self.times) / SETUP_PROBES:
            self.times.append(self._probe())

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.times.append(self._probe())
        return self.times


# -- the measured loop --------------------------------------------------------------


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


class Ledger:
    """Operation outcomes.  The first execution of an op is checked in full;
    later ones must reproduce its recorded values exactly."""

    def __init__(self, references: dict):
        self.references = references
        self.first = {}  # op key -> Verdict
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def settle(self, op, run):
        """Run ``op`` through ``run`` and account for the outcome; returns the
        timed seconds, or None when the op raised."""
        self.attempted += op.units
        try:
            dt, out = run()
            if op.key not in self.first:
                self.first[op.key] = op.verify(out, self.references)
                bad = self.first[op.key].errors
            elif op.record(out) != self.first[op.key].record:
                bad = {op.key: ["outputs differ from the op's first execution"]}
            else:
                bad = self.first[op.key].errors
        except Exception as exc:  # a failing operation is counted, not fatal
            dt, bad = None, {op.key: [f"raised {type(exc).__name__}: {exc}"]}
        self.failed += op.units if op.key in bad else len(bad)
        for unit, reasons in bad.items():
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{unit}: {'; '.join(reasons)}")
        return dt

    def checks_per_pass(self, ops) -> int:
        return sum(self.first[op.key].checks if op.key in self.first else op.checks
                   for op in ops)


def _append(samples: list, dt):
    if dt is not None:
        samples.append(dt)


def _checks_per_s(checks: int, samples: dict) -> float:
    """Checks of one pass over the summed per-op median wall times."""
    return checks / sum(statistics.median(v) for v in samples.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool, references: dict,
                 small: bool = False, setup: SetupClock | None = None) -> dict:
    """Run one workload and return its result, metrics without units.  With a
    ``setup`` clock, set-up probes run between operations."""
    import workloads
    from tracer import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ops = workloads.make_ops(name, seed, workdir, small)
        tracer = Tracer() if trace else None
        ledger = Ledger(references)
        plain, traced = defaultdict(list), defaultdict(list)
        start = perf_counter()
        i = 0
        while i < len(ops) or perf_counter() - start < seconds:
            op, lap = ops[i % len(ops)], i // len(ops)
            i += 1
            if setup:
                setup.tick((perf_counter() - start) / seconds if seconds else 1.0)
            if not tracer:
                _append(plain[op.key], ledger.settle(op, lambda: _timed(op.run)))
                continue

            def run_traced():
                tracer.install()
                try:
                    return _timed(op.run)
                finally:
                    tracer.uninstall()

            # Alternate which of the pair runs first, so that neither side
            # alone pays for first-execution effects.
            op_id = tracer.begin(op.key)
            pair = [(plain, lambda: _timed(op.run)), (traced, run_traced)]
            for samples, run in pair if lap % 2 else pair[::-1]:
                _append(samples[op.key], ledger.settle(op, run))
            if op.key in ledger.first:
                tracer.add(op_id, ledger.first[op.key].counters)
        if setup:
            setup.finish()
        wall = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = ledger.checks_per_pass(ops)
    verdicts = ledger.first.values()
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["pairs.value_gap_max"] = max((v.gap for v in verdicts), default=0.0)
        metrics["trace.checks_per_s"] = _checks_per_s(checks, traced)
        metrics["trace.untraced_checks_per_s"] = _checks_per_s(checks, plain)
        metrics["trace.overhead_frac"] = (
            1.0 - metrics["trace.checks_per_s"] / metrics["trace.untraced_checks_per_s"])
    else:
        metrics = {
            "checks_per_s": _checks_per_s(checks, plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ratio_accuracy_min": 1.0 - max((v.relerr for v in verdicts), default=0.0),
            "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "wall_s": wall, "attempted": ledger.attempted, "failed": ledger.failed,
        "errors": ledger.errors, "metrics": metrics,
        "relerr": {k: v.relerr for k, v in ledger.first.items()},
        "op_seconds": {"untraced": dict(plain), "traced": dict(traced)},
        "values": {k: v.record for k, v in ledger.first.items()},
        "spans": tracer,
    }


# -- environment and output ---------------------------------------------------------


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "HOLONORM_THREADS": os.environ.get("HOLONORM_THREADS"),
            "commit": _git_commit(), "platform": platform.platform()}


def write_record(result: dict):
    """Values, witnesses, environment and failures; spans go to a JSONL file."""
    stem = os.path.join(OUT_DIR, f"{result['workload']}-seed{result['seed']}")
    tracer = result.pop("spans")
    if tracer:
        tracer.dump(stem + "-spans.jsonl")
    with open(f"{stem}-trace{result['trace']}.json", "w") as fh:
        json.dump({"environment": environment(), **result}, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["matrix-1d", "sweep-2d"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs for the self-tests; references are computed on the spot")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One caller, no threads: the library's single-threaded default.
    os.environ.pop("HOLONORM_THREADS", None)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        units = benchmark_metrics()["per_layer" if args.trace else "end_to_end"]
        use_checkout_source()
        import refs

        setup = None if args.trace else SetupClock(args.workload, args.seed)
        if args.small:
            table = refs.compute(args.workload, small=True)
        else:
            table = refs.load().get(args.workload, {})
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), table,
                              args.small, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup.times)
        result["setup_probe_s"] = setup.times
    write_record(result)
    for line in result["errors"]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
