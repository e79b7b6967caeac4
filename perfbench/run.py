"""Benchmark of bincyclic: one workload per process, one thread.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations for about ``--seconds``,
checks every output, and prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (wall_s, calibrated_s,
setup_s, peak_rss_mb); with ``--trace 1`` they are the per-layer ones
from a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One thread everywhere: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import PER_LAYER, TICK, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The reference loop: a fixed pure-Python loop whose speed tracks the
#: host's.  A "block" of it runs between ops; one "tick" (a tenth of a
#: block) runs every TICK_INTERVAL_S during an op, from a timer signal, so
#: ops longer than the host's speed swings are calibrated by what happened
#: during them.  NOMINAL_BLOCK_S is the block's median over 1400 back-to-back
#: runs on the reference machine (2 cores, CPython 3.11.7).
BLOCK_STEPS = 100_000
TICK_STEPS = BLOCK_STEPS // 10
NOMINAL_BLOCK_S = 0.0293
TICK_INTERVAL_S = 0.2
#: Fresh processes timed for setup_s; the metric is their median.
SETUP_PROBES = 9
DEFAULT_SEED = 1


def reference_loop(steps: int) -> float:
    """Seconds per step of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x, acc = 1, 0
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x >> 7
    dt = time.perf_counter() - t0
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError
    return dt / steps


class TickSampler:
    """Runs one reference tick every TICK_INTERVAL_S while armed.

    The ticks run in the main thread from a SIGALRM handler, between the
    op's bytecodes; ``stolen`` is the time they took, which the op's timing
    leaves out.
    """

    def __init__(self, tracer=None):
        self.ticks: list[float] = []
        self.stolen = 0.0
        self._saved = None
        self._tracer = tracer

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        with self._tracer.span(TICK) if self._tracer else contextlib.nullcontext():
            self.ticks.append(reference_loop(TICK_STEPS))
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self.ticks.clear()
        self.stolen = 0.0
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_program():
    """Import bincyclic from this checkout's ``src`` and nowhere else."""
    if not (SRC / "bincyclic" / "__init__.py").is_file():
        raise SystemExit(f"error: no bincyclic sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bincyclic
    import bincyclic.cli  # noqa: F401  (the CLI ops look it up in sys.modules)

    if Path(bincyclic.__file__).resolve().parent != SRC / "bincyclic":
        raise SystemExit(f"error: imported bincyclic from {bincyclic.__file__}, not {SRC}")


class RunStats:
    def __init__(self):
        self.round_wall: list[float] = []
        self.round_calibrated: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0


def run_rounds(wl, seconds: float, stats: RunStats, tracer=None) -> None:
    """Whole rounds until the next one would end after ``seconds``.

    Each op is timed alone.  Its calibrated time divides its wall time by
    the mean seconds-per-step of the reference blocks just before and just
    after it and of the ticks taken during it, then multiplies by the
    nominal seconds-per-step.  CLI output stays in unnamed files until peak
    RSS has been read after the first round, and the checks come after
    that, so neither adds to that figure.  A later output identical to one
    already checked keeps that verdict.
    """
    begin = time.perf_counter()
    sampler = TickSampler(tracer)
    verdicts: dict[str, tuple[bytes, list[str]]] = {}
    nominal = NOMINAL_BLOCK_S / BLOCK_STEPS
    before = reference_loop(BLOCK_STEPS)
    while True:
        state: dict = {}
        outputs = []
        wall = calibrated = 0.0
        round_begin = time.perf_counter()
        for op in wl.ops:
            span = tracer.span("op:" + op.name) if tracer else contextlib.nullcontext()
            error = None
            with sampler:
                t0 = time.perf_counter()
                try:
                    with span:
                        out = op.run(state)
                except Exception:  # an op that raises is counted as failed
                    out, error = None, traceback.format_exc()
                dt = time.perf_counter() - t0 - sampler.stolen
            after = reference_loop(BLOCK_STEPS)
            speed = statistics.fmean([before, after, *sampler.ticks])
            wall += dt
            calibrated += dt * nominal / speed
            before = after
            outputs.append((op, out, error))
        round_time = time.perf_counter() - round_begin
        if not stats.round_wall:
            stats.peak_rss_mb = peak_rss_mb()
        for op, out, error in outputs:
            stats.attempted += 1
            out = workloads.collect(out)
            if error is None and workloads.op_failed(out):
                error = f"exit code {out.rc}: {out.err.strip()}"
            if error is not None:
                stats.failed += 1
                if stats.failed == 1:
                    print(f"[{wl.name}] {op.name} failed:\n{error}", file=sys.stderr)
                continue
            digest = (hashlib.sha256(out.out.encode()).digest()
                      if isinstance(out, workloads.CliResult) else None)
            seen = verdicts.get(op.name)
            if digest is not None and seen is not None and seen[0] == digest:
                problems = seen[1]
            else:
                problems = op.check(out, state)
                verdicts[op.name] = (digest, problems)
            stats.problems += [f"{op.name}: {p}" for p in problems]
        del outputs, state
        stats.round_wall.append(wall)
        stats.round_calibrated.append(calibrated)
        if time.perf_counter() - begin + round_time > seconds:
            return


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and calibrated times of fresh processes that start, import and
    build the inputs.  They run on this process's CPU, between reference
    blocks timed here."""
    nominal = NOMINAL_BLOCK_S / BLOCK_STEPS
    wall, calibrated = [], []
    before = reference_loop(BLOCK_STEPS)
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        wall.append(time.perf_counter() - t0)
        after = reference_loop(BLOCK_STEPS)
        calibrated.append(wall[-1] * nominal / ((before + after) / 2))
        before = after
    return wall, calibrated


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    if args.setup_probe:
        workloads.BUILDERS[args.workload](args.seed)
        return 0

    # One CPU for the whole run, probes included: the two CPUs' speeds drift
    # apart, and calibration needs the reference and the work on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_wall, setup = ([], []) if args.trace else time_setup(args.workload, args.seed)
    wl = workloads.BUILDERS[args.workload](args.seed)
    stats = RunStats()
    if args.trace:
        # Untraced and traced halves; their difference is the tracing overhead.
        run_rounds(wl, args.seconds / 2, stats)
        untraced = statistics.median(stats.round_wall)
        untraced_cal = statistics.median(stats.round_calibrated)
        stats.round_wall.clear()
        stats.round_calibrated.clear()
        tracer = Tracer()
        tracer.install()
        try:
            run_rounds(wl, args.seconds / 2, stats, tracer)
        finally:
            tracer.uninstall()
        traced = statistics.median(stats.round_wall)
        # Calibrated round times, so the host's drift between the halves
        # does not pass for tracing cost.
        overhead = statistics.median(stats.round_calibrated) - untraced_cal
        values = tracer.per_layer(len(stats.round_wall), overhead)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        units = dict(PER_LAYER)
        metrics = {name: metric(values[name], units[name]) for name, _ in PER_LAYER}
        print(f"[{args.workload}] traced round {traced:.3f} s, untraced {untraced:.3f} s",
              file=sys.stderr)
        for name, _ in PER_LAYER:
            print(f"  {name:32s} {values[name]:14.6g} {units[name]}", file=sys.stderr)
    else:
        run_rounds(wl, args.seconds, stats)
        metrics = {
            "calibrated_s": metric(statistics.median(stats.round_calibrated), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(stats.peak_rss_mb, "MB"),
        }
        print(f"[{args.workload}] {len(stats.round_wall)} round(s): wall "
              + ", ".join(f"{w:.3f}" for w in stats.round_wall) + " s, calibrated "
              + ", ".join(f"{w:.3f}" for w in stats.round_calibrated) + " s; setup wall "
              + ", ".join(f"{s:.3f}" for s in setup_wall) + " s", file=sys.stderr)
    for problem in stats.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not stats.problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
