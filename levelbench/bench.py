"""Workloads, closed loop and metrics of the level-recovery benchmark.

run.py is the entry point; this module has no side effects on import, so
the tests can drive the same operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from . import checks, reference
from .spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_exact", "sweep_shots", "analyse_long")
E2E_UNITS = {"setup_s": "s", "level_set_s": "s", "level_sets_per_s": "1/s",
             "peak_rss_mb": "MB"}
#: per-layer metrics timed by the loop itself, beside spans.LAYER_METRICS
TRACE_METRICS = ("trace.level_set_s", "trace.overhead_s")
WORK_DIR = ROOT / ".levelbench"


def import_qdosc():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qdosc" / "__init__.py").is_file():
        raise SystemExit(f"error: no qdosc package under {src}")
    sys.path.insert(0, str(src))
    import qdosc.cli
    import qdosc.spectral
    if Path(qdosc.__file__).resolve().parent != src / "qdosc":
        raise SystemExit(f"error: imported qdosc from {qdosc.__file__}, not {src}")
    return qdosc


class Sweep:
    """One `qdosc spectrum` call per point, in-process, default sampling."""

    def __init__(self, qdosc, seed: int, shots: bool, outdir: Path):
        self.qdosc, self.shots, self.outdir = qdosc, shots, outdir
        self.round = reference.parameter_points(seed)
        self.checker = checks.SweepChecker(checks.TOL_SHOTS if shots else checks.TOL_EXACT)

    def argv(self, p: reference.Point) -> list[str]:
        argv = ["spectrum", "--model", p.model, "--q", repr(p.q), "--out", str(self.outdir)]
        if p.model == "ho":
            argv += ["--gamma", repr(p.gamma)]
        if p.model == "ao":
            argv += ["--delta", repr(p.delta)]
        if self.shots:
            argv += ["--shots", str(reference.SHOTS), "--seed", str(p.shot_seed)]
        return argv

    def __call__(self, p: reference.Point, tracer: Tracer | None) -> list[str]:
        csv_path = self.outdir / f"spectrum_{p.model}.csv"
        manifest_path = self.outdir / "run_manifest.json"
        for path in (csv_path, manifest_path):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(out):
            try:
                code = self.qdosc.cli.main(self.argv(p))
            except SystemExit as exc:
                code = exc.code
        seen = tracer.count("spectral.sample_series") if tracer else None
        problems = self.checker.problems(p, code, _read(csv_path), _read(manifest_path), seen)
        if problems and out.getvalue():
            problems.append(f"output: {out.getvalue().strip()[-300:]}")
        return problems


class AnalyseLong:
    """dft_real + detect_levels on a long noisy series, with the CLI's settings."""

    def __init__(self, qdosc, seed: int):
        self.qdosc = qdosc
        self.round = []
        for p in reference.parameter_points(seed):
            dt, samples = reference.long_series(p)
            self.round.append((qdosc.spectral.TimeSeries(dt=dt, samples=samples),
                               reference.reference_levels(p)))

    def __call__(self, item, tracer: Tracer | None) -> list[str]:
        ts, planted = item
        spectral, cli = self.qdosc.spectral, self.qdosc.cli
        spec = spectral.dft_real(ts, window=cli.PIPELINE_WINDOW)
        levels = spectral.detect_levels(spec, 4, cli.PIPELINE_PROMINENCE)
        return checks.level_problems(levels.levels, planted, checks.TOL_LONG)


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _attempt(op, item, tracer) -> list[str]:
    try:
        return op(item, tracer)
    except Exception as exc:  # a crash in the program is a failed operation
        return [f"{type(exc).__name__}: {exc}"]


def measure(op, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop over whole rounds until `seconds` have passed.

    Returns the wall time of every operation, keyed by whether it was
    traced.  With a tracer, rounds alternate untraced and traced, ending on
    a traced one, so both kinds get the same number.
    """
    ops = {False: [], True: []}
    failed = 0
    traced = False
    start = time.perf_counter()
    while True:
        for item in op.round:
            t = time.perf_counter()
            if traced:
                with tracer.installed(len(ops[True])):
                    problems = _attempt(op, item, tracer)
            else:
                problems = _attempt(op, item, None)
            ops[traced].append(time.perf_counter() - t)
            if problems:
                failed += 1
                print(f"failed: {item!r:.120}: {'; '.join(problems)}", file=sys.stderr)
        done = time.perf_counter() - start >= seconds
        if tracer is not None:
            traced = not traced
            done = done and not traced
        if done:
            break
    return {"ops": ops, "failed": failed,
            "attempted": len(ops[False]) + len(ops[True])}


def level_set_time(op_times: list[float], per_round: int) -> float:
    """Mean over the round's points of each point's fastest operation.

    The fastest rather than the median: on a shared host the CPU runs for
    tens of seconds at a time up to 1.9x slower, and a median or quartile
    follows whichever speed held for most of the run.  The fastest repeat
    is the cost of the work itself, as with timeit.
    """
    return statistics.fmean(min(op_times[i::per_round]) for i in range(per_round))


def main(argv: list[str], t0: float) -> int:
    """Run one workload; t0 is the perf_counter reading at process start."""
    parser = argparse.ArgumentParser(prog="levelbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qdosc = import_qdosc()
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=WORK_DIR))
    try:
        t_inputs = time.perf_counter()
        if args.workload == "analyse_long":
            op = AnalyseLong(qdosc, args.seed)
        else:
            op = Sweep(qdosc, args.seed, args.workload == "sweep_shots", scratch)
        inputs_s = time.perf_counter() - t_inputs
        problems = _attempt(op, op.round[0], None)
        if problems:
            raise SystemExit(f"error: warm-up operation failed: {'; '.join(problems)}")
        setup_s = time.perf_counter() - t0 - inputs_s
        tracer = Tracer() if args.trace else None
        run = measure(op, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops, k = run["ops"], len(op.round)
    if tracer is None:
        level_set_s = level_set_time(ops[False], k)
        values = {
            "setup_s": setup_s,
            "level_set_s": level_set_s,
            # one thread, closed loop, no work between operations: the rate
            # is the completed share over the time of one operation
            "level_sets_per_s": (1.0 - run["failed"] / run["attempted"]) / level_set_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    else:
        # means, like the per-layer sums, so that the layers add up to it
        traced = statistics.fmean(ops[True])
        values = tracer.layer_metrics(len(ops[True]))
        values.update(zip(TRACE_METRICS, (traced, traced - statistics.fmean(ops[False]))))
        metrics = {name: {"value": v, "unit": "s" if name.endswith("_s") else "count"}
                   for name, v in values.items()}
        tracer.dump(WORK_DIR / f"spans-{args.workload}.jsonl")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0

