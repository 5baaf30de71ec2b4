"""Benchmark of idealdec: one workload per process, on one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: idealdec is imported from ./src.
The run sets up its inputs five times (a fresh import of idealdec, input
generation, generator files), then runs whole rounds of the workload's
operations until the next round would end past ``--seconds`` (at least one
round), then checks every output.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported in seconds at a fixed reference speed.  The speed of the
shared machine this benchmark was built on drifts by up to 1.8x over
minutes, and slow phases outlast a run, which moved the median round (and
the fastest) by 25-47% between runs.  So a fixed reference computation is
timed before and after every timed interval, and the interval is scaled by
REFERENCE_NOMINAL_S over the mean of those two timings.  The raw times are
kept in bench/_work/<workload>/run.json.

With ``--trace 0`` the metrics are the end-to-end ones: setup_s (median
set-up), wall_s and cpu_s (median round), peak_rss_mb.  With ``--trace 1``
untraced rounds run for half the time and traced rounds for the other
half; the metrics are the per-layer ones of spans.METRICS: counts from the
first traced round, scaled times as medians over traced rounds, and the
median scaled traced round and its excess over the median scaled untraced
round.  Work files and the trace go to bench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# one reference timing on this machine in its fast phase
REFERENCE_NOMINAL_S = 0.015
_REFERENCE_POLY = {(i % 5, i % 7, i % 3): Fraction(i + 1, i % 4 + 1) for i in range(40)}


def _reference_work() -> None:
    for _ in range(3):
        out = {}
        for ea, ca in _REFERENCE_POLY.items():
            for eb, cb in _REFERENCE_POLY.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = out.get(e, 0) + ca * cb


def reference_seconds() -> float:
    """The median of three timings of a fixed pure-Python computation in
    idealdec's style: sparse products of Fraction polynomials."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedScale:
    """Scales for consecutive intervals: each interval's scale is
    REFERENCE_NOMINAL_S over the mean of the reference timings taken just
    before and just after it."""

    def __init__(self):
        self.before = reference_seconds()
        self.reference = [self.before]

    def next(self) -> float:
        after = reference_seconds()
        self.reference.append(after)
        scale = REFERENCE_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return scale


def load_idealdec() -> SimpleNamespace:
    """Import idealdec afresh from the checkout, dropping any earlier copy,
    so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "idealdec" or n.startswith("idealdec.")]:
        del sys.modules[name]
    lib = SimpleNamespace(
        cli=importlib.import_module("idealdec.cli"),
        ideals=importlib.import_module("idealdec.ideals"),
        rings=importlib.import_module("idealdec.rings"),
        domains=importlib.import_module("idealdec.domains"),
    )
    if not Path(lib.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"idealdec imported from {lib.cli.__file__}, not from the checkout")
    return lib


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_round(jobs, out_dir: Path, speed: SpeedScale) -> dict:
    """Run every job once: raw wall and cpu seconds, their speed scale, and
    the outcomes."""
    out_dir.mkdir(parents=True)
    gc.collect()
    outcomes = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for k, job in enumerate(jobs):
        out = out_dir / f"{k:03d}-{job.name}.out"
        try:
            outcomes.append((job, out, job.run(out), None))
        except Exception as ex:  # a failed operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            outcomes.append((job, out, None, ex))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    return {"wall": wall, "cpu": cpu, "scale": speed.next(), "outcomes": outcomes}


def traced_round(jobs, out_dir: Path, speed: SpeedScale) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_round(jobs, out_dir, speed)
    finally:
        tracer.uninstall()
    result["summary"] = tracer.summary()
    return result


def run_rounds(jobs, work: Path, seconds: float, speed: SpeedScale, one_round=run_round):
    """Run whole rounds until the next one would end past ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(one_round(jobs, work / str(len(rounds)), speed))
        if time.perf_counter() - start + rounds[-1]["wall"] > seconds:
            return rounds


def scaled(intervals, key: str) -> float:
    """The median interval in seconds at the reference speed."""
    return statistics.median(r[key] * r["scale"] for r in intervals)


def check(rounds):
    """Check every outcome; return (attempted, failed, all checks passed)."""
    attempted = failed = 0
    correct = True
    for r in rounds:
        for job, out, value, error in r["outcomes"]:
            attempted += 1
            if error is not None:
                failed += 1
                continue
            try:
                problems = job.check(value, out)
            except Exception as ex:  # a broken output can break its parser
                problems = [f"check raised {type(ex).__name__}: {ex}"]
            if problems:
                failed += 1
                correct = False
                print(f"{job.name}: " + "; ".join(problems), file=sys.stderr)
    return attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "idealdec" / "__init__.py").is_file():
        print(f"no idealdec sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))

    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    make_jobs = workloads.WORKLOADS[args.workload]
    speed = SpeedScale()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = load_idealdec()
        jobs = make_jobs(lib, args.seed, work)
        setups.append({"wall": time.perf_counter() - t0, "scale": speed.next()})

    if args.trace:
        untraced = run_rounds(jobs, work / "untraced", args.seconds / 2, speed)
        traced = run_rounds(jobs, work / "traced", args.seconds / 2, speed, traced_round)
        summaries = [r["summary"] for r in traced]
        metrics = {}
        for name, unit in spans.METRICS:
            if name == "trace.wall_s":
                value = scaled(traced, "wall")
            elif name == "trace.overhead_s":
                value = scaled(traced, "wall") - scaled(untraced, "wall")
            elif unit == "count":
                value = summaries[0].get(name, 0)
            else:
                value = statistics.median(r["summary"].get(name, 0.0) * r["scale"] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        (work / "trace.json").write_text(json.dumps(summaries, indent=1, sort_keys=True))
        for s in summaries[1:]:
            for name, value in s.items():
                if name.endswith(".calls") and value != summaries[0].get(name):
                    print(f"trace: {name} differs between rounds", file=sys.stderr)
        rounds = untraced + traced
    else:
        rounds = run_rounds(jobs, work / "rounds", args.seconds, speed)
        metrics = {
            "setup_s": {"value": scaled(setups, "wall"), "unit": "s"},
            "wall_s": {"value": scaled(rounds, "wall"), "unit": "s"},
            "cpu_s": {"value": scaled(rounds, "cpu"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    (work / "run.json").write_text(json.dumps({
        "setups": setups,
        "rounds": [{k: r[k] for k in ("wall", "cpu", "scale")} for r in rounds],
        "reference_s": speed.reference,
    }, indent=1))

    attempted, failed, correct = check(rounds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
