"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

run.py starts this with `src` on PYTHONPATH.  It repeats passes of the
workload until the next pass would end after S seconds (but makes at
least the workload's min_passes), checks every output, and prints one
JSON object on its last line of output.  With --trace 1, passes
alternate untraced and traced so that the tracing overhead is measured
within the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from contextlib import contextmanager
from pathlib import Path
import time
from time import perf_counter

import numpy as np

import calibrate
import qflab
import spans
import workloads


class Recorder:
    """Times the calls a pass makes into qflab on a work clock that stops
    while the benchmark itself works: output checks run inside
    `untimed()`, and so do the calibration samples taken every
    calibrate.EVERY_S of timed work.  Each stretch of the clock is
    divided by the host's slowdown measured on both sides of it, so all
    times are in reference seconds (see calibrate.py)."""

    def __init__(self, kernel: str):
        self.paused = 0.0
        self.speed = calibrate.Speed(kernel)
        self.mark = self.cal_mark = self.raw()
        self.norm = 0.0
        self.new_pass()

    def new_pass(self):
        self.phase = "pass"
        self.busy: dict[str, float] = {}
        self.latencies = array("d")
        self.failed = 0
        self.factors = array("d")

    def raw(self) -> float:
        """Seconds of timed work so far, unscaled."""
        return perf_counter() - self.paused

    def clock(self) -> float:
        """Seconds of timed work so far, in reference seconds."""
        now = self.raw()
        before = self.speed.factor
        if now - self.cal_mark >= calibrate.EVERY_S:
            n = min(calibrate.WINDOW, int((now - self.cal_mark) / calibrate.EVERY_S))
            with self.untimed():
                self.speed.measure(n)
            self.cal_mark = now
            self.factors.append(self.speed.factor)
        self.norm += (now - self.mark) * 2 / (before + self.speed.factor)
        self.mark = now
        return self.norm

    @contextmanager
    def untimed(self):
        t = perf_counter()
        try:
            yield
        finally:
            self.paused += perf_counter() - t

    def _timed(self, fn, args, kwargs):
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.last = self.clock() - start
            self.busy[self.phase] = self.busy.get(self.phase, 0.0) + self.last

    def call(self, fn, *args, **kwargs):
        """A timed call into qflab; exceptions fail the pass."""
        return self._timed(fn, args, kwargs)

    def op(self, fn, *args, check, **kwargs):
        """A timed operation called directly; returns None if it raised."""
        try:
            result = self._timed(fn, args, kwargs)
        except Exception:
            traceback.print_exc()
            self.latencies.append(self.last)
            self.failed += 1
            return None
        self.latencies.append(self.last)
        self.check_last(lambda: check(result))
        return result

    def hooked_op(self, fn, *args, **kwargs):
        """An operation reached inside a timed call (see Workload.hooks)."""
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        finally:
            self.latencies.append(self.clock() - start)

    def check_last(self, thunk):
        """Check the output of the operation just recorded, untimed."""
        with self.untimed():
            ok = bool(thunk())
        if not ok:
            self.failed += 1


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "qflab": qflab.__version__, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def run(workload, seconds: float, traced_run: bool, out_dir: Path) -> dict:
    rec = Recorder(workload.calibration)
    tracer = spans.Tracer(rec.raw) if traced_run else None
    for module, attr, factory in workload.hooks(rec):
        setattr(module, attr, factory(getattr(module, attr)))
    env_start = environment()
    passes = []
    deadline = perf_counter() + seconds
    while True:
        traced = traced_run and len(passes) % 2 == 1
        rec.new_pass()
        start = perf_counter()
        if traced:
            tracer.install()
        try:
            outputs = workload.run_pass(rec)
            problems = workload.check_pass(outputs)
        except Exception as exc:
            traceback.print_exc()
            outputs, problems = None, [f"pass raised {exc!r}"]
        finally:
            if traced:
                tracer.uninstall()
        passes.append({
            "traced": traced, "wall": perf_counter() - start,
            "busy": rec.busy, "slowdown": list(rec.factors),
            "latencies": rec.latencies, "failed": rec.failed,
            "problems": problems,
            "digest": workloads.text_digest(json.dumps(outputs, sort_keys=True)),
        })
        if len(passes) >= workload.min_passes:
            next_traced = traced_run and len(passes) % 2 == 1
            like = [p["wall"] for p in passes if p["traced"] == next_traced]
            if perf_counter() + like[-1] > deadline:
                break
    attempted = failed = 0
    reference = passes[0]["digest"]
    for p in passes:
        if p["digest"] != reference:
            p["problems"].append("outputs differ from the first pass")
        n_ops = max(len(p["latencies"]), 1)
        attempted += n_ops
        failed += n_ops if p["problems"] else p["failed"]

    untraced = [p for p in passes if not p["traced"]]
    busy = [sum(p["busy"].values()) for p in untraced]
    result = {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0,
        "problems": sorted({msg for p in passes for msg in p["problems"]}),
        "passes": [{"traced": p["traced"], "raw_wall_s": p["wall"], "busy": p["busy"],
                    "ops": len(p["latencies"]),
                    "slowdown_median": (statistics.median(p["slowdown"])
                                        if p["slowdown"] else None)}
                   for p in passes],
        "calibration": {"kernel": workload.calibration,
                        "nominal_s": rec.speed.nominal_s,
                        "samples": len(rec.speed.log),
                        "median_s": statistics.median(rec.speed.log)},
        "env": {"start": env_start, "end": environment()},
        "inputs": workload.inputs(),
    }
    if not traced_run:
        # every pass makes the same operations in the same order; the
        # median over passes drops a stall of the host (or a misjudged
        # slowdown) that hits one sample, and every run has the same
        # number of samples
        timed = untraced[workload.warm_up_passes:workload.min_passes]
        per_op = [statistics.median(samples) * 1e3
                  for samples in zip(*(p["latencies"] for p in timed))]
        lat = sorted(per_op)
        q_tail = min(0.99, 1 - 10 / workload.ops_per_pass)
        if "cold" in untraced[0]["busy"]:
            cold = statistics.median(p["busy"].get("cold", 0.0) for p in untraced)
            warm = statistics.median(p["busy"].get("warm", 0.0) for p in untraced)
        else:
            cold = busy[0]
            warm = statistics.median(busy[1:])
        result["tail_percentile"] = round(100 * q_tail, 2)
        result["op_samples"] = len(lat)
        result["op_latencies_ms"] = [[float(f"{v * 1e3:.4g}") for v in p["latencies"]]
                                     for p in timed]
        result["metrics"] = {
            "wall_s": statistics.median(busy),
            "op_p50_ms": statistics.median(lat) if lat else 0.0,
            "op_tail_ms": percentile(lat, q_tail) if lat else 0.0,
            "cold_s": cold,
            "warm_s": warm,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        traced_walls = [sum(p["busy"].values()) for p in passes if p["traced"]]
        metrics = tracer.metrics(len(traced_walls))
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls)
            / statistics.median(busy[workload.warm_up_passes:] or busy) - 1)
        result["metrics"] = metrics
        result["spans"] = len(tracer.name)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{workload.seed}.npz")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.environ.pop("QFLAB_CACHE", None)
    workload = workloads.build(args.workload, args.seed, args.out_dir)
    if args.setup_only:
        print(time.monotonic())
        return 0
    result = run(workload, args.seconds, bool(args.trace), args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
