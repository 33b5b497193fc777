"""qflab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload table1-600 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from `src/`,
so nothing needs installing.  Set-up (interpreter start, `import qflab`,
building the seeded inputs and loading the references) is timed in
SETUP_RUNS separate processes and reported as the median.  The workload
then runs in one more fresh process (worker.py).  Every time is in
reference seconds: measured, then scaled by the host's slowdown (see
calibrate.py).  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json; with --trace 1 the per-layer ones (see README.md).  A
full record of the run, with the generated inputs and the environment,
goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 170



def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QFLAB_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qflab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qflab" / "__init__.py").is_file():
        print(f"error: no qflab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", str(OUT_DIR)]

    speed = calibrate.Speed()
    setups, raw_setups = [], []
    for _ in range(SETUP_RUNS):
        # the worker prints the monotonic clock (shared by all processes)
        # once set-up is done; waiting with a timeout polls, so the exit
        # time itself would be coarse.  The host's speed is measured just
        # before and after, and the time scaled by it (see calibrate.py).
        speed.measure(calibrate.WINDOW)
        before = speed.factor
        start = time.monotonic()
        done = subprocess.run(worker + ["--setup-only"], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT)
        if done.returncode != 0:
            print("error: set-up failed", file=sys.stderr)
            return 1
        raw = float(done.stdout.split()[-1]) - start
        speed.measure(calibrate.WINDOW)
        raw_setups.append(raw)
        setups.append(raw * 2 / (before + speed.factor))

    done = subprocess.run(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    record["setup_runs_s"] = setups
    record["setup_runs_raw_s"] = raw_setups

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]
    values = dict(record["metrics"], setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    summary = {"workload": args.workload, "seed": args.seed,
               "passes": len(record["passes"]),
               "fail_frac": record["failed"] / record["attempted"],
               "problems": record["problems"], "record": str(path.relative_to(ROOT))}
    if not args.trace:
        summary["op_samples"] = record["op_samples"]
        summary["op_tail_percentile"] = record["tail_percentile"]
    else:
        summary["spans"] = record["spans"]
    print(json.dumps(summary))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
