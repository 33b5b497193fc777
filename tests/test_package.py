import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import qflab

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(qflab.__all__)) == len(qflab.__all__)
    missing = [name for name in qflab.__all__ if not hasattr(qflab, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from qflab import *", namespace)
    assert set(qflab.__all__) <= set(namespace)


def test_benchmark_hook_targets_resolve(tmp_path, monkeypatch):
    """Every function the benchmark's tracer wraps and every attribute a
    workload hooks must exist, or perfbench/ breaks on its next run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    missing = [(mod, attr) for mod, attr, _ in spans.FUNCTIONS
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [(mod, cls, attr) for mod, cls, attr, _ in spans.METHODS
                if not hasattr(getattr(importlib.import_module(mod), cls),
                               attr)]
    for name in workloads.WORKLOADS:
        hooks = workloads.build(name, 7, tmp_path).hooks(None)
        missing += [(name, mod.__name__, attr) for mod, attr, _ in hooks
                    if not hasattr(mod, attr)]
    assert missing == []


def run_script(*argv):
    """Run a script from the source tree, without a theta cache."""
    env = {k: v for k, v in os.environ.items() if k != "QFLAB_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_quotient_report_script():
    done = run_script("scripts/quotient_report.py", "--prec", "60")
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    agree = [line for line in done.stdout.splitlines() if "agree" in line]
    assert agree == ["  closed lattice sums agree to 60: True"] * 3


def test_reproduce_classification_script(tmp_path):
    """The script prints the same, timings aside, with no cache and with a
    cold and then a warm cache directory, which it fills."""
    # a search this small cannot reproduce the whole table, so it prints
    # "classification reproduced: False" and exits 1 by design
    argv = ("scripts/reproduce_classification.py", "--bound", "50",
            "--cmax", "12", "--search-bound", "20")
    outputs = []
    for extra in ((), ("--cache-dir", str(tmp_path)),
                  ("--cache-dir", str(tmp_path))):
        done = run_script(*argv, *extra)
        assert done.returncode in (0, 1), done.stderr
        assert "Traceback" not in done.stderr
        assert "classification reproduced:" in done.stdout
        outputs.append(re.sub(r" \[\d+\.\ds\]", "", done.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert list(tmp_path.glob("theta-*.json"))


def test_reproduce_classification_script_refuses_empty_cache_dir():
    done = run_script("scripts/reproduce_classification.py",
                      "--cache-dir", "")
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "cache directory must not be empty" in done.stderr
