import importlib
import os
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


def test_reproduce_classification_script():
    # a search this small cannot reproduce the whole table, so it prints
    # "classification reproduced: False" and exits 1 by design
    done = run_script("scripts/reproduce_classification.py", "--bound", "50",
                      "--cmax", "12", "--search-bound", "20")
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines()[-1] == "classification reproduced: False"


def test_reproduce_classification_script_refuses_empty_cache_dir():
    """The script sees only diagonal forms and takes no cache, so
    --cache-dir, empty or not, is a usage error."""
    done = run_script("scripts/reproduce_classification.py",
                      "--cache-dir", "")
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "unrecognized arguments: --cache-dir" in done.stderr


def test_failing_hypothesis_test_reports_its_traceback(tmp_path):
    """A failing @given test fails on its own under the project's pytest
    settings: the run goes on to the next test, with no INTERNALERROR
    from a warning raised while hypothesis reports the failure."""
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
        "\n"
        "def test_passes():\n"
        "    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
    assert "assert n < 5" in done.stdout
