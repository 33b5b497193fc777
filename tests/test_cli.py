import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qflab import cli, theta
from qflab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_theta_json(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "--form", "1,2,3,10",
                               "--prec", "3", "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"D": 1, "prec": 3, "coeffs": [1, 2, 2, 6]}

    def test_theta_csv(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "--form", "1,1,1,1",
                               "--prec", "2", "--out", "csv")
        assert code == 0
        assert out.splitlines() == ["n,r", "0,1", "1,8", "2,24"]

    def test_sreg_pass_and_fail_exit_codes(self, capsys):
        code, out, _ = run_cli(capsys, "sreg", "--form", "1,1,1,1",
                               "--bound", "50")
        assert code == 0 and "pass" in out
        code, out, _ = run_cli(capsys, "sreg", "--form", "1,2,3,3",
                               "--bound", "50", "--out", "json")
        assert code == 1
        data = json.loads(out)
        assert data["counterexample"]["n"] == 10

    def test_sreg_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sreg", "--form", "1,2,3,3",
                               "--bound", "20", "--out", "csv")
        assert code == 1
        assert out == ('form,dF,ms,verdict,witness_n,expected,actual\r\n'
                       '"1,2,3,3",288,1,fail,10,210,146\r\n')

    def test_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "sreg", "--form", "1,2,x")
        assert code == 2 and "error" in err
        with pytest.raises(SystemExit) as exc:
            main(["sreg"])  # missing --form
        assert exc.value.code == 2

    @pytest.mark.parametrize("literal", [
        '{"hessian": [[2.9,0,0,0],[0,2,0,0],[0,0,4,0],[0,0,0,6]]}',
        '{"rank": 2}',
        '{"hessian": [1, 2]}',
        '{"hessian": [[2,true,0,0],[true,2,0,0],[0,0,2,0],[0,0,0,2]]}',
        '{"rank": true, "hessian": [[2]]}',
        '{"rank": 2.0, "hessian": [[2,1],[1,2]]}',
        '{"hessian": [[2,1],',
    ])
    def test_malformed_form_literal_is_a_usage_error(self, capsys, literal):
        code, out, err = run_cli(capsys, "sreg", "--form", literal,
                                 "--bound", "30")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_capacity_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def overflow(args):
            raise OverflowError("theta convolution would exceed int64")

        monkeypatch.setattr(cli, "_dispatch", overflow)
        code, out, err = run_cli(capsys, "sreg", "--form", "1,2,3,10")
        assert code == 3 and out == ""
        assert "capacity limit" in err

    def test_capacity_error_from_a_theta_product(self, capsys, monkeypatch):
        monkeypatch.delenv("QFLAB_CACHE", raising=False)
        monkeypatch.setattr(theta, "_INT64_GUARD", 100)
        code, out, err = run_cli(capsys, "theta", "--form", "1,2,3,10",
                                 "--prec", "50")
        assert code == 3 and out == ""
        assert "capacity limit" in err and "int64" in err

    def test_capacity_error_from_a_dot_query_build(self, capsys,
                                                   monkeypatch):
        monkeypatch.delenv("QFLAB_CACHE", raising=False)
        monkeypatch.setattr(theta, "_QUERY_GUARD", 100)
        code, out, err = run_cli(capsys, "sreg", "--form", "1,2,3,10",
                                 "--bound", "50")
        assert code == 3 and out == ""
        assert "2^53" in err

    def test_sreg_ms_unknown_past_the_fallback_cap(self, capsys):
        """No represented square up to the m_s cap of 100 is not a usage
        error: the check passes and ms is null."""
        code, out, err = run_cli(capsys, "sreg", "--form", "101,101,101,101",
                                 "--bound", "20", "--out", "json")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["verdict"] == "pass" and data["ms"] is None
        code, out, _ = run_cli(capsys, "sreg", "--form", "101,101,101,101",
                               "--bound", "20", "--out", "csv")
        assert code == 0
        assert out.splitlines()[1] == '"101,101,101,101",1664966416,,pass,,,'
        code, out, _ = run_cli(capsys, "sreg", "--form", "101,101,101,101",
                               "--bound", "101", "--out", "json")
        assert code == 0 and json.loads(out)["ms"] == 101

    @pytest.mark.parametrize("argv", [
        ("theta", "--form", "1,1", "--prec", "5"),
        ("sreg", "--form", "1,2,3,10", "--bound", "5"),
        ("verify", "table1", "--bound", "50"),
    ], ids=["theta", "sreg", "verify"])
    def test_unusable_cache_dir_is_a_usage_error(self, capsys, tmp_path,
                                                 argv):
        """A regular file as the cache directory, or a path under one,
        exits 2 with one error line naming the path and the OS reason."""
        path = tmp_path / "not-a-dir"
        path.write_text("")
        for cache_dir, reason in ((path, "File exists"),
                                  (path / "x", "Not a directory")):
            code, out, err = run_cli(capsys, *argv, "--cache-dir",
                                     str(cache_dir))
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert str(cache_dir) in err and reason in err

    @pytest.mark.parametrize("argv", [
        ("theta", "--form", "1,1", "--prec", "4"),
        ("sreg", "--form", "1,2,3,10", "--bound", "5"),
        ("verify", "table1", "--bound", "50"),
    ], ids=["theta", "sreg", "verify"])
    def test_empty_cache_dir_is_a_usage_error(self, capsys, tmp_path,
                                              monkeypatch, argv):
        """An empty --cache-dir exits 2 with one error line and writes no
        entry into the current directory."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--cache-dir", "")
        assert code == 2 and out == ""
        assert err == "error: cache directory must not be empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--form", "1,3,3,9",
                               "--n", "3")
        assert code == 0
        assert out.strip() == "3,1,1,3"

    def test_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--form", "1,2,3", "-p", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize("form, prime", [
        ("1,1,3", "4"),
        ("1,1,9", "9"),
        ('{"hessian": [[2,1,0],[1,6,0],[0,0,18]]}', "9"),
    ])
    def test_gamma_needs_an_odd_prime(self, capsys, form, prime):
        code, out, err = run_cli(capsys, "gamma", "--form", form, "-p", prime)
        assert code == 2 and out == ""
        assert err == f"error: {prime} is not an odd prime\n"

    def test_gamma_prime_one_fails_instead_of_hanging(self):
        # a subprocess, so that a hang fails this test by its timeout
        # instead of stopping the whole suite
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "qflab.cli", "gamma", "--form", "1,1,3",
             "-p", "1"], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr == "error: 1 is not an odd prime\n"

    def test_reader_closing_stdout_is_not_a_cache_fault(self):
        """A reader that stops after one line, as `| head -1` does, ends
        the run with status 141 and an empty stderr: no cache wording, no
        traceback and no "Exception ignored" line.  The output is far
        larger than a pipe buffer, so the writer meets the closed pipe."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qflab.cli", "theta", "--form", "1,1",
             "--prec", "200000", "--out", "csv"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with proc:
            assert proc.stdout.readline() == "n,r\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""

    def test_eta_json(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--quotient", "2:2,15:3,1:-1",
                               "--level", "120", "--prec", "20",
                               "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data["weight"] == "2"
        assert data["isCuspForm"] is True
        assert data["series"]["coeffs"][2] == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_eta_negative_leading_exponent_prints_nothing(self, capsys, fmt):
        code, out, err = run_cli(capsys, "eta", "--quotient", "1:-1",
                                 "--level", "1", "--prec", "450",
                                 "--out", fmt)
        assert code == 2 and out == ""
        assert err == "error: negative leading exponent: no printable expansion\n"

    @pytest.mark.parametrize("text, chunk", [
        ("1", "'1'"), ("1:x", "'1:x'"), ("", "''"), ("1:1,,", "''"),
        ("2:2,15:3:1", "'15:3:1'"),
    ])
    def test_eta_malformed_quotient_names_the_chunk(self, capsys, text, chunk):
        code, out, err = run_cli(capsys, "eta", "--quotient", text,
                                 "--level", "120")
        assert code == 2 and out == ""
        assert err == (f"error: malformed exponent {chunk}: expected delta:r, "
                       "such as 15:3 or 1:-1\n")

    def test_eta_has_no_csv(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--quotient", "1:1", "--level", "1", "--out", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_sturm(self, capsys):
        code, out, _ = run_cli(capsys, "sturm", "--level", "120",
                               "--weight", "2")
        assert code == 0 and out.strip() == "48"

    def test_verify_lemma54(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma54", "--prec", "60",
                               "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"

    def test_verify_table1_quick(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "table1", "--bound", "50",
                               "--cache-dir", str(tmp_path), "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert len(data["checks"]) == 37  # 36 forms + group count line
        assert list(tmp_path.glob("theta-*.json"))

    @pytest.mark.parametrize("argv", [
        ("props", "--bound", "5"),
        ("props", "--cache-dir", "D"),
        ("lemma54", "--nmax", "5"),
        ("table1", "--prec", "5"),
    ], ids=["props-bound", "props-cache-dir", "lemma54-nmax", "table1-prec"])
    def test_verify_suite_refuses_other_suites_options(self, capsys, argv):
        """Each suite accepts only its own options: another suite's option
        is a usage error before anything runs."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err

    def test_search_text(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--cmax", "3",
                               "--bound", "50")
        assert code == 0
        assert "9 survivors" in out

    def test_search_csv(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--cmax", "2",
                               "--bound", "50", "--out", "csv")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header.startswith("form,dF,ms,verdict")
        assert all(",pass," in row for row in rows)


def readme_cli_examples():
    """(argv, expected exit code) of each qflab line in the sh block under
    "## CLI" in README.md; "exit 1" in a line's comment expects 1."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    examples = []
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv and argv[0] == "qflab":
            examples.append((argv[1:], 1 if "exit 1" in comment else 0))
    assert examples, "no qflab line in the sh block under ## CLI"
    return examples


# test_criterion_7_search already runs a search of that size
README_EXAMPLES = [(argv, code) for argv, code in readme_cli_examples()
                   if argv[:3] != ["search", "--cmax", "121"]]


@pytest.mark.parametrize("argv, code", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_cli_examples(capsys, monkeypatch, argv, code):
    monkeypatch.delenv("QFLAB_CACHE", raising=False)
    assert run_cli(capsys, *argv)[0] == code
