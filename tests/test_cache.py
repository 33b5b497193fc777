import base64
import hashlib
import json
import logging
import zlib

import numpy as np
import pytest

import qflab.cache
import qflab.theta
from qflab.cache import cache_theta, form_hash, make_cache, resolve_cache_dir
from qflab.cli import main
from qflab.forms import QuadForm
from qflab.regularity import is_strongly_s_regular
from qflab.theta import theta_coeffs
from qflab.verify import run_table1


def _decode(payload: str) -> np.ndarray:
    return np.frombuffer(zlib.decompress(base64.b64decode(payload)),
                         dtype="<i8").copy()


def _encode(body: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(body.astype("<i8").tobytes())).decode()


@pytest.fixture
def form():
    return QuadForm.diagonal((1, 2, 3, 10))


class TestCacheTheta:
    def test_roundtrip(self, form, tmp_path):
        first = cache_theta(form, 100, tmp_path).tolist()
        assert first == theta_coeffs(form, 100)
        files = list(tmp_path.glob("theta-*.json"))
        assert len(files) == 1
        assert cache_theta(form, 100, tmp_path).tolist() == first

    def test_smaller_precision_is_prefix(self, form, tmp_path):
        full = cache_theta(form, 120, tmp_path).tolist()
        assert cache_theta(form, 40, tmp_path).tolist() == full[:41]
        # only one file per isometry class
        assert len(list(tmp_path.glob("theta-*.json"))) == 1

    def test_isometric_forms_share_entries(self, form, tmp_path):
        permuted = QuadForm.diagonal((3, 10, 1, 2))
        assert form_hash(form) == form_hash(permuted)
        cache_theta(form, 60, tmp_path)
        assert cache_theta(permuted, 60, tmp_path).tolist() == theta_coeffs(
            form, 60)

    def test_corruption_detected(self, form, tmp_path, caplog):
        good = cache_theta(form, 50, tmp_path).tolist()
        path = next(tmp_path.glob("theta-*.json"))
        data = json.loads(path.read_text())
        body = _decode(data["coeffs"])
        body[7] = 10**6
        # the payload decodes, but no longer matches the old checksum
        data["coeffs"] = _encode(body)
        path.write_text(json.dumps(data))
        with caplog.at_level(logging.WARNING):
            recovered = cache_theta(form, 50, tmp_path).tolist()
        assert recovered == good
        assert any("corrupt" in r.message for r in caplog.records)
        assert _decode(json.loads(path.read_text())["coeffs"]).tolist() == good

    def test_unreadable_file_recovered(self, form, tmp_path, caplog):
        cache_theta(form, 30, tmp_path)
        path = next(tmp_path.glob("theta-*.json"))
        path.write_text("not json at all")
        with caplog.at_level(logging.WARNING):
            assert cache_theta(form, 30, tmp_path).tolist() == theta_coeffs(
                form, 30)

    @pytest.mark.parametrize("payload", [
        "not base64 at all!",
        base64.b64encode(b"not a zlib stream").decode(),
    ])
    def test_undecodable_payload_is_unreadable(self, form, tmp_path, caplog,
                                               payload):
        cache_theta(form, 30, tmp_path)
        path = next(tmp_path.glob("theta-*.json"))
        data = json.loads(path.read_text())
        data["coeffs"] = payload
        path.write_text(json.dumps(data))
        with caplog.at_level(logging.WARNING):
            assert cache_theta(form, 30, tmp_path).tolist() == theta_coeffs(
                form, 30)
        assert any("unreadable" in r.message for r in caplog.records)

    @pytest.mark.parametrize("field, value", [
        ("prec", 40),
        ("formHash", "0" * 64),
    ])
    def test_inconsistent_header_is_corrupt(self, form, tmp_path, caplog,
                                            field, value):
        cache_theta(form, 30, tmp_path)
        path = next(tmp_path.glob("theta-*.json"))
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        with caplog.at_level(logging.WARNING):
            assert cache_theta(form, 30, tmp_path).tolist() == theta_coeffs(
                form, 30)
        assert any("corrupt" in r.message for r in caplog.records)
        assert json.loads(path.read_text())[field] != value

    def test_old_format_entry_is_rewritten(self, form, tmp_path, caplog):
        # the list format written before format versions existed
        coeffs = theta_coeffs(form, 30)
        path = tmp_path / f"theta-{form_hash(form)}.json"
        path.write_text(json.dumps({
            "formHash": form_hash(form), "prec": 30,
            "checksum": hashlib.sha256(json.dumps(coeffs).encode()).hexdigest(),
            "coeffs": coeffs}))
        other = tmp_path / "notes.txt"
        other.write_text("left alone")
        with caplog.at_level(logging.INFO):
            assert cache_theta(form, 30, tmp_path).tolist() == coeffs
        old = [r for r in caplog.records if "format" in r.message]
        assert old and all(r.levelno == logging.INFO for r in old)
        assert not any(r.levelno >= logging.WARNING for r in caplog.records)
        data = json.loads(path.read_text())
        assert data["format"] == 2 and data["prec"] == 30
        assert other.read_text() == "left alone"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name, other.name])

    @pytest.mark.parametrize("case", ["miss", "hit", "truncated_hit",
                                      "no_directory"])
    def test_result_is_a_read_only_int64_array(self, form, tmp_path,
                                               monkeypatch, case):
        monkeypatch.delenv("QFLAB_CACHE", raising=False)
        if case in ("hit", "truncated_hit"):
            cache_theta(form, 60, tmp_path)
        prec = 25 if case == "truncated_hit" else 60
        got = cache_theta(form, prec,
                          None if case == "no_directory" else tmp_path)
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.shape == (prec + 1,)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 7
        values = got.tolist()
        assert all(type(c) is int for c in values)
        assert values == theta_coeffs(form, prec)

    def test_hit_is_a_view_of_the_stored_body(self, form, tmp_path,
                                              monkeypatch):
        """A hit hands out the decoded body itself, with no copy."""
        cache_theta(form, 60, tmp_path)
        bodies = []
        real = qflab.cache._read

        def spy(path, key):
            bodies.append(real(path, key))
            return bodies[-1]

        monkeypatch.setattr(qflab.cache, "_read", spy)
        got = cache_theta(form, 25, tmp_path)
        (body,) = bodies
        assert np.shares_memory(got, body)

    def test_coefficient_beyond_int64_writes_nothing(self, form, tmp_path,
                                                     monkeypatch):
        """The int64 guard of the block products raises before any file
        is made."""
        monkeypatch.setattr(qflab.theta, "_INT64_GUARD", 4)
        with pytest.raises(OverflowError):
            cache_theta(form, 5, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_smaller_writer_keeps_larger_entry(self, form, tmp_path,
                                               monkeypatch):
        real = qflab.cache._theta_array

        def racing(f, prec):
            if prec == 30:
                # another writer stores a larger entry meanwhile
                cache_theta(f, 100, tmp_path)
            return real(f, prec)

        monkeypatch.setattr(qflab.cache, "_theta_array", racing)
        assert cache_theta(form, 30, tmp_path).tolist() == theta_coeffs(
            form, 30)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert json.loads(files[0].read_text())["prec"] == 100
        assert cache_theta(form, 100, tmp_path).tolist() == theta_coeffs(
            form, 100)

    def test_no_directory_means_plain_compute(self, form, monkeypatch):
        monkeypatch.delenv("QFLAB_CACHE", raising=False)
        assert cache_theta(form, 20, None).tolist() == theta_coeffs(form, 20)

    def test_empty_directory_is_refused(self, form, tmp_path, monkeypatch):
        """An empty directory name would be the current directory, so it
        is refused; an empty QFLAB_CACHE still means no cache."""
        monkeypatch.chdir(tmp_path)
        for call in (lambda: cache_theta(form, 4, ""),
                     lambda: make_cache("")):
            with pytest.raises(ValueError, match="must not be empty"):
                call()
        monkeypatch.setenv("QFLAB_CACHE", "")
        assert make_cache(None) is None
        assert cache_theta(form, 4, None).tolist() == theta_coeffs(form, 4)
        assert list(tmp_path.iterdir()) == []

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QFLAB_CACHE", str(tmp_path))
        assert resolve_cache_dir(None) == tmp_path
        explicit = tmp_path / "other"
        assert resolve_cache_dir(explicit) == explicit
        monkeypatch.delenv("QFLAB_CACHE")
        assert resolve_cache_dir(None) is None


class TestCacheIntegration:
    def test_reports_identical_with_and_without_cache(self, tmp_path):
        form = QuadForm.diagonal((1, 2, 6, 16))
        plain = is_strongly_s_regular(form, 40)
        cached_cold = is_strongly_s_regular(form, 40,
                                            cache=make_cache(tmp_path))
        cached_warm = is_strongly_s_regular(form, 40,
                                            cache=make_cache(tmp_path))
        assert plain.to_dict() == cached_cold.to_dict() == cached_warm.to_dict()
        assert list(tmp_path.glob("theta-*.json"))

    def test_cli_theta_twice_from_one_file(self, tmp_path, capsys):
        argv = ["theta", "--form", "1,2,3,10", "--prec", "500",
                "--cache-dir", str(tmp_path), "--out", "json"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["coeffs"] == theta_coeffs(
            QuadForm.diagonal((1, 2, 3, 10)), 500)
        assert len(list(tmp_path.iterdir())) == 1

    @pytest.mark.parametrize("prec", ["-2", "-1"])
    def test_cli_negative_prec_is_a_usage_error(self, tmp_path, capsys, prec):
        """A negative prec exits 2, as it does without a cache, also when
        an entry for the form exists; the entry is left as it was."""
        assert main(["theta", "--form", "1,1", "--prec", "4",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        (entry,) = tmp_path.iterdir()
        stored = entry.read_bytes()
        for cache_dir in (tmp_path, tmp_path / "new"):
            code = main(["theta", "--form", "1,1", "--prec", prec,
                         "--cache-dir", str(cache_dir), "--out", "json"])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert err == "error: prec must be nonnegative\n"
        assert list(tmp_path.iterdir()) == [entry]
        assert entry.read_bytes() == stored

    @pytest.mark.parametrize("out", ["text", "json", "csv"])
    def test_cli_theta_output_same_with_and_without_cache(self, tmp_path,
                                                          capsys, monkeypatch,
                                                          out):
        """qflab theta prints the same bytes with no cache, a cold cache
        and a warm one, in every --out format."""
        monkeypatch.delenv("QFLAB_CACHE", raising=False)
        argv = ["theta", "--form", "1,2,3,10", "--prec", "40", "--out", out]
        outputs = []
        for extra in ([], ["--cache-dir", str(tmp_path)],
                      ["--cache-dir", str(tmp_path)]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        expected = theta_coeffs(QuadForm.diagonal((1, 2, 3, 10)), 40)
        if out == "text":
            assert outputs[0] == f"{expected}\n"
        elif out == "json":
            assert json.loads(outputs[0])["coeffs"] == expected
        else:
            assert outputs[0].splitlines()[1:] == [
                f"{n},{r}" for n, r in enumerate(expected)]

    def test_form_hash_canonicalizes_each_form_once(self, tmp_path,
                                                    monkeypatch):
        """Two cached Table 1 runs canonicalize each distinct block form
        once, however often it is looked up, and report the same."""
        canonical, asked = [], []
        real_canonical = qflab.cache.canonical_form
        real_lookup = qflab.cache.cache_theta

        def spy_canonical(form):
            canonical.append(form)
            return real_canonical(form)

        def spy_lookup(form, prec, cache_dir=None):
            asked.append(form)
            return real_lookup(form, prec, cache_dir)

        monkeypatch.setattr(qflab.cache, "canonical_form", spy_canonical)
        monkeypatch.setattr(qflab.cache, "cache_theta", spy_lookup)
        reports = [run_table1(50, cache=make_cache(tmp_path)).to_json()
                   for _ in range(2)]
        assert reports[0] == reports[1]
        assert len(asked) > 2 * len(set(asked))
        assert len(canonical) == len(set(canonical)) == len(set(asked))

    def test_form_hash_is_pinned(self):
        """Entry names must not drift, or existing caches go cold."""
        assert form_hash(QuadForm.diagonal((1, 2, 3, 10))) == (
            "612fc9332dfffe73f17cc031d8991b57ef91e9673dbded6745f3025fe89b9d3a")

    def test_make_cache_none(self, monkeypatch):
        monkeypatch.delenv("QFLAB_CACHE", raising=False)
        assert make_cache(None) is None
