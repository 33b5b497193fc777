"""Checks on the benchmark's own input generation, work clock and tracer."""

import time

import pytest

import qflab
import qflab.search
import spans
import worker
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = workloads.build(name, 7, tmp_path).inputs()
    again = workloads.build(name, 7, tmp_path).inputs()
    assert first == again


@pytest.mark.parametrize("name", ["nonsplit", "cache"])
def test_seed_changes_conjugates(name, tmp_path):
    assert (workloads.build(name, 1, tmp_path).inputs()
            != workloads.build(name, 2, tmp_path).inputs())


def test_nonsplit_inputs_are_non_split_conjugates(tmp_path):
    bases = qflab.all_bundled_forms()
    for seed in range(25):
        for base, form in workloads.build("nonsplit", seed, tmp_path).forms:
            assert len(form.orthogonal_blocks()) == 1
            assert form.discriminant == bases[base].discriminant
            assert qflab.is_isometric(form, bases[base])


def test_tracer_restores_functions_and_counts_spans():
    original = qflab.search.is_strongly_s_regular
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = qflab.search.is_strongly_s_regular(
            qflab.QuadForm.diagonal((1, 1, 1, 1)), 20)
    finally:
        tracer.uninstall()
    assert qflab.search.is_strongly_s_regular is original
    assert report.passed
    metrics = tracer.metrics(1)
    assert metrics["regularity.is_strongly_s_regular.calls"] == 1
    assert metrics["theta.RepQuery.build.calls"] == 1
    assert metrics["arith.square_split.calls"] == 20
    own = metrics["regularity.is_strongly_s_regular.self_s"]
    assert 0 < own < metrics["regularity.is_strongly_s_regular.s"]


@pytest.mark.parametrize("kernel", ["interpreter", "memory"])
def test_work_clock_leaves_out_untimed_sections(kernel):
    rec = worker.Recorder(kernel)
    start = rec.clock()
    with rec.untimed():
        time.sleep(0.1)
    assert 0 <= rec.clock() - start < 0.02
    assert rec.speed.factor > 0
