"""The names the benchmark in perfbench/ hooks into must exist.

perfbench/tracing.py and perfbench/run.py patch splitconf callables by
name and read a few module attributes, and perfbench/workloads.py
imports its inputs and oracles from splitconf.  A rename or deletion on
this side would otherwise show only when the benchmark runs; here it
fails the test suite instead.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # The benchmark's modules have generic names; they leave sys.modules
    # with the test.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracing

    yield run, tracing
    for name in ("run", "tracing", "probe", "workloads"):
        sys.modules.pop(name, None)


def test_the_tracer_installs_and_uninstalls(perfbench):
    from splitconf import conformal, group

    _, tracing = perfbench
    originals = (conformal.step_vector, conformal.apply_conformal_translation,
                 group.generator)
    tracer = tracing.install(tracing.Tracer())
    try:
        assert conformal.step_vector is not originals[0]
    finally:
        tracer.uninstall()
    assert (conformal.step_vector, conformal.apply_conformal_translation,
            group.generator) == originals


def test_the_step_pair_recorder_installs_and_uninstalls(perfbench):
    from splitconf import group, matrices

    run, _ = perfbench
    originals = (group.generator, matrices.exp_nilpotent)
    run.record_step_pairs([]).uninstall()
    assert (group.generator, matrices.exp_nilpotent) == originals


def test_the_caches_warm(perfbench):
    run, _ = perfbench
    run.warm_caches()


def test_the_workload_oracles_pass_one_point_of_each_stream(perfbench):
    import workloads
    from splitconf.conformal import step_vector

    def float_ok(*step):
        return workloads.check_float_step(*step) <= workloads.FLOAT_TOL

    for inputs, ok in ((workloads.float_inputs, float_ok),
                       (workloads.exact_inputs, workloads.check_exact_step)):
        v, word = next(inputs(1, "tests"))
        for name, theta in word:
            out = step_vector(name, theta, v)
            assert ok(name, theta, v, out)
            v = out
