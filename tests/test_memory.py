"""Every object graph a check builds is freed by reference counting alone, so
the CLI can run without the cyclic collector (README, "Memory"): no cache
holds a bound method or a closure of its owner."""

import gc
import importlib
import weakref
from pathlib import Path

import pytest

from stautcheck import braided as br
from stautcheck import cyclicity as cy
from stautcheck import profunctors as pf
from stautcheck import strictify as st
from stautcheck import suites
from stautcheck.cli import main
from stautcheck.core.validate import validate_staut
from stautcheck.drinfeld import build_drinfeld_z2
from stautcheck.linear import GradedLineModel, build_vec_model, scalar_cycle
from stautcheck.quantale import build_rel_quantale
from stautcheck.thin import ThinModel, thin_identity_cycle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def checked_thin_rel2():
    model = ThinModel(build_rel_quantale(2))
    assert all(r.ok for r in validate_staut(model))
    cy.classify(thin_identity_cycle(model))
    return [model]


def checked_vec():
    model = build_vec_model(2)
    assert all(r.ok for r in validate_staut(model))
    return [model]


def braided(build):
    def checked():
        model = build()
        suites._braiding_checks(br.Braiding(model), 0)
        return [model]
    checked.__name__ = f"braided_{build.__name__}"
    return checked


def checked_prof_quantale():
    _, _, pq = pf.check_prof_staut(suites.BUILTIN_VCATS["builtin:disc2"]())
    model = ThinModel(pq)
    assert all(r.ok for r in validate_staut(model))
    cy.classify(thin_identity_cycle(model))
    return [model, pq]


def checked_zang_string():
    model = build_vec_model(2)
    cycle = scalar_cycle(model, 1)
    p = model.gen("p")
    string = st.period2_from_cycle(p, cycle)
    assert st.check_triangles(string, (-2, 2)).ok
    assert st.zangify_mor(model, model.identity(p)).check_mateship((-2, 2)).ok
    return [string, cycle, model]


@pytest.mark.parametrize("build", [
    checked_thin_rel2, checked_vec, braided(GradedLineModel), braided(build_drinfeld_z2),
    checked_prof_quantale, checked_zang_string], ids=lambda f: f.__name__)
def test_a_checked_model_is_freed_without_the_cyclic_collector(build):
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = [weakref.ref(x) for x in build()]
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("workload", ["thin", "linear"])
def test_a_benchmark_command_leaves_no_garbage_cycle_of_the_program(
        workload, tmp_path, monkeypatch, capsys):
    # every object a command makes is freed by reference counting, so a
    # collection afterwards finds none of the program's own in a cycle
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ops = importlib.import_module("workloads").make(workload, 7, tmp_path).ops
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for op in ops:
            assert main(op.args) == 0
        gc.collect()
        cyclic = {type(x).__qualname__ for x in gc.garbage
                  if type(x).__module__.startswith("stautcheck")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert not cyclic
