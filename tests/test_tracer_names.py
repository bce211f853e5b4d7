"""Every program name the benchmark's tracer wraps must exist where the
tracer looks it up, so that a refactor that drops or moves one fails here
rather than in each traced run."""

import importlib
import importlib.util
from pathlib import Path

from stautcheck import profunctors as pf
from stautcheck.quantale import builtin_quantale
from stautcheck.suites import luk3_two_object_vcat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = []
    for modname, attr, _ in tracer.SPANS + tracer.COUNTED:
        owner = importlib.import_module(f"stautcheck.{modname}")
        cls_name, _, fname = attr.rpartition(".")
        if cls_name:
            # the tracer swaps a method in its class's own __dict__, so one
            # inherited from a base class does not count
            owner = vars(getattr(owner, cls_name, object)).get(fname)
        else:
            owner = getattr(owner, fname, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert not missing


def test_no_quantale_shadows_a_traced_method():
    # an instance attribute named after a wrapped Quantale method would
    # bypass the wrapper, and its counter would silently read 0
    tracer = _tracer()
    traced = {attr.split(".", 1)[1] for modname, attr, _ in tracer.SPANS + tracer.COUNTED
              if modname == "quantale" and attr.startswith("Quantale.")}
    assert {"tensor", "under", "over", "join", "validate"} <= traced
    quantales = [builtin_quantale(spec) for spec in ("rel:2", "2prof:vee", "luk3")]
    quantales.append(pf.build_prof_quantale(luk3_two_object_vcat()))
    assert [q.family for q in quantales] == ["rel", "two_prof", "chain", "prof"]
    for q in quantales:
        assert not traced & set(vars(q)), q.label
