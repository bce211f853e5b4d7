"""Every program name the benchmark's tracer wraps must exist where the
tracer looks it up, so that a refactor that drops or moves one fails here
rather than in each traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
