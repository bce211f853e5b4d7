"""Run one stautcheck command with spans recorded at the layer boundaries.

    python3 perfbench/tracer.py TRACE_PREFIX -- <stautcheck arguments>

The wrappers live in this file only; the program is imported unchanged and
its public functions and methods are replaced, for this process alone, by
wrappers that record a span (name, start, end, parent) per call.  Spans stay
in memory in flat arrays and are written when the command ends:

* ``TRACE_PREFIX.json``: span names, their layer groups, counters, span count;
* ``TRACE_PREFIX.spans``: the arrays name id ('i'), parent index ('i'),
  start ('d') and end ('d'), one after the other, native byte order.

A few counts are taken at the same boundaries, from the arguments and
results: matrix shapes, repeated residual and structural-cache keys, new
object handles, profunctor candidates.  Calls that a layer makes through
names bound inside its own functions (for example the tensor inside
``Quantale.under``) are not seen from here.
"""

import array
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from fractions import Fraction

BRAIDED_CHECKS = ["Braiding.check_hexagons", "Braiding.check_mixed_distributions",
                  "Braiding.check_degenerate_agreement", "Braiding.is_symmetry",
                  "Balance.validate", "check_semibalance", "check_stitch_natural",
                  "check_quasibalance", "check_balance_double", "roundtrip_check",
                  "check_identity_cycle_symmetry"]
STRICTIFY_CHECKS = ["ZMate.check_mateship", "check_triangles", "check_strict_negations",
                    "check_equivalence", "fang_check", "fang_closure", "check_zangcycle"]
CURRY = ["curry_left", "uncurry_left", "curry_right", "uncurry_right",
         "lcurry", "lcurry_inv", "rcurry", "rcurry_inv"]
QUANTALE_BUILDERS = ["build_rel_quantale", "build_two_profunctor_quantale",
                     "build_pointed_group", "build_s3_pointed", "build_zmod",
                     "build_bool2", "build_luk3", "builtin_quantale"]
SUITES = ["quantale_suite", "scalar_table_suite", "prof_suite", "braided_suite",
          "counter_model_suite", "zang_suite"]

# (module, function or Class.method, layer group)
SPANS = (
    [("quantale", "Quantale.under", "quantale.residual"),
     ("quantale", "Quantale.over", "quantale.residual"),
     ("quantale", "Quantale.join", "quantale.join"),
     ("quantale", "Quantale.validate", "quantale.validate")]
    + [("quantale", f, "quantale.build") for f in QUANTALE_BUILDERS]
    + [("core.matrices", f, f"matrices.{f}") for f in ("matmul", "kron", "inverse", "nullspace")]
    + [("core.objects", "Interner.intern", "objects.intern"),
       ("core.model", "StautModel.compose", "model.compose"),
       ("core.model", "StautModel.value", "model.value"),
       ("core.model", "StautModel._structural", "model.structural"),
       ("core.model", "StautModel.demorgan", "model.demorgan")]
    + [("core.model", f"StautModel.{f}", "model.curry") for f in CURRY]
    + [("linear", "LinearModel.mor", "linear.mor"),
       ("linear", "LinearModel.tens_mor", "linear.tens_par_mor"),
       ("linear", "LinearModel.par_mor", "linear.tens_par_mor"),
       ("linear", "LinearModel.hom_span", "linear.hom_span"),
       ("linear", "GradedLineModel.hom_span", "linear.hom_span"),
       ("drinfeld", "DoubleZ2Model.hom_span", "linear.hom_span"),
       ("drinfeld", "DoubleZ2Model.braid", "drinfeld.braid"),
       ("thin", "ThinModel.mor", "thin.mor"),
       ("cyclicity", "classify", "cyclicity.classify"),
       ("cyclicity", "draw_tuples", "cyclicity.draw_tuples"),
       ("core.validate", "validate_staut", "validate.validate_staut"),
       ("profunctors", "enumerate_profs", "profunctors.enumerate"),
       ("profunctors", "build_prof_quantale", "profunctors.build_quantale"),
       ("profunctors", "check_prof_staut", "profunctors.check"),
       ("cli", "_emit", "report.render")]
    + [("braided", f, "braided.checks") for f in BRAIDED_CHECKS]
    + [("strictify", f, "strictify.checks") for f in STRICTIFY_CHECKS]
    + [("suites", f, f"suites.{f}") for f in SUITES]
)

# counted, not spanned: these are called millions of times per command
COUNTED = [("quantale", "Quantale.tensor", "quantale.tensor.calls")]

MODULES = ["cli", "suites", "files", "quantale", "thin", "linear", "drinfeld",
           "cyclicity", "braided", "strictify", "profunctors", "report",
           "scalar_oracle", "core.validate", "core.model", "core.objects",
           "core.matrices", "core.morphisms"]


class Recorder:
    def __init__(self):
        self.names = []
        self.groups = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = [-1]   # index of the innermost open span, -1 outside all
        self.counters = Counter()
        self.seen = {}    # counter name -> keys seen so far
        self.alive = {}   # keeps keyed objects alive so their ids stay unique

    def span(self, label, group, fn, note=None):
        nid = len(self.names)
        self.names.append(label)
        self.groups[label] = group
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        current = self.current
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current[0]
            idx = current[0] = len(name_a)
            name_a.append(nid)
            parent_a.append(parent)
            end_a.append(0.0)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                current[0] = parent
            if note is not None:
                note(args, kwargs, result)
            return result
        return wrapper

    def counted(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def repeated(self, counter, key, owner):
        """Count ``key`` under ``counter`` if it was seen before."""
        self.alive.setdefault(id(owner), owner)
        seen = self.seen.setdefault(counter, set())
        if key in seen:
            self.counters[counter] += 1
        else:
            seen.add(key)

    def write(self, prefix):
        meta = {"names": self.names, "groups": self.groups,
                "counters": dict(self.counters), "spans": len(self.name)}
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _notes(rec):
    c = rec.counters

    def residual(side):
        def note(args, kwargs, result):
            q, x, y = args[:3]
            rec.repeated("quantale.residual.repeated", (id(q), side, x, y), q)
        return note

    def structural(args, kwargs, result):
        model, key = args[:2]
        rec.repeated("model.structural.hits", (id(model), key), model)

    handles = set()

    def intern(args, kwargs, result):
        if result not in handles:
            handles.add(result)
            c["objects.intern.new"] += 1

    def matmul(args, kwargs, result):
        a, b = args[:2]
        c["matrices.matmul.mults"] += len(a) * (len(a[0]) if a else 0) * (len(b[0]) if b else 0)
        if any(type(x) is Fraction for m in (a, b) for row in m for x in row):
            c["matrices.matmul.fraction_calls"] += 1

    def kron(args, kwargs, result):
        c["matrices.kron.entries"] += len(result) * (len(result[0]) if result else 0)

    enum_sig = inspect.signature(importlib.import_module("stautcheck.profunctors").enumerate_profs)

    def enumerate_profs(args, kwargs, result):
        bound = enum_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        cat, cap = bound.arguments["c"], bound.arguments["cap"]
        found, exhaustive = result
        c["profunctors.enumerate.found"] += len(found)
        c["profunctors.enumerate.candidates"] += (
            len(cat.base.elements) ** (len(cat.objects) ** 2) if exhaustive else cap)

    return {"Quantale.under": residual("under"), "Quantale.over": residual("over"),
            "StautModel._structural": structural, "Interner.intern": intern,
            "matmul": matmul, "kron": kron, "enumerate_profs": enumerate_profs}


def _replace(owner_module, attr, make):
    """Swap ``attr`` of the module (or ``Class.method``) for ``make(original)``,
    also where other stautcheck modules imported the function by name."""
    cls_name, _, fname = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner_module, cls_name)
        setattr(cls, fname, make(cls.__dict__[fname]))
        return
    original = getattr(owner_module, fname)
    wrapper = make(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("stautcheck"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def install(rec):
    for m in MODULES:
        importlib.import_module(f"stautcheck.{m}")
    notes = _notes(rec)
    for modname, attr, group in SPANS:
        module = sys.modules[f"stautcheck.{modname}"]
        label = f"{modname}.{attr}"
        _replace(module, attr,
                 lambda fn, label=label, group=group, attr=attr:
                 rec.span(label, group, fn, notes.get(attr)))
    for modname, attr, key in COUNTED:
        _replace(sys.modules[f"stautcheck.{modname}"], attr,
                 lambda fn, key=key: rec.counted(key, fn))


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_PREFIX -- <stautcheck arguments>", file=sys.stderr)
        return 2
    prefix, args = argv[0], argv[2:]
    rec = Recorder()
    install(rec)
    from stautcheck import cli
    try:
        return cli.main(args)
    finally:
        rec.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
