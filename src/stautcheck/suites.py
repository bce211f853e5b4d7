"""Named verification suites and the full acceptance run.

Every suite is deterministic given (model, seed): sampled quantifiers draw
from seeded generators and the reports record sample sizes.  ``paper_all``
executes the complete acceptance battery; its exit status is the CLI's.
"""

import time
from fractions import Fraction
from itertools import product

from .report import SuiteReport
from .quantale import (build_rel_quantale, build_s3_pointed, build_bool2,
                       build_luk3, build_two_profunctor_quantale, all_posets,
                       check_duality, is_central, s3_elements)
from .thin import ThinModel, thin_identity_cycle
from .linear import build_vec_model, GradedLineModel, scalar_cycle
from .drinfeld import build_drinfeld_z2
from .core import matrices as mx
from .core.quantify import expect, scan
from .core.validate import validate_staut
from . import cyclicity as cy
from . import braided as br
from . import strictify as st
from . import profunctors as pf
from .scalar_oracle import predicted_profile

SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.monotonic()
        rep = fn(*args, **kwargs)
        rep.duration = time.monotonic() - t0
        return rep
    return wrapper


# ---------------------------------------------------------------- quantale

@_timed
def quantale_suite(q, seed=0, depth=8):
    rep = SuiteReport("quantale-check", q.label, seed)
    core = q.validate(seed)
    rep.add(core, prefix="quantale-")
    rep.stats["elements"] = len(q)
    if not all(core):
        rep.note("core axioms failed; model-level checks skipped")
        return rep
    cyclic = q.is_cyclic()
    rep.stats["cyclic"] = cyclic.ok
    if not cyclic.ok:
        rep.note(f"not cyclic; witness element {cyclic.witness}")
    if q.family in ("rel", "two_prof"):
        rep.add(check_duality("duality-is-complement-of-reverse", [q]))
    model = ThinModel(q, depth_limit=depth)
    rep.add(validate_staut(model, seed))
    rep.add(cy.check_base_identity(model, seed=seed))
    if cyclic.ok:
        cycle = thin_identity_cycle(model)
        rep.add(cycle.validate(seed))
        profile = cy.classify(cycle, seed)
        rep.add(profile.check("thin-cycle-all-axioms", cy.CYCLE + cy.QUASICYCLE))
        rep.add(cy.check_dependency_table([profile]))
        rep.add(cy.check_upper_lower_equivalences([profile]))
        rep.profiles.append(profile)
    return rep


# ------------------------------------------------------------ scalar table

@_timed
def scalar_table_suite(seed=0, scalars=SCALARS, max_dim=2, depth=8):
    model = build_vec_model(max_dim, depth_limit=depth)
    rep = SuiteReport("vec-scalar-table", model.describe(), seed)
    table = {}
    for lam in scalars:
        cycle = scalar_cycle(model, lam)
        rep.add(cycle.validate(seed), prefix=f"scalar({lam})-")
        profile = cy.classify(cycle, seed)
        rep.profiles.append(profile)
        table[str(lam)] = {k: profile.verdicts[k] for k in cy.AXIOMS}
        predicted = predicted_profile(lam)
        rep.add(scan(f"scalar({lam})-matches-oracle", cy.AXIOMS,
                     lambda a: profile.verdicts[a] != predicted[a]
                     and f"{a}: {profile.verdicts[a]}, oracle {predicted[a]}"))
        rep.add(cy.check_upper_lower_equivalences([profile]), prefix=f"scalar({lam})-")
        if lam == -1:
            rep.add(expect("scalar(-1)-separation",
                           holds=[profile.check("quasicycle", cy.QUASICYCLE)],
                           fails=[profile.check("cycle", cy.CYCLE)]))
    rep.add(cy.check_dependency_table(rep.profiles))
    rep.add(validate_staut(model, seed))
    rep.stats["table"] = table
    header = "scalar".ljust(8) + " ".join(a.ljust(8) for a in cy.AXIOMS)
    rep.note(header)
    for lam in scalars:
        row = table[str(lam)]
        rep.note(str(lam).ljust(8)
                 + " ".join(("yes" if row[a] else "no").ljust(8) for a in cy.AXIOMS))
    return rep


# ------------------------------------------------------------- profunctors

@_timed
def prof_suite(vcat, seed=0):
    rep = SuiteReport("prof-check", vcat.label(), seed)
    checks, profile, pq = pf.check_prof_staut(vcat, seed)
    rep.add(checks)
    if profile is not None:
        rep.add(cy.check_dependency_table([profile]))
        rep.add(cy.check_upper_lower_equivalences([profile]))
        rep.profiles.append(profile)
    if pq is not None:
        rep.stats["prof_elements"] = len(pq.elements)
    return rep


def _prof_rel2_bijection(pq):
    """The enumeration of endo-profunctors of the discrete two-object
    category in the two-chain base is in bijection with the relation quantale
    on two points, matching order, tensor, unit and dualizer.  A map that
    matches the order is injective, so with equal element counts it is a
    bijection."""
    r2 = build_rel_quantale(2)
    top = build_bool2().index(1)
    keys = pq.meta["keys"]
    objs = pq.meta["objects"]

    def as_relation(el):
        mask = 0
        for val, (x, y) in zip(pq.values[el], keys):
            if val == top:
                mask |= 1 << (objs.index(x) * 2 + objs.index(y))
        return r2.index(mask)

    bij = {el: as_relation(el) for el in pq.elements}

    def comparisons():
        yield "element count", len(pq.elements), len(r2.elements)
        yield "unit", bij[pq.unit], r2.unit
        yield "dualizer", bij[pq.dualizer], r2.dualizer
        for a, b in product(pq.elements, repeat=2):
            at = f"at {pq.name(a)}, {pq.name(b)}"
            yield f"tensor {at}", bij[pq.tensor(a, b)], r2.tensor(bij[a], bij[b])
            yield f"order {at}", pq.le(a, b), r2.le(bij[a], bij[b])

    return scan("prof-disc2-matches-rel2", comparisons(),
                lambda what, got, want: got != want and f"{what}: {got} vs {want}")


def luk3_two_object_vcat():
    v = build_luk3()
    one, half, zero = (v.index(Fraction(k, 2)) for k in (2, 1, 0))
    hom = {("x", "x"): one, ("x", "y"): half, ("y", "x"): zero, ("y", "y"): one}
    return pf.VCat(v, ["x", "y"], hom)


# the built-in V-categories of ``prof check`` by name; criterion 5 checks both
BUILTIN_VCATS = {
    "builtin:disc2": lambda: pf.discrete_vcat(build_bool2(), ["a", "b"]),
    "builtin:luk3": luk3_two_object_vcat,
}


# ----------------------------------------------------------------- braided

def _braiding_checks(braiding, seed):
    """The coherence checks of a braiding."""
    return [braiding.check_hexagons(seed), braiding.check_mixed_distributions(seed),
            braiding.check_degenerate_agreement()]


def _twist_checks(twist):
    """The balance conditions and the cyclicity round trip of one twist."""
    return [br.check_semibalance(twist, "tens"), br.check_semibalance(twist, "par"),
            br.check_quasibalance(twist), br.check_balance_double(twist),
            br.roundtrip_check(twist)]


@_timed
def braided_suite(seed=0):
    model = build_drinfeld_z2()
    rep = SuiteReport("braided-d2-suite", model.describe(), seed)
    braiding = br.Braiding(model)
    rep.add(_braiding_checks(braiding, seed))
    rep.add(expect("double-braiding-nontrivial", fails=[braiding.is_symmetry()]))

    def double_braiding(p, q):
        dbl = model.compose(braiding.tens(p, q), braiding.tens(q, p))
        return dbl.payload != mx.mat([[-1]]) and str(mx.dense(dbl.payload))

    rep.add(scan("mixed-simple-double-braiding-is-minus-one",
                 [(model.gen("s_mp"), model.gen("s_pm"))], double_braiding))

    rep.add(scan("stitch-is-identity", model.probe_objects(),
                 lambda p: br.stitch(model, p) != model.identity(p)))
    rep.add(br.check_stitch_natural(model))

    ribbon = br.ribbon_balance(model)
    rep.add(ribbon.validate(seed))
    rep.add(_twist_checks(ribbon))

    rep.add(br.check_quasibalance(br.identity_balance(model)), prefix="identity-twist-")
    res, profile = br.check_identity_cycle_symmetry(model, seed)
    rep.add(res)
    rep.add(expect("identity-family-quasicycle-not-cycle",
                   holds=[profile.check("quasicycle", cy.QUASICYCLE)],
                   fails=[profile.check("cycle", cy.CYCLE)]))
    rep.add(cy.check_dependency_table([profile]))
    rep.add(cy.check_upper_lower_equivalences([profile]))
    rep.profiles.append(profile)

    semis = br.balance_from_cycle(br.cycle_from_balance(ribbon))
    rep.add(expect("semibalance-split-preserved",
                   holds=[br.check_semibalance(semis, "tens"),
                          br.check_semibalance(semis, "par")]))
    return rep


@_timed
def counter_model_suite(seed=0):
    """Negative branches on the graded-line model (braiding scale 2): its
    braiding is not a symmetry, the canonical double-crossing is detectably
    non-identity, the identity twist fails the quasi condition while the
    square twist passes."""
    model = GradedLineModel()
    rep = SuiteReport("braided-counter-model", model.describe(), seed)
    rep.add(_braiding_checks(br.Braiding(model), seed))
    rep.add(scan("stitch-detects-braiding", [model.gen("x")],
                 lambda x: br.stitch(model, x) == model.identity(x)
                 and f"the stitch at {x} is the identity"))
    rep.add(expect("identity-twist-fails-quasibalance",
                   fails=[br.check_quasibalance(br.identity_balance(model))]))
    rep.add(_twist_checks(br.graded_square_balance(model)))
    rep.add(expect("scaled-twist-fails-semibalance",
                   fails=[br.check_semibalance(br.scaled_balance(model, Fraction(2)), "tens")]))
    res, profile = br.check_identity_cycle_symmetry(model, seed)
    rep.add(res)
    rep.add(expect("identity-family-not-quasicycle",
                   fails=[profile.check("quasicycle", cy.QUASICYCLE)]))
    rep.profiles.append(profile)
    return rep


# -------------------------------------------------------------------- zang

def _zang_model(backend, window, depth=None):
    # the deepest object of a suite is the head of a curry along the unit of a
    # tensor string at the window's end W: (dual(z) par z) (x) z(W), where
    # z = z(W + 1) is the tensor or par of two tower components of depth W + 1
    depth = max(depth or 0, max(map(abs, window)) + 5)
    if backend == "vec":
        model = build_vec_model(2, depth_limit=depth)
        cycle = scalar_cycle(model, 1)
    elif backend.startswith("thin:"):
        from .files import resolve_quantale
        q = resolve_quantale(backend[5:])
        model = ThinModel(q, probe_cap=6, depth_limit=depth)
        cyclic = q.is_cyclic()
        if not cyclic.ok:
            raise st.FangPreconditionError(
                f"{q.label} is not cyclic (witness {cyclic.witness})")
        cycle = thin_identity_cycle(model)
    else:
        raise ValueError(f"unknown zang backend {backend!r}; use vec or thin:SPEC")
    return model, cycle


@_timed
def zang_suite(backend, window=(-3, 3), seed=0, depth=None):
    model, cycle = _zang_model(backend, window, depth)
    rep = SuiteReport(f"zang-suite-{backend}", model.describe(), seed)
    rep.stats["window"] = list(window)
    probes = model.probe_objects()
    towers = [st.zangify(model, p) for p in probes[:4]]
    profile = cy.classify(cycle, seed)
    rep.add(profile.check("base-cycle-is-a-cycle", cy.CYCLE))
    rep.profiles.append(profile)

    per_strings = [st.period2_from_cycle(p, cycle) for p in probes[:3]]
    composite = [st.TensZString(towers[2], towers[2]),
                 st.ParZString(towers[2], towers[2]),
                 st.UnitZString(model, "e"), st.UnitZString(model, "d")]

    def triangles(s):
        res = st.check_triangles(s, window)
        return not res.ok and f"{s.describe()}: {res.witness}"

    rep.add(scan("string-triangles", towers + per_strings + composite, triangles))

    rep.add(st.check_strict_negations(model, window, towers[:3]))
    rep.add(st.check_equivalence(model, window, towers[:2] + per_strings[:1]))

    span = next((model.hom_span(a, b) for a in probes[2:] for b in probes[2:]
                 if model.hom_span(a, b)), [])
    if span:
        rep.add(st.zangify_mor(model, span[0]).check_mateship(window))

    rep.add(st.fang_check(per_strings[0], cycle, window, profile))
    rep.add(st.fang_closure(per_strings[0], per_strings[1], cycle, window, profile))
    rep.add(st.check_zangcycle(cycle, window, towers[:2], profile))
    return rep


# ------------------------------------------------------------- acceptance

def _at_least(name, n, least):
    """The check that a tally ``n`` is at least ``least``."""
    return scan(name, [n], lambda got: got < least and f"{got}, want at least {least}")


@_timed
def criterion_1(seed=0):
    """Exhaustive dual-equals-complement-of-reverse for the relation and
    two-valued-profunctor families."""
    rep = SuiteReport("criterion-1", "rel:1..3 + posets<=3", seed)
    for n in (1, 2, 3):
        rep.add(check_duality(f"rel:{n}-duality", [build_rel_quantale(n)]))
    rep.add(check_duality("2prof-duality-all-posets",
                          (build_two_profunctor_quantale(mask, n)
                           for n in (1, 2, 3) for mask in all_posets(n))))
    rep.stats["posets"] = {n: len(all_posets(n)) for n in (1, 2, 3)}
    return rep


@_timed
def criterion_2(seed=0):
    """Pointed symmetric-group models are cyclic exactly at central
    dualizers; concretely, only at the neutral element."""
    rep = SuiteReport("criterion-2", "s3 pointings", seed)
    _, names = s3_elements()
    for perm, label in names.items():
        q = build_s3_pointed(label)
        facts = [("cyclic", q.is_cyclic().ok), ("central", is_central(q, q.index(perm)))]
        rep.add(scan(f"s3@{label}", facts,
                     lambda what, got: got != (label == "e") and f"{what}={got}"))
    return rep


def criterion_3(seed=0):
    return scalar_table_suite(seed)


@_timed
def criterion_4(profiles, seed=0):
    rep = SuiteReport("criterion-4", "all collected axiom profiles", seed)
    rep.add(cy.check_dependency_table(profiles))
    rep.add(cy.check_upper_lower_equivalences(profiles))
    rep.add(_at_least("profiles-collected", len(profiles), 6))
    return rep


@_timed
def criterion_5(seed=0):
    rep = SuiteReport("criterion-5", "profunctor models", seed)
    checks, profile, pq = pf.check_prof_staut(BUILTIN_VCATS["builtin:disc2"](), seed=seed)
    rep.add(checks)
    rep.add(_prof_rel2_bijection(pq))
    rep.add(profile.check("prof-disc2-cycle", cy.CYCLE))
    rep.profiles.append(profile)
    checks, profile, pq = pf.check_prof_staut(BUILTIN_VCATS["builtin:luk3"](), seed=seed)
    rep.add(checks, prefix="luk3-")
    rep.add(profile.check("luk3-prof-cycle", cy.CYCLE))
    rep.profiles.append(profile)
    rep.stats["luk3_prof_elements"] = len(pq.elements)
    return rep


@_timed
def criterion_6(seed=0):
    rep = SuiteReport("criterion-6", "appendix identities", seed)
    vec = build_vec_model(2)
    res = cy.check_base_identity(vec, seed=seed)
    rep.add(res, suffix="-vec")
    rep.add(_at_least("base-identity-sample-size", res.count, 100))
    thin = ThinModel(build_rel_quantale(2))
    rep.add(cy.check_base_identity(thin, seed=seed), suffix="-thin")
    res = pf.check_contraposition_agreement(vec, scalar_cycle(vec, 1), seed=seed)
    rep.add(res, suffix="-vec")
    rep.add(_at_least("contraposition-sample-size", res.count, 50))
    rep.add(pf.check_contraposition_agreement(thin, thin_identity_cycle(thin), seed=seed),
            suffix="-thin")
    rep.add(br.Braiding(build_drinfeld_z2()).check_mixed_distributions(seed), suffix="-d2")
    return rep


def criterion_7(seed=0):
    return braided_suite(seed)


@_timed
def criterion_8(seed=0, window=(-3, 3)):
    rep = SuiteReport("criterion-8", "strictification", seed)
    for backend in ("thin:rel:2", "vec"):
        rep.add(zang_suite(backend, window, seed).checks, prefix=f"{backend}-")
    rep.stats["window"] = list(window)
    return rep


def paper_all(seed=0, window=(-3, 3)):
    """The full acceptance battery, in order; returns the report list.
    Criterion 4 cross-checks the axiom profiles the others collected."""
    reports = [criterion_1(seed), criterion_2(seed), criterion_3(seed), criterion_5(seed),
               criterion_6(seed), criterion_7(seed), counter_model_suite(seed),
               criterion_8(seed, window)]
    reports.append(criterion_4([p for r in reports for p in r.profiles], seed))
    return reports
