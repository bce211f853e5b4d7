"""Named verification suites and the full acceptance run.

Every suite is deterministic given (model, seed): sampled quantifiers draw
from seeded generators and the reports record sample sizes.  ``paper_all``
executes the complete acceptance battery; its exit status is the CLI's.
"""

import time
from fractions import Fraction
from itertools import product

from .report import CheckResult, SuiteReport
from .quantale import (build_rel_quantale, build_s3_pointed, build_bool2,
                       build_luk3, build_two_profunctor_quantale, all_posets,
                       duality_counterexample, is_central, s3_elements)
from .thin import ThinModel, thin_identity_cycle
from .linear import build_vec_model, GradedLineModel, scalar_cycle
from .drinfeld import build_drinfeld_z2
from .core.quantify import scan
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
    for r in core:
        r.name = "quantale-" + r.name
    rep.add(core)
    rep.stats["elements"] = len(q)
    if not all(core):
        rep.note("core axioms failed; model-level checks skipped")
        return rep
    cyc, wit = q.is_cyclic()
    rep.stats["cyclic"] = cyc
    if not cyc:
        rep.note(f"not cyclic; witness element {q.name(wit)}")
    if q.family in ("rel", "two_prof"):
        bad = duality_counterexample(q)
        rep.add(CheckResult("duality-is-complement-of-reverse", bad is None,
                            q.name(bad) if bad is not None else "",
                            len(q), True))
    model = ThinModel(q, depth_limit=depth)
    rep.add(validate_staut(model, seed))
    rep.add(cy.check_base_identity(model, seed=seed))
    if cyc:
        cycle = thin_identity_cycle(model)
        rep.add(cycle.validate())
        profile = cy.classify(cycle, seed)
        rep.add(CheckResult("thin-cycle-all-axioms", profile.cycle and profile.quasicycle,
                            str(profile.witnesses)))
        rep.add(cy.check_dependency_table([profile]))
        rep.add(cy.check_upper_lower_equivalences(profile))
        rep.profile = profile
    return rep


# ------------------------------------------------------------ scalar table

@_timed
def scalar_table_suite(seed=0, scalars=SCALARS, max_dim=2, depth=8):
    model = build_vec_model(max_dim, depth_limit=depth)
    rep = SuiteReport("vec-scalar-table", model.describe(), seed)
    profiles = []
    table = {}
    for lam in scalars:
        cycle = scalar_cycle(model, lam)
        rep.add(cycle.validate())
        profile = cy.classify(cycle, seed)
        profiles.append(profile)
        table[str(lam)] = {k: profile.verdicts[k] for k in cy.AXIOMS}
        predicted = predicted_profile(lam)
        bad = [k for k in cy.AXIOMS if profile.verdicts[k] != predicted[k]]
        rep.add(CheckResult(f"scalar({lam})-matches-oracle", not bad,
                            ", ".join(bad), len(cy.AXIOMS)))
        rep.add(cy.check_upper_lower_equivalences(profile))
    minus = profiles[[str(l) for l in scalars].index("-1")] if "-1" in [str(l) for l in scalars] else None
    if minus is not None:
        rep.add(CheckResult("scalar(-1)-separation",
                            minus.quasicycle and not minus.cycle,
                            f"quasicycle={minus.quasicycle}, cycle={minus.cycle}"))
    rep.add(cy.check_dependency_table(profiles))
    rep.add(validate_staut(model, seed))
    rep.stats["table"] = table
    header = "scalar".ljust(8) + " ".join(a.ljust(8) for a in cy.AXIOMS)
    rep.note(header)
    for lam in scalars:
        row = table[str(lam)]
        rep.note(str(lam).ljust(8)
                 + " ".join(("yes" if row[a] else "no").ljust(8) for a in cy.AXIOMS))
    rep.profiles = profiles
    return rep


# ------------------------------------------------------------- profunctors

@_timed
def prof_suite(vcat, seed=0):
    rep = SuiteReport("prof-check", vcat.label(), seed)
    checks, profile, pq = pf.check_prof_staut(vcat, seed)
    rep.add(checks)
    if profile is not None:
        rep.add(cy.check_dependency_table([profile]))
        rep.add(cy.check_upper_lower_equivalences(profile))
        rep.profile = profile
    if pq is not None:
        rep.stats["prof_elements"] = len(pq.elements)
    return rep


def _prof_rel2_bijection(pq):
    """The enumeration of endo-profunctors of the discrete two-object
    category in the two-chain base is in bijection with the relation quantale
    on two points, matching order, tensor, unit and dualizer."""
    r2 = build_rel_quantale(2)
    keys = pq.meta["keys"]
    objs = pq.meta["objects"]
    if len(pq.elements) != len(r2.elements):
        return CheckResult("prof-disc2-matches-rel2", False,
                           f"{len(pq.elements)} vs {len(r2.elements)} elements")

    def as_mask(el):
        mask = 0
        for val, (x, y) in zip(el, keys):
            if val == 1:
                mask |= 1 << (objs.index(x) * 2 + objs.index(y))
        return mask

    bij = {el: as_mask(el) for el in pq.elements}
    if len(set(bij.values())) != len(r2.elements):
        return CheckResult("prof-disc2-matches-rel2", False, "not a bijection")
    if bij[pq.unit] != r2.unit or bij[pq.dualizer] != r2.dualizer:
        return CheckResult("prof-disc2-matches-rel2", False,
                           "unit or dualizer mismatch")

    def body(a, b):
        if bij[pq.tensor(a, b)] != r2.tensor(bij[a], bij[b]):
            return f"tensor mismatch at {pq.name(a)}, {pq.name(b)}"
        if pq.le(a, b) != r2.le(bij[a], bij[b]):
            return f"order mismatch at {pq.name(a)}, {pq.name(b)}"

    return scan("prof-disc2-matches-rel2", product(pq.elements, repeat=2), body)


def luk3_two_object_vcat():
    v = build_luk3()
    half = Fraction(1, 2)
    hom = {("x", "x"): Fraction(1), ("x", "y"): half,
           ("y", "x"): Fraction(0), ("y", "y"): Fraction(1)}
    return pf.VCat(v, ["x", "y"], hom)


# ----------------------------------------------------------------- braided

@_timed
def braided_suite(seed=0):
    model = build_drinfeld_z2()
    rep = SuiteReport("braided-d2-suite", model.describe(), seed)
    braiding = br.Braiding(model)
    rep.add(braiding.check_hexagons(seed))
    rep.add(braiding.check_mixed_distributions(seed))
    rep.add(braiding.check_degenerate_agreement())

    sym, wit = braiding.is_symmetry()
    rep.add(CheckResult("double-braiding-nontrivial", not sym,
                        "braiding is a symmetry" if sym else "",
                        len(model.probe_objects()) ** 2))
    s_pm, s_mp = model.gen("s_pm"), model.gen("s_mp")
    dbl = model.compose(braiding.tens(s_mp, s_pm), braiding.tens(s_pm, s_mp))
    rep.add(CheckResult("mixed-simple-double-braiding-is-minus-one",
                        dbl.payload == ((Fraction(-1),),), str(dbl.payload)))

    rep.add(scan("stitch-is-identity", model.probe_objects(),
                 lambda p: br.stitch(model, p) != model.identity(p)))
    rep.add(br.check_stitch_natural(model))

    ribbon = br.ribbon_balance(model)
    rep.add(ribbon.validate())
    rep.add(br.check_semibalance(ribbon, "tens"))
    rep.add(br.check_semibalance(ribbon, "par"))
    rep.add(br.check_quasibalance(ribbon))
    rep.add(br.check_balance_double(ribbon))
    rep.add(br.roundtrip_check(ribbon))

    ident = br.identity_balance(model)
    rep.add(br.check_quasibalance(ident))
    res, profile = br.check_identity_cycle_symmetry(model, seed)
    rep.add(res)
    rep.add(CheckResult("identity-family-quasicycle-not-cycle",
                        profile.quasicycle and not profile.cycle,
                        f"k={profile.quasicycle}, cycle={profile.cycle}"))
    rep.add(cy.check_dependency_table([profile]))
    rep.add(cy.check_upper_lower_equivalences(profile))
    rep.profile = profile

    semis = br.balance_from_cycle(cy.to_lower(br.cycle_from_balance(ribbon)))
    rep.add(CheckResult("semibalance-split-preserved",
                        br.check_semibalance(semis, "tens").ok
                        and br.check_semibalance(semis, "par").ok, ""))
    return rep


@_timed
def counter_model_suite(seed=0):
    """Negative branches on the graded-line model (braiding scale 2): its
    braiding is not a symmetry, the canonical double-crossing is detectably
    non-identity, the identity twist fails the quasi condition while the
    square twist passes."""
    model = GradedLineModel()
    rep = SuiteReport("braided-counter-model", model.describe(), seed)
    braiding = br.Braiding(model)
    rep.add(braiding.check_hexagons(seed))
    rep.add(braiding.check_mixed_distributions(seed))
    rep.add(braiding.check_degenerate_agreement())
    x = model.gen("x")
    rep.add(CheckResult("stitch-detects-braiding",
                        br.stitch(model, x) != model.identity(x), ""))
    rep.add(CheckResult("identity-twist-fails-quasibalance",
                        not br.check_quasibalance(br.identity_balance(model)).ok, ""))
    square = br.graded_square_balance(model)
    rep.add(br.check_semibalance(square, "tens"))
    rep.add(br.check_semibalance(square, "par"))
    rep.add(br.check_quasibalance(square))
    rep.add(br.check_balance_double(square))
    rep.add(br.roundtrip_check(square))
    lam2 = br.scaled_balance(model, Fraction(2))
    rep.add(CheckResult("scaled-twist-fails-semibalance",
                        not br.check_semibalance(lam2, "tens").ok, ""))
    res, profile = br.check_identity_cycle_symmetry(model, seed)
    rep.add(res)
    rep.add(CheckResult("identity-family-not-quasicycle",
                        not profile.quasicycle, f"k={profile.quasicycle}"))
    rep.profile = profile
    return rep


# -------------------------------------------------------------------- zang

def _zang_model(backend, window, depth=None):
    depth = max(depth or 0, abs(window[0]) + abs(window[1]) + 3)
    if backend == "vec":
        model = build_vec_model(2, depth_limit=depth)
        cycle = scalar_cycle(model, 1)
    elif backend.startswith("thin:"):
        from .files import resolve_quantale
        q = resolve_quantale(backend[5:])
        model = ThinModel(q, probe_cap=6, depth_limit=depth)
        cyc, wit = q.is_cyclic()
        if not cyc:
            raise st.FangPreconditionError(
                f"{q.label} is not cyclic (witness {q.name(wit)})")
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
    rep.add(CheckResult("base-cycle-is-a-cycle", profile.cycle,
                        str(profile.witnesses)))
    rep.profile = profile

    per_strings = [st.period2_from_cycle(model, p, cycle) for p in probes[:3]]
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
    rep.add(st.check_zangcycle(model, cycle, window, towers[:2], profile))
    return rep


# ------------------------------------------------------------- acceptance

@_timed
def criterion_1(seed=0):
    """Exhaustive dual-equals-complement-of-reverse for the relation and
    two-valued-profunctor families."""
    rep = SuiteReport("criterion-1", "rel:1..3 + posets<=3", seed)
    for n in (1, 2, 3):
        q = build_rel_quantale(n)
        bad = duality_counterexample(q)
        rep.add(CheckResult(f"rel:{n}-duality", bad is None,
                            q.name(bad) if bad is not None else "", len(q), True))
    total = 0
    for n in (1, 2, 3):
        for mask in all_posets(n):
            q = build_two_profunctor_quantale(mask, n)
            bad = duality_counterexample(q)
            if bad is not None:
                rep.add(CheckResult(f"2prof-duality[{q.label}]", False, q.name(bad)))
            total += len(q)
    rep.add(CheckResult("2prof-duality-all-posets", True, "", total, True))
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
        cyc, wit = q.is_cyclic()
        central = is_central(q, perm)
        expected = label == "e"
        ok = cyc == central == expected
        rep.add(CheckResult(f"s3@{label}", ok,
                            f"cyclic={cyc}, central={central}", len(q), True))
    return rep


def criterion_3(seed=0):
    return scalar_table_suite(seed)


@_timed
def criterion_4(profiles, seed=0):
    rep = SuiteReport("criterion-4", "all collected axiom profiles", seed)
    rep.add(cy.check_dependency_table(profiles))
    for prof in profiles:
        res = cy.check_upper_lower_equivalences(prof)
        if not res.ok:
            rep.add(res)
    rep.add(CheckResult("profiles-collected", len(profiles) >= 6, "",
                        len(profiles)))
    return rep


@_timed
def criterion_5(seed=0):
    rep = SuiteReport("criterion-5", "profunctor models", seed)
    disc2 = pf.discrete_vcat(build_bool2(), ["a", "b"])
    checks, profile, pq = pf.check_prof_staut(disc2, seed=seed)
    rep.add(checks)
    rep.add(_prof_rel2_bijection(pq))
    rep.add(CheckResult("prof-disc2-cycle", profile.cycle, str(profile.witnesses)))
    rep.profiles = [profile]
    checks, profile2, pq2 = pf.check_prof_staut(luk3_two_object_vcat(), seed=seed)
    for c in checks:
        c.name = "luk3-" + c.name
    rep.add(checks)
    rep.add(CheckResult("luk3-prof-cycle", profile2.cycle, str(profile2.witnesses)))
    rep.profiles.append(profile2)
    rep.stats["luk3_prof_elements"] = len(pq2.elements)
    return rep


@_timed
def criterion_6(seed=0):
    rep = SuiteReport("criterion-6", "appendix identities", seed)
    vec = build_vec_model(2)
    small = [p for p in vec.probe_objects() if vec.dim(p) <= 2]
    res = cy.check_base_identity(vec, seed=seed, probes=small)
    res.name = "base-identity-vec"
    rep.add(res)
    rep.add(CheckResult("base-identity-sample-size", res.count >= 100, "",
                        res.count))
    thin = ThinModel(build_rel_quantale(2))
    res = cy.check_base_identity(thin, seed=seed)
    res.name = "base-identity-thin"
    rep.add(res)
    res = pf.check_contraposition_agreement(vec, scalar_cycle(vec, 1), seed=seed)
    res.name = "contraposition-vec"
    rep.add(res)
    rep.add(CheckResult("contraposition-sample-size", res.count >= 50, "",
                        res.count))
    res = pf.check_contraposition_agreement(thin, thin_identity_cycle(thin), seed=seed)
    res.name = "contraposition-thin"
    rep.add(res)
    dz2 = build_drinfeld_z2()
    braiding = br.Braiding(dz2)
    res = braiding.check_mixed_distributions(seed)
    res.name = "mixed-distributions-d2"
    rep.add(res)
    return rep


def criterion_7(seed=0):
    return braided_suite(seed)


@_timed
def criterion_8(seed=0, window=(-3, 3)):
    rep = SuiteReport("criterion-8", "strictification", seed)
    for backend in ("thin:rel:2", "vec"):
        sub = zang_suite(backend, window, seed)
        for c in sub.checks:
            c.name = f"{backend}-{c.name}"
        rep.add(sub.checks)
    rep.stats["window"] = list(window)
    return rep


def paper_all(seed=0, window=(-3, 3)):
    """The full acceptance battery, in order; returns the report list."""
    reports = []
    profiles = []

    reports.append(criterion_1(seed))
    reports.append(criterion_2(seed))
    rep3 = criterion_3(seed)
    profiles.extend(rep3.profiles)
    reports.append(rep3)
    rep5 = criterion_5(seed)
    profiles.extend(rep5.profiles)
    reports.append(rep5)
    reports.append(criterion_6(seed))
    rep7 = criterion_7(seed)
    profiles.append(rep7.profile)
    reports.append(rep7)
    repc = counter_model_suite(seed)
    profiles.append(repc.profile)
    reports.append(repc)
    rep8 = criterion_8(seed, window)
    reports.append(rep8)
    reports.append(criterion_4(profiles, seed))
    return reports
