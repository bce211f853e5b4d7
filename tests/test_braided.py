"""Braiding/twist layer: hexagons, the induced par braiding, the canonical
double crossing, the quasi-twist condition, and both correspondence round
trips, on the symmetric, graded and module backends."""

from fractions import Fraction

import pytest

from stautcheck import braided as br
from stautcheck import cyclicity as cy
from stautcheck.core import matrices as mx
from stautcheck.core.morphisms import MorError
from stautcheck.linear import build_vec_model, scalar_cycle


def test_unbraided_model_refuses(thin_rel2):
    with pytest.raises(MorError):
        br.Braiding(thin_rel2)


def test_hexagons(vec, graded, dz2):
    for model in (vec, graded, dz2):
        assert br.Braiding(model).check_hexagons(seed=3).ok


def test_mixed_distributions(vec, graded, dz2):
    for model in (vec, graded, dz2):
        assert br.Braiding(model).check_mixed_distributions(seed=3).ok


def test_derived_par_braiding_degenerate(vec, graded, dz2):
    for model in (vec, graded, dz2):
        assert br.Braiding(model).check_degenerate_agreement().ok


def test_symmetry_detection(vec, graded, dz2):
    assert br.Braiding(vec).is_symmetry().ok
    assert not br.Braiding(graded).is_symmetry().ok
    sym = br.Braiding(dz2).is_symmetry()
    assert not sym.ok and sym.witness


def test_dz2_double_braiding_on_mixed_simples(dz2):
    s_mp, s_pm = dz2.gen("s_mp"), dz2.gen("s_pm")
    dbl = dz2.compose(dz2.braid(s_mp, s_pm), dz2.braid(s_pm, s_mp))
    assert dbl.payload == mx.mat([[Fraction(-1)]])


def test_braid_on_units_is_identity(dz2):
    assert dz2.braid(dz2.e, dz2.e) == dz2.identity(dz2.tens(dz2.e, dz2.e))


def test_stitch_identity_symmetric(vec):
    for p in vec.probe_objects():
        assert br.stitch(vec, p) == vec.identity(p)


def test_stitch_identity_on_dz2_despite_nonsymmetry(dz2):
    for p in dz2.probe_objects():
        assert br.stitch(dz2, p) == dz2.identity(p)


def test_stitch_detects_graded_braiding(graded):
    x = graded.gen("x")
    assert br.stitch(graded, x).payload == mx.mat([[Fraction(4)]])
    xx = graded.tens(x, x)
    assert br.stitch(graded, xx).payload == mx.mat([[Fraction(2) ** 8]])


def test_stitch_natural(vec, dz2):
    assert br.check_stitch_natural(vec).ok
    assert br.check_stitch_natural(dz2).ok


def test_semibalance_identity_symmetric(vec):
    idb = br.identity_balance(vec)
    assert br.check_semibalance(idb, "tens").ok
    assert br.check_semibalance(idb, "par").ok


def test_ribbon_twist_values(dz2):
    rb = br.ribbon_balance(dz2)
    twists = [mx.dense(rb.component(dz2.gen(n)).payload)[0][0] for n in dz2.SIMPLE_NAMES]
    assert twists == [1, 1, 1, -1]
    assert all(r.ok for r in rb.validate())


def test_ribbon_is_balance(dz2):
    rb = br.ribbon_balance(dz2)
    assert br.check_semibalance(rb, "tens").ok
    assert br.check_semibalance(rb, "par").ok


def test_identity_not_balance_on_dz2(dz2):
    idb = br.identity_balance(dz2)
    assert not br.check_semibalance(idb, "tens").ok


def test_scaled_twist_fails_semibalance(vec):
    lam2 = br.scaled_balance(vec, Fraction(2))
    res = br.check_semibalance(lam2, "tens")
    assert not res.ok and res.witness


def test_quasibalance_positive_and_negative(vec, graded, dz2):
    assert br.check_quasibalance(br.identity_balance(vec)).ok
    assert br.check_quasibalance(br.identity_balance(dz2)).ok
    assert br.check_quasibalance(br.ribbon_balance(dz2)).ok
    assert br.check_quasibalance(br.graded_square_balance(graded)).ok
    assert not br.check_quasibalance(br.identity_balance(graded)).ok


def test_balance_double(vec, graded, dz2):
    assert br.check_balance_double(br.identity_balance(vec)).ok
    assert br.check_balance_double(br.ribbon_balance(dz2)).ok
    assert br.check_balance_double(br.graded_square_balance(graded)).ok


def test_balance_from_cycle_scalar(vec):
    theta = br.balance_from_cycle(scalar_cycle(vec, Fraction(5)))
    p = vec.gen("p")
    assert theta.component(p).payload == mx.mat([[5, 0], [0, 5]])
    assert theta.component(vec.e).payload == mx.mat([[5]])


def test_semicycle_split_preserved(dz2):
    rb = br.ribbon_balance(dz2)
    rebuilt = br.balance_from_cycle(br.cycle_from_balance(rb))
    assert br.check_semibalance(rebuilt, "tens").ok
    assert br.check_semibalance(rebuilt, "par").ok


def test_cycle_from_balance_scalar_on_lines():
    m = build_vec_model(1)
    theta = br.scaled_balance(m, Fraction(3))
    c = br.cycle_from_balance(theta)
    p = m.gen("p")
    om = m.mor(m.tens(p, p), m.d, mx.mat([[7]]))
    assert c.apply(p, p, om).payload == mx.mat([[21]])
    assert c.unapply(p, p, c.apply(p, p, om)) == om


def test_roundtrips(vec, graded, dz2):
    assert br.roundtrip_check(br.identity_balance(vec)).ok
    assert br.roundtrip_check(br.ribbon_balance(dz2)).ok
    assert br.roundtrip_check(br.graded_square_balance(graded)).ok


def test_cycle_to_balance_to_cycle(vec):
    c = scalar_cycle(vec, Fraction(-2))
    low = br.cycle_from_balance(br.balance_from_cycle(c))
    for p in vec.probe_objects():
        assert low.component(p) == c.component(p)


def test_identity_cycle_vs_symmetry(vec, graded, dz2):
    res, prof = br.check_identity_cycle_symmetry(vec)
    assert res.ok and prof.cycle
    res, prof = br.check_identity_cycle_symmetry(dz2)
    assert res.ok and not prof.cycle and prof.quasicycle
    res, prof = br.check_identity_cycle_symmetry(graded)
    assert res.ok and not prof.cycle and not prof.quasicycle


def test_identity_derived_profiles_consistent(graded, dz2):
    for model in (graded, dz2):
        prof = cy.classify(br.cycle_from_balance(br.identity_balance(model)))
        assert not cy.dependency_violations(prof)
        assert cy.check_upper_lower_equivalences([prof]).ok


def test_quasibalance_matches_quasicycle_verdict(graded, dz2):
    # the twist satisfies the quasi condition exactly when its hom family
    # satisfies the quasicycle axiom
    for model in (graded, dz2):
        idb = br.identity_balance(model)
        prof = cy.classify(br.cycle_from_balance(idb))
        assert br.check_quasibalance(idb).ok == prof.quasicycle


def _failing_arrows(model, fails):
    """1-based positions, in check order, of the arrows of the probe hom
    spans on which ``fails(p, q, f)`` holds, with their (p, q, index, f)."""
    out, pos = [], 0
    for p in model.probe_objects():
        for q in model.probe_objects():
            for i, f in enumerate(model.hom_span(p, q)):
                pos += 1
                if fails(p, q, f):
                    out.append((pos, (p, q), i, f))
    return out


def test_twist_natural_reports_its_first_failure(vec, monkeypatch):
    bal = br.identity_balance(vec)
    target = vec.probe_objects()[2]
    real = bal.component
    monkeypatch.setattr(bal, "component", lambda p: (
        vec.mor_scale(2, real(p)) if p is target else real(p)))
    bad = _failing_arrows(vec, lambda p, q, f: vec.compose(f, bal.component(q))
                          != vec.compose(bal.component(p), f))
    assert len({pq for _, pq, _, _ in bad}) >= 2
    pos, _, i, f = bad[0]
    res = bal.validate()[1]
    assert res.name == "twist-natural" and not res.ok
    assert (res.count, res.witness) == (pos, f"naturality fails at {f}, arrow #{i}")


def test_stitch_natural_reports_its_first_failure(vec, monkeypatch):
    target = vec.probe_objects()[3]
    real = br.stitch
    monkeypatch.setattr(br, "stitch", lambda m, p: (
        m.mor_scale(-1, real(m, p)) if p is target else real(m, p)))
    bad = _failing_arrows(vec, lambda p, q, f: vec.compose(f, br.stitch(vec, q))
                          != vec.compose(br.stitch(vec, p), f))
    assert len({pq for _, pq, _, _ in bad}) >= 2
    pos, _, i, f = bad[0]
    res = br.check_stitch_natural(vec)
    assert res.name == "stitch-natural" and not res.ok
    assert (res.count, res.witness) == (pos, f"naturality fails at {f}, arrow #{i}")


@pytest.mark.parametrize("check", ["cycle-invertible", "cycle-natural", "twist-invertible"])
def test_family_reports_its_first_failure(vec, check):
    # one component is scaled: by 0 to break invertibility, by 2 to break
    # naturality; the reference finds the first failure by brute force
    kind, what = check.split("-")
    target = vec.probe_objects()[3]
    base = scalar_cycle(vec, 1).component if kind == "cycle" else vec.identity
    lam = 0 if what == "invertible" else 2

    def comp(p):
        return vec.mor_scale(lam, base(p)) if p is target else base(p)

    if what == "invertible":
        def singular(p):
            try:
                vec.invert(comp(p))
            except MorError as exc:
                return f"at {p}: {exc}"

        expected = next((pos, w) for pos, w in enumerate(map(singular, vec.probe_objects()), 1)
                        if w)
    else:
        bad = _failing_arrows(vec, lambda p, q, f: vec.compose(comp(q), vec.ldual_mor(f))
                              != vec.compose(vec.rdual_mor(f), comp(p)))
        assert len({pq for _, pq, _, _ in bad}) >= 2
        pos, _, i, f = bad[0]
        expected = (pos, f"naturality fails at {f}, arrow #{i}")
    family = (cy.CycleData if kind == "cycle" else br.Balance)(vec, comp, "broken")
    res = {r.name: r for r in family.validate()}[check]
    assert not res.ok and (res.count, res.witness) == expected


def test_par_braid_and_stitch_are_built_once_per_model(dz2):
    p, q = dz2.probe_objects()[2:4]
    assert br.Braiding(dz2).par(p, q) is br.Braiding(dz2).par(p, q)
    assert br.stitch(dz2, p) is br.stitch(dz2, p)
