from fractions import Fraction
from functools import partial

import pytest

from stautcheck import profunctors as pf
from stautcheck import cyclicity as cy
from stautcheck.linear import build_vec_model, scalar_cycle
from stautcheck.quantale import (build_bool2, build_luk3, build_rel_quantale,
                                 build_s3_pointed)
from stautcheck.suites import luk3_two_object_vcat, _prof_rel2_bijection
from stautcheck.thin import ThinModel, thin_identity_cycle

V2 = build_bool2()
DISC2 = pf.discrete_vcat(V2, ["a", "b"])


def prof(vals):
    return pf.VProf(DISC2, DISC2, vals)


def as_vals(pairs):
    return {(x, y): (1 if (x, y) in pairs else 0)
            for x in "ab" for y in "ab"}


def test_vcat_rejects_bad_hom():
    with pytest.raises(pf.ProfError):
        pf.VCat(V2, ["a"], {("a", "a"): 0})


def test_vprof_rejects_action_violation():
    v = build_luk3()
    one, half, zero = (v.index(Fraction(k, 2)) for k in (2, 1, 0))
    c = pf.VCat(v, ["x", "y"], {("x", "x"): one, ("x", "y"): half,
                                ("y", "x"): zero, ("y", "y"): one})
    with pytest.raises(pf.ProfError):
        # fails the left action along hom(x, y) = 1/2
        pf.VProf(c, c, {("x", "x"): zero, ("x", "y"): zero,
                        ("y", "x"): one, ("y", "y"): zero})


def test_compose_discrete_example():
    f = prof(as_vals({("a", "b")}))
    g = prof(as_vals({("b", "a")}))
    assert pf.compose_prof(f, g).values == as_vals({("a", "a")})


def test_identity_profunctor_neutral():
    i = pf.identity_prof(DISC2)
    for pairs in ({("a", "b")}, {("a", "a"), ("b", "a")}, set()):
        f = prof(as_vals(pairs))
        assert pf.compose_prof(i, f).values == f.values
        assert pf.compose_prof(f, i).values == f.values


def test_compose_associative_exhaustive():
    profs, exhaustive = pf.enumerate_profs(DISC2)
    assert exhaustive and len(profs) == 16
    for fa in profs[:8]:
        for fb in profs[:8]:
            for fc in profs[:8]:
                f, g, h = prof(fa), prof(fb), prof(fc)
                lhs = pf.compose_prof(f, pf.compose_prof(g, h))
                rhs = pf.compose_prof(pf.compose_prof(f, g), h)
                assert lhs.values == rhs.values


def test_par_of_all_top_is_all_top():
    top = prof(as_vals({(x, y) for x in "ab" for y in "ab"}))
    assert pf.par_prof(top, top).values == top.values


def test_dual_is_complement_of_reverse():
    f = prof(as_vals({("a", "b"), ("b", "b")}))
    d = pf.dual_prof(f, "right")
    expected = {(q, r): (0 if (r, q) in {("a", "b"), ("b", "b")} else 1)
                for q in "ab" for r in "ab"}
    assert d.values == expected
    assert pf.dual_prof(f, "left").values == expected


def test_dual_of_identity_is_dualizer():
    assert pf.dual_prof(pf.identity_prof(DISC2), "right").values == \
        pf.dualizer_prof(DISC2).values


def test_double_dual_is_identity_exhaustive():
    profs, _ = pf.enumerate_profs(DISC2)
    for vals in profs:
        f = prof(vals)
        assert pf.dual_prof(pf.dual_prof(f, "right"), "left").values == vals
        assert pf.dual_prof(pf.dual_prof(f, "left"), "right").values == vals


def test_demorgan_pointwise_exhaustive():
    profs, _ = pf.enumerate_profs(DISC2)
    for fa in profs[:6]:
        for fb in profs[:6]:
            f, g = prof(fa), prof(fb)
            lhs = pf.dual_prof(pf.compose_prof(f, g), "right")
            rhs = pf.par_prof(pf.dual_prof(g, "right"), pf.dual_prof(f, "right"))
            assert lhs.values == rhs.values


def test_compose_requires_cyclic_base():
    q = build_s3_pointed("(01)")
    c = pf.discrete_vcat(q, ["x"])
    f = pf.identity_prof(c)
    with pytest.raises(pf.ProfError, match="not cyclic"):
        pf.compose_prof(f, f)


def test_one_object_prof_is_base():
    v = build_rel_quantale(1)
    c = pf.discrete_vcat(v, ["x"])
    pq = pf.build_prof_quantale(c)
    assert len(pq.elements) == len(v.elements)
    bij = {el: pq.values[el][0] for el in pq.elements}
    for a in pq.elements:
        for b in pq.elements:
            assert bij[pq.tensor(a, b)] == v.tensor(bij[a], bij[b])
    assert bij[pq.unit] == v.unit and bij[pq.dualizer] == v.dualizer


def test_disc2_prof_quantale_is_rel2():
    pq = pf.build_prof_quantale(DISC2)
    assert _prof_rel2_bijection(pq).ok


def test_check_prof_staut_disc2_full():
    checks, profile, pq = pf.check_prof_staut(DISC2)
    assert all(c.ok for c in checks), [(c.name, c.witness) for c in checks if not c.ok]
    assert profile.cycle
    assert not cy.dependency_violations(profile)


def test_check_prof_staut_luk3():
    checks, profile, pq = pf.check_prof_staut(luk3_two_object_vcat())
    assert all(c.ok for c in checks)
    assert profile.cycle
    assert len(pq.elements) >= 3


def test_check_prof_staut_sampled_path(monkeypatch):
    monkeypatch.setattr(pf, "enumerate_profs", partial(pf.enumerate_profs, cap=10))
    checks, profile, pq = pf.check_prof_staut(luk3_two_object_vcat())
    assert profile is None and pq is None
    enum = next(c for c in checks if c.name == "prof-enumeration")
    assert not enum.exhaustive
    assert all(c.ok for c in checks)
    with pytest.raises(pf.ProfError, match="exhaustive"):
        pf.build_prof_quantale(luk3_two_object_vcat())


def test_contraposition_agreement_vec_and_thin(monkeypatch):
    vec = build_vec_model(2)
    assert pf.check_contraposition_agreement(vec, scalar_cycle(vec, 1), seed=4).ok
    monkeypatch.setattr(pf, "_CONTRAPOSITION_SAMPLES", 20)
    thin = ThinModel(build_rel_quantale(2))
    assert pf.check_contraposition_agreement(thin, thin_identity_cycle(thin), seed=4).ok


def test_contraposition_needs_tensor_semicycle(monkeypatch):
    monkeypatch.setattr(pf, "_CONTRAPOSITION_SAMPLES", 10)
    vec = build_vec_model(2)
    res = pf.check_contraposition_agreement(vec, scalar_cycle(vec, 3), seed=4)
    assert not res.ok
