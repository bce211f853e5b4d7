from fractions import Fraction

import pytest

from stautcheck import profunctors as pf
from stautcheck.cli import main
from stautcheck import cyclicity as cy
from stautcheck.core.quantify import COVERAGE
from stautcheck.linear import build_vec_model, scalar_cycle
from stautcheck.quantale import (build_bool2, build_luk3, build_rel_quantale,
                                 build_s3_pointed)
from stautcheck.suites import luk3_two_object_vcat, _prof_rel2_bijection
from stautcheck.thin import ThinModel, thin_identity_cycle

from test_quantale_kernel import pair_below_a_point

V2 = build_bool2()
DISC2 = pf.discrete_vcat(V2, ["a", "b"])


def as_vals(pairs):
    """The profunctor of DISC2 that is 1 exactly on ``pairs``."""
    return tuple(1 if k in pairs else 0 for k in DISC2.keys)


def _luk3_vcat(xy, yx):
    v = build_luk3()
    one = v.index(Fraction(1))
    return pf.VCat(v, ["x", "y"], {("x", "x"): one, ("x", "y"): v.index(xy),
                                   ("y", "x"): v.index(yx), ("y", "y"): one})


def test_vcat_rejects_bad_hom():
    with pytest.raises(pf.ProfError):
        pf.VCat(V2, ["a"], {("a", "a"): 0})


def test_vcat_keys_are_row_major():
    assert DISC2.keys == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_action_violation_rejects_left_action():
    c = _luk3_vcat(Fraction(1, 2), Fraction(0))
    zero, one = (c.base.index(Fraction(k)) for k in (0, 1))
    # fails the left action along hom(x, y) = 1/2
    f = (zero, zero, one, zero)
    assert pf.action_violation(c, f) == ("left", "x", "y", "x")
    with pytest.raises(pf.ProfError, match="action inequality fails"):
        pf.dual_prof(c, f, "right")


def test_action_violation_rejects_right_action():
    c = _luk3_vcat(Fraction(1, 2), Fraction(0))
    zero, one = (c.base.index(Fraction(k)) for k in (0, 1))
    # passes the left action, fails the right one along hom(x, y) = 1/2
    f = (one, zero, zero, zero)
    assert pf.action_violation(c, f) == ("right", "x", "x", "y")
    with pytest.raises(pf.ProfError, match="action inequality fails"):
        pf.dual_prof(c, f, "left")


def test_compose_discrete_example():
    f = as_vals({("a", "b")})
    g = as_vals({("b", "a")})
    assert pf.compose_prof(DISC2, f, g) == as_vals({("a", "a")})


def test_identity_profunctor_neutral():
    i = pf.identity_prof(DISC2)
    for pairs in ({("a", "b")}, {("a", "a"), ("b", "a")}, set()):
        f = as_vals(pairs)
        assert pf.compose_prof(DISC2, i, f) == f
        assert pf.compose_prof(DISC2, f, i) == f


def test_compose_associative_exhaustive():
    profs, exhaustive = pf.enumerate_profs(DISC2)
    assert exhaustive and len(profs) == 16
    for f in profs[:8]:
        for g in profs[:8]:
            for h in profs[:8]:
                lhs = pf.compose_prof(DISC2, f, pf.compose_prof(DISC2, g, h))
                rhs = pf.compose_prof(DISC2, pf.compose_prof(DISC2, f, g), h)
                assert lhs == rhs


def test_par_of_all_top_is_all_top():
    top = as_vals(set(DISC2.keys))
    assert pf.par_prof(DISC2, top, top) == top


def test_dual_is_complement_of_reverse():
    f = as_vals({("a", "b"), ("b", "b")})
    expected = tuple(0 if (r, q) in {("a", "b"), ("b", "b")} else 1
                     for q, r in DISC2.keys)
    assert pf.dual_prof(DISC2, f, "right") == expected
    assert pf.dual_prof(DISC2, f, "left") == expected


def test_dualizer_is_perp_of_reversed_hom():
    assert pf.dualizer_prof(DISC2) == (0, 1, 1, 0)
    c = luk3_two_object_vcat()
    # perp(hom(r, q)) = 1 - hom(r, q) at (q, r), for hom(x, y) = 1/2, hom(y, x) = 0
    assert [c.base.name(x) for x in pf.dualizer_prof(c)] == ["0", "1", "1/2", "0"]


def test_double_dual_is_identity_exhaustive():
    profs, _ = pf.enumerate_profs(DISC2)
    for f in profs:
        assert pf.dual_prof(DISC2, pf.dual_prof(DISC2, f, "right"), "left") == f
        assert pf.dual_prof(DISC2, pf.dual_prof(DISC2, f, "left"), "right") == f


def test_demorgan_pointwise_exhaustive():
    profs, _ = pf.enumerate_profs(DISC2)
    for f in profs[:6]:
        for g in profs[:6]:
            lhs = pf.dual_prof(DISC2, pf.compose_prof(DISC2, f, g), "right")
            rhs = pf.par_prof(DISC2, pf.dual_prof(DISC2, g, "right"),
                              pf.dual_prof(DISC2, f, "right"))
            assert lhs == rhs


@pytest.mark.parametrize("c", [
    DISC2,
    _luk3_vcat(Fraction(1, 2), Fraction(0)),
    _luk3_vcat(Fraction(1), Fraction(1)),
], ids=["disc2", "luk3-1/2-0", "luk3-1-1"])
def test_prof_quantale_duals_and_par_are_the_pointwise_formulas(c):
    # the kernel's residual sweeps on Prof(c, c) against the transposed
    # pointwise duals and the meet-of-pars composite
    pq = pf.build_prof_quantale(c, pf.enumerate_profs(c))
    vals = pq.values
    for x in pq.elements:
        assert vals[pq.perp(x)] == pf.dual_prof(c, vals[x], "right"), pq.name(x)
        assert vals[pq.prep(x)] == pf.dual_prof(c, vals[x], "left"), pq.name(x)
        for y in pq.elements:
            assert vals[pq.par(x, y)] == pf.par_prof(c, vals[x], vals[y]), (x, y)


def test_compose_requires_cyclic_base():
    q = build_s3_pointed("(01)")
    c = pf.discrete_vcat(q, ["x"])
    f = pf.identity_prof(c)
    with pytest.raises(pf.ProfError, match="not cyclic"):
        pf.compose_prof(c, f, f)


def test_one_object_prof_is_base():
    v = build_rel_quantale(1)
    c = pf.discrete_vcat(v, ["x"])
    pq = pf.build_prof_quantale(c, pf.enumerate_profs(c))
    assert len(pq.elements) == len(v.elements)
    bij = {el: pq.values[el][0] for el in pq.elements}
    for a in pq.elements:
        for b in pq.elements:
            assert bij[pq.tensor(a, b)] == v.tensor(bij[a], bij[b])
    assert bij[pq.unit] == v.unit and bij[pq.dualizer] == v.dualizer


def test_disc2_prof_quantale_is_rel2():
    pq = pf.build_prof_quantale(DISC2, pf.enumerate_profs(DISC2))
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


@pytest.mark.parametrize("vcat, whole, counts", [
    (lambda: DISC2, False, (144, 12, 216)),
    (pair_below_a_point, True, (36, 6, 216)),
], ids=["disc2-16-profunctors", "pair-below-a-point-6-profunctors"])
def test_pointwise_prof_checks_report_their_coverage(vcat, whole, counts):
    checks = {c.name: c for c in pf.check_prof_staut(vcat())[0]}
    names = ("prof-demorgan-pointwise", "prof-duality-unit-counit", "prof-linear-distribution")
    assert [(checks[n].ok, checks[n].exhaustive, checks[n].count) for n in names] == [
        (True, whole, count) for count in counts]


def test_check_prof_staut_sampled_path(monkeypatch):
    monkeypatch.setitem(COVERAGE, "prof-candidates", 10)
    checks, profile, pq = pf.check_prof_staut(luk3_two_object_vcat())
    assert profile is None and pq is None
    # a check over a sample of the profunctors covers a sample, however
    # few the found ones are
    assert all(c.ok and not c.exhaustive for c in checks)
    c = luk3_two_object_vcat()
    with pytest.raises(pf.ProfError, match="exhaustive"):
        pf.build_prof_quantale(c, pf.enumerate_profs(c))


def test_contraposition_agreement_vec_and_thin(monkeypatch):
    vec = build_vec_model(2)
    assert pf.check_contraposition_agreement(vec, scalar_cycle(vec, 1), seed=4).ok
    monkeypatch.setitem(COVERAGE, "contraposition-arrows", 20)
    thin = ThinModel(build_rel_quantale(2))
    assert pf.check_contraposition_agreement(thin, thin_identity_cycle(thin), seed=4).ok


def test_contraposition_needs_tensor_semicycle(monkeypatch):
    monkeypatch.setitem(COVERAGE, "contraposition-arrows", 10)
    vec = build_vec_model(2)
    res = pf.check_contraposition_agreement(vec, scalar_cycle(vec, 3), seed=4)
    assert not res.ok


def test_prof_quantale_is_bounded(tmp_path, capsys, monkeypatch):
    # the discrete three-object bool2 category has 512 profunctors and is
    # built; the luk3 one has 19,683 and is refused before any quantale is
    disc3 = pf.discrete_vcat(V2, ["a", "b", "c"])
    assert len(pf.build_prof_quantale(disc3, pf.enumerate_profs(disc3))) == 512
    path = tmp_path / "disc3-luk3.vcat"
    path.write_text("quantale luk3\nobjects a b c\n" + "".join(
        f"hom {x} {y} {1 if x == y else 0}\n" for x in "abc" for y in "abc"))
    built = []
    monkeypatch.setattr(pf, "Quantale", lambda *args, **kwargs: built.append(args))
    assert main(["prof", "check", str(path)]) == 2
    assert "19,683 elements" in capsys.readouterr().err and not built
