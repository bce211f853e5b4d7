from fractions import Fraction

import pytest

from stautcheck import strictify as st
from stautcheck.core import matrices as mx
from stautcheck.core.objects import UniverseError
from stautcheck.linear import build_vec_model, scalar_cycle
from stautcheck.quantale import build_rel_quantale
from stautcheck.thin import ThinModel, thin_identity_cycle

WINDOW = (-3, 3)


@pytest.fixture(scope="module")
def vm():
    return build_vec_model(2, depth_limit=12)


@pytest.fixture(scope="module")
def tm():
    return ThinModel(build_rel_quantale(2), probe_cap=6, depth_limit=12)


def test_canonical_components(vm):
    p = vm.gen("p")
    z = st.zangify(vm, p)
    assert z.z(0) is p
    assert z.z(1) is vm.rdual(p)
    assert z.z(2) is vm.rdual(vm.rdual(p))
    assert z.z(-1) is vm.ldual(p)
    assert z.z(-2) is vm.ldual(vm.ldual(p))
    assert st.project0(z) is p


def test_structure_table_parity(vm):
    p = vm.gen("p")
    P = st.zangify(vm, p)
    Q = st.zangify(vm, vm.rdual(p))
    PQ = st.zang_ops(P, Q, "tens")
    assert PQ.z(0) is vm.tens(P.z(0), Q.z(0))
    assert PQ.z(1) is vm.par(Q.z(1), P.z(1))
    assert st.zang_ops(P, Q, "rdual").z(0) is P.z(1)
    assert st.zang_ops(P, Q, "ldual").z(0) is P.z(-1)
    e_str = st.zang_ops(P, Q, "e")
    d_str = st.zang_ops(P, Q, "d")
    assert e_str.z(0) is vm.e and e_str.z(1) is vm.d
    assert d_str.z(0) is vm.d and d_str.z(3) is vm.e
    # dual of the tensor-unit string is the par-unit string, componentwise
    assert st.strings_equal_on(st.ShiftZString(e_str, 1), d_str, WINDOW) is None


def test_triangles_all_descriptor_kinds(vm, tm):
    for model in (vm, tm):
        p = model.probe_objects()[2]
        towers = st.zangify(model, p)
        kinds = [towers,
                 st.TensZString(towers, towers),
                 st.ParZString(towers, towers),
                 st.ShiftZString(towers, 1),
                 st.UnitZString(model, "e"),
                 st.UnitZString(model, "d")]
        for s in kinds:
            assert st.check_triangles(s, WINDOW).ok, s.describe()


def test_window_exceeding_universe_depth_errors():
    shallow = build_vec_model(2, depth_limit=2)
    z = st.zangify(shallow, shallow.gen("p"))
    with pytest.raises(UniverseError, match="deeper"):
        z.z(3)


def test_zang_ops_rejects_model_mismatch(vm, tm):
    from stautcheck.core.morphisms import MorError
    P = st.zangify(vm, vm.gen("p"))
    Q = st.zangify(tm, tm.probe_objects()[2])
    with pytest.raises(MorError):
        st.zang_ops(P, Q, "tens")
    with pytest.raises(ValueError):
        st.zang_ops(P, P, "frobnicate")


def test_strict_negations(vm, tm):
    for model in (vm, tm):
        assert st.check_strict_negations(model, WINDOW).ok


def test_equivalence(vm, tm):
    for model in (vm, tm):
        assert st.check_equivalence(model, WINDOW).ok


def test_equivalence_isos_are_double_dual_comparisons(vm):
    p = vm.gen("p")
    cyc = scalar_cycle(vm, 1)
    per = st.period2_from_cycle(vm, p, cyc)
    mate = st.ZMate(per, st.zangify(vm, p), vm.identity(p))
    assert mate.check_mateship(WINDOW).ok
    # in the chosen basis the double-dual comparisons are identity matrices
    for n in range(WINDOW[0], WINDOW[1] + 1):
        assert mate.m(n).payload_is_id


def test_mate_lift_of_morphism(vm, tm):
    p = vm.gen("p")
    f = vm.mor(p, vm.tens(p, p), mx.mat([[1, 0], [0, 1], [2, 0], [0, 3]]))
    assert st.zangify_mor(vm, f).check_mateship(WINDOW).ok
    assert st.zangify_mor(vm, vm.identity(p)).check_mateship(WINDOW).ok
    probes = tm.probe_objects()
    f_thin = next(tm.hom_span(a, b)[0] for a in probes for b in probes
                  if tm.hom_span(a, b))
    assert st.zangify_mor(tm, f_thin).check_mateship(WINDOW).ok


def test_mate_of_identity_is_identity(vm):
    zm = st.zangify_mor(vm, vm.identity(vm.gen("p")))
    for n in range(WINDOW[0], WINDOW[1] + 1):
        assert zm.m(n).payload_is_id


def test_fang_membership_and_closure(vm, tm):
    for model, cycle in ((vm, scalar_cycle(vm, 1)), (tm, thin_identity_cycle(tm))):
        p = model.probe_objects()[2]
        q = model.probe_objects()[3]
        per_p = st.period2_from_cycle(model, p, cycle)
        per_q = st.period2_from_cycle(model, q, cycle)
        assert st.fang_check(per_p, cycle, WINDOW).ok
        assert st.fang_closure(per_p, per_q, cycle, WINDOW).ok


def test_fang_precondition_cites_axiom(vm):
    per = st.period2_from_cycle(vm, vm.gen("p"), scalar_cycle(vm, 1))
    with pytest.raises(st.FangPreconditionError, match="tbin"):
        st.fang_check(per, scalar_cycle(vm, -1), WINDOW)


def test_canonical_tower_is_not_period_two(vm):
    from stautcheck.cyclicity import to_upper
    cyc = scalar_cycle(vm, 1)
    tower = st.zangify(vm, vm.gen("p"))
    assert st.fang_membership(tower, to_upper(cyc), (-1, 1)) is not None


def test_zangcycle_checks(vm, tm):
    for model, cycle in ((vm, scalar_cycle(vm, 1)), (tm, thin_identity_cycle(tm))):
        results = st.check_zangcycle(model, cycle, WINDOW)
        assert all(r.ok for r in results), [(r.name, r.witness) for r in results]


def test_zangcycle_identity_on_fang_components(vm):
    cyc = scalar_cycle(vm, 1)
    per = st.period2_from_cycle(vm, vm.gen("p"), cyc)
    for n in range(-2, 3):
        comp = st.zangcycle_component(per, cyc, n)
        assert comp == vm.identity(per.z(n + 1))


def test_period2_gamma_alternation(vm):
    lam = Fraction(1)
    cyc = scalar_cycle(vm, lam)
    p = vm.gen("p")
    per = st.period2_from_cycle(vm, p, cyc)
    assert per.gamma(0) == vm.dual_counit_r(p)
    # level one pairs the dual against the object through the left counit
    assert per.gamma(1).payload == vm.dual_counit_l(p).payload


def test_unit_tower_next_component_compares_to_dualizer(vm, tm):
    # the canonical tower on the tensor unit has the par unit one step up,
    # through an invertible comparison
    for model in (vm, tm):
        tower = st.zangify(model, model.e)
        assert tower.z(1) is model.rdual(model.e)
        comparison = model.demorgan("unit_dr")
        assert comparison.dom is tower.z(1) and comparison.cod is model.d
        model.invert(comparison)
        if model.is_linear:
            assert model.dim(tower.z(1)) == model.dim(model.d)
        else:
            assert model.value(tower.z(1)) == model.value(model.d)


def test_zangcycle_invertible_reports_its_first_failure(vm, monkeypatch):
    cyc = scalar_cycle(vm, 1)
    towers = [st.zangify(vm, p) for p in vm.probe_objects()[:2]]
    real = st.zangcycle_component
    # singular at index 0 on every string: items (P, n) for n in -1, 0, 1
    monkeypatch.setattr(st, "zangcycle_component", lambda s, c, n: (
        vm.mor_scale(0, real(s, c, n)) if n == 0 else real(s, c, n)))
    res = st.check_zangcycle(vm, cyc, (-2, 2), towers)[0]
    assert res.name == "zangcycle-invertible" and not res.ok
    assert (res.count, res.witness) == (2, f"{towers[0].describe()} at 0")
