"""Axiom engine: the scalar family against the independent exponent oracle,
the two forms of one cycle, binders, and the consistency meta-checks."""

from fractions import Fraction

import pytest

from stautcheck import cyclicity as cy
from stautcheck import profunctors as pf
from stautcheck import suites
from stautcheck.core import matrices as mx
from stautcheck.core.model import StautModel
from stautcheck.core.morphisms import MorError, ShapeError
from stautcheck.core.quantify import COVERAGE, draw
from stautcheck.linear import build_vec_model, scalar_cycle
from stautcheck.quantale import build_rel_quantale
from stautcheck.scalar_oracle import SCALAR_EXPONENTS, predicted_profile
from stautcheck.thin import ThinModel, thin_identity_cycle

from test_core import ScaledDualityVec


@pytest.fixture(scope="module")
def vec2():
    return build_vec_model(2, depth_limit=12)


def test_oracle_covers_all_axioms():
    assert set(SCALAR_EXPONENTS) == set(cy.AXIOMS)


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(-1), Fraction(2),
                                 Fraction(1, 2), Fraction(-3, 2)])
def test_scalar_profile_matches_oracle(vec2, lam):
    profile = cy.classify(scalar_cycle(vec2, lam))
    assert profile.verdicts == predicted_profile(lam)


def test_minus_one_is_the_separation(vec2):
    profile = cy.classify(scalar_cycle(vec2, -1))
    assert profile.quasicycle and not profile.cycle
    assert not profile.verdicts["tbin"] and not profile.verdicts["pbin"]


def test_lambda_one_is_a_cycle(vec2):
    profile = cy.classify(scalar_cycle(vec2, 1))
    assert all(profile.verdicts.values())


def test_thin_identity_cycle_all_axioms():
    model = ThinModel(build_rel_quantale(2), probe_cap=6, depth_limit=12)
    profile = cy.classify(thin_identity_cycle(model))
    assert all(profile.verdicts.values())


def test_to_upper_to_lower_roundtrip(vec2):
    # a cycle given by another's hom-set bijections has its components
    c = scalar_cycle(vec2, Fraction(-7, 3))
    back = cy.CycleData(vec2, apply_fn=c.apply, unapply_fn=c.unapply)
    for p in vec2.probe_objects():
        assert back.component(p) == c.component(p)


@pytest.mark.parametrize("lam", [1, -1, 2, None],
                         ids=["vec-1", "vec-minus-1", "vec-2", "thin-rel2"])
def test_both_constructors_agree(lam):
    # the hom-level constructor derives the components the object-level one
    # was given, and the two classify alike
    if lam is None:
        model = ThinModel(build_rel_quantale(2), probe_cap=6, depth_limit=12)
        c = thin_identity_cycle(model)
    else:
        model = build_vec_model(2)
        c = scalar_cycle(model, lam)
    h = cy.CycleData(model, apply_fn=c.apply, unapply_fn=c.unapply)
    for p in model.probe_objects():
        assert h.component(p) == c.component(p)
    want, got = cy.classify(c, seed=3), cy.classify(h, seed=3)
    assert (got.verdicts, got.witnesses) == (want.verdicts, want.witnesses)
    assert want.cycle == (lam in (1, None))


def test_a_cycle_is_given_in_exactly_one_form(vec2):
    comp = scalar_cycle(vec2, 1).component
    with pytest.raises(TypeError):
        cy.CycleData(vec2)
    with pytest.raises(TypeError):
        cy.CycleData(vec2, comp, apply_fn=lambda p, t, om: om)


def test_upper_bijection_on_spans(vec2):
    c = scalar_cycle(vec2, 2)
    p = vec2.gen("p")
    t = vec2.rdual(p)
    for om in vec2.hom_span(vec2.tens(p, t), vec2.d):
        psi = c.apply(p, t, om)
        assert c.unapply(p, t, psi) == om


def test_apply_reads_each_value_once_and_matches_the_uncached_map(vec2):
    c = scalar_cycle(vec2, Fraction(-7, 3))
    p = vec2.gen("p")
    t = vec2.ldual(p)
    for om in vec2.hom_span(vec2.tens(p, t), vec2.d):
        again = vec2.mor(om.dom, om.cod, mx.mat(mx.dense(om.payload)))
        assert c.apply(p, t, om) is c.apply(p, t, again)
        assert c.apply(p, t, om) == c._apply(p, t, om)


def test_an_apply_that_raises_raises_again(thin_rel2):
    # d is not below e in rel:2, so this map has no arrow to return; no
    # failure is cached, so a check that reaches it again keeps its witness
    m, calls = thin_rel2, []

    def ap(p, t, omega):
        calls.append(p)
        return m.mor(m.d, m.e)

    c = cy.CycleData(m, apply_fn=ap)
    om = m.hom_span(m.tens(m.e, m.d), m.d)[0]
    for _ in range(2):
        with pytest.raises(MorError, match="no witness"):
            c.apply(m.e, m.d, om)
    assert len(calls) == 2


def test_upper_shape_errors(vec2):
    c = scalar_cycle(vec2, 1)
    p = vec2.gen("p")
    with pytest.raises(ShapeError):
        c.apply(p, p, vec2.identity(p))


def test_big_cycle_linear_in_omega(vec2):
    c = scalar_cycle(vec2, Fraction(5, 2))
    p = vec2.gen("p")
    t = vec2.ldual(p)
    span = vec2.hom_span(vec2.tens(p, t), vec2.d)
    om, om2 = span[0], span[3]

    def combo(f, g):
        return vec2.mor(f.dom, f.cod, mx.add(mx.scale(3, f.payload),
                                             mx.scale(-2, g.payload)))

    assert c.apply(p, t, combo(om, om2)) == combo(c.apply(p, t, om), c.apply(p, t, om2))


def test_scalar_cycle_rejects_zero(vec2):
    with pytest.raises(Exception):
        scalar_cycle(vec2, 0)


def test_cycle_validation(vec2):
    results = scalar_cycle(vec2, Fraction(4, 7)).validate()
    assert all(r.ok for r in results)


def test_upper_transform_of_counit(vec2):
    # the hom-level family sends the right counit to the left one scaled
    lam = Fraction(3)
    c = scalar_cycle(vec2, lam)
    p = vec2.gen("p")
    got = c.apply(p, vec2.rdual(p), vec2.dual_counit_r(p))
    want = vec2.mor_scale(lam, vec2.dual_counit_l(p))
    # same matrix up to the dual identification chosen by the backend
    assert got.payload == want.payload


def test_rbind_of_counits_is_composite_counit(vec2):
    # through the de Morgan comparison, the bound pair of counits is the
    # counit of the tensor
    m = vec2
    p = m.gen("p")
    q = m.rdual(p)
    bound = m.rbind(m.dual_counit_r(p), m.dual_counit_r(q))
    lhs = m.chain(m.tens_mor(m.identity(m.tens(p, q)),
                             m.demorgan("tens_r", p, q)),
                  bound)
    assert lhs == m.dual_counit_r(m.tens(p, q))


def test_binder_shapes(vec2):
    m = vec2
    p = m.gen("p")
    om = m.dual_counit_r(p)
    ps = m.dual_counit_r(m.e)
    got = m.lbind(om, ps)
    assert got.dom is m.tens(m.par(p, m.e),
                             m.tens(m.rdual(m.e), m.rdual(p)))
    with pytest.raises(ShapeError):
        m.lbind(m.identity(p), ps)


def test_base_identity_vec_and_thin(vec2):
    assert cy.check_base_identity(vec2, seed=1).ok
    thin = ThinModel(build_rel_quantale(2))
    # no drawn quadruple is vacuous: each has exactly one arrow pair, and
    # rel:2 has more than COVERAGE["tuples"] quadruples with arrows into d
    res = cy.check_base_identity(thin, seed=1)
    assert res.ok and res.count == COVERAGE["tuples"]


def test_base_identity_covers_every_spanning_pair():
    # each drawn quadruple (q, s, t, p) brings every pair of spanning arrows
    # of Hom(q (x) s, d) x Hom(t (x) p, d)
    vec = build_vec_model(2)
    res = cy.check_base_identity(vec, seed=3)
    tuples, _ = cy._draws(vec, 3)[4, None, ((0, 1), (2, 3))]
    want = sum(len(vec.hom_span(vec.tens(q, s), vec.d)) * len(vec.hom_span(vec.tens(t, p), vec.d))
               for q, s, t, p in tuples)
    assert res.ok and res.count == want == 213


def test_base_identity_fails_on_a_scaled_distribution():
    res = cy.check_base_identity(ScaledDualityVec("dist_l"), seed=3)
    assert (res.ok, res.count, res.witness) == (False, 1, "at (p,e,(p⊗p),p)")


def test_base_identity_draws_its_tuples_from_the_seed(monkeypatch):
    thin = ThinModel(build_rel_quantale(2))
    seen = []

    def spy(*args):
        tuples, exhaustive = draw(*args)
        seen.append(tuples)
        return tuples, exhaustive

    monkeypatch.setattr(cy, "draw", spy)
    for seed in (0, 3):
        cy.check_base_identity(thin, seed=seed)

    def has_arrow(x, y):
        return bool(thin.hom_span(thin.tens(x, y), thin.d))

    live = [((0, 1), has_arrow), ((2, 3), has_arrow)]
    want = [draw(thin, thin.probe_objects(), 4, COVERAGE["tuples"], COVERAGE["axiom-dims"],
                 seed * 1000003 + 4, live)[0] for seed in (0, 3)]
    assert seen == want and want[0] != want[1]


@pytest.mark.parametrize("run", [
    lambda seed: suites.quantale_suite(build_rel_quantale(2), seed=seed),
    lambda seed: pf.check_prof_staut(pf.discrete_vcat(build_rel_quantale(1), ["x"]), seed=seed),
], ids=["quantale_suite", "check_prof_staut"])
def test_axiom_classification_draws_from_the_seed(monkeypatch, run):
    seeds = []

    def spy(*args):
        seeds.append(args[5])
        return draw(*args)

    monkeypatch.setattr(cy, "draw", spy)
    run(5)
    # one draw per shape of axiom row: rows of one shape share their draw
    shapes = {(ax.arity, ax.dim_cap, ax.spans) for ax in cy._AXIOMS.values()}
    assert len(seeds) >= len(shapes)
    assert {s // 1000003 for s in seeds} == {5}


def test_dependency_table_rejects_contradiction():
    good = cy.classify(scalar_cycle(build_vec_model(1), 1))
    broken = cy.AxiomProfile(dict(good.verdicts), label="forged")
    broken.verdicts["tbin"] = True
    broken.verdicts["t0"] = False
    res = cy.check_dependency_table([good, broken])
    assert not res.ok and "forged" in res.witness


def test_equivalences_reject_contradiction():
    good = cy.classify(scalar_cycle(build_vec_model(1), 1))
    broken = cy.AxiomProfile(dict(good.verdicts), label="forged")
    broken.verdicts["e2"] = False
    assert not cy.check_upper_lower_equivalences([broken]).ok


def test_equivalences_over_many_profiles_give_one_result():
    good = cy.classify(scalar_cycle(build_vec_model(1), 1))
    forged = []
    for label in ("first", "second"):
        broken = cy.AxiomProfile(dict(good.verdicts), label=label)
        broken.verdicts["e2"] = False
        forged.append(broken)
    res = cy.check_upper_lower_equivalences([good] + forged)
    assert not res.ok and res.name == "case-change-equivalences"
    assert res.witness == "first: tbin<=>e2<=>m2prime"
    assert res.count == 5


def test_check_axiom_reports_witness(vec2):
    res = cy.check_axiom(scalar_cycle(vec2, 2), "tbin")
    assert not res.ok and res.witness


def test_unknown_axiom_rejected(vec2):
    with pytest.raises(ValueError):
        cy.check_axiom(scalar_cycle(vec2, 1), "frobnicate")


def test_classify_draws_once_per_row_shape(monkeypatch):
    # fails some axioms; each row alone is checked on a model of its own,
    # which keeps its own draws
    alone = {a: cy.check_axiom(scalar_cycle(build_vec_model(1), 2), a, seed=2)
             for a in cy.AXIOMS}
    cycle = scalar_cycle(build_vec_model(1), 2)
    calls = []

    def spy(*args):
        calls.append(args[2:6])
        return draw(*args)

    monkeypatch.setattr(cy, "draw", spy)
    profile = cy.classify(cycle, seed=2)
    shapes = {(ax.arity, ax.dim_cap, ax.spans) for ax in cy._AXIOMS.values()}
    assert len(calls) == len(shapes) == 9
    # sharing a draw changes no verdict and no witness
    assert not profile.cycle
    assert profile.verdicts == {a: r.ok for a, r in alone.items()}
    assert profile.witnesses == {a: r.witness for a, r in alone.items() if not r.ok}


def test_classify_draws_once_per_model_and_seed(monkeypatch):
    # a scalar table classifies several cycles on one model with one seed
    model = build_vec_model(1)
    seeds = []

    def spy(*args):
        seeds.append(args[5] // 1000003)
        return draw(*args)

    monkeypatch.setattr(cy, "draw", spy)
    first = cy.classify(scalar_cycle(model, 2), seed=4)
    assert seeds == [4] * 9
    second = cy.classify(scalar_cycle(model, 2), seed=4)
    assert seeds == [4] * 9
    assert (second.verdicts, second.witnesses) == (first.verdicts, first.witnesses)
    cy.classify(scalar_cycle(model, -1), seed=5)
    assert seeds == [4] * 9 + [5] * 9


@pytest.mark.parametrize("lam", [1, 2])
def test_a_cycle_classified_after_another_reads_none_of_its_mates(lam):
    # the model keeps the mates of arrows by value across cycles; -lam's
    # components differ from lam's, so no mate of one may answer for the other
    model = build_vec_model(2)
    cy.classify(scalar_cycle(model, lam), seed=1)
    after = cy.classify(scalar_cycle(model, -lam), seed=1)
    fresh = cy.classify(scalar_cycle(build_vec_model(2), -lam), seed=1)
    assert (after.verdicts, after.witnesses) == (fresh.verdicts, fresh.witnesses)


def _curry_left_calls(monkeypatch, run):
    calls = []
    build = StautModel.curry_left
    monkeypatch.setattr(StautModel, "curry_left",
                        lambda self, *args: calls.append(1) or build(self, *args))
    run()
    return len(calls)


def test_a_scalar_table_curries_each_value_once(monkeypatch):
    # 3,886 curry_left calls before mates were cached by value
    assert _curry_left_calls(monkeypatch, lambda: suites.scalar_table_suite(0)) <= 1600


def test_a_thin_classification_curries_each_value_once(monkeypatch):
    # 492 curry_left calls before mates were cached by value
    model = ThinModel(build_rel_quantale(2))
    assert _curry_left_calls(monkeypatch,
                             lambda: cy.classify(thin_identity_cycle(model))) <= 300
