"""Interface-level behaviour shared by the backends: composition typing,
curry bijections, canonical isomorphisms, the invariant suite."""

from fractions import Fraction
from itertools import product
import re

import pytest

from stautcheck import cyclicity as cyc
from stautcheck import profunctors as pf
from stautcheck import strictify as st
from stautcheck.core import matrices as mx
from stautcheck.core.model import Adjunction
from stautcheck.core.morphisms import CompositionError, Mor, MorError, ShapeError
from stautcheck.core.objects import GEN, UniverseError
from stautcheck.core.quantify import draw
from stautcheck.core.validate import validate_staut
from stautcheck.quantale import build_luk3, build_rel_quantale, build_s3_pointed, build_zmod
from stautcheck.thin import ThinModel
from stautcheck.drinfeld import build_drinfeld_z2
from stautcheck.linear import GradedLineModel, Space, VecModel, build_vec_model


def test_hash_consing(vec):
    p = vec.gen("p")
    assert vec.tens(p, p) is vec.tens(p, p)
    assert vec.rdual(vec.tens(p, p)) is vec.rdual(vec.tens(p, p))
    assert vec.tens(p, p) is not vec.par(p, p)


def test_unknown_generator(vec, dz2):
    with pytest.raises(UniverseError, match=r"'nope'; declared: \['p'\]"):
        vec.gen("nope")
    names = "'s_pp', 's_pm', 's_mp', 's_mm', 'regular'"
    with pytest.raises(UniverseError, match=rf"declared: \[{names}\]"):
        dz2.gen("nope")


def test_depth_and_key_of_each_kind(vec):
    p = vec.gen("p")
    assert (p.depth, vec.e.depth, vec.d.depth) == (0, 0, 0)
    rp = vec.rdual(p)
    lrp = vec.ldual(rp)
    assert (rp.depth, lrp.depth) == (1, 2)
    assert vec.tens(lrp, p).depth == 3 and vec.tens(vec.e, lrp).depth == 3
    assert vec.par(vec.d, vec.tens(lrp, p)).depth == 4
    assert str(vec.par(rp, vec.tens(vec.ldual(vec.e), vec.d))) == "(⊥p⅋(ᵖe⊗d))"


def test_keys_of_nested_objects():
    m = VecModel({"a": 1, "b": 2})
    a, b = m.gen("a"), m.gen("b")
    x = m.tens(a, m.rdual(b))
    assert (str(x), repr(x)) == ("(a⊗⊥b)", "ObjRef((a⊗⊥b))")
    assert str(m.par(m.ldual(x), m.tens(m.e, m.d))) == "(ᵖ(a⊗⊥b)⅋(e⊗d))"
    assert m.tens(a, m.rdual(b)) is x and not hasattr(x, "__dict__")


def test_the_key_of_a_deep_object_needs_no_deep_stack():
    m = VecModel({"a": 1}, depth_limit=5000)
    x = m.gen("a")
    for _ in range(5000):
        x = m.rdual(x)
    assert str(x) == "⊥" * 5000 + "a"


def test_mor_equality_hash_and_text(vec, thin_rel2):
    p, q = vec.gen("p"), vec.tens(vec.gen("p"), vec.e)
    f = Mor(p, q, mx.mat([[1, 0], [0, 2]]))
    assert f == Mor(p, q, mx.mat([[1, 0], [0, 2]]), True)
    assert f != Mor(p, q, mx.mat([[1, 0], [0, 3]])) and f != Mor(q, p, f.payload)
    assert f.__eq__("p -> (p⊗e)") is NotImplemented and f != "p -> (p⊗e)"
    assert hash(f) == hash((p, q)) == hash(Mor(p, q))
    assert str(f) == "p -> (p⊗e)"
    assert repr(f) == f"Mor(p -> (p⊗e), {f.payload!r})"
    assert not hasattr(f, "__dict__")
    g = thin_rel2.identity(thin_rel2.e)
    assert (g.payload, g.payload_is_id) == (None, True)
    assert (str(g), repr(g)) == ("e -> e", "Mor(e -> e)")
    assert g == thin_rel2.mor(thin_rel2.e, thin_rel2.e)


def test_equal_matrices_built_by_different_routes_hash_equal():
    a = mx.mat([[Fraction(1, 2), 0], [0, 3]])
    b = mx.scale(Fraction(1, 4), mx.scale(2, mx.mat([[1, 0], [0, 6]])))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a"
    assert hash(mx.identity(3)) == hash(mx.mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def _rebuilt(m, f):
    """An arrow equal to ``f`` that is not ``f``, its matrix built anew."""
    payload = None if f.payload is None else mx.mat(mx.dense(f.payload))
    g = m.mor(f.dom, f.cod, payload)
    assert g is not f and g == f
    return g


@pytest.mark.parametrize("make", [lambda: ThinModel(build_rel_quantale(2)),
                                  lambda: build_vec_model(2), build_drinfeld_z2],
                         ids=["thin-rel:2", "vec-2", "double-z2"])
def test_mates_of_equal_arrows_are_one_object_and_the_recipe(make):
    # curries and duals of arrows are cached by value; each is checked on
    # every spanning arrow, so a key that lost the payload would hand one
    # arrow's mate to the next
    m = make()
    tested = 0
    for p, t in product(m.probe_objects()[:4], repeat=2):
        for f in m.hom_span(m.tens(p, t), m.d):
            assert m.lcurry(f) is m.lcurry(_rebuilt(m, f))
            assert m.lcurry(f) == m.curry_left(m.rdual_adj(p), f)
            assert m.rcurry(f) is m.rcurry(_rebuilt(m, f))
            assert m.rcurry(f) == m.curry_right(m.ldual_adj(t), f)
            tested += 1
        for f in m.hom_span(p, t):
            q = f.cod
            assert m.rdual_mor(f) is m.rdual_mor(_rebuilt(m, f))
            ev = m.chain(m.tens_mor(f, m.identity(m.rdual(q))), m.dual_counit_r(q))
            assert m.rdual_mor(f) == m.curry_left(m.rdual_adj(p), ev)
            assert m.ldual_mor(f) is m.ldual_mor(_rebuilt(m, f))
            ev = m.chain(m.tens_mor(m.identity(m.ldual(q)), f), m.dual_counit_l(q))
            assert m.ldual_mor(f) == m.curry_right(m.ldual_adj(p), ev)
            tested += 1
    assert tested > 8


def test_a_thin_arrow_that_does_not_exist_raises_on_every_call(thin_rel2):
    m = thin_rel2
    top = m.gen(m.q.name(m.q.meta["full"]))
    for _ in range(3):
        with pytest.raises(MorError, match="no witness"):
            m.mor(top, m.e)
    assert m.hom_span(top, m.e) == []


def test_object_values_thin():
    # a non-cyclic base, so that the two duals differ
    m = ThinModel(build_s3_pointed("(01)"))
    q = m.q
    assert (m.value(m.e), m.value(m.d)) == (q.unit, q.dualizer)
    gens = [m.gen(q.name(x)) for x in q.elements]
    assert [m.value(x) for x in gens] == list(q.elements)
    assert any(q.perp(x) != q.prep(x) for x in q.elements)
    for x in gens:
        vx = m.value(x)
        assert m.value(m.rdual(x)) == q.perp(vx)
        assert m.value(m.ldual(x)) == q.prep(vx)
        for y in gens:
            assert m.value(m.tens(x, y)) == q.tensor(vx, m.value(y))
            assert m.value(m.par(x, y)) == q.par(vx, m.value(y))


def test_object_values_linear(vec, graded, dz2):
    p = vec.gen("p")
    assert vec.value(vec.e) == vec.value(vec.d) == Space(1)
    assert vec.value(vec.rdual(p)) == vec.value(vec.ldual(p)) == vec.value(p) == Space(2)
    assert vec.value(vec.tens(p, p)) == vec.value(vec.par(p, p)) == Space(4)
    assert vec.value(vec.par(p, vec.e)) == Space(2)

    x = graded.gen("x")
    assert graded.value(graded.e) == graded.value(graded.d) == Space(1, 0)
    assert graded.value(graded.rdual(x)) == graded.value(graded.ldual(x)) == Space(1, -1)
    assert graded.value(graded.tens(x, x)) == graded.value(graded.par(x, x)) == Space(1, 2)
    assert graded.value(graded.par(x, graded.rdual(x))) == Space(1, 0)

    # a double-of-Z2 value is the dimension and the character (tr g, tr b, tr gb)
    assert dz2.value(dz2.e) == dz2.value(dz2.d) == Space(1, (1, 1, 1))
    s, r = dz2.gen("s_pm"), dz2.gen("regular")
    assert dz2.dim(dz2.tens(s, r)) == dz2.dim(dz2.par(r, s)) == 4
    assert dz2.value(dz2.tens(s, r)) == Space(4, (0, 0, 0))
    # a dimension does not build the action matrices: they wait for action()
    fresh = build_drinfeld_z2()
    assert fresh.dim(fresh.tens(fresh.gen("regular"), fresh.gen("regular"))) == 16
    assert not fresh._actions
    for k in ("g", "b"):
        assert dz2.action(dz2.e, k) == dz2.action(dz2.d, k) == mx.identity(1)
    for k in ("g", "b"):
        assert dz2.action(dz2.tens(s, r), k) == mx.kron(dz2.action(s, k), dz2.action(r, k))
        assert dz2.action(dz2.par(r, s), k) == mx.kron(dz2.action(r, k), dz2.action(s, k))
        assert (dz2.action(dz2.rdual(r), k) == dz2.action(dz2.ldual(r), k)
                == mx.transpose(dz2.action(r, k)))


def test_thin_probes_are_distinct():
    # in both the unit is the dualizer, which is picked once
    for q in (build_s3_pointed("e"), build_zmod(5)):
        probes = ThinModel(q).probe_objects()
        assert len(set(probes)) == len(probes) == len(q) + 2


def test_depth_limit_error_mentions_flag():
    shallow = build_vec_model(2, depth_limit=1)
    p = shallow.gen("p")
    with pytest.raises(UniverseError, match="--depth"):
        shallow.rdual(shallow.rdual(p))


def test_a_descriptor_past_the_depth_limit_interns_nothing():
    shallow = build_vec_model(2, depth_limit=1)
    p = shallow.gen("p")
    dual = shallow.rdual(p)
    before = dict(shallow._objects)
    for build in (lambda: shallow.rdual(dual), lambda: shallow.tens(dual, p)):
        with pytest.raises(UniverseError):
            build()
    assert shallow._objects == before


def test_object_value_runs_once_per_handle(monkeypatch):
    kinds = []
    evaluate = VecModel._object_value

    def counting(self, kind, *vs):
        kinds.append(kind)
        return evaluate(self, kind, *vs)

    monkeypatch.setattr(VecModel, "_object_value", counting, raising=False)
    m = build_vec_model(2, depth_limit=3)
    p = m.gen("p")
    for _ in range(3):
        x = m.tens(m.rdual(p), m.par(p, m.e))
        assert m.dim(x) == 4 and m.value(m.ldual(x)) == Space(4)
        assert [m.dim(q) for q in m.probe_objects()] == [1, 1, 2, 2, 2, 4]
    composite = [ref for ref in m._objects.values() if ref.kind != GEN]
    assert sorted(kinds) == sorted(ref.kind for ref in composite)
    with pytest.raises(UniverseError):   # refused before it is evaluated
        m.rdual(m.rdual(m.rdual(m.ldual(p))))
    assert len(kinds) == sum(ref.kind != GEN for ref in m._objects.values())


def test_composition_mismatch_names_both_objects(vec):
    p = vec.gen("p")
    f = vec.identity(p)
    g = vec.identity(vec.tens(p, p))
    with pytest.raises(CompositionError) as err:
        vec.compose(f, g)
    assert "p" in str(err.value)


def test_identity_neutral(vec):
    p = vec.gen("p")
    f = vec.mor(p, p, mx.mat([[1, 2], [3, 4]]))
    assert vec.compose(vec.identity(p), f) == f
    assert vec.compose(f, vec.identity(p)) == f


def test_thin_composition_is_witness_transport(thin_rel2):
    m = thin_rel2
    q = m.q
    bot = m.gen(q.name(0))
    top = m.gen(q.name(q.meta["full"]))
    f = m.mor(bot, m.e)
    g = m.mor(m.e, top)
    assert m.compose(f, g) == m.mor(bot, top)
    with pytest.raises(MorError):
        m.mor(top, bot)


def test_vec_matrix_composition_order(vec):
    p = vec.gen("p")
    a = vec.mor(p, p, mx.mat([[0, 1], [0, 0]]))
    b = vec.mor(p, p, mx.mat([[0, 0], [1, 0]]))
    assert vec.compose(a, b).payload == mx.matmul(b.payload, a.payload)


def test_linear_mor_takes_exact_matrices_only(vec):
    p = vec.gen("p")
    with pytest.raises(MorError, match="matrix payload"):
        vec.mor(p, p, ((1, 0), (0, 1)))
    with pytest.raises(MorError, match="inexact"):
        vec.mor_scale(0.5, vec.identity(p))


@pytest.mark.parametrize("entry", [0.1, 0.5, 1.0, "1/2", None, 1j])
def test_mat_refuses_entries_that_are_not_ints_or_fractions(entry):
    # a float used to become its binary Fraction, 0.1 one just above 1/10,
    # and so passed the model's exactness check
    with pytest.raises(ValueError, match=re.escape(f"inexact matrix entry {entry!r}")):
        mx.mat([[1, entry]])
    m = build_vec_model(1)
    p = m.gen("p")
    assert mx.dense(m.mor(p, p, mx.mat([[Fraction(1, 10)]])).payload) == ((Fraction(1, 10),),)


@pytest.mark.parametrize("rows, den", [
    ((((0, 0.5),),), 1), ((((0, Fraction(1, 2)),),), 1),
    ((((0, 1),),), 0), ((((0, 1),),), -2), ((((0, 1),),), 2.0), ((((0, 1),),), Fraction(2)),
], ids=["float-entry", "fraction-entry", "zero-den", "negative-den", "float-den",
        "fraction-den"])
def test_linear_mor_refuses_a_hand_built_matrix_off_the_int_form(rows, den):
    m = build_vec_model(1)
    p = m.gen("p")
    with pytest.raises(MorError, match="inexact matrix entry|matrix denominator"):
        m.mor(p, p, mx.Matrix(rows, 1, den))


def test_linear_mor_refuses_a_hand_built_matrix_off_the_canonical_form():
    # each stands for a map it would compare unequal to
    m = build_vec_model(1)
    p = m.gen("p")
    one, stored_zero = mx.Matrix((((0, 2),),), 1, 2), mx.Matrix((((0, 0),),), 1)
    assert one != m.identity(p).payload and stored_zero != mx.mat([[0]])
    with pytest.raises(MorError, match="shares the factor 2"):
        m.mor(p, p, one)
    with pytest.raises(MorError, match="strictly ascending"):
        m.mor(p, p, stored_zero)
    with pytest.raises(MorError, match="strictly ascending"):
        m.mor(p, p, mx.Matrix((((1, 1),),), 1))   # a column out of range
    v2 = build_vec_model(2)
    q = v2.gen("p")
    with pytest.raises(MorError, match="strictly ascending"):
        v2.mor(q, q, mx.Matrix((((1, 1), (0, 1)), ((0, 1),)), 2))   # unsorted columns
    assert v2.mor(q, q, mx.Matrix((((0, 1), (1, 1)), ((0, 1),)), 2)).payload == mx.mat(
        [[1, 1], [1, 0]])


def test_curry_bijections_on_full_span(vec):
    p = vec.gen("p")
    t = vec.rdual(p)
    for f in vec.hom_span(vec.tens(p, t), vec.d):
        assert vec.lcurry_inv(vec.lcurry(f)) == f
        assert vec.rcurry_inv(vec.rcurry(f)) == f
    g = vec.lcurry(vec.hom_span(vec.tens(p, t), vec.d)[1])
    assert vec.lcurry(vec.lcurry_inv(g)) == g


def test_curry_shape_errors(vec):
    p = vec.gen("p")
    with pytest.raises(ShapeError):
        vec.lcurry(vec.identity(p))
    with pytest.raises(ShapeError):
        vec.rcurry_inv(vec.identity(p))


def test_lcurry_of_counit_is_identity(vec, thin_rel2):
    for m in (vec, thin_rel2):
        for p in m.probe_objects()[:4]:
            assert m.lcurry(m.dual_counit_r(p)) == m.identity(m.rdual(p))


def test_adjunctions_with_different_units_on_the_same_objects_curry_apart(monkeypatch):
    # on vec, unit x2 with counit x1/2 is another adjunction between p and
    # its duals; a curry reads its first steps from a cache keyed on the
    # unit's value, so each adjunction must curry through its own unit
    m = build_vec_model(2)
    p = m.gen("p")
    for plain, curry in ((m.rdual_adj(p), m.curry_left), (m.ldual_adj(p), m.curry_right)):
        scaled = Adjunction(plain.left, plain.right, m.mor_scale(2, plain.unit),
                            m.mor_scale(Fraction(1, 2), plain.counit))
        target = plain.right if curry == m.curry_left else plain.left
        cases = ((plain, plain.counit, 1), (scaled, plain.counit, 2),
                 (scaled, scaled.counit, 1), (plain, scaled.counit, Fraction(1, 2)))
        for adj, counit, factor in cases:
            got = curry(adj, counit).payload
            assert got == mx.scale(factor, m.identity(target).payload), (adj, factor)
    # an equal unit built anew shares the cached steps: keys compare by value
    heads = []
    build = type(m)._curry_head
    monkeypatch.setattr(type(m), "_curry_head",
                        lambda self, *args: heads.append(args) or build(self, *args),
                        raising=False)
    q = m.tens(p, p)
    first = m.rdual_adj(q)
    again = Adjunction(first.left, first.right,
                       m.mor(first.unit.dom, first.unit.cod, first.unit.payload), first.counit)
    assert again.unit is not first.unit and again.unit == first.unit
    assert m.curry_left(first, first.counit) == m.curry_left(again, first.counit)
    assert len(heads) == 1


def test_scalar_curry_on_lines():
    m = build_vec_model(1)
    p = m.gen("p")
    f = m.mor(m.tens(p, p), m.d, mx.mat([[7]]))
    assert m.lcurry(f).payload == mx.mat([[7]])
    assert m.rcurry(f).payload == mx.mat([[7]])


def test_name_of_scaled_identity_on_lines():
    m = build_vec_model(1)
    p = m.gen("p")
    f = m.mor_scale(5, m.identity(p))
    assert m.name_mor(f).payload == mx.mat([[5]])


def test_residual_objects_thin(thin_rel2):
    # the residuals x -o z and z o- x are the pars rdual(x) par z and
    # z par ldual(x); contraposition through the cancellation maps is invertible
    m = thin_rel2
    q = m.q
    x = m.gen(q.name(q.elements[5]))
    z = m.gen(q.name(q.elements[9]))
    assert m.value(m.par(m.rdual(x), z)) == q.under(m.value(x), m.value(z))
    assert m.value(m.par(z, m.ldual(x))) == q.over(m.value(z), m.value(x))
    m.invert(m.par_mor(m.identity(m.rdual(x)), m.canon_l(z)))
    m.invert(m.par_mor(m.canon_r(z), m.identity(m.ldual(x))))


def test_residual_of_dualizer_is_rdual(thin_rel2):
    m = thin_rel2
    for p in m.probe_objects()[2:5]:
        assert m.value(m.par(m.rdual(p), m.d)) == m.value(m.rdual(p))


def test_demorgan_roundtrips(vec):
    p, q = vec.gen("p"), vec.rdual(vec.gen("p"))
    for variant in ("tens_r", "tens_l", "par_r", "par_l"):
        iso = vec.demorgan(variant, p, q)
        assert vec.compose(iso, vec.invert(iso)) == vec.identity(iso.dom)
    for variant in ("unit_er", "unit_dr", "unit_el", "unit_dl"):
        iso = vec.demorgan(variant)
        assert vec.compose(iso, vec.invert(iso)) == vec.identity(iso.dom)


def test_thin_demorgan_and_canon_are_equalities(thin_rel2):
    m = thin_rel2
    p = m.probe_objects()[3]
    q = m.probe_objects()[4]
    assert m.value(m.rdual(m.tens(p, q))) == m.value(m.par(m.rdual(q), m.rdual(p)))
    assert m.value(m.canon_r(p).dom) == m.value(m.canon_r(p).cod)


def test_dual_functors_reverse_composition(vec):
    p = vec.gen("p")
    f = vec.mor(p, p, mx.mat([[1, 1], [0, 1]]))
    g = vec.mor(p, p, mx.mat([[2, 0], [1, 1]]))
    fg = vec.compose(f, g)
    assert vec.rdual_mor(fg) == vec.compose(vec.rdual_mor(g), vec.rdual_mor(f))
    assert vec.ldual_mor(fg) == vec.compose(vec.ldual_mor(g), vec.ldual_mor(f))


def test_validate_staut_all_backends(vec, thin_rel2, dz2, graded):
    for model in (vec, thin_rel2, dz2, graded):
        results = validate_staut(model, seed=11)
        assert all(r.ok for r in results), [
            (r.name, r.witness) for r in results if not r.ok]


def test_validate_staut_noncyclic_thin_model():
    model = ThinModel(build_s3_pointed("(01)"))
    assert all(r.ok for r in validate_staut(model, seed=2))


def test_probe_objects_in_universe(vec):
    for p in vec.probe_objects():
        assert p.depth <= vec._interner.depth_limit


class ScaledDualityVec(VecModel):
    """vec with one duality map, named by ``kind``, doubled."""

    def __init__(self, kind):
        self.kind = kind
        super().__init__({"p": 2}, depth_limit=12)

    def _structural_mor(self, kind, dom, cod, objects):
        f = super()._structural_mor(kind, dom, cod, objects)
        return self.mor_scale(2, f) if kind == self.kind else f


@pytest.mark.parametrize("side, failing, witness", [
    ("r", {"triangle-right-object", "triangle-right-dual"},
     "canon(p) object side at 0"),
    ("l", {"triangle-left-object", "triangle-left-dual"},
     "canon(p) object side at -1"),
])
def test_triangle_checks_fail_on_a_scaled_counit(side, failing, witness):
    # scaling either map of one side's duality fails exactly that side's
    # two triangles
    for kind in (f"dual_unit_{side}", f"dual_counit_{side}"):
        m = ScaledDualityVec(kind)
        results = {r.name: r for r in validate_staut(m, seed=0)}
        triangles = {name for name in results if name.startswith("triangle-")}
        assert {name for name in triangles if not results[name].ok} == failing, kind
    m = ScaledDualityVec(f"dual_counit_{side}")
    res = st.check_triangles(st.zangify(m, m.gen("p")), (-1, 1))
    assert not res.ok and res.witness == witness


# ------------------------------------------------ an object's value decides its homs

CONTRACT_MODELS = {
    "thin-rel:2": lambda: ThinModel(build_rel_quantale(2)),
    "thin-luk3": lambda: ThinModel(build_luk3()),
    "thin-s3:e": lambda: ThinModel(build_s3_pointed("e")),
    "vec-1": lambda: build_vec_model(1),
    "vec-2": lambda: build_vec_model(2),
    "gradedline": GradedLineModel,
    "double-z2": build_drinfeld_z2,
}
contract_models = pytest.mark.parametrize("make", CONTRACT_MODELS.values(), ids=CONTRACT_MODELS)


def _objects_to_depth_two(m):
    """The probes and every object one constructor makes of them, up to depth 2."""
    probes = m.probe_objects()
    out = dict.fromkeys(probes)
    for a in probes:
        out.update(dict.fromkeys([m.rdual(a), m.ldual(a)]))
        for b in probes:
            out.update(dict.fromkeys([m.tens(a, b), m.par(a, b)]))
    return [x for x in out if x.depth <= 2]


@contract_models
def test_a_value_decides_whether_a_hom_is_empty(make):
    m = make()
    verdicts = {}
    for x, y in product(_objects_to_depth_two(m), repeat=2):
        has = bool(m.hom_span(x, y))
        assert verdicts.setdefault((x.value, y.value), has) == has, (str(x), str(y))
        assert m.has_arrow(x.value, y, lambda: x) == has


def test_double_z2_values_are_the_characters_of_the_actions():
    m = build_drinfeld_z2()
    for x in _objects_to_depth_two(m):
        g, b = m.action(x, "g"), m.action(x, "b")
        traces = tuple(sum(mx.dense(a)[i][i] for i in range(len(a)))
                       for a in (g, b, mx.matmul(g, b)))
        assert x.value == Space(len(g), traces), str(x)


# every span shape the hom-level axioms and the base identity draw under
SPAN_ROWS = sorted({(ax.arity, ax.dim_cap, ax.spans) for ax in cyc._AXIOMS.values() if ax.spans}
                   | {(4, None, ((0, 1), (2, 3)))}, key=repr)


class Drawn(Exception):
    """Carries the arguments of a draw out of the check that makes it."""


def _by_handle(m, shapes):
    """A vacuity filter for span shapes that asks ``hom_span`` on the
    objects of every projection, whatever their values."""
    def test(shape):
        pos = tuple(sorted(cyc._positions(shape)))
        return pos, lambda *xs: bool(m.hom_span(cyc._span_object(m, shape, dict(zip(pos, xs))),
                                                m.d))

    return [test(shape) for shape in shapes]


@contract_models
@pytest.mark.parametrize("seed", [0, 3])
def test_value_keyed_draws_pick_the_tuples_of_a_hom_span_filter(make, seed, monkeypatch):
    m = make()
    calls = []
    monkeypatch.setattr(cyc, "draw", lambda *args: calls.append(args) or draw(*args))
    for row in SPAN_ROWS:
        assert cyc._draws(m, seed)[row] == draw(*calls[-1][:-1], _by_handle(m, row[2])), row

    def drawn(*args):
        raise Drawn(args)

    monkeypatch.setattr(pf, "draw", drawn)
    with pytest.raises(Drawn) as got:
        pf.check_contraposition_agreement(m, None, seed)
    args = got.value.args[0]
    by_handle = [((0, 1, 2), lambda a, x, y: bool(m.hom_span(m.tens(a, x), y)))]
    assert draw(*args) == draw(*args[:-1], by_handle)
