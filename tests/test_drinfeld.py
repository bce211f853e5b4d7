"""Module-category backend internals: the verified Hopf data, the character
count, duals, and action bookkeeping."""

from fractions import Fraction
from itertools import product

import pytest

from stautcheck.core import matrices as mx
from stautcheck.core.morphisms import MorError
from stautcheck.drinfeld import BASIS, R_COEFFS, verify_hopf_data, _mul


def test_hopf_data_verifies():
    assert verify_hopf_data() is None


def test_r_matrix_is_its_own_inverse():
    # direct recomputation, independent of the library helper
    prod_coeffs = {}
    for (x1, y1), v1 in R_COEFFS.items():
        for (x2, y2), v2 in R_COEFFS.items():
            k = (_mul(x1, x2), _mul(y1, y2))
            prod_coeffs[k] = prod_coeffs.get(k, Fraction(0)) + v1 * v2
    prod_coeffs = {k: v for k, v in prod_coeffs.items() if v != 0}
    assert prod_coeffs == {((0, 0), (0, 0)): Fraction(1)}


def test_exactly_four_characters():
    # brute force: multiplicative maps on the group-like basis are fixed by
    # involutive signs for the two generators
    chars = []
    for sg, sb in product((1, -1), repeat=2):
        vals = {u: Fraction(sb) ** u[0] * Fraction(sg) ** u[1] for u in BASIS}
        if all(vals[_mul(u, w)] == vals[u] * vals[w] for u in BASIS for w in BASIS):
            chars.append((sg, sb))
    assert len(chars) == 4


def test_simples_pairwise_nonisomorphic(dz2):
    simples = [dz2.gen(n) for n in dz2.SIMPLE_NAMES]
    for i, a in enumerate(simples):
        for j, b in enumerate(simples):
            span = dz2.hom_span(a, b)
            assert (len(span) == 1) == (i == j)
            assert (len(span) == 0) == (i != j)


def test_regular_module_contains_each_simple_once(dz2):
    reg = dz2.gen("regular")
    for name in dz2.SIMPLE_NAMES:
        assert len(dz2.hom_span(dz2.gen(name), reg)) == 1


def test_duals_are_contragredient(dz2):
    reg = dz2.gen("regular")
    dual = dz2.rdual(reg)
    for letter in ("g", "b"):
        assert dz2.action(dual, letter) == mx.transpose(dz2.action(reg, letter))
    assert dz2.value(dz2.rdual(reg)) == dz2.value(dz2.ldual(reg))


def test_tensor_action_is_diagonal(dz2):
    a, b = dz2.gen("s_mp"), dz2.gen("regular")
    both = dz2.tens(a, b)
    for letter in ("g", "b"):
        assert dz2.action(both, letter) == mx.kron(
            dz2.action(a, letter), dz2.action(b, letter))


def test_hom_spans_are_module_maps(dz2):
    a, b = dz2.gen("regular"), dz2.gen("regular")
    for f in dz2.hom_span(a, b):
        for letter in ("g", "b"):
            act = dz2.action(a, letter)
            assert mx.matmul(f.payload, act) == mx.matmul(dz2.action(b, letter),
                                                          f.payload)


def test_braiding_is_module_map(dz2):
    v, w = dz2.gen("s_mm"), dz2.gen("regular")
    sigma = dz2.braid(v, w)
    src, dst = dz2.tens(v, w), dz2.tens(w, v)
    for letter in ("g", "b"):
        assert mx.matmul(sigma.payload, dz2.action(src, letter)) == \
            mx.matmul(dz2.action(dst, letter), sigma.payload)


def test_twist_matrices(dz2):
    assert [mx.dense(dz2.twist_matrix(dz2.gen(n)))[0][0] for n in dz2.SIMPLE_NAMES] == \
        [1, 1, 1, -1]
    reg_twist = dz2.twist_matrix(dz2.gen("regular"))
    # the regular module carries each simple once, so its twist squares to
    # the identity and has trace 2 = 1 + 1 + 1 - 1
    assert mx.matmul(reg_twist, reg_twist) == mx.identity(4)
    assert sum(mx.dense(reg_twist)[i][i] for i in range(4)) == 2


def test_bad_action_matrices_rejected():
    from stautcheck.drinfeld import _check_action
    with pytest.raises(MorError):
        _check_action("x", mx.mat([[2]]), mx.mat([[1]]))
    with pytest.raises(MorError):
        _check_action("x", mx.mat([[0, 1], [1, 0]]), mx.mat([[1, 1], [0, 1]]))


def test_mor_rejects_maps_that_are_not_module_maps(dz2):
    s_pp, s_pm, reg = dz2.gen("s_pp"), dz2.gen("s_pm"), dz2.gen("regular")
    assert dz2.hom_span(s_pp, s_pm) == []
    with pytest.raises(MorError, match="not a module map"):
        dz2.mor(s_pp, s_pm, mx.mat([[1]]))
    with pytest.raises(MorError, match="not a module map"):
        dz2.mor(reg, reg, mx.mat([[1, 0, 0, 0]] + [[0] * 4] * 3))
    # scalars on a simple and the zero map are module maps
    three_halves = mx.mat([[Fraction(3, 2)]])
    assert dz2.mor(s_pm, s_pm, three_halves).payload == three_halves
    assert dz2.mor(s_pp, s_pm, mx.mat([[0]])).payload == mx.zeros(1, 1)


def test_mor_accepts_every_hom_span_element_and_braid(dz2):
    probes = dz2.probe_objects() + [dz2.tens(dz2.gen("s_mp"), dz2.gen("s_pm"))]
    for p, q in product(probes, repeat=2):
        for f in dz2.hom_span(p, q):
            assert dz2.mor(p, q, f.payload) == f
        sigma = dz2.braid(p, q)
        assert dz2.mor(sigma.dom, sigma.cod, sigma.payload) == sigma
