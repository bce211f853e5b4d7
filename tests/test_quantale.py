from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from stautcheck.quantale import (
    QuantaleError, all_posets, build_bool2, build_luk3, build_pointed_group,
    build_rel_quantale, build_s3_pointed, build_zmod,
    builtin_quantale, is_central, rel_compose, rel_diag,
    rel_reverse, s3_elements)

REL2 = build_rel_quantale(2)
REL3 = build_rel_quantale(3)


def test_rel_sizes_and_units():
    assert len(build_rel_quantale(1)) == 2
    assert len(REL2) == 16
    assert len(REL3) == 512
    assert REL2.unit == rel_diag(2)
    assert REL2.dualizer == (2 ** 4 - 1) & ~rel_diag(2)
    with pytest.raises(QuantaleError):
        build_rel_quantale(5)


def test_rel1_dualizer_is_empty_relation():
    q = build_rel_quantale(1)
    assert q.dualizer == 0
    assert q.perp(q.unit) == 0 and q.perp(0) == q.unit


def test_rel_composition_example():
    # {(0,1)} ; {(1,0)} = {(0,0)}
    a = 1 << (0 * 2 + 1)
    b = 1 << (1 * 2 + 0)
    assert rel_compose(a, b, 2) == 1 << 0


def _pairs(m, n):
    return [(i, j) for i in range(n) for j in range(n) if m >> (i * n + j) & 1]


def _naive_rel_compose(pa, pb, n):
    # (i,k) iff some j has aij and bjk, straight from the definition
    out = 0
    for i, j in pa:
        for j2, k in pb:
            if j == j2:
                out |= 1 << (i * n + k)
    return out


def test_rel_compose_matches_definition():
    for n in (1, 2, 3):
        pairs = [_pairs(m, n) for m in range(1 << (n * n))]
        for a, pa in enumerate(pairs):
            for b, pb in enumerate(pairs):
                assert rel_compose(a, b, n) == _naive_rel_compose(pa, pb, n), (n, a, b)
    rng = random.Random(4)
    for _ in range(3000):
        a, b = rng.getrandbits(16), rng.getrandbits(16)
        assert rel_compose(a, b, 4) == _naive_rel_compose(_pairs(a, 4), _pairs(b, 4), 4), (a, b)


def test_rel2_residual_brute_force_example():
    # perp of {(0,0)} is everything except (0,0)
    w = 1 << 0
    assert REL2.perp(w) == (2 ** 4 - 1) & ~1


def test_rel_duality_is_complement_of_reverse():
    full = REL2.meta["full"]
    for w in REL2.elements:
        assert REL2.perp(w) == full & ~rel_reverse(w, 2) == REL2.prep(w)


def test_perp_of_dualizer_is_unit():
    for q in (REL2, build_bool2(), build_luk3()):
        assert q.perp(q.dualizer) == q.unit
        assert q.perp(q.unit) == q.dualizer


@settings(max_examples=60)
@given(st.sampled_from(REL2.elements), st.sampled_from(REL2.elements),
       st.sampled_from(REL2.elements))
def test_residual_adjunction_law(a, b, x):
    # x <= a \ b  iff  a * x <= b
    assert REL2.le(x, REL2.under(a, b)) == REL2.le(REL2.tensor(a, x), b)
    assert REL2.le(x, REL2.over(b, a)) == REL2.le(REL2.tensor(x, a), b)


def test_validate_families():
    for q in (REL2, build_bool2(), build_luk3(), builtin_quantale("2prof:chain2")):
        assert all(r.ok for r in q.validate())


def test_poset_counts():
    assert len(all_posets(1)) == 1
    assert len(all_posets(2)) == 3
    assert len(all_posets(3)) == 19


def test_two_profunctor_elements_are_closed_relations():
    q = builtin_quantale("2prof:chain2")
    leq = q.values[q.unit]
    for w in q.values:
        assert rel_compose(rel_compose(leq, w, 2), leq, 2) & ~w == 0
    # the discrete poset recovers all relations
    assert len(builtin_quantale("2prof:disc2")) == 16


def test_two_profunctor_chain_dualities():
    q = builtin_quantale("2prof:chain2")
    full = (1 << 4) - 1
    # the dual of the order is the dualizer, and the dual of the full
    # relation is the empty one
    assert q.perp(q.unit) == q.dualizer
    assert q.values[q.perp(q.index(full))] == 0
    for w in q.elements:
        want = full & ~rel_reverse(q.values[w], 2)
        assert q.values[q.perp(w)] == want == q.values[q.prep(w)]


def test_s3_cyclic_only_at_central():
    _, names = s3_elements()
    for perm, label in names.items():
        q = build_s3_pointed(label)
        cyc = q.is_cyclic()
        assert cyc.ok == is_central(q, q.index(perm)) == (label == "e")
        if not cyc.ok:
            assert cyc.witness


def test_s3_neutral_not_commutative():
    q = build_s3_pointed("e")
    assert any(q.tensor(a, b) != q.tensor(b, a)
               for a in q.elements for b in q.elements)


def test_zmod_residual_arithmetic():
    q = build_zmod(12)
    # with dualizer 0: under(a, b) = b - a
    assert q.under(3, 5) == 2
    assert q.over(5, 3) == 2
    assert q.perp(3) == 9 == q.prep(3)
    assert q.is_cyclic().ok


def test_zmod6_cyclic_everywhere():
    for d in range(6):
        assert build_zmod(6, d).is_cyclic().ok


def test_pointed_group_rejects_incompatible_order():
    with pytest.raises(QuantaleError):
        build_pointed_group([0, 1], lambda a, b: (a + b) % 2, 0,
                            le=lambda a, b: a <= b)


def test_discrete_pointed_group_builds_in_quadratic_op_calls():
    # the discrete order is compatible with any operation, so no triple is
    # scanned: at n = 40 the n^3 scan alone would make 4n^2 calls
    n, calls = 40, []

    def op(a, b):
        calls.append(1)
        return (a + b) % n

    q = build_pointed_group(list(range(n)), op, 0)
    assert len(q) == n and len(calls) <= 3 * n * n


def test_luk3_structure():
    q = build_luk3()
    h, zero = q.index(Fraction(1, 2)), q.index(0)
    assert q.values[q.tensor(h, h)] == 0
    assert q.under(h, zero) == h
    assert q.perp(h) == h
    assert q.is_cyclic().ok


def test_join_meet_and_missing_join():
    assert REL2.join([1, 2]) == 3
    assert REL2.meet([3, 5]) == 1
    disc = build_zmod(3)
    with pytest.raises(QuantaleError):
        disc.join([0, 1])


def test_builtin_resolver_errors():
    with pytest.raises(QuantaleError):
        builtin_quantale("frobnicate:1")
    with pytest.raises(QuantaleError):
        builtin_quantale("s3:(99)")
