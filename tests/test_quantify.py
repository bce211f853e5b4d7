"""The shared quantifiers: ``draw`` picks exactly the tuples an explicit
product, dimension filter and seeded sample give, and ``scan`` stops at the
first witness."""

import random

import pytest

from stautcheck import braided as br
from stautcheck import cyclicity as cy
from stautcheck.core.morphisms import MorError
from stautcheck.core.quantify import draw, scan
from stautcheck.thin import thin_identity_cycle


def _dim_product(model, t):
    out = 1
    for x in t:
        out *= model.dim(x)
    return out


@pytest.mark.parametrize("seed", [0, 3])
def test_draw_double_z2_triples(dz2, seed):
    probes = dz2.probe_objects()
    pool = [(p, q, r) for p in probes for q in probes for r in probes
            if _dim_product(dz2, (p, q, r)) <= 8]
    assert len(pool) == 324
    expected = random.Random(seed).sample(pool, 40)
    assert draw(dz2, probes, 3, 40, 8, seed) == (expected, False)
    assert br.Braiding(dz2).check_hexagons(seed).count == 40


def test_draw_graded_line_triples_are_sampled(graded):
    probes = graded.probe_objects()
    triples, exhaustive = draw(graded, probes, 3, 40, 8, 0)
    assert len(probes) ** 3 == 125
    assert not exhaustive
    assert triples == random.Random(0).sample(
        [(p, q, r) for p in probes for q in probes for r in probes], 40)


@pytest.mark.parametrize("seed", [0, 3])
def test_draw_vec_tuples(vec, seed):
    probes = vec.probe_objects()
    pool = [()]
    for k in (1, 2, 3, 4):
        pool = [t + (x,) for t in pool for x in probes]
        small = [t for t in pool if _dim_product(vec, t) <= 8]
        if len(small) <= 24:
            expected = (small, True)
        else:
            expected = (random.Random(seed * 1000003 + k).sample(small, 24), False)
        assert draw(vec, probes, k, 24, 8, seed * 1000003 + k) == expected
    assert draw(vec, probes, 2, dim_cap=8)[0] == [
        (p, q) for p in probes for q in probes if vec.dim(p) * vec.dim(q) <= 8]


def test_draw_drops_vacuous_tuples_unless_all_are(thin_rel2, monkeypatch):
    m = thin_rel2
    probes = m.probe_objects()

    def live(t):
        return bool(m.hom_span(m.tens(*t), m.d))

    pool = [(p, q) for p in probes for q in probes]
    kept = [t for t in pool if live(t)]
    assert 0 < len(kept) < len(pool)
    assert draw(m, probes, 2, live=live) == (kept, True)
    assert draw(m, probes, 2, live=lambda t: False) == (pool, True)
    monkeypatch.setattr(cy, "TUPLE_CAP", 100)
    res = cy.check_axiom(thin_identity_cycle(m), "kprime")
    assert res.ok and res.count == len(kept)


def test_a_dimension_filter_leaves_a_draw_sampled(dz2, thin_rel2):
    probes = dz2.probe_objects()
    pairs, exhaustive = draw(dz2, probes, 2, dim_cap=8)
    assert len(pairs) == len(probes) ** 2 - 1 and not exhaustive
    res = br.Braiding(dz2).check_degenerate_agreement()
    assert res.ok and res.count == len(pairs) and not res.exhaustive
    res = cy.check_base_identity(thin_rel2)
    assert res.ok and not res.exhaustive
    assert draw(thin_rel2, thin_rel2.probe_objects(), 4, cy.TUPLE_CAP)[1] is False


def test_scan_stops_at_the_first_failure():
    seen = []

    def items():
        for i in range(10):
            seen.append(i)
            yield i

    res = scan("demo", items(), lambda i: i % 4 == 3)
    assert (res.ok, res.witness, res.count) == (False, "at 3", 4)
    assert seen == [0, 1, 2, 3]


def test_scan_spreads_tuples_and_reports_witnesses():
    res = scan("pairs", [(1, 2), (3, 4), (5, 6)], lambda a, b: a == 3 and f"{a}+{b}",
               exhaustive=False)
    assert (res.ok, res.witness, res.count, res.exhaustive) == (False, "3+4", 2, False)

    def refuse(a, b):
        if a == 5:
            raise MorError("no arrow")

    res = scan("pairs", [(1, 2), (5, 6)], refuse)
    assert (res.ok, res.witness, res.count) == (False, "at ('5', '6'): no arrow", 2)
    res = scan("pairs", [(1, 2), (5, 6)], lambda a, b: a > b)
    assert (res.ok, res.witness, res.count, res.exhaustive) == (True, "", 2, True)
