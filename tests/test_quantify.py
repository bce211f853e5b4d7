"""The shared quantifiers: ``draw`` picks exactly the tuples an explicit
product, dimension filter, per-tuple vacuity filter and seeded sample give,
and ``scan`` stops at the first witness."""

from itertools import product
import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as hs
import pytest

from stautcheck import braided as br
from stautcheck import cyclicity as cy
from stautcheck.core.morphisms import MorError
from stautcheck.core.quantify import COVERAGE, draw, scan
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

    def live(p, q):
        return bool(m.hom_span(m.tens(p, q), m.d))

    pool = [(p, q) for p in probes for q in probes]
    kept = [t for t in pool if live(*t)]
    assert 0 < len(kept) < len(pool)
    assert draw(m, probes, 2, live=[((0, 1), live)]) == (kept, True)
    assert draw(m, probes, 2, live=[((0, 1), lambda p, q: False)]) == (pool, True)
    monkeypatch.setitem(COVERAGE, "tuples", 100)
    res = cy.check_axiom(thin_identity_cycle(m), "kprime")
    assert res.ok and res.count == len(kept)


@pytest.mark.parametrize("model, k, positions", [
    ("thin_rel2", 2, [(0, 1)]),
    ("thin_rel2", 4, [(0, 3), (1, 2)]),
    ("thin_rel2", 4, [(2,), (0, 1, 3)]),
    ("dz2", 2, [(1,), (0, 1)]),
])
@pytest.mark.parametrize("seed", range(4))
def test_factored_draw_is_the_per_tuple_filter(request, model, k, positions, seed):
    # random predicates on projections: the factored draw keeps what the
    # plain filter of the (dimension-capped) product keeps, and calls each
    # predicate once per distinct projection of the tuples that survive the
    # dimension filter, in order of first occurrence
    m = request.getfixturevalue(model)
    probes = m.probe_objects()
    rate = random.Random(seed).choice([0.0, 0.3, 0.7, 1.0])
    calls = {pos: [] for pos in positions}

    def truth(pos, xs):
        return random.Random(f"{seed}{pos}{tuple(map(str, xs))}").random() < rate

    def predicate(pos):
        def holds(*xs):
            calls[pos].append(xs)
            return truth(pos, xs)
        return holds

    dim_cap = 8 if m.is_linear else None
    pool = [t for t in product(probes, repeat=k)
            if dim_cap is None or _dim_product(m, t) <= dim_cap]
    assert not m.is_linear or len(pool) < len(probes) ** k
    kept = [t for t in pool
            if all(truth(pos, [t[i] for i in pos]) for pos in positions)] or pool
    live = [(pos, predicate(pos)) for pos in positions]
    assert draw(m, probes, k, None, dim_cap, seed, live) == (kept, not m.is_linear)
    for pos in positions:
        assert calls[pos] == list(dict.fromkeys(tuple(t[i] for i in pos) for t in pool))
    if len(kept) > 5:
        sampled = draw(m, probes, k, 5, dim_cap, seed, live)
        assert sampled == (random.Random(seed).sample(kept, 5), False)


def _reference_draw(model, probes, k, cap, dim_cap, seed, tables):
    """What ``draw`` must return, from the listed product: filtered by the
    dimension budget, then by the live tables (kept whole if none is
    live), then sampled."""
    every = list(product(probes, repeat=k))
    pool = [t for t in every
            if dim_cap is None or not model.is_linear or _dim_product(model, t) <= dim_cap]
    kept = [t for t in pool
            if all(table[tuple(t[i] for i in pos)] for pos, table in tables)] or pool
    if cap is None or len(kept) <= cap:
        return kept, len(pool) == len(every)
    return random.Random(seed).sample(kept, cap), False


def _recorded(tables):
    """The live pairs of ``tables``, each predicate logging its calls."""
    calls = {pos: [] for pos, _ in tables}

    def predicate(pos, table):
        def holds(*xs):
            calls[pos].append(xs)
            return table[xs]
        return holds

    return [(pos, predicate(pos, table)) for pos, table in tables], calls


@hs.composite
def _draw_cases(draw_from, linear):
    n = draw_from(hs.integers(1, 6))
    k = draw_from(hs.integers(0, 4))
    probes = [f"x{i}" for i in range(n)]
    # each position is free or belongs to one of up to three predicates
    owner = draw_from(hs.lists(hs.integers(-1, 2), min_size=k, max_size=k))
    groups = [tuple(i for i in range(k) if owner[i] == g) for g in range(3)]
    rate = draw_from(hs.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    rng = random.Random(draw_from(hs.integers(0, 2 ** 32)))
    tables = [(pos, {xs: rng.random() < rate for xs in product(probes, repeat=len(pos))})
              for pos in groups if pos]
    cap = draw_from(hs.none() | hs.integers(1, 30))
    seed = draw_from(hs.integers(0, 2 ** 32))
    if not linear:
        return SimpleNamespace(is_linear=False), probes, k, cap, None, seed, tables
    dims = {x: draw_from(hs.integers(1, 4)) for x in probes}
    model = SimpleNamespace(is_linear=True, dim=dims.__getitem__)
    return model, probes, k, cap, draw_from(hs.integers(1, 40)), seed, tables


def _check_draw(case):
    model, probes, k, cap, dim_cap, seed, tables = case
    live, calls = _recorded(tables)
    assert draw(model, probes, k, cap, dim_cap, seed, live) == _reference_draw(*case)
    pool = [t for t in product(probes, repeat=k)
            if dim_cap is None or _dim_product(model, t) <= dim_cap]
    for pos, _ in tables:
        # once per distinct projection, in order of first occurrence, which
        # is lexicographic unless a dimension budget dropped tuples
        projections = [tuple(t[i] for i in pos) for t in pool]
        assert calls[pos] == list(dict.fromkeys(projections))
        assert dim_cap is not None or calls[pos] == sorted(set(projections))


@settings(max_examples=300, deadline=None)
@given(_draw_cases(linear=False))
def test_draw_is_the_listed_filtered_sample(case):
    _check_draw(case)


@settings(max_examples=150, deadline=None)
@given(_draw_cases(linear=True))
def test_draw_under_a_dimension_budget_is_the_listed_filtered_sample(case):
    _check_draw(case)


@pytest.mark.parametrize("cap", [None, 5, 30])
def test_a_draw_with_no_live_tuple_ranges_over_all(cap):
    probes = ["a", "b", "c"]
    live, calls = _recorded([((0, 2), {xs: False for xs in product(probes, repeat=2)})])
    tuples, whole = draw(SimpleNamespace(is_linear=False), probes, 3, cap, None, 4, live)
    every = list(product(probes, repeat=3))
    assert (tuples, whole) == ((every, True) if cap != 5 else
                               (random.Random(4).sample(every, 5), False))
    assert calls[(0, 2)] == list(product(probes, repeat=2))


@pytest.mark.parametrize("positions", [[(0, 1), (1, 2)], [(1, 0)], [(0, 3)], [(2,), (2,)]])
def test_a_counted_draw_refuses_positions_that_are_not_ascending_and_disjoint(positions):
    live = [(pos, lambda *xs: True) for pos in positions]
    with pytest.raises(ValueError, match="ascending, disjoint"):
        draw(SimpleNamespace(is_linear=False), ["a", "b"], 3, 2, None, 0, live)


def test_a_dimension_filter_leaves_a_draw_sampled(dz2, thin_rel2):
    probes = dz2.probe_objects()
    pairs, exhaustive = draw(dz2, probes, 2, dim_cap=8)
    assert len(pairs) == len(probes) ** 2 - 1 and not exhaustive
    res = br.Braiding(dz2).check_degenerate_agreement()
    assert res.ok and res.count == len(pairs) and not res.exhaustive
    res = cy.check_base_identity(thin_rel2)
    assert res.ok and not res.exhaustive
    assert draw(thin_rel2, thin_rel2.probe_objects(), 4, COVERAGE["tuples"])[1] is False


def test_a_draw_from_a_pool_too_large_for_len():
    # 2**64 tuples: more than range() can measure, so sample cannot draw
    # the ranks; the draw still gives distinct tuples, replayed by its seed
    tuples, whole = draw(None, (0, 1), 64, 50, seed=2)
    assert len(set(tuples)) == 50 and not whole and {len(t) for t in tuples} == {64}
    assert draw(None, (0, 1), 64, 50, seed=2) == (tuples, whole)
    assert draw(None, (0, 1), 62, 50, seed=2)[0] == [
        tuple(map(int, f"{r:062b}")) for r in random.Random(2).sample(range(2 ** 62), 50)]


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
