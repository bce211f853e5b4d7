"""The index-coded quantale kernel against the value-level definitions it is
built from: order, tensor, binary joins and meets, and brute-force
residuals computed from ``le_fn`` and ``tensor_fn`` alone; on the relation
families, its join-irreducibles and its residuals against their closed
forms."""

from fractions import Fraction
from itertools import product
import random
import time
import tracemalloc

import pytest

from stautcheck import profunctors as pf, quantale
from stautcheck.core.quantify import draw, scan
from stautcheck.core.validate import validate_staut
from stautcheck.files import load_quantale_file
from stautcheck.quantale import (Quantale, QuantaleError, build_bool2, build_rel_quantale,
                                 builtin_quantale, rel_compose, rel_reverse)
from stautcheck.suites import luk3_two_object_vcat, quantale_suite
from stautcheck.thin import ThinModel

from test_cli import CHAIN3

# every builtin family with at most 64 elements
SMALL_BUILTINS = ("rel:1", "rel:2", "2prof:chain1", "2prof:chain2", "2prof:chain3",
                  "2prof:disc1", "2prof:disc2", "2prof:vee", "s3:e", "s3:(01)", "s3:(012)",
                  "zmod:5", "zmod:6@2", "bool2", "luk3")


def _luk3_indiscrete_vcat():
    """The two-object luk3 category whose off-diagonal homs are both 1."""
    v = builtin_quantale("luk3")
    one = v.index(Fraction(1))
    return pf.VCat(v, ["x", "y"], {(a, b): one for a in "xy" for b in "xy"})


def _brute_greatest(xs, le):
    return next((g for g in xs if all(le[x][g] for x in xs)), None)


def _brute_least(xs, le):
    return next((g for g in xs if all(le[g][x] for x in xs)), None)


def _agrees_with_values(q):
    """Compare every kernel operation on index pairs with the same operation
    computed on values from the quantale's own ``le_fn`` and ``tensor_fn``."""
    vals = q.values
    n = len(vals)
    le = [[q.le_fn(x, y) for y in vals] for x in vals]
    mul = [[q.index(q.tensor_fn(x, y)) for y in vals] for x in vals]
    for a in range(n):
        for b in range(n):
            assert q.le(a, b) == le[a][b], (q.label, a, b)
            assert q.tensor(a, b) == mul[a][b], (q.label, a, b)
            ubs = [c for c in range(n) if le[a][c] and le[b][c]]
            lbs = [c for c in range(n) if le[c][a] and le[c][b]]
            for op, want in ((q.join, _brute_least(ubs, le)), (q.meet, _brute_greatest(lbs, le))):
                try:
                    got = op([a, b])
                except QuantaleError:
                    got = None
                assert got == want, (q.label, op.__name__, a, b)
            under = [x for x in range(n) if le[mul[a][x]][b]]
            over = [x for x in range(n) if le[mul[x][a]][b]]
            assert q.under(a, b) == _brute_greatest(under, le), (q.label, a, b)
            assert q.over(b, a) == _brute_greatest(over, le), (q.label, a, b)


@pytest.mark.parametrize("spec", SMALL_BUILTINS)
def test_kernel_matches_values_on_builtins(spec):
    _agrees_with_values(builtin_quantale(spec))


def test_kernel_matches_values_on_a_file_quantale(tmp_path):
    path = tmp_path / "chain3.quantale"
    path.write_text(CHAIN3)
    _agrees_with_values(load_quantale_file(str(path)))


@pytest.mark.parametrize("make", [luk3_two_object_vcat, _luk3_indiscrete_vcat])
def test_kernel_matches_values_on_luk3_profunctor_quantales(make):
    c = make()
    pq = pf.build_prof_quantale(c, pf.enumerate_profs(c))
    assert pq.family == "prof" and len(pq) >= 3
    _agrees_with_values(pq)


TWO_PROF_BUILTINS = ("2prof:chain1", "2prof:chain2", "2prof:chain3",
                     "2prof:disc1", "2prof:disc2", "2prof:disc3", "2prof:vee")


@pytest.mark.parametrize("spec", ["rel:3", "2prof:disc3"])
def test_residuals_match_closed_form_on_all_512_relations(spec):
    # a\b = not(a^op ; not b) and b/a = not(not b ; a^op), on masks
    q = builtin_quantale(spec)
    n, vals = q.meta["n"], q.values
    full = (1 << (n * n)) - 1
    for a in q.elements:
        rev = rel_reverse(vals[a], n)
        for b in q.elements:
            off = full & ~vals[b]
            assert vals[q.under(a, b)] == full & ~rel_compose(rev, off, n), (spec, a, b)
            assert vals[q.over(b, a)] == full & ~rel_compose(off, rev, n), (spec, a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rel_join_irreducibles_are_the_single_pairs(n):
    q = build_rel_quantale(n)
    assert q._sweep == [1 << k for k in range(n * n)]


@pytest.mark.parametrize("spec", ["rel:1", "rel:2", "rel:3", *TWO_PROF_BUILTINS])
def test_every_element_is_the_join_of_the_join_irreducibles_below_it(spec):
    q = builtin_quantale(spec)
    codes = q._codes
    assert q._sweep != q.elements
    for x in q.elements:
        below = 0
        for j in q._sweep:
            if q.le(j, x):
                below |= codes[j]
        assert below == codes[x], (spec, q.name(x))


def test_a_mask_carrier_without_a_meet_sweeps_every_element():
    # the four-element Boolean algebra on masks 0 < 011, 101 < 111: the
    # codes that hold bit 0 meet in 001, which is no element
    values = [0b000, 0b011, 0b101, 0b111]
    q = Quantale("diamond", values, lambda a, b: not a & ~b,
                 lambda a, b: a & b if (a & b) in values else 0,
                 unit=0b111, dualizer=0b000, masks=True)
    assert q._sweep == q.elements
    assert all(q.validate())
    _agrees_with_values(q)


def test_a_residual_that_does_not_exist_raises():
    # union of relations on two points: monotone with unit 0, but 0 is no
    # zero, so a\b and b/a exist (and are b) only when a <= b
    q = Quantale("union", range(16), lambda a, b: not a & ~b, lambda a, b: a | b,
                 unit=0, dualizer=0, masks=True)
    assert q._sweep == [1, 2, 4, 8]
    for a in q.elements:
        for b in q.elements:
            if q.le(a, b):
                assert q.under(a, b) == b == q.over(b, a)
                continue
            with pytest.raises(QuantaleError):
                q.under(a, b)
            with pytest.raises(QuantaleError):
                q.over(b, a)


def test_rel4_gets_a_verdict():
    start = time.perf_counter()
    rep = quantale_suite(build_rel_quantale(4), seed=1)
    elapsed = time.perf_counter() - start
    assert rep.ok and elapsed < 30.0, (elapsed, [c for c in rep.checks if not c.ok])
    checks = {c.name: c for c in rep.checks}
    for name in ("quantale-unit-law", "quantale-dualizing-element",
                 "duality-is-complement-of-reverse"):
        assert checks[name].exhaustive and checks[name].count == 1 << 16, checks[name]
    assert rep.stats["cyclic"] is True


def _peak_bytes(build):
    tracemalloc.start()
    try:
        q = build()
        q.tensor(5, 9), q.le(3, 7), q.join([1, 2, 4]), q.meet([3, 5])
        return q, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_relation_families_build_no_square_table():
    # rel:4 has 65,536 elements: less than one machine word per element
    # rules out a table of any size n^2
    q, peak = _peak_bytes(lambda: build_rel_quantale(4))
    assert len(q) == 1 << 16 and peak < len(q) * 8
    # 2prof:disc3 has 512: one flat table of two-byte cells (512 KiB), filled
    # only in the cells the kernel used, and no other structure of size n^2
    q, peak = _peak_bytes(lambda: builtin_quantale("2prof:disc3"))
    table = q._table
    assert len(q) == 512 and table.itemsize == 2 and len(table) == len(q) ** 2
    assert table.count(-1) == len(table) - 1 and peak < 3 * len(q) ** 2


# tracemalloc's peak, in bytes, while rel:4 is built and takes perp and prep
# of its first 4,096 elements (composition tables already warm), measured on
# a kernel that stores no sweep rows for rel:4: 1,141,682 bytes.  Storing a
# row of products per element there would add about 4 MB.
_REL4_DUALS_PEAK = 1_141_682


def test_rel4_residuals_store_no_rows():
    warm = build_rel_quantale(4)
    for x in range(4096):
        warm.perp(x), warm.prep(x)
    del warm
    tracemalloc.start()
    try:
        q = build_rel_quantale(4)
        for x in range(4096):
            q.perp(x), q.prep(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * _REL4_DUALS_PEAK, peak


def pair_below_a_point():
    """The bool2 preorder on three objects where the isomorphic pair a, b
    lies below t; its Prof(c, c) has 6 elements."""
    v, objects = build_bool2(), "abt"
    below = {("a", "b"), ("b", "a"), ("a", "t"), ("b", "t")}
    return pf.VCat(v, list(objects),
                   {(x, y): int(x == y or (x, y) in below) for x in objects for y in objects})


def _pair_below_a_point_prof():
    c = pair_below_a_point()
    q = pf.build_prof_quantale(c, pf.enumerate_profs(c))
    assert len(q) == 6
    return q


def _filled(spec):
    q = _pair_below_a_point_prof() if spec == "prof:pair-below-a-point" else builtin_quantale(spec)
    for a in q.elements:
        for b in q.elements:
            q.tensor(a, b)
    return q


def _per_triple(q):
    """(ok, witness, count) of associativity and monotonicity by the plain
    scan of every triple, each tried in full."""
    t, le = q.tensor, q.le

    def names(*xs):
        return str(tuple(map(q.name, xs)))

    def associative(a, b, c):
        return t(t(a, b), c) != t(a, t(b, c)) and names(a, b, c)

    def monotone(a, b, c):
        return (le(a, b) and (not le(t(c, a), t(c, b)) or not le(t(a, c), t(b, c)))
                and names(a, b, c))

    return [(r.ok, r.witness, r.count)
            for r in (scan("associativity", product(q.elements, repeat=3), associative),
                      scan("monotonicity", product(q.elements, repeat=3), monotone))]


def _triple_checks(q):
    return [(r.ok, r.witness, r.count) for r in q.validate()
            if r.name in ("associativity", "monotonicity")]


@pytest.mark.parametrize("spec", ["luk3", "s3:e", "2prof:chain2", "prof:pair-below-a-point"])
def test_validate_fails_on_every_swap_in_a_tensor_table(spec):
    # validate visits only the triples of the pairs the table's rows flag,
    # and reports what the per-triple scan of all n^3 does
    q = _filled(spec)
    assert all(r.ok for r in q.validate())
    assert _triple_checks(q) == _per_triple(q)
    table = q._table
    for i in range(len(table)):
        for j in range(i + 1, len(table)):
            if table[i] == table[j]:
                continue
            broken = _filled(spec)
            broken._table[i], broken._table[j] = table[j], table[i]
            assert not all(r.ok for r in broken.validate()), (spec, i, j)
            assert _triple_checks(broken) == _per_triple(broken), (spec, i, j)


def test_validate_finds_a_tensor_that_is_only_not_monotone():
    # the group Z2 on the chain 0 < 1: associative, but 1 * - reverses the order
    q = Quantale("z2-on-a-chain", [0, 1], lambda a, b: a <= b, lambda a, b: a ^ b, 0, 0)
    checks = _triple_checks(q)
    assert checks == _per_triple(q)
    assert checks[0] == (True, "", 8) and checks[1] == (False, "('0', '1', '1')", 4)


def test_suite_skips_model_checks_on_swapped_rel2_tensor_cells():
    # rel:2 sweeps its four join-irreducibles: a broken tensor must still
    # fail the axioms, so the certified residuals are never trusted on it
    q = _filled("rel:2")
    table = q._table
    unequal = [(i, j) for i in range(len(table)) for j in range(i + 1, len(table))
               if table[i] != table[j]]
    for i, j in random.Random(13).sample(unequal, 100):
        broken = _filled("rel:2")
        broken._table[i], broken._table[j] = table[j], table[i]
        rep = quantale_suite(broken, seed=1)
        assert not rep.ok and "cyclic" not in rep.stats, (i, j)
        assert all(c.name.startswith("quantale-") for c in rep.checks), (i, j)


def test_a_missing_residual_fails_the_checks_that_need_it():
    # the swap leaves {00,11} without a residual into the dualizer, so its
    # dual has no value: the model checks report that, not raise it
    q = _filled("rel:2")
    q._table[18], q._table[152] = q._table[152], q._table[18]
    res = next(r for r in validate_staut(ThinModel(q), 1) if r.name == "triangle-right-object")
    assert not res.ok and "residual {00,11} \\ {01,10} does not exist" in res.witness


def test_a_large_quantale_validates_on_distinct_seeded_draws(monkeypatch):
    drawn = []

    def spy(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(quantale, "draw", spy)
    q = build_rel_quantale(3)
    first = [(r.name, r.ok, r.count, r.exhaustive) for r in q.validate(5)]
    assert first == [("unit-law", True, 512, True), ("associativity", True, 4096, False),
                     ("monotonicity", True, 4096, False),
                     ("residuals-exist", True, 256, False), ("dualizing-element", True, 512, True)]
    (triples, _), (pairs, _) = drawn
    assert len(set(triples)) == len(triples) and len(set(pairs)) == len(pairs)
    again = [(r.name, r.ok, r.count, r.exhaustive) for r in build_rel_quantale(3).validate(5)]
    assert again == first and drawn[2:] == drawn[:2]
    build_rel_quantale(3).validate(6)
    assert drawn[4][0] != triples


def test_rel3_suite_fills_few_table_cells():
    # a sweep of the whole carrier would fill all 512 * 512 cells
    q = build_rel_quantale(3)
    assert quantale_suite(q, seed=1).ok
    table = q._table
    assert len(table) - table.count(-1) < len(table) // 8
