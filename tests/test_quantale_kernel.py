"""The index-coded quantale kernel against the value-level definitions it is
built from: order, tensor, binary joins and meets, and brute-force
residuals computed from ``le_fn`` and ``tensor_fn`` alone."""

from fractions import Fraction
import tracemalloc

import pytest

from stautcheck import profunctors as pf
from stautcheck.files import load_quantale_file
from stautcheck.quantale import QuantaleError, build_rel_quantale, builtin_quantale
from stautcheck.suites import luk3_two_object_vcat

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
    pq = pf.build_prof_quantale(make())
    assert pq.family == "prof" and len(pq) >= 3
    _agrees_with_values(pq)


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


def _filled(spec):
    q = builtin_quantale(spec)
    for a in q.elements:
        for b in q.elements:
            q.tensor(a, b)
    return q


@pytest.mark.parametrize("spec", ["luk3", "s3:e", "2prof:chain2"])
def test_validate_fails_on_every_swap_in_a_tensor_table(spec):
    q = _filled(spec)
    assert all(r.ok for r in q.validate())
    table = q._table
    for i in range(len(table)):
        for j in range(i + 1, len(table)):
            if table[i] == table[j]:
                continue
            broken = _filled(spec)
            broken._table[i], broken._table[j] = table[j], table[i]
            assert not all(r.ok for r in broken.validate()), (spec, i, j)
