import doctest
from fractions import Fraction
from math import gcd
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from stautcheck.core import matrices as mx
from stautcheck.core.morphisms import MorError
from stautcheck.linear import build_vec_model

entries = st.integers(min_value=-4, max_value=4)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(mx.mat)


def test_matmul_shapes():
    a = mx.mat([[1, 2, 3]])
    b = mx.mat([[1], [0], [2]])
    assert mx.matmul(a, b) == mx.mat([[7]])
    with pytest.raises(ValueError):
        mx.matmul(a, a)


def test_kron_flattening_convention():
    a = mx.mat([[1, 2]])
    b = mx.mat([[3, 4]])
    assert mx.kron(a, b) == mx.mat([[3, 4, 6, 8]])


def test_kron_mixed_product_rule():
    a, b = mx.mat([[1, 2], [0, 1]]), mx.mat([[2, 0], [1, 1]])
    c, d = mx.mat([[1, 1], [1, 0]]), mx.mat([[0, 1], [2, 1]])
    lhs = mx.matmul(mx.kron(a, b), mx.kron(c, d))
    rhs = mx.kron(mx.matmul(a, c), mx.matmul(b, d))
    assert lhs == rhs


@given(square(3))
def test_inverse_roundtrip(m):
    try:
        inv = mx.inverse(m)
    except ValueError:
        rank = 3 - len(mx.nullspace(m))
        assert rank < 3
        return
    assert mx.matmul(m, inv) == mx.identity(3)
    assert mx.matmul(inv, m) == mx.identity(3)


@given(square(3))
def test_nullspace_annihilates(m):
    basis = mx.nullspace(m)
    assert mx.is_zero(mx.matmul(m, mx.transpose(basis)))


def test_swap_matrix():
    sw = mx.swap_matrix(2, 3)
    v = mx.mat([[Fraction(i)] for i in range(6)])
    out = mx.dense(mx.matmul(sw, v))
    # index i*3+j goes to j*2+i
    expected = [0] * 6
    for i in range(2):
        for j in range(3):
            expected[j * 2 + i] = i * 3 + j
    assert tuple(x[0] for x in out) == tuple(expected)


def test_identity_is_exact():
    assert mx.identity(3) == mx.mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert mx.dense(mx.identity(2)) == ((1, 0), (0, 1))
    assert mx.is_identity(mx.identity(4)) and mx.is_identity(mx.mat([[Fraction(1)]]))
    assert not mx.is_identity(mx.mat([[1, 0], [1, 1]]))
    assert not mx.is_identity(mx.mat([[1, 0]])) and not mx.is_identity(mx.zeros(2, 2))


def test_identity_memory_follows_its_nonzeros():
    # dense, identity(4096) is 16.7M stored entries, about 134 MB
    tracemalloc.start()
    try:
        eye = mx.identity(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(eye) == eye.cols == 4096 and peak < 1 << 20, peak


def test_scalar_table_memory_follows_the_nonzeros(capsys):
    # the max-dim 2 scalar table reaches objects of dimension 512, whose
    # structural identities the model keeps: 43.7 MiB traced at its end when
    # they were dense, 6.5 MiB sparse
    from stautcheck.cli import main
    tracemalloc.start()
    try:
        code = main(["--format", "structured", "--seed", "0",
                     "vec", "scalar-table", "--max-dim", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0 and peak < 15 << 20, peak


# ------------------------------------------ the kernel against dense references
# Operands are mostly zero, as the linear backends' matrices are, and mix int
# and Fraction entries (zeros of both types included).

dims = st.integers(min_value=1, max_value=6)
nonzero = st.one_of(st.integers(min_value=-4, max_value=4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6)
                    ).filter(bool)


@st.composite
def sparse(draw, rows=dims, cols=dims):
    r, c = draw(rows), draw(cols)
    m = [[draw(st.sampled_from((0, Fraction(0)))) for _ in range(c)] for _ in range(r)]
    cells = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1))
    for (i, j), x in draw(st.dictionaries(cells, nonzero, max_size=max(1, r * c // 3))).items():
        m[i][j] = x
    return mx.mat(m)


@st.composite
def invertible(draw):
    """A row permutation of a lower-triangular matrix with nonzero diagonal."""
    n = draw(dims)
    low = mx.dense(draw(sparse(st.just(n), st.just(n))))
    rows = [list(low[i][:i]) + [draw(nonzero)] + [0] * (n - i - 1) for i in range(n)]
    order = draw(st.permutations(range(n)))
    return mx.mat([rows[i] for i in order])


def dense_matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def dense_kron(a, b):
    return tuple(tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
                 for i in range(len(a)) for k in range(len(b)))


def dense_rref(m):
    """Reduced row echelon form over Fractions and its pivot columns."""
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def dense_nullspace(m):
    a, pivots = dense_rref(m)
    basis = []
    for fc in (c for c in range(len(m[0])) if c not in pivots):
        v = [Fraction(0)] * len(m[0])
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(tuple(v))
    return basis


@st.composite
def chained(draw):
    r, k, c = draw(dims), draw(dims), draw(dims)
    return draw(sparse(st.just(r), st.just(k))), draw(sparse(st.just(k), st.just(c)))


@settings(deadline=None)
@given(chained())
@example((mx.mat([[0, 2, 0]]), mx.mat([[1], [0], [Fraction(1, 2)]])))
@example((mx.mat([[Fraction(1, 3)], [0]]), mx.mat([[0, 0, 5]])))
def test_matmul_matches_dense(ab):
    a, b = ab
    assert mx.matmul(a, b) == mx.mat(dense_matmul(mx.dense(a), mx.dense(b)))


@settings(deadline=None)
@given(sparse(), sparse())
def test_kron_matches_dense(a, b):
    assert mx.kron(a, b) == mx.mat(dense_kron(mx.dense(a), mx.dense(b)))


@settings(deadline=None)
@given(st.one_of(invertible(), dims.flatmap(lambda n: sparse(st.just(n), st.just(n)))))
def test_inverse_matches_dense(m):
    n = len(m)
    a, pivots = dense_rref([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(mx.dense(m))])
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError):
            mx.inverse(m)
        return
    assert mx.inverse(m) == mx.mat(row[n:] for row in a)


@settings(deadline=None)
@given(sparse())
def test_nullspace_matches_dense(m):
    assert mx.dense(mx.nullspace(m)) == tuple(dense_nullspace(mx.dense(m)))


def _canonical(m):
    """Nonzero int entries in ascending columns within range, over a
    positive int denominator that shares no factor with all of them."""
    entries = [x for row in m.rows for _, x in row]
    if type(m.den) is not int or m.den < 1 or gcd(m.den, *entries) != 1:
        return False
    if any(x == 0 or type(x) is not int for x in entries):
        return False
    for row in m.rows:
        cols = [j for j, _ in row]
        if cols != sorted(set(cols)) or any(not 0 <= j < m.cols for j in cols):
            return False
    return True


def test_zeros_of_either_type_give_one_matrix():
    assert mx.mat([[0]]) == mx.mat([[Fraction(0)]]) == mx.zeros(1, 1)
    assert mx.mat([[0, Fraction(0)], [Fraction(1, 2), 0]]) == mx.mat([[0, 0], [Fraction(1, 2), 0]])
    assert mx.mat([[0, 0]]) != mx.mat([[0], [0]])
    with pytest.raises(ValueError):
        mx.mat([[1, 2], [3]])


@settings(deadline=None)
@given(chained(), sparse(), sparse(), invertible())
def test_every_kernel_result_is_canonical(ab, c, d, m):
    a, b = ab
    results = [a, b, c, mx.matmul(a, b), mx.kron(c, d), mx.add(c, c), mx.transpose(c),
               mx.add(c, mx.scale(-1, c)), mx.scale(Fraction(1, 2), c), mx.scale(0, c),
               mx.nullspace(c), mx.inverse(m), mx.identity(len(c)),
               mx.swap_matrix(len(c), c.cols), mx.add(c, mx.scale(Fraction(2, 3), c)),
               mx.matmul(mx.inverse(m), m), mx.scale(Fraction(-3, 4), mx.inverse(m)),
               mx.kron(mx.scale(Fraction(1, 6), c), mx.scale(Fraction(3, 2), d)),
               mx.nullspace(mx.scale(Fraction(5, 2), c)), mx.transpose(mx.inverse(m))]
    assert all(_canonical(r) for r in results)
    # the form is unique: rebuilt from its values, every result with rows
    # is itself
    assert all(mx.mat(mx.dense(r)) == r for r in results if len(r))
    assert mx.is_zero(mx.add(c, mx.scale(-1, c)))
    assert mx.scale(Fraction(2, 3), mx.scale(Fraction(3, 2), c)) == c


@pytest.mark.parametrize("c", [0.5, 0.0, 1.0, "2", None, 1j])
def test_scale_refuses_scalars_that_are_not_ints_or_fractions(c):
    with pytest.raises(ValueError, match=re.escape(f"inexact matrix entry {c!r}")):
        mx.scale(c, mx.identity(2))


# ------------------------------------------------------------ the kernel memo
# The memos live for the whole process, so each test below first stores the
# entry that could fool it and then checks that it does not.

def test_an_inexact_scalar_is_refused_though_an_equal_exact_one_is_memoized(vec):
    half = mx.scale(Fraction(1, 2), mx.identity(2))
    assert mx.scale(Fraction(1, 2), mx.identity(2)) is half
    with pytest.raises(ValueError, match="inexact"):
        mx.scale(0.5, mx.identity(2))
    p = vec.gen("p")
    assert vec.mor_scale(Fraction(1, 2), vec.identity(p)).payload == half
    with pytest.raises(MorError, match="inexact"):
        vec.mor_scale(0.5, vec.identity(p))


def test_a_hand_built_inexact_matrix_is_refused_though_its_exact_twin_is_memoized():
    two = mx.mat([[2]])
    for kernel in (mx.matmul, mx.kron, mx.add):
        kernel(two, two)
    mx.scale(3, two), mx.transpose(two), mx.inverse(two), mx.nullspace(two)
    float_two = mx.Matrix((((0, 2.0),),), 1)
    assert float_two == two
    m = build_vec_model(1)
    p = m.gen("p")
    assert m.mor(p, p, two).payload is two
    with pytest.raises(MorError, match="inexact"):
        m.mor(p, p, float_two)


def test_a_singular_inverse_raises_on_every_call():
    singular = mx.mat([[1, 2], [2, 4]])
    for m in (singular, singular, mx.mat([[1, 2], [2, 4]])):
        with pytest.raises(ValueError, match="singular"):
            mx.inverse(m)
    assert mx.inverse(mx.mat([[1, 2], [2, 5]])) == mx.mat([[5, -2], [-2, 1]])


def _anew(x):
    """An operand equal to ``x`` that is not ``x``."""
    if isinstance(x, mx.Matrix):
        return mx.Matrix(tuple(tuple(row) for row in x.rows), x.cols, x.den)
    return Fraction(x) if type(x) is int else Fraction(x.numerator, x.denominator)


@settings(deadline=None)
@given(chained(), sparse(), sparse(), st.one_of(invertible(), sparse(dims, st.just(3))),
       st.one_of(st.just(0), nonzero))
def test_each_memoized_kernel_is_its_body_and_repeats_its_result(ab, c, d, m, k):
    a, b = ab
    calls = [(mx.matmul, (a, b)), (mx.kron, (c, d)), (mx.add, (c, mx.scale(-1, c))),
             (mx.add, (c, d)), (mx.transpose, (c,)), (mx.inverse, (m,)),
             (mx.nullspace, (m,)), (mx.scale, (k, c))]
    for kernel, operands in calls:
        body = (mx._scale if kernel is mx.scale else kernel).__wrapped__
        try:
            want = body(*operands)
        except ValueError:
            for args in (operands, operands, tuple(map(_anew, operands))):
                with pytest.raises(ValueError):
                    kernel(*args)
            continue
        got = kernel(*operands)
        assert got == want and _canonical(got)
        assert kernel(*operands) is got and kernel(*map(_anew, operands)) is got


def test_doctests():
    result = doctest.testmod(mx)
    assert result.attempted > 0 and result.failed == 0
