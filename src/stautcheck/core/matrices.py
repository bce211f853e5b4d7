"""Exact rational matrices in one sparse, canonical form.

A ``Matrix`` is int rows over one positive denominator ``den``.  A row is the
tuple of the (column, int) pairs of its nonzero entries, in ascending column
order; entry (i, j) is the int stored at column j of row i over ``den``.  No
zero is stored and ``den`` shares no factor with all the stored ints (a zero
matrix has ``den`` 1), so the form is canonical and ``==`` is literal, exact
matrix equality; the hash reads the same three fields, so equal matrices
key a dict as one.  Only ints and ``fractions.Fraction`` values enter: ``mat``
and ``scale`` refuse anything else, a float say.

Every kernel does int arithmetic on the stored entries alone, so its cost
and the memory of its result follow the nonzeros: ``identity(n)`` holds n
entries, ``matmul`` and ``kron`` multiply only nonzero pairs over the product
of the denominators, and one gcd brings a result back to its form.
``inverse`` and ``nullspace`` run Gauss-Jordan steps over sparse rows of
Fractions and return the canonical form.  ``dense`` gives the values, ints
over the denominator 1 and Fractions otherwise, for printing.

Each kernel that takes matrices (``matmul``, ``kron``, ``add``, ``scale``,
``transpose``, ``inverse``, ``nullspace``) is memoized on its operands: it
computes a result once, keeps it for the life of the process and hands the
same object to every later call with equal operands.  That is exact because
the form is canonical: equal operands are one exact matrix, and a kernel
reads nothing but their value.  Each memo is a ``core.memo.LazyTable``, so
a call that raises (a singular ``inverse``) keeps nothing and raises again.
``scale`` refuses an inexact scalar before its lookup, since ``0.5 ==
Fraction(1, 2)`` and the two hash alike; a matrix built by hand off the form
meets ``LinearModel.mor``'s check before any kernel.  No caller changes a
``Matrix``.  The constructors (``mat``, ``identity``, ``zeros``,
``swap_matrix``) and ``dense`` keep nothing.

>>> m = mat([[1, 2], [3, 4]])
>>> matmul(m, inverse(m)) == identity(2)
True
>>> inverse(m).rows, inverse(m).den
((((0, -4), (1, 2)), ((0, 3), (1, -1))), 2)
>>> p = scale(Fraction(1, 2), matmul(mat([[0, 0], [1, 0]]), m))
>>> p.rows, p.cols, p.den, dense(p)
(((), ((0, 1), (1, 2))), 2, 2, ((0, 0), (Fraction(1, 2), Fraction(1, 1))))
"""

from fractions import Fraction
from functools import wraps
from math import gcd, lcm

from .memo import LazyTable


class Matrix:
    """``rows`` holds, per row, the (column, int) pairs of its nonzero
    entries in ascending column order, ``cols`` the column count and ``den``
    the positive denominator of every entry; the functions below keep that
    form, and so must a caller that builds one from rows directly.  As a
    sequence it is its rows.  Its hash is computed on first use and kept."""

    __slots__ = ("rows", "cols", "den", "_hash")

    def __init__(self, rows, cols, den=1):
        self.rows, self.cols, self.den = rows, cols, den
        self._hash = None

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.cols == other.cols and self.den == other.den and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.den))
        return self._hash

    def __repr__(self):
        return f"mat({dense(self)!r})"


def _refuse_inexact(values):
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"inexact matrix entry {x!r}; only int/Fraction allowed")


def _times(rows, c):
    """``rows`` with every entry multiplied by the int ``c``."""
    return rows if c == 1 else tuple(tuple((j, c * x) for j, x in row) for row in rows)


def _canon(rows, cols, den):
    """The Matrix of int ``rows`` over ``den``, both divided by their gcd."""
    g = 1 if den == 1 else gcd(den, *(x for row in rows for _, x in row))
    if g > 1:
        rows = tuple(tuple((j, x // g) for j, x in row) for row in rows)
    return Matrix(rows, cols, den // g)


def _over_one_den(rows, cols):
    """The Matrix of rows of (column, nonzero int or Fraction) pairs, over
    their least common denominator, which is already canonical."""
    den = lcm(*(x.denominator for row in rows for _, x in row))
    return Matrix(tuple(tuple((j, x.numerator * (den // x.denominator)) for j, x in row)
                        for row in rows), cols, den)


def _memoized(kernel):
    """``kernel`` computed once per operands (see the module docstring);
    ``__wrapped__`` is the kernel itself."""
    table = LazyTable(lambda operands: kernel(*operands))

    @wraps(kernel)
    def lookup(*operands):
        return table[operands]
    return lookup


def mat(rows):
    """The matrix of dense rows of ints and Fractions; any other entry, a
    float say, is refused (ValueError), so no inexact number enters."""
    rows = [list(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("rows of unequal length")
    _refuse_inexact(x for row in rows for x in row)
    return _over_one_den([[(j, x) for j, x in enumerate(row) if x] for row in rows], cols)


def dense(m):
    """The value of every entry of ``m``, row by row, the int 0 where none
    is stored: the text a failing payload prints as."""
    d = m.den
    return tuple(tuple(Fraction(r[j], d) if j in r and d != 1 else r.get(j, 0)
                       for j in range(m.cols)) for r in map(dict, m.rows))


def shape(m):
    return (len(m.rows), m.cols)


def identity(n):
    return Matrix(tuple(((i, 1),) for i in range(n)), n)


def zeros(r, c):
    return Matrix(((),) * r, c)


def is_identity(m):
    return (m.den == 1 and m.cols == len(m.rows)
            and all(row == ((i, 1),) for i, row in enumerate(m.rows)))


def is_zero(m):
    return not any(m.rows)


def _row(terms):
    """The canonical row of the sum of (column, entry) terms."""
    acc = {}
    for j, x in terms:
        acc[j] = acc.get(j, 0) + x
    return tuple(sorted((j, x) for j, x in acc.items() if x))


@_memoized
def matmul(a, b):
    """Matrix product a @ b (a maps the codomain side, as usual)."""
    if a.cols != len(b.rows):
        raise ValueError(f"shape mismatch in matmul: {shape(a)} @ {shape(b)}")
    brows, out = b.rows, []
    for arow in a.rows:
        if len(arow) != 1:
            out.append(_row((j, x * y) for k, x in arow for j, y in brows[k]))
            continue
        # a monomial row scales one row of b, which it shares when the scale is 1
        (k, x), = arow
        out.append(brows[k] if x == 1 else tuple((j, x * y) for j, y in brows[k]))
    return _canon(tuple(out), b.cols, a.den * b.den)


@_memoized
def add(a, b):
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in add")
    den = lcm(a.den, b.den)
    rows = zip(_times(a.rows, den // a.den), _times(b.rows, den // b.den))
    return _canon(tuple(_row(ra + rb) for ra, rb in rows), a.cols, den)


def scale(c, a):
    """``c`` times ``a``, for an int or Fraction ``c``; any other scalar is
    refused (ValueError), before the memo could answer for an equal one."""
    _refuse_inexact((c,))
    return _scale(c, a)


@_memoized
def _scale(c, a):
    if not c:
        return zeros(len(a.rows), a.cols)
    return _canon(_times(a.rows, c.numerator), a.cols, a.den * c.denominator)


@_memoized
def transpose(a):
    cols = [[] for _ in range(a.cols)]
    for i, row in enumerate(a.rows):
        for j, x in row:
            cols[j].append((i, x))
    return Matrix(tuple(map(tuple, cols)), len(a.rows), a.den)


@_memoized
def kron(a, b):
    """Kronecker product, row-major over the left factor.

    Basis convention: index (i, j) of the product flattens to i * cols(b) + j.
    All structural maps of the linear backends derive from this one choice.
    """
    cb = b.cols
    return _canon(tuple(tuple((j * cb + l, x * y) for j, x in arow for l, y in brow)
                        for arow in a.rows for brow in b.rows), a.cols * cb, a.den * b.den)


def _reduce(rows, cols):
    """Bring the list of dict rows (column -> nonzero entry) to reduced row
    echelon form in place, by Gauss-Jordan steps that touch only the nonzero
    columns of the pivot row; return the pivot columns, pivot i in row i."""
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            pv = Fraction(pv)
            for j, x in prow.items():
                prow[j] = x / pv
        for i, row in enumerate(rows):
            f = row.get(c)
            if f and i != r:
                for j, x in prow.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(c)
    return pivots


@_memoized
def inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(m.rows)
    if n != m.cols:
        raise ValueError("inverse of non-square matrix")
    aug = [dict(row) | {n + i: 1} for i, row in enumerate(m.rows)]
    if _reduce(aug, n) != list(range(n)):
        raise ValueError("singular matrix")
    # m is its int rows over den, so its inverse is den times theirs
    return _over_one_den([[(j - n, x * m.den) for j, x in sorted(row.items()) if j >= n]
                          for row in aug], n)


@_memoized
def nullspace(m):
    """Basis of the right nullspace {v : m v = 0}, one vector per row."""
    a = [dict(row) for row in m.rows]   # the denominator scales no solution
    pivots = _reduce(a, m.cols)
    basis = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        v = {fc: 1} | {pc: -row[fc] for row, pc in zip(a, pivots) if fc in row}
        basis.append(sorted(v.items()))
    return _over_one_den(basis, m.cols)


def swap_matrix(dim_a, dim_b):
    """Permutation matrix for a (x) b -> b (x) a under the kron flattening."""
    return Matrix(tuple(((i * dim_b + j, 1),) for j in range(dim_b) for i in range(dim_a)),
                  dim_a * dim_b)
