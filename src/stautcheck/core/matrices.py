"""Exact rational matrices in one sparse, canonical form.

A ``Matrix`` records its column count and its rows; a row is the tuple of
the (column, value) pairs of its nonzero entries, in ascending column order.
No zero is ever stored, so the form is canonical and ``==`` is literal,
exact matrix equality.  Entries are ints or ``fractions.Fraction``; no floats
ever enter the arithmetic.

Every kernel works on the stored entries alone, so its cost and the memory
of its result follow the nonzeros, not the dense shape: ``identity(n)``
holds n entries, ``matmul`` and ``kron`` multiply only nonzero pairs, and
``inverse`` and ``nullspace`` run Gauss-Jordan steps over sparse rows that
skip the division when the pivot is 1.  An entry of a product or a sum is
the exact sum of its terms, so ints stay ints; ``inverse`` and ``nullspace``
return ``Fraction`` entries throughout.  ``dense`` gives the tuple-of-tuples
view, with the int 0 where nothing is stored, for printing.

>>> m = mat([[1, 2], [3, 4]])
>>> matmul(m, identity(2)) == m
True
>>> matmul(m, inverse(m)) == identity(2)
True
>>> p = matmul(mat([[0, 0], [1, 0]]), m)
>>> p.rows, p.cols
(((), ((0, 1), (1, 2))), 2)
>>> dense(p)
((0, 0), (1, 2))
"""

from fractions import Fraction


class Matrix:
    """``rows`` holds, per row, the (column, value) pairs of its nonzero
    entries in ascending column order, and ``cols`` the column count; the
    functions below keep that form, and so must a caller that builds one
    from rows directly.  As a sequence it is its rows."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.cols == other.cols and self.rows == other.rows

    def __repr__(self):
        return f"mat({dense(self)!r})"


def mat(rows):
    """The matrix of dense rows of ints and Fractions; any other entry, a
    float say, is refused (ValueError), so no inexact number enters."""
    rows = [list(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("rows of unequal length")
    inexact = [x for row in rows for x in row if not isinstance(x, (int, Fraction))]
    if inexact:
        raise ValueError(f"inexact matrix entry {inexact[0]!r}; only int/Fraction allowed")
    return Matrix(tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows), cols)


def dense(m):
    """The rows of ``m`` with every entry, int 0 where none is stored: the
    text a failing payload prints as."""
    return tuple(tuple(dict(row).get(j, 0) for j in range(m.cols)) for row in m.rows)


def shape(m):
    return (len(m.rows), m.cols)


def identity(n):
    return Matrix(tuple(((i, 1),) for i in range(n)), n)


def zeros(r, c):
    return Matrix(((),) * r, c)


def is_identity(m):
    return m.cols == len(m.rows) and all(row == ((i, 1),) for i, row in enumerate(m.rows))


def is_zero(m):
    return not any(m.rows)


def _row(terms):
    """The canonical row of the sum of (column, entry) terms."""
    acc = {}
    for j, x in terms:
        acc[j] = acc.get(j, 0) + x
    return tuple(sorted((j, x) for j, x in acc.items() if x))


def matmul(a, b):
    """Matrix product a @ b (a maps the codomain side, as usual)."""
    if a.cols != len(b.rows):
        raise ValueError(f"shape mismatch in matmul: {shape(a)} @ {shape(b)}")
    brows, out = b.rows, []
    for arow in a.rows:
        if len(arow) != 1:
            out.append(_row((j, x * y) for k, x in arow for j, y in brows[k]))
            continue
        # a monomial row scales one row of b, which it shares when the scale
        # is the int 1 (a Fraction 1 would turn int entries into Fractions)
        (k, x), = arow
        out.append(brows[k] if x == 1 and type(x) is int
                   else tuple((j, x * y) for j, y in brows[k]))
    return Matrix(tuple(out), b.cols)


def add(a, b):
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in add")
    return Matrix(tuple(_row(ra + rb) for ra, rb in zip(a.rows, b.rows)), a.cols)


def scale(c, a):
    if not c:
        return zeros(len(a.rows), a.cols)
    return Matrix(tuple(tuple((j, c * x) for j, x in row) for row in a.rows), a.cols)


def transpose(a):
    cols = [[] for _ in range(a.cols)]
    for i, row in enumerate(a.rows):
        for j, x in row:
            cols[j].append((i, x))
    return Matrix(tuple(map(tuple, cols)), len(a.rows))


def kron(a, b):
    """Kronecker product, row-major over the left factor.

    Basis convention: index (i, j) of the product flattens to i * cols(b) + j.
    All structural maps of the linear backends derive from this one choice.
    """
    cb = b.cols
    return Matrix(tuple(tuple((j * cb + l, x * y) for j, x in arow for l, y in brow)
                        for arow in a.rows for brow in b.rows), a.cols * cb)


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


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(m.rows)
    if n != m.cols:
        raise ValueError("inverse of non-square matrix")
    aug = [dict(row) | {n + i: 1} for i, row in enumerate(m.rows)]
    if _reduce(aug, n) != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix(tuple(tuple((j - n, Fraction(x)) for j, x in sorted(row.items()) if j >= n)
                        for row in aug), n)


def nullspace(m):
    """Basis of the right nullspace {v : m v = 0}, one vector per row."""
    a = [dict(row) for row in m.rows]
    pivots = _reduce(a, m.cols)
    basis = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        v = {fc: Fraction(1)} | {pc: -Fraction(row[fc]) for row, pc in zip(a, pivots)
                                 if fc in row}
        basis.append(tuple(sorted(v.items())))
    return Matrix(tuple(basis), m.cols)


def swap_matrix(dim_a, dim_b):
    """Permutation matrix for a (x) b -> b (x) a under the kron flattening."""
    return Matrix(tuple(((i * dim_b + j, 1),) for j in range(dim_b) for i in range(dim_a)),
                  dim_a * dim_b)
