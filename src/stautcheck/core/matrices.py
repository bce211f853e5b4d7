"""Exact rational matrices as immutable tuples of row tuples.

Entries are ints or ``fractions.Fraction``; no floats ever enter the
arithmetic, so matrix equality is decidable and literal.

The four kernels skip zeros.  ``matmul`` and ``kron`` multiply only the
nonzero entries of their operands; ``inverse`` and ``nullspace`` run
Gauss-Jordan steps that update only the nonzero columns of the pivot row and
skip the division when the pivot is 1.  Their cost follows the number of
nonzero entries, not the dense shape, and their results are still dense
tuples of tuples.  In a result of ``matmul`` or ``kron``, an entry that no
nonzero product reaches is the int ``0`` whatever the operands' entry types
(``matmul`` shares one zero row among the all-zero rows of its result), and
every other entry is the exact sum of its products, so ints stay ints.
``inverse`` and ``nullspace`` return ``Fraction`` entries throughout.

>>> m = mat([[1, 2], [3, 4]])
>>> matmul(m, identity(2)) == m
True
>>> matmul(m, inverse(m)) == identity(2)
True
>>> matmul(mat([[0, 0], [1, 0]]), m)
((0, 0), (1, 2))
"""

from fractions import Fraction


def mat(rows):
    """Freeze a list-of-lists of numbers into a matrix."""
    return tuple(tuple(x if isinstance(x, (int, Fraction)) else Fraction(x)
                       for x in row) for row in rows)


def shape(m):
    return (len(m), len(m[0]) if m else 0)


_EYE_CACHE = {}


def identity(n):
    hit = _EYE_CACHE.get(n)
    if hit is None:
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            rows.append(tuple(row))
        hit = tuple(rows)
        if n <= 128:
            _EYE_CACHE[n] = hit
    return hit


def zeros(r, c):
    row = (0,) * c
    return tuple(row for _ in range(r))


def is_identity(m):
    r, c = shape(m)
    if r != c:
        return False
    return all(m[i][j] == (1 if i == j else 0) for i in range(r) for j in range(c))


def is_zero(m):
    return all(x == 0 for row in m for x in row)


def matmul(a, b):
    """Matrix product a @ b (a maps the codomain side, as usual)."""
    ca = shape(a)[1]
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch in matmul: {shape(a)} @ {shape(b)}")
    b_nz = _nonzeros(b)
    zero_row = (0,) * cb
    out = []
    for arow in a:
        acc = None
        for k, x in enumerate(arow):
            if x and b_nz[k]:
                if acc is None:
                    acc = [0] * cb
                for j, y in b_nz[k]:
                    acc[j] += x * y
        out.append(zero_row if acc is None else tuple(acc))
    return tuple(out)


def _nonzeros(m):
    """Per row of m, the (column, entry) pairs of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def add(a, b):
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in add")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def kron(a, b):
    """Kronecker product, row-major over the left factor.

    Basis convention: index (i, j) of the product flattens to i * cols(b) + j.
    All structural maps of the linear backends derive from this one choice.
    """
    cb = shape(b)[1]
    width = shape(a)[1] * cb
    b_nz = _nonzeros(b)
    zero_row = (0,) * width
    out = []
    for arow in a:
        a_nz = [(j * cb, x) for j, x in enumerate(arow) if x]
        for bk in b_nz:
            if not (a_nz and bk):
                out.append(zero_row)
                continue
            row = [0] * width
            for off, x in a_nz:
                for l, y in bk:
                    row[off + l] = x * y
            out.append(tuple(row))
    return tuple(out)


def _eliminate(rows, col, r):
    """One Gauss-Jordan step on the list-of-lists ``rows``: scale row ``r``
    so that its entry in ``col`` is 1 and clear that column in every other
    row, touching only the nonzero columns of row ``r``."""
    prow = rows[r]
    pv = prow[col]
    if pv != 1:
        pv = Fraction(pv)
        for j, x in enumerate(prow):
            if x:
                prow[j] = x / pv
    p_nz = [(j, x) for j, x in enumerate(prow) if x]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            for j, x in p_nz:
                row[j] -= f * x


def _fraction(x):
    return x if type(x) is Fraction else Fraction(x)


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n, c = shape(m)
    if n != c:
        raise ValueError("inverse of non-square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        _eliminate(aug, col, col)
    return tuple(tuple(_fraction(x) for x in row[n:]) for row in aug)


def nullspace(m):
    """Basis of the right nullspace {v : m v = 0}, as a list of column vectors."""
    rows, cols = shape(m)
    a = [list(row) for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        _eliminate(a, c, r)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -_fraction(a[i][fc])
        basis.append(tuple(v))
    return basis


def swap_matrix(dim_a, dim_b):
    """Permutation matrix for a (x) b -> b (x) a under the kron flattening."""
    n = dim_a * dim_b
    rows = []
    for j in range(dim_b):
        for i in range(dim_a):
            row = [0] * n
            row[i * dim_b + j] = 1
            rows.append(tuple(row))
    return tuple(rows)
