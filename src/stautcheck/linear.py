"""Linear star-autonomous backends over exact rationals.

These are the degenerate models: par coincides with tensor value-wise, both
units are the one-dimensional space, and the two duals of a space are both
chosen to be its dual space on the same index set, so dual objects reuse the
domain's basis labels and the cancellation maps come out as literal identity
matrices.  The Kronecker flattening convention lives in
``core.matrices.kron``; every structural matrix below is derived from it.

Three concrete families:

* ``VecModel`` -- plain finite-dimensional spaces with the swap symmetry;
* ``GradedLineModel`` -- integer-graded lines with the scaled braiding
  c**(deg*deg), the minimal braided model whose braiding is not a symmetry
  and whose canonical twist-like composites pick up detectable scalars;
* module categories (see ``drinfeld``) subclass ``LinearModel`` and add
  action data.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .core import matrices as mx
from .core.model import StautModel
from .core.morphisms import Mor, MorError
from .core.objects import PAR, TENS


# an object's value, compared by value; ``data`` is what a subclass adds
# (a degree, action matrices)
Space = namedtuple("Space", "dim data", defaults=(None,))


def _validate_entries(payload):
    """Refuse a matrix off the canonical form, where ``==`` is not equality."""
    den, cols = payload.den, payload.cols
    if type(den) is not int or den < 1:
        raise MorError(f"matrix denominator {den!r} is not a positive int")
    for row in payload.rows:
        # each entry against the one before it
        for (last, _), (j, x) in zip([(-1, 1), *row], row):
            if type(x) is not int:
                raise MorError(f"inexact matrix entry {x!r}; a Matrix holds ints")
            if not x or type(j) is not int or not last < j < cols:
                raise MorError(f"matrix row {row!r} is not its nonzero entries at "
                               f"strictly ascending columns below {cols}")
    common = gcd(den, *(x for row in payload.rows for _, x in row)) if den > 1 else 1
    if common > 1:
        raise MorError(f"matrix denominator {den} shares the factor {common} with every entry")


class LinearModel(StautModel):
    is_linear = True

    def dim(self, ref):
        return ref.value.dim

    def _object_value(self, kind, *vs):
        # par is tensor value-wise, both units are the line and both duals
        # reuse the space
        if kind in (TENS, PAR):
            return Space(vs[0].dim * vs[1].dim)
        return vs[0] if vs else Space(1)

    # -------------------------------------------------------------- morphisms

    def mor(self, dom, cod, payload=None):
        """A morphism from a caller's matrix: its shape and its entries are
        checked (and, in subclasses, that it is a map of the structure)."""
        if not isinstance(payload, mx.Matrix):
            raise MorError("linear morphisms need a matrix payload (core.matrices.mat)")
        f = self._mor(dom, cod, payload)
        _validate_entries(payload)
        return f

    def _mor(self, dom, cod, payload):
        """A morphism whose matrix the kernel computed from morphisms that
        already passed ``mor``: exact and structure-preserving by
        construction, so only its shape is checked."""
        r, c = mx.shape(payload)
        if (r, c) != (self.dim(cod), self.dim(dom)):
            raise MorError(
                f"matrix shape {(r, c)} does not fit {dom} -> {cod} "
                f"of dims {self.dim(dom)} -> {self.dim(cod)}")
        return Mor(dom, cod, payload, mx.is_identity(payload))

    def identity(self, p):
        return self._structural(("id", p), lambda: Mor(p, p, self._eye(self.dim(p)), True))

    def _eye(self, n):
        """The identity matrix of size n, one per model and size, which every
        identity and structural identity of that size shares."""
        return self._structural(("eye", n), mx.identity, n)

    def _compose_payload(self, f, g):
        if f.payload_is_id:
            return Mor(f.dom, g.cod, g.payload, g.payload_is_id)
        if g.payload_is_id:
            return Mor(f.dom, g.cod, f.payload, f.payload_is_id)
        return self._mor(f.dom, g.cod, mx.matmul(g.payload, f.payload))

    def tens_mor(self, f, g):
        return self._mor(self.tens(f.dom, g.dom), self.tens(f.cod, g.cod),
                         mx.kron(f.payload, g.payload))

    def par_mor(self, f, g):
        return self._mor(self.par(f.dom, g.dom), self.par(f.cod, g.cod),
                         mx.kron(f.payload, g.payload))

    def invert(self, f):
        if f.payload_is_id:
            return Mor(f.cod, f.dom, f.payload, True)
        try:
            inv = mx.inverse(f.payload)
        except ValueError:
            raise MorError(f"morphism {f} is not invertible") from None
        return self._mor(f.cod, f.dom, inv)

    def hom_span(self, p, q):
        def build():
            dp, dq = self.dim(p), self.dim(q)
            units = []
            for i in range(dq):
                for j in range(dp):
                    rows = [()] * dq
                    rows[i] = ((j, 1),)
                    units.append(self.mor(p, q, mx.Matrix(tuple(rows), dp)))
            return units
        return self._structural(("span", p, q), build)

    def mor_scale(self, c, f):
        try:
            payload = mx.scale(c, f.payload)
        except ValueError as exc:   # a scalar that is not an int or a Fraction
            raise MorError(str(exc)) from None
        return self.mor(f.dom, f.cod, payload)

    # ------------------------------------------------------- structural maps
    # With the fixed kron flattening, reassociations, unit absorptions and
    # distributions are literally identity matrices; only the duality
    # units/counits have content: sum_i e_i (x) e_i as a column or a row.

    def _structural_mor(self, kind, dom, cod, objects):
        if kind.startswith("dual_"):
            n = self.dim(objects[0])
            diagonal = [int(j // n == j % n) for j in range(n * n)]
            payload = [[x] for x in diagonal] if kind.startswith("dual_unit") else [diagonal]
            return self.mor(dom, cod, mx.mat(payload))
        if self.dim(dom) != self.dim(cod):
            raise MorError(f"structural identity between {dom} and {cod} of unequal dims")
        return Mor(dom, cod, self._eye(self.dim(dom)), True)


class VecModel(LinearModel):
    """Plain rational vector spaces with the swap symmetry."""

    is_braided = True

    def __init__(self, dims=None, depth_limit=8):
        dims = dims or {"p": 2}
        for name, n in dims.items():
            if not 1 <= n <= 3:
                raise MorError(f"generator {name!r} dim {n} out of range 1..3")
        super().__init__({name: Space(n) for name, n in dims.items()}, depth_limit)
        first = self.gen(next(iter(dims)))
        self.probes = [self.e, self.d, first, self.rdual(first), self.ldual(first),
                       self.tens(first, first)]

    def describe(self):
        dims = {n: s.dim for n, s in self._generators.items()}
        return f"vec({dims})"

    def braid(self, p, q):
        return self._structural(("br", p, q), lambda: self.mor(
            self.tens(p, q), self.tens(q, p), mx.swap_matrix(self.dim(p), self.dim(q))))


def build_vec_model(max_dim=2, depth_limit=8):
    """The symmetric linear model on one generator of the given dimension."""
    if not 1 <= max_dim <= 3:
        raise MorError(f"max_dim must be 1..3, got {max_dim}")
    return VecModel({"p": max_dim}, depth_limit)


class GradedLineModel(LinearModel):
    """Integer-graded one-dimensional spaces with braiding c**(deg*deg).

    Morphisms between objects of different degree are zero only; the hom
    spanning sets are graded accordingly, which is what makes the scaled
    braiding natural.  Exists to exercise the negative branches of the
    twist/quasi-twist checks: its stitch composite is c**(-2 deg^2) != 1.
    """

    is_braided = True

    def __init__(self, c=Fraction(2), depth_limit=8):
        super().__init__({"x": Space(1, 1)}, depth_limit)
        self.c = Fraction(c)
        if self.c == 0:
            raise MorError("braiding scale must be nonzero")
        x = self.gen("x")
        self.probes = [self.e, self.d, x, self.rdual(x), self.tens(x, x)]

    def describe(self):
        return f"gradedline(c={self.c})"

    def degree(self, ref):
        return ref.value.data

    def _object_value(self, kind, *vs):
        # degrees add under tensor and par, duals negate them, units have 0
        if kind in (TENS, PAR):
            return Space(1, vs[0].data + vs[1].data)
        return Space(1, -vs[0].data if vs else 0)

    def mor(self, dom, cod, payload=None):
        m = super().mor(dom, cod, payload)
        if not mx.is_zero(payload) and self.degree(dom) != self.degree(cod):
            raise MorError(f"nonzero map between degrees {self.degree(dom)} "
                           f"and {self.degree(cod)}")
        return m

    def hom_span(self, p, q):
        if self.degree(p) != self.degree(q):
            return []
        return super().hom_span(p, q)

    def braid(self, p, q):
        expo = self.degree(p) * self.degree(q)
        val = self.c ** expo
        return self.mor(self.tens(p, q), self.tens(q, p), mx.mat([[val]]))


def scalar_cycle(model, lam):
    """The cycle candidate lam * identity on a linear model with equal duals."""
    from .cyclicity import CycleData
    lam = Fraction(lam)
    if lam == 0:
        raise MorError("scalar cycle needs a nonzero scalar")

    def comp(p):
        n = model.dim(p)
        payload = mx.scale(lam, mx.identity(n))
        return model.mor(model.rdual(p), model.ldual(p), payload)

    return CycleData(model, comp, label=f"scalar({lam})")

