"""Strictification: integer-indexed strings of linear adjoints.

A string assigns to every integer an object together with adjunction data
tying index n to index n+1 (unit into the par, counit out of the tensor);
mates of base morphisms propagate along the indices in alternating
directions.  All strings here carry finite descriptors -- canonical dual
towers, period-two strings driven by a cycle, and the closures of
these under tensor, par, shifts and units -- so windowed checks certify the
whole family.

The payoff verified by this module: in the string category all de Morgan and
cancellation maps are componentwise identities (shift arithmetic), the string
category is equivalent to the base via take-component-zero and the canonical
tower, and for a full cycle the period-two strings compatible with it form a
closed subcategory on which the extended cycle is the identity.
"""

from itertools import product

from .core.model import Adjunction
from .core.morphisms import MorError, ShapeError
from .core.quantify import scan


def _outward(table, build, n):
    """``table[n]``, each missing index filled with ``build(index)`` from 0
    toward n, so that a build recursing on the index goes one level deep and
    no window meets the recursion limit.  A build that raises stores nothing."""
    if n not in table:
        step = 1 if n > 0 else -1
        for k in range(0, n + step, step):
            if k not in table:
                table[k] = build(k)
    return table[n]


class ZString:
    """Base: finite-descriptor family of objects with adjunction data."""

    def __init__(self, model):
        self.model = model
        self._z, self._gamma, self._tau = {}, {}, {}

    def z(self, n):
        return _outward(self._z, self._z_at, n)

    def gamma(self, n):
        """Counit z(n) (x) z(n+1) -> d."""
        return _outward(self._gamma, self._gamma_at, n)

    def tau(self, n):
        """Unit e -> z(n+1) par z(n); derived from gamma unless overridden."""
        hit = self._tau.get(n)
        if hit is None:
            hit = self._tau[n] = self._tau_at(n)
        return hit

    def _tau_at(self, n):
        m = self.model
        h = m.lcurry(self.gamma(n))
        return m.chain(m.dual_unit_r(self.z(n)),
                       m.par_mor(m.invert(h), m.identity(self.z(n))))

    def adjunction(self, n):
        return Adjunction(self.z(n), self.z(n + 1), self.tau(n), self.gamma(n))

    def describe(self):
        return type(self).__name__


class CanonicalZString(ZString):
    """Iterated chosen duals of a base object, with the chosen adjunctions."""

    def __init__(self, model, base):
        super().__init__(model)
        self.base = base

    def _z_at(self, n):
        if n == 0:
            return self.base
        if n > 0:
            return self.model.rdual(self.z(n - 1))
        return self.model.ldual(self.z(n + 1))

    def _gamma_at(self, n):
        if n >= 0:
            return self.model.dual_counit_r(self.z(n))
        return self.model.dual_counit_l(self.z(n + 1))

    def _tau_at(self, n):
        if n >= 0:
            return self.model.dual_unit_r(self.z(n))
        return self.model.dual_unit_l(self.z(n + 1))

    def describe(self):
        return f"canon({self.base})"


class Period2ZString(ZString):
    """Two alternating objects; the counit at every level is generated from
    level zero by ``cycle.apply`` and ``cycle.unapply``, exactly as the
    compatibility condition demands."""

    def __init__(self, cycle, z0, z1, gamma0):
        super().__init__(cycle.model)
        if gamma0.dom is not self.model.tens(z0, z1) or gamma0.cod is not self.model.d:
            raise ShapeError(f"period-2 seed counit has shape {gamma0}")
        self.cycle, self.z0, self.z1 = cycle, z0, z1
        self._gamma[0] = gamma0

    def _z_at(self, n):
        return self.z0 if n % 2 == 0 else self.z1

    def _gamma_at(self, n):
        if n > 0:
            prev = self.gamma(n - 1)
            return self.cycle.apply(self.z(n - 1), self.z(n), prev)
        nxt = self.gamma(n + 1)
        return self.cycle.unapply(self.z(n), self.z(n + 1), nxt)

    def describe(self):
        return f"period2({self.z0},{self.z1})"


class ShiftZString(ZString):
    """Index shift; +1 is the right dual of the string, -1 the left dual."""

    def __init__(self, inner, k):
        super().__init__(inner.model)
        self.inner, self.k = inner, k

    def _z_at(self, n):
        return self.inner.z(n + self.k)

    def _gamma_at(self, n):
        return self.inner.gamma(n + self.k)

    def _tau_at(self, n):
        return self.inner.tau(n + self.k)

    def describe(self):
        return f"shift({self.k:+d},{self.inner.describe()})"


class _BinaryZString(ZString):
    """The tensor or par of two strings: at even indices the operation and
    binder named in ``even`` on the components, at odd ones those named in
    ``odd`` on the swapped components."""

    def __init__(self, left, right):
        if left.model is not right.model:
            raise MorError(f"string {self.kind} across different models")
        super().__init__(left.model)
        self.left, self.right = left, right

    def _at(self, n):
        """The two names and the two strings that build index n."""
        if n % 2 == 0:
            return self.even, self.left, self.right
        return self.odd, self.right, self.left

    def _z_at(self, n):
        (op, _), a, b = self._at(n)
        return getattr(self.model, op)(a.z(n), b.z(n))

    def _gamma_at(self, n):
        (_, bind), a, b = self._at(n)
        return getattr(self.model, bind)(a.gamma(n), b.gamma(n))

    def describe(self):
        return f"{self.kind}({self.left.describe()},{self.right.describe()})"


class TensZString(_BinaryZString):
    kind, even, odd = "tens", ("tens", "rbind"), ("par", "lbind")


class ParZString(_BinaryZString):
    kind, even, odd = "par", ("par", "lbind"), ("tens", "rbind")


class UnitZString(ZString):
    """The tensor-unit string (alternating e, d) or the par-unit string
    (alternating d, e)."""

    def __init__(self, model, which):
        super().__init__(model)
        assert which in ("e", "d")
        self.which = which

    def _z_at(self, n):
        m = self.model
        even = self.which == "e"
        return (m.e if even else m.d) if n % 2 == 0 else (m.d if even else m.e)

    def _gamma_at(self, n):
        m = self.model
        if self.z(n) is m.e:
            return m.lunit_t(m.d)
        return m.runit_t(m.d)

    def _tau_at(self, n):
        m = self.model
        if self.z(n) is m.e:
            return m.invert(m.lunit_p(m.e))
        return m.invert(m.runit_p(m.e))

    def describe(self):
        return f"unit({self.which})"


def zangify(model, p):
    return CanonicalZString(model, p)


def project0(string):
    return string.z(0)


class ZMate:
    """A family of mates over two strings, generated from the component at
    index zero; even components point source-to-target, odd ones backwards."""

    def __init__(self, src, dst, base):
        if src.model is not dst.model:
            raise MorError("mate string across different models")
        if base.dom is not src.z(0) or base.cod is not dst.z(0):
            raise ShapeError(f"mate seed has shape {base}, expected "
                             f"{src.z(0)} -> {dst.z(0)}")
        self.model = src.model
        self.src, self.dst = src, dst
        self._m = {0: base}

    def m(self, n):
        return _outward(self._m, self._lift, n)

    def _lift(self, n):
        # the mate of the component next to n toward zero, along both
        # strings' adjunctions between k and k + 1; component k starts at a
        k = n - 1 if n > 0 else n
        a, b = (self.src, self.dst) if k % 2 == 0 else (self.dst, self.src)
        if n > 0:
            return self.model.mate_left(a.adjunction(k), b.adjunction(k), self.m(k))
        return self.model.mate_right(b.adjunction(k), a.adjunction(k), self.m(n + 1))

    def check_mateship(self, window):
        """The defining compatibility through the counits on every adjacent
        pair of the window."""
        m = self.model
        # even components point source-to-target, odd ones backwards
        ends = (self.dst, self.src)

        def body(n):
            near, far = ends[n % 2], ends[1 - n % 2]
            lhs = m.chain(m.tens_mor(self.m(n), m.identity(near.z(n + 1))),
                          near.gamma(n))
            rhs = m.chain(m.tens_mor(m.identity(far.z(n)), self.m(n + 1)),
                          far.gamma(n))
            return lhs != rhs and f"between {n} and {n + 1}"

        return scan("mateship", range(*window), body)


def zangify_mor(model, f):
    return ZMate(zangify(model, f.dom), zangify(model, f.cod), f)


# ------------------------------------------------------------- windowed checks

def check_triangles(string, window):
    """Both triangle identities for every adjacent pair in the window."""
    m = string.model

    def body(n):
        adj = string.adjunction(n)
        if m.curry_right(adj, adj.counit) != m.identity(adj.left):
            return f"{string.describe()} object side at {n}"
        if m.curry_left(adj, adj.counit) != m.identity(adj.right):
            return f"{string.describe()} dual side at {n}"

    return scan("string-triangles", range(*window), body)


def strings_equal_on(a, b, window):
    """Componentwise equality of objects and adjunction data."""
    lo, hi = window
    for n in range(lo, hi + 1):
        if a.z(n) is not b.z(n):
            return f"objects differ at {n}: {a.z(n)} vs {b.z(n)}"
    for n in range(lo, hi):
        if a.gamma(n) != b.gamma(n):
            return f"counits differ at {n}"
        if a.tau(n) != b.tau(n):
            return f"units differ at {n}"
    return None


def check_strict_negations(model, window, strings):
    """All de Morgan and cancellation comparisons between the given strings
    are literal componentwise identities on the window."""
    e_str, d_str = UnitZString(model, "e"), UnitZString(model, "d")

    def cases():
        for P in strings:
            for Q in strings:
                on = f" on ({P.describe()},{Q.describe()})"
                yield ("rdual-of-tens" + on, ShiftZString(TensZString(P, Q), 1),
                       ParZString(ShiftZString(Q, 1), ShiftZString(P, 1)))
                yield ("ldual-of-tens" + on, ShiftZString(TensZString(P, Q), -1),
                       ParZString(ShiftZString(Q, -1), ShiftZString(P, -1)))
                yield ("rduals-into-par" + on,
                       TensZString(ShiftZString(P, 1), ShiftZString(Q, 1)),
                       ShiftZString(ParZString(Q, P), 1))
                yield ("lduals-into-par" + on,
                       TensZString(ShiftZString(P, -1), ShiftZString(Q, -1)),
                       ShiftZString(ParZString(Q, P), -1))
            yield (f"cancel-right-left on {P.describe()}",
                   ShiftZString(ShiftZString(P, -1), 1), P)
            yield (f"cancel-left-right on {P.describe()}",
                   ShiftZString(ShiftZString(P, 1), -1), P)
        yield "rdual-of-par-unit", ShiftZString(d_str, -1), e_str
        yield "rdual-of-tens-unit", ShiftZString(e_str, 1), d_str
        yield "ldual-of-par-unit", ShiftZString(d_str, 1), e_str
        yield "ldual-of-tens-unit", ShiftZString(e_str, -1), d_str

    def body(case, lhs, rhs):
        bad = strings_equal_on(lhs, rhs, window)
        return bad and f"{case}: {bad}"

    return scan("strict-negations", cases(), body)


def check_equivalence(model, window, strings):
    """Component zero projects the canonical tower back to its base object,
    and every given string is isomorphic to the canonical tower on its
    component zero through an invertible mate family."""
    lo, hi = window

    def items():
        yield from ((p,) for p in model.probe_objects())
        for P in strings:
            mate = ZMate(P, zangify(model, P.z(0)), model.identity(P.z(0)))
            for n in range(lo, hi + 1):
                yield P, mate, n

    def body(P, mate=None, n=None):
        if mate is None:  # P is a probe object: its tower projects back to it
            return project0(zangify(model, P)) is not P and f"projection fails at {P}"
        if n == lo:
            res = mate.check_mateship(window)
            if not res.ok:
                return f"{P.describe()}: {res.witness}"
        try:
            model.invert(mate.m(n))
        except MorError:
            return f"{P.describe()}: component {n} not invertible"

    return scan("zang-equivalence", items(), body)


# ---------------------------------------------------------------- fang layer

class FangPreconditionError(Exception):
    """The supplied family is not a full cycle; names a failing axiom."""


def _require_cycle(cycle, profile):
    """Raises unless ``profile``, the axiom profile of ``cycle``, is a cycle."""
    if not profile.cycle:
        failing = [name for name in ("tbin", "pbin") if not profile.verdicts[name]]
        raise FangPreconditionError(
            f"{cycle.label} is not a cycle: fails {', '.join(failing)}")


def fang_membership(string, cycle, window):
    """Period-two object condition plus counit compatibility with ``cycle.apply``."""
    m = string.model
    lo, hi = window
    for n in range(lo, hi + 1):
        if string.z(n + 1) is not string.z(n - 1):
            return f"objects not period-two at {n}"
    for n in range(lo + 1, hi + 1):
        want = cycle.apply(string.z(n - 1), string.z(n), string.gamma(n - 1))
        if string.gamma(n) != want:
            return f"counit compatibility fails at {n}"
    return None


def fang_check(string, cycle, window, profile):
    """Membership of one string; the cycle, of axiom profile ``profile``,
    must be a full cycle."""
    _require_cycle(cycle, profile)
    return scan("fang-membership", [string], lambda s: fang_membership(s, cycle, window))


def fang_closure(P, Q, cycle, window, profile):
    """Tensor and par of members are members; as for ``fang_check``."""
    _require_cycle(cycle, profile)

    def body(name, s):
        bad = fang_membership(s, cycle, window)
        return bad and f"{name}: {bad}"

    return scan("fang-closure", [("tens", TensZString(P, Q)), ("par", ParZString(P, Q))], body)


def period2_from_cycle(p, cycle):
    """The canonical period-two string on (p, rdual p) seeded by the chosen
    counit; its higher counits come from the cycle."""
    return Period2ZString(cycle, p, cycle.model.rdual(p), cycle.model.dual_counit_r(p))


# ------------------------------------------------------------ extended cycle

def zangcycle_component(string, cycle, n):
    """Component of the extended cycle on a string: the shift comparison
    conjugated through the base cycle."""
    m = string.model
    into_rdual = m.lcurry(string.gamma(n))
    from_ldual = m.invert(m.rcurry(string.gamma(n - 1)))
    return m.chain(into_rdual, cycle.component(string.z(n)), from_ldual)


def check_zangcycle(cycle, window, strings, profile):
    """The extended cycle (a full cycle, of axiom profile ``profile``) is
    componentwise invertible on the given strings, restricts to the identity
    on compatible period-two strings, and satisfies the binary coherence
    conditions componentwise (the string-level de Morgan maps being
    identities)."""
    _require_cycle(cycle, profile)
    model = cycle.model
    lo, hi = window
    inner = range(lo + 1, hi)

    def invertible(P, n):
        try:
            model.invert(zangcycle_component(P, cycle, n))
        except MorError:
            return f"{P.describe()} at {n}"

    def binary(P, Q, PQ_t, PQ_p, n):
        lhs_t = zangcycle_component(PQ_t, cycle, n)
        lhs_p = zangcycle_component(PQ_p, cycle, n)
        cP = zangcycle_component(P, cycle, n)
        cQ = zangcycle_component(Q, cycle, n)
        if n % 2 == 0:
            rhs_t = model.par_mor(cQ, cP)
            rhs_p = model.tens_mor(cQ, cP)
        else:
            rhs_t = model.tens_mor(cP, cQ)
            rhs_p = model.par_mor(cP, cQ)
        if lhs_t != rhs_t:
            return f"tensor at {n} on ({P.describe()},{Q.describe()})"
        if lhs_p != rhs_p:
            return f"par at {n} on ({P.describe()},{Q.describe()})"

    def on_fang(p, member, n):
        if n == inner[0]:
            miss = fang_membership(member, cycle, (lo + 1, hi - 1))
            if miss:
                return f"period2({p}): {miss}"
        if zangcycle_component(member, cycle, n) != model.identity(member.z(n + 1)):
            return f"period2({p}) at {n}"

    pairs = ((P, Q, TensZString(P, Q), ParZString(P, Q)) for P in strings for Q in strings)
    members = ((p, period2_from_cycle(p, cycle)) for p in model.probe_objects()[:3])
    return [scan("zangcycle-invertible", product(strings, inner), invertible),
            scan("zangcycle-binary-coherence",
                 ((*pq, n) for pq in pairs for n in inner), binary),
            scan("zangcycle-identity-on-fang",
                 ((*pm, n) for pm in members for n in inner), on_fang)]
