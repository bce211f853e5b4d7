"""Interface contract for finite star-autonomous backends.

A backend is one interpretation of the seven object constructors and the
twelve structural maps.  It passes a table of its generators' values to
``StautModel.__init__`` and states the other six constructors in one hook,
``_object_value``, which maps a kind and the values of its children to a
value; the interner stores it on each handle once, as ``ref.value``.  The
values of x and y decide whether Hom(x, y) is empty.  Beside morphism
payloads and exact equality, one more hook, ``_structural_mor``, builds each
of the twelve structural maps from its name, dom and cod: the associators and
unitors of both monoidal structures, the two linear distributions, and the
unit/counit pairs of the chosen right and left duals.
The dom and cod of each are stated once, in ``STRUCTURE``.  Every cache keys
objects on their handles, which hash by identity, and the mates of an arrow
(its two curries and two duals) on its value (dom, cod, payload): each mate
is a function of that value, and ``Mor`` equality is exactly that value, so
two equal arrows share one mate.  Everything else --
currying, the binders ``lbind``/``rbind`` that pair two evaluations into one,
de Morgan and cancellation isomorphisms, duals of morphisms, naming -- is
derived here once, by the standard mate recipes, and shared by every backend.

The diagrams the checkers test are built from these pieces, not restated:
each triangle identity says that an ``Adjunction``'s counit curries to an
identity (``curry_right(adj, adj.counit)`` on ``adj.left``,
``curry_left(adj, adj.counit)`` on ``adj.right``), and each binary de Morgan
map is the curry of one binder of two counits.

Composites are written in diagrammatic order throughout: ``chain(f, g)``
applies ``f`` first.  Each composition is dom/cod-validated, so a wrongly
transcribed diagram fails at construction instead of producing garbage.
"""

from functools import wraps

from .objects import Interner, GEN, TENS, PAR, RDUAL, LDUAL, UNIT_T, UNIT_P, UniverseError
from .morphisms import MorError, CompositionError, ShapeError


# The twelve structural maps: each name gives the (dom, cod) of its
# component at the given objects, in the model m.
STRUCTURE = {
    "assoc_t": lambda m, p, q, r: (m.tens(m.tens(p, q), r), m.tens(p, m.tens(q, r))),
    "assoc_p": lambda m, p, q, r: (m.par(m.par(p, q), r), m.par(p, m.par(q, r))),
    "lunit_t": lambda m, p: (m.tens(m.e, p), p),
    "runit_t": lambda m, p: (m.tens(p, m.e), p),
    "lunit_p": lambda m, p: (m.par(m.d, p), p),
    "runit_p": lambda m, p: (m.par(p, m.d), p),
    "dist_l": lambda m, q, s, t: (m.tens(q, m.par(s, t)), m.par(m.tens(q, s), t)),
    "dist_r": lambda m, p, q, s: (m.tens(m.par(p, q), s), m.par(p, m.tens(q, s))),
    "dual_unit_r": lambda m, p: (m.e, m.par(m.rdual(p), p)),
    "dual_counit_r": lambda m, p: (m.tens(p, m.rdual(p)), m.d),
    "dual_unit_l": lambda m, p: (m.e, m.par(p, m.ldual(p))),
    "dual_counit_l": lambda m, p: (m.tens(m.ldual(p), p), m.d),
}

# The six of them that are isomorphisms: associators and unitors.
ISOMORPHISMS = ("assoc_t", "assoc_p", "lunit_t", "runit_t", "lunit_p", "runit_p")


def _by_value(build):
    """The method ``build(self, f)`` cached by ``_structural`` under its name
    and the value of ``f``; a raise stores nothing, so a failure recurs."""
    name = build.__name__

    @wraps(build)
    def mate(self, f):
        return self._structural((name, f.dom, f.cod, f.payload), build, self, f)
    return mate


class Adjunction:
    """A linear adjunction: unit e -> right|left, counit left (x) right -> d."""

    __slots__ = ("left", "right", "unit", "counit")

    def __init__(self, left, right, unit, counit):
        self.left, self.right, self.unit, self.counit = left, right, unit, counit


class StautModel:
    is_linear = False
    is_braided = False

    def __init__(self, generators, depth_limit):
        self._interner = Interner(depth_limit, dict(generators))
        self._generators = self._interner.generators
        self._objects = self._interner.table
        self._struct_cache = {}
        self.probes = []

    # ---------------------------------------------------------------- objects

    def gen(self, name):
        if name not in self._generators:
            raise UniverseError(f"unknown generator {name!r}; declared: {list(self._generators)}")
        return self._interner.intern(GEN, (name,), self._object_value)

    @property
    def e(self):
        return self._interner.intern(UNIT_T, (), self._object_value)

    @property
    def d(self):
        return self._interner.intern(UNIT_P, (), self._object_value)

    # tens and par, the most built kinds, look up an existing handle first
    def tens(self, a, b):
        return (self._objects.get((TENS, a, b))
                or self._interner.intern(TENS, (a, b), self._object_value))

    def par(self, a, b):
        return (self._objects.get((PAR, a, b))
                or self._interner.intern(PAR, (a, b), self._object_value))

    def rdual(self, a):
        return self._interner.intern(RDUAL, (a,), self._object_value)

    def ldual(self, a):
        return self._interner.intern(LDUAL, (a,), self._object_value)

    def value(self, ref):
        """The value of ``ref``; hot paths read ``ref.value`` directly."""
        return ref.value

    def has_arrow(self, value, y, build):
        """Whether Hom(x, y) has an arrow, for x of ``value`` made by ``build()``."""
        return self._structural(("has_arrow", value, y.value),
                                lambda: bool(self.hom_span(build(), y)))

    # ------------------------------------------------------- backend contract

    def _object_value(self, kind, *child_values):
        """The value of an object of ``kind``, any kind but GEN, from the
        values of its children: none for a unit, one for a dual, two for
        tensor and par."""
        raise NotImplementedError

    def mor(self, dom, cod, payload=None):
        raise NotImplementedError

    def identity(self, p):
        raise NotImplementedError

    def _compose_payload(self, f, g):
        raise NotImplementedError

    def tens_mor(self, f, g):
        raise NotImplementedError

    def par_mor(self, f, g):
        raise NotImplementedError

    def invert(self, f):
        raise NotImplementedError

    def hom_span(self, p, q):
        """Finite spanning set of Hom(p, q): the unique witness (thin) or a basis (linear)."""
        raise NotImplementedError

    def braid(self, p, q):
        raise MorError("model is not braided")

    # ------------------------------------------------------------ composition

    def compose(self, f, g):
        """Diagrammatic composite: f then g."""
        if f.cod is not g.dom:
            raise CompositionError(
                f"cannot compose {f.dom} -> {f.cod} with {g.dom} -> {g.cod}: "
                f"cod {f.cod} is not dom {g.dom}")
        return self._compose_payload(f, g)

    def chain(self, *mors):
        out = mors[0]
        for m in mors[1:]:
            out = self.compose(out, m)
        return out

    # ------------------------------------------------------ structural maps
    # Each of the twelve is built once per object tuple by the backend's
    # _structural_mor hook, with its dom and cod read from STRUCTURE, and
    # cached so repeated coherence checks stay cheap.

    def _structural(self, key, build, *args):
        """The arrow cached under ``key``, made by ``build(*args)`` on a miss."""
        hit = self._struct_cache.get(key)
        if hit is None:
            hit = self._struct_cache[key] = build(*args)
        return hit

    def _structure(self, kind, *objects):
        return self._structural((kind, *objects), self._build_structure, kind, objects)

    def _build_structure(self, kind, objects):
        dom, cod = STRUCTURE[kind](self, *objects)
        return self._structural_mor(kind, dom, cod, objects)

    def _structural_mor(self, kind, dom, cod, objects):
        """The structural map ``kind``, a name in STRUCTURE, at ``objects``:
        an arrow ``dom -> cod``."""
        raise NotImplementedError

    def assoc_t(self, p, q, r):
        return self._structure("assoc_t", p, q, r)

    def assoc_p(self, p, q, r):
        return self._structure("assoc_p", p, q, r)

    def lunit_t(self, p):
        return self._structure("lunit_t", p)

    def runit_t(self, p):
        return self._structure("runit_t", p)

    def lunit_p(self, p):
        return self._structure("lunit_p", p)

    def runit_p(self, p):
        return self._structure("runit_p", p)

    def dist_l(self, q, s, t):
        return self._structure("dist_l", q, s, t)

    def dist_r(self, p, q, s):
        return self._structure("dist_r", p, q, s)

    def dual_unit_r(self, p):
        return self._structure("dual_unit_r", p)

    def dual_counit_r(self, p):
        return self._structure("dual_counit_r", p)

    def dual_unit_l(self, p):
        return self._structure("dual_unit_l", p)

    def dual_counit_l(self, p):
        return self._structure("dual_counit_l", p)

    # ----------------------------------------------------- adjunction currying

    def rdual_adj(self, p):
        return Adjunction(p, self.rdual(p), self.dual_unit_r(p), self.dual_counit_r(p))

    def ldual_adj(self, p):
        return Adjunction(self.ldual(p), p, self.dual_unit_l(p), self.dual_counit_l(p))

    def _curry_head(self, side, unit, t):
        """The steps of a curry that do not depend on the curried arrow:
        t -> e (x) t -> (y par x) (x) t -> y par (x (x) t) for the unit
        e -> y par x on the left, mirrored on the right.  Both curries cache
        it under the unit's value, so equal units share it."""
        y, x = unit.cod.args
        if side == "left":
            return self.chain(self.invert(self.lunit_t(t)),
                              self.tens_mor(unit, self.identity(t)),
                              self.dist_r(y, x, t))
        return self.chain(self.invert(self.runit_t(t)),
                          self.tens_mor(self.identity(t), unit),
                          self.dist_l(t, y, x))

    def curry_left(self, adj, f):
        """f: left (x) t -> d   becomes   t -> right."""
        dom = f.dom
        if dom.kind != TENS or dom.args[0] is not adj.left or f.cod is not self.d:
            raise ShapeError(f"curry_left expects {adj.left} (x) t -> d, got {f}")
        t = dom.args[1]
        y = adj.right
        return self.chain(
            self._structural(("curry", "left", adj.unit, t), self._curry_head,
                             "left", adj.unit, t),
            self.par_mor(self.identity(y), f),
            self.runit_p(y))

    def uncurry_left(self, adj, g):
        """g: t -> right   becomes   left (x) t -> d."""
        if g.cod is not adj.right:
            raise ShapeError(f"uncurry_left expects t -> {adj.right}, got {g}")
        return self.chain(
            self.tens_mor(self.identity(adj.left), g),
            adj.counit)

    def curry_right(self, adj, f):
        """f: t (x) right -> d   becomes   t -> left."""
        dom = f.dom
        if dom.kind != TENS or dom.args[1] is not adj.right or f.cod is not self.d:
            raise ShapeError(f"curry_right expects t (x) {adj.right} -> d, got {f}")
        t = dom.args[0]
        x = adj.left
        return self.chain(
            self._structural(("curry", "right", adj.unit, t), self._curry_head,
                             "right", adj.unit, t),
            self.par_mor(f, self.identity(x)),
            self.lunit_p(x))

    def uncurry_right(self, adj, h):
        """h: t -> left   becomes   t (x) right -> d."""
        if h.cod is not adj.left:
            raise ShapeError(f"uncurry_right expects t -> {adj.left}, got {h}")
        return self.chain(
            self.tens_mor(h, self.identity(adj.right)),
            adj.counit)

    @_by_value
    def lcurry(self, f):
        """p (x) t -> d   becomes   t -> rdual(p); bijective, inverse lcurry_inv."""
        if f.dom.kind != TENS or f.cod is not self.d:
            raise ShapeError(f"lcurry expects p (x) t -> d, got {f}")
        return self.curry_left(self.rdual_adj(f.dom.args[0]), f)

    def lcurry_inv(self, g):
        if g.cod.kind != RDUAL:
            raise ShapeError(f"lcurry_inv expects t -> rdual(p), got {g}")
        return self.uncurry_left(self.rdual_adj(g.cod.args[0]), g)

    @_by_value
    def rcurry(self, f):
        """t (x) p -> d   becomes   t -> ldual(p); bijective, inverse rcurry_inv."""
        if f.dom.kind != TENS or f.cod is not self.d:
            raise ShapeError(f"rcurry expects t (x) p -> d, got {f}")
        return self.curry_right(self.ldual_adj(f.dom.args[1]), f)

    def rcurry_inv(self, h):
        if h.cod.kind != LDUAL:
            raise ShapeError(f"rcurry_inv expects t -> ldual(p), got {h}")
        return self.uncurry_right(self.ldual_adj(h.cod.args[0]), h)

    # ---------------------------------------------------------------- binders

    def lbind(self, omega, psi):
        """(p par q) (x) (s (x) t) -> d from omega: p (x) t -> d, psi: q (x) s -> d."""
        if omega.dom.kind != TENS or psi.dom.kind != TENS:
            raise ShapeError("lbind expects two arrows out of tensors")
        p, t = omega.dom.args
        q, s = psi.dom.args
        return self.chain(
            self.invert(self.assoc_t(self.par(p, q), s, t)),
            self.tens_mor(self.dist_r(p, q, s), self.identity(t)),
            self.tens_mor(self.par_mor(self.identity(p), psi), self.identity(t)),
            self.tens_mor(self.runit_p(p), self.identity(t)),
            omega)

    def rbind(self, omega, psi):
        """(p (x) q) (x) (s par t) -> d from omega: p (x) t -> d, psi: q (x) s -> d."""
        if omega.dom.kind != TENS or psi.dom.kind != TENS:
            raise ShapeError("rbind expects two arrows out of tensors")
        p, t = omega.dom.args
        q, s = psi.dom.args
        return self.chain(
            self.assoc_t(p, q, self.par(s, t)),
            self.tens_mor(self.identity(p), self.dist_l(q, s, t)),
            self.tens_mor(self.identity(p), self.par_mor(psi, self.identity(t))),
            self.tens_mor(self.identity(p), self.lunit_p(t)),
            omega)

    # ----------------------------------------------------- duals of morphisms

    @_by_value
    def rdual_mor(self, f):
        """f: p -> q   becomes   rdual(q) -> rdual(p)."""
        p, q = f.dom, f.cod
        ev = self.chain(self.tens_mor(f, self.identity(self.rdual(q))),
                        self.dual_counit_r(q))
        return self.curry_left(self.rdual_adj(p), ev)

    @_by_value
    def ldual_mor(self, f):
        """f: p -> q   becomes   ldual(q) -> ldual(p)."""
        p, q = f.dom, f.cod
        ev = self.chain(self.tens_mor(self.identity(self.ldual(q)), f),
                        self.dual_counit_l(q))
        return self.curry_right(self.ldual_adj(p), ev)

    # ------------------------------------------- de Morgan and cancellation

    def canon_r(self, p):
        """p -> rdual(ldual(p)), one of the two cancellation isomorphisms."""
        return self.lcurry(self.dual_counit_l(p))

    def canon_l(self, p):
        """p -> ldual(rdual(p)), the other cancellation isomorphism."""
        return self.rcurry(self.dual_counit_r(p))

    def demorgan(self, variant, p=None, q=None):
        """The canonical de Morgan isomorphism named by ``variant``.

        tens_r: rdual(p (x) q) -> rdual(q) par rdual(p)
        tens_l: ldual(p (x) q) -> ldual(q) par ldual(p)
        par_r:  rdual(p) (x) rdual(q) -> rdual(q par p)
        par_l:  ldual(p) (x) ldual(q) -> ldual(q par p)
        unit_er: e -> rdual(d)      unit_dr: rdual(e) -> d
        unit_el: e -> ldual(d)      unit_dl: ldual(e) -> d
        """
        return self._structural(("dm", variant, p, q), self._build_demorgan, variant, p, q)

    def _build_demorgan(self, variant, p, q):
        e, d = self.e, self.d
        if variant == "tens_r":
            ev = self.rbind(self.dual_counit_r(p), self.dual_counit_r(q))
            return self.invert(self.curry_left(self.rdual_adj(self.tens(p, q)), ev))
        if variant == "tens_l":
            ev = self.lbind(self.dual_counit_l(q), self.dual_counit_l(p))
            return self.invert(self.curry_right(self.ldual_adj(self.tens(p, q)), ev))
        if variant == "par_r":
            ev = self.lbind(self.dual_counit_r(q), self.dual_counit_r(p))
            return self.curry_left(self.rdual_adj(self.par(q, p)), ev)
        if variant == "par_l":
            ev = self.rbind(self.dual_counit_l(p), self.dual_counit_l(q))
            return self.curry_right(self.ldual_adj(self.par(q, p)), ev)
        if variant == "unit_er":
            return self.curry_left(self.rdual_adj(d), self.runit_t(d))
        if variant == "unit_dr":
            return self.invert(self.curry_left(self.rdual_adj(e), self.lunit_t(d)))
        if variant == "unit_el":
            return self.curry_right(self.ldual_adj(d), self.lunit_t(d))
        if variant == "unit_dl":
            return self.invert(self.curry_right(self.ldual_adj(e), self.runit_t(d)))
        raise ValueError(f"unknown de Morgan variant {variant!r}")

    # ----------------------------------------------------------------- naming

    def name_mor(self, f):
        """f: p -> q   becomes its global element e -> rdual(p) par q."""
        p = f.dom
        return self.chain(self.dual_unit_r(p),
                          self.par_mor(self.identity(self.rdual(p)), f))

    # ----------------------------------------------------------------- probes

    def probe_objects(self):
        return list(self.probes)

    def describe(self):
        """One-line descriptor used in reports."""
        return type(self).__name__
