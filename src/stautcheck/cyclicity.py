"""The axiom engine for cyclicity data.

A ``CycleData`` is a ``Family`` of isomorphisms rdual(p) -> ldual(p), and
a twist (``braided.Balance``) one of automorphisms p -> p: one memo, shape
check, invertibility scan and naturality scan serve both.  A ``BigCycle`` is
the equivalent family of hom-set bijections Hom(p (x) t, d) -> Hom(t (x) p, d);
``to_upper``/``to_lower`` convert between them and are exact mutual inverses.

Thirteen named coherence conditions are checked, five on the object level

    pnul  k  t0  tbin  pbin

and eight on the hom level

    blr0  kprime  e2  e2prime  m0  m2  m2prime  blr2

each declared once, as one row of the axiom table: how many probe objects it
ranges over, a function returning the two sides of its diagram, and, for a
hom-level condition, the objects x whose spanning sets of Hom(x, d) it ranges
over as well.  One loop in ``check_axiom`` serves every row; the same span
shapes drop vacuous tuples before drawing, and the rows that share arity,
dimension budget and span shape share one draw per model and seed.  Why a
spanning set of each hom suffices is stated at ``core.quantify.arrows``.  The
binders and de Morgan maps the diagrams use are the model's own
(``core.model``).
"""

from itertools import product

from .core.memo import LazyTable
from .core.morphisms import ShapeError
from .core.quantify import COVERAGE, arrows, draw, scan


class Family:
    """A candidate natural family: one morphism per object, built on first
    use from ``component_fn`` and memoized, as are its inverses.  A subclass
    states the ends of each component (``_ends``) and the two sides of the
    naturality square at an arrow f: a -> b (``_square``).  ``validate``
    checks invertibility on the probes and naturality on the hom spanning
    sets of every probe pair, in checks named after ``kind``."""

    kind = "family"

    def __init__(self, model, component_fn, label):
        self.model, self.label, self._fn = model, label, component_fn
        self._components = LazyTable(self._component_at)
        self._inverses = LazyTable(lambda p: model.invert(self.component(p)))

    def component(self, p):
        return self._components[p]

    def inverse_component(self, p):
        return self._inverses[p]

    def _component_at(self, p):
        hit = self._fn(p)
        dom, cod = self._ends(p)
        if hit.dom is not dom or hit.cod is not cod:
            raise ShapeError(f"{self.kind} component at {p} has shape {hit}")
        return hit

    def invertible(self):
        def not_invertible(p):
            self.inverse_component(p)   # raises MorError when there is no inverse

        return scan(f"{self.kind}-invertible", self.model.probe_objects(), not_invertible)

    def natural(self):
        def body(a, b, i, f):
            lhs, rhs = self._square(a, b, f)
            return lhs != rhs and f"naturality fails at {f}, arrow #{i}"

        probes = self.model.probe_objects()
        return scan(f"{self.kind}-natural", arrows(self.model, product(probes, repeat=2)), body)

    def validate(self):
        return [self.invertible(), self.natural()]


class CycleData(Family):
    """Candidate cyclicity family: one iso rdual(p) -> ldual(p) per object."""

    kind = "cycle"

    def _ends(self, p):
        return self.model.rdual(p), self.model.ldual(p)

    def _square(self, a, b, f):
        m = self.model
        return (m.compose(self.component(b), m.ldual_mor(f)),
                m.compose(m.rdual_mor(f), self.component(a)))


class BigCycle:
    """Hom-level form: a natural bijection Hom(p (x) t, d) -> Hom(t (x) p, d)."""

    def __init__(self, model, apply_fn, unapply_fn, label="Cycle"):
        self.model, self.label, self._apply, self._unapply = model, label, apply_fn, unapply_fn

    def apply(self, p, t, omega):
        if omega.dom is not self.model.tens(p, t) or omega.cod is not self.model.d:
            raise ShapeError(f"expected {p} (x) {t} -> d, got {omega}")
        return self._apply(p, t, omega)

    def unapply(self, p, t, psi):
        if psi.dom is not self.model.tens(t, p) or psi.cod is not self.model.d:
            raise ShapeError(f"expected {t} (x) {p} -> d, got {psi}")
        return self._unapply(p, t, psi)


def to_upper(cycle):
    """Lower-to-upper direction of the case-change correspondence."""
    m = cycle.model

    def ap(p, t, omega):
        return m.rcurry_inv(m.compose(m.lcurry(omega), cycle.component(p)))

    def unap(p, t, psi):
        return m.lcurry_inv(m.compose(m.rcurry(psi), cycle.inverse_component(p)))

    return BigCycle(m, ap, unap, f"upper({cycle.label})")


def to_lower(big):
    """Upper-to-lower direction; exact inverse of ``to_upper``."""
    m = big.model

    def comp(p):
        gamma = m.dual_counit_r(p)
        return m.rcurry(big.apply(p, m.rdual(p), gamma))

    return CycleData(m, comp, f"lower({big.label})")


# ------------------------------------------------------------ probe drawing

# The benchmark's tracer (perfbench/tracer.py) times tuple drawing under this
# name; it is ``draw`` itself.
draw_tuples = draw


def _hom_to_d(model, x):
    return model.hom_span(x, model.d)


def _span_object(m, shape, t):
    """The object a span shape names over the objects ``t``: ``t[i]`` for a
    position i, the unit for ``"e"``, the tensor for a pair of shapes."""
    if isinstance(shape, tuple):
        return m.tens(_span_object(m, shape[0], t), _span_object(m, shape[1], t))
    return m.e if shape == "e" else t[shape]


def _positions(shape):
    if isinstance(shape, tuple):
        return _positions(shape[0]) | _positions(shape[1])
    return set() if shape == "e" else {shape}


def _live(m, shapes):
    """The vacuity filter of ``draw`` for span shapes: a tuple is live when
    the object of each shape has an arrow into d.  Each shape tests only
    the positions it names, in ascending order."""
    def test(shape):
        pos = tuple(sorted(_positions(shape)))
        return pos, lambda *xs: bool(_hom_to_d(m, _span_object(m, shape, dict(zip(pos, xs)))))

    return [test(shape) for shape in shapes]


# ------------------------------------------------------------ axiom table

class Axiom:
    """One coherence condition.  It ranges over ``arity`` probe objects and,
    when ``spans`` is given, over one arrow x -> d from the spanning set of
    each x that a shape in ``spans`` names over the objects: a position,
    ``"e"``, or a pair of shapes read as their tensor, so ``((0, 3), (1, 2))``
    names p (x) t and q (x) s over (p, q, s, t).  ``sides`` returns the diagram's
    two sides, which must be equal: ``sides(model, cycle, *objects)`` on the
    object level, ``sides(model, big, *objects, *arrows)`` on the hom level.
    ``dim_cap`` is the drawing budget of its tuples' dimensions when it
    tightens the coverage table's "axiom-dims"."""

    __slots__ = ("arity", "sides", "spans", "dim_cap")

    def __init__(self, arity, sides, spans=(), dim_cap=None):
        self.arity, self.sides, self.spans, self.dim_cap = arity, sides, spans, dim_cap


def _pnul(m, c):
    return (m.compose(c.component(m.d), m.invert(m.demorgan("unit_el"))),
            m.invert(m.demorgan("unit_er")))


def _k(m, c, r):
    return (m.chain(m.canon_r(r), m.rdual_mor(c.component(r)), c.component(m.rdual(r))),
            m.canon_l(r))


def _t0(m, c):
    return m.compose(c.component(m.e), m.demorgan("unit_dl")), m.demorgan("unit_dr")


def _tbin(m, c, p, q):
    return (m.compose(c.component(m.tens(p, q)), m.demorgan("tens_l", p, q)),
            m.compose(m.demorgan("tens_r", p, q), m.par_mor(c.component(q), c.component(p))))


def _pbin(m, c, p, q):
    return (m.compose(c.component(m.par(p, q)), m.invert(m.demorgan("par_l", q, p))),
            m.compose(m.invert(m.demorgan("par_r", q, p)),
                      m.tens_mor(c.component(q), c.component(p))))


def _blr0(m, big, t, om):
    return big.apply(m.e, t, om), m.chain(m.runit_t(t), m.invert(m.lunit_t(t)), om)


def _kprime(m, big, p, q, om):
    return big.apply(q, p, big.apply(p, q, om)), om


def _e2(m, big, p, q, t, om):
    lhs = big.apply(m.tens(p, q), t, om)
    step = big.apply(p, m.tens(q, t), m.compose(m.invert(m.assoc_t(p, q, t)), om))
    step = big.apply(q, m.tens(t, p), m.compose(m.invert(m.assoc_t(q, t, p)), step))
    return lhs, m.compose(m.invert(m.assoc_t(t, p, q)), step)


def _e2prime(m, big, p, s, t, om):
    lhs = big.apply(p, m.tens(s, t), om)
    step = big.apply(m.tens(p, s), t, m.compose(m.assoc_t(p, s, t), om))
    step = big.apply(m.tens(t, p), s, m.compose(m.assoc_t(t, p, s), step))
    return lhs, m.compose(m.assoc_t(s, t, p), step)


def _m0(m, big, t, om):
    return big.apply(t, m.e, om), m.chain(m.lunit_t(t), m.invert(m.runit_t(t)), om)


def _m2(m, big, p, q, s, t, om, ps):
    n_om, n_ps = big.apply(p, t, om), big.apply(q, s, ps)
    return big.apply(m.par(p, q), m.tens(s, t), m.lbind(om, ps)), m.rbind(n_ps, n_om)


def _m2prime(m, big, p, q, s, t, om, ps):
    n_om, n_ps = big.apply(p, t, om), big.apply(q, s, ps)
    return big.apply(m.tens(p, q), m.par(s, t), m.rbind(om, ps)), m.lbind(n_ps, n_om)


def _blr2(m, big, p, q, t, om):
    right = big.apply(m.tens(t, p), q,
                      m.compose(m.assoc_t(t, p, q), big.apply(m.tens(p, q), t, om)))
    left = m.compose(m.invert(m.assoc_t(q, t, p)),
                     big.apply(p, m.tens(q, t), m.compose(m.invert(m.assoc_t(p, q, t)), om)))
    return left, right


# Currying over a tensor object cubes its dimension in the intermediate
# stages, so the pair-level diagrams that build de Morgan maps on the tensor
# of the two quantified objects get a tighter dimension budget.
_AXIOMS = {
    "pnul": Axiom(0, _pnul),
    "k": Axiom(1, _k, dim_cap=4),
    "t0": Axiom(0, _t0),
    "tbin": Axiom(2, _tbin, dim_cap=8),
    "pbin": Axiom(2, _pbin, dim_cap=8),
    "blr0": Axiom(1, _blr0, (("e", 0),)),
    "kprime": Axiom(2, _kprime, ((0, 1),)),
    "e2": Axiom(3, _e2, (((0, 1), 2),)),
    "e2prime": Axiom(3, _e2prime, ((0, (1, 2)),)),
    "m0": Axiom(1, _m0, ((0, "e"),)),
    "m2": Axiom(4, _m2, ((0, 3), (1, 2))),
    "m2prime": Axiom(4, _m2prime, ((0, 3), (1, 2))),
    "blr2": Axiom(3, _blr2, (((0, 1), 2),)),
}
AXIOMS = tuple(_AXIOMS)


def _draws(m, seed):
    """The tuples of each row shape (arity, dim_cap, spans), drawn from
    ``seed`` on first use and kept by the model, so that every row and every
    cycle checked on it with that seed share them."""
    return m._structural(("draws", seed), LazyTable, lambda key: draw(
        m, m.probe_objects(), key[0], COVERAGE["tuples"], key[1] or COVERAGE["axiom-dims"],
        seed * 1000003 + key[0], _live(m, key[2])))


def check_axiom(cycle, which, seed=0, big=None):
    """Exact check of one named coherence condition; returns verdict plus a
    counterexample locator on failure, replayable from ``seed``.  Rows with
    the same arity, dimension budget and span shapes draw the same tuples
    from the same seed, once per model (``_draws``)."""
    if which not in _AXIOMS:
        raise ValueError(f"unknown axiom {which!r}; known: {AXIOMS}")
    ax = _AXIOMS[which]
    m = cycle.model
    tuples, exhaustive = _draws(m, seed)[ax.arity, ax.dim_cap, ax.spans]
    if not ax.spans:
        def body(*t):
            lhs, rhs = ax.sides(m, cycle, *t)
            if lhs != rhs:
                return True if t else "at the unit diagram"
    else:
        big = big or to_upper(cycle)

        def body(*t):
            spans = [list(enumerate(_hom_to_d(m, _span_object(m, s, t)))) for s in ax.spans]
            for picks in product(*spans):
                index, mors = zip(*picks)
                lhs, rhs = ax.sides(m, big, *t, *mors)
                if lhs != rhs:
                    arrow = index[0] if len(index) == 1 else index
                    return f"at {tuple(map(str, t))}, arrow #{arrow}"
    return scan(which, tuples, body, exhaustive)


class AxiomProfile:
    """Verdict per axiom, with counterexample locators for the failures."""

    __slots__ = ("verdicts", "witnesses", "label")

    def __init__(self, verdicts, witnesses=None, label=""):
        self.verdicts, self.label = verdicts, label
        self.witnesses = {} if witnesses is None else witnesses

    @property
    def quasicycle(self):
        return all(self.verdicts[a] for a in QUASICYCLE)

    @property
    def cycle(self):
        return all(self.verdicts[a] for a in CYCLE)

    def check(self, name, axioms):
        """The check that each of ``axioms`` holds, read from the profile;
        the witness is the first failing axiom's."""
        return scan(name, axioms,
                    lambda a: not self.verdicts[a] and f"{a} {self.witnesses.get(a, '')}")


# the axioms whose conjunction makes a quasicycle and a cycle
QUASICYCLE = ("k",)
CYCLE = ("tbin", "pbin")


def classify(cycle, seed=0, big=None):
    """Full thirteen-axiom profile plus the derived classification flags.

    Pass ``big`` when the cycle came from a hom-level family: the two forms
    correspond exactly, and evaluating the hom-level conditions on the
    original family avoids re-deriving it through the duals.
    """
    big = big or to_upper(cycle)
    verdicts, witnesses = {}, {}
    for name in AXIOMS:
        res = check_axiom(cycle, name, seed, big)
        verdicts[name] = res.ok
        if not res.ok:
            witnesses[name] = res.witness
    return AxiomProfile(verdicts, witnesses, cycle.label)


# ------------------------------------------------- inter-axiom consistency

def _implies(a, b):
    return (not a) or b


def dependency_violations(profile):
    """Violations of the object-level dependency table and the four pairings
    that are each equivalent to full cyclicity."""
    v = profile.verdicts
    rows = [
        ("tbin=>t0", _implies(v["tbin"], v["t0"])),
        ("pbin=>pnul", _implies(v["pbin"], v["pnul"])),
        ("k=>(t0<=>pnul)", _implies(v["k"], v["t0"] == v["pnul"])),
        ("tbin=>(pnul<=>k)", _implies(v["tbin"], v["pnul"] == v["k"])),
        ("pbin=>(t0<=>k)", _implies(v["pbin"], v["t0"] == v["k"])),
        ("k=>(tbin<=>pbin)", _implies(v["k"], v["tbin"] == v["pbin"])),
        ("pair(pnul,tbin)", (v["pnul"] and v["tbin"]) == profile.cycle),
        ("pair(k,tbin)", (v["k"] and v["tbin"]) == profile.cycle),
        ("pair(pbin,k)", (v["pbin"] and v["k"]) == profile.cycle),
        ("pair(pbin,t0)", (v["pbin"] and v["t0"]) == profile.cycle),
    ]
    return [name for name, ok in rows if not ok]


def check_dependency_table(profiles):
    """Assert the dependency rows on every given profile; a violation is a
    library bug, not a property of the model."""
    def body(prof):
        bad = dependency_violations(prof)
        return bad and f"{prof.label}: {'; '.join(bad)}"

    return scan("dependency-table", profiles, body)


def check_upper_lower_equivalences(profiles):
    """tbin <=> e2 <=> m2prime, and blr2 <=> (kprime and e2), on each profile."""
    def rows(v):
        return [
            ("tbin<=>e2<=>m2prime", v["tbin"] == v["e2"] == v["m2prime"]),
            ("blr2<=>(kprime&e2)", v["blr2"] == (v["kprime"] and v["e2"])),
            ("pbin<=>m2<=>e2prime", v["pbin"] == v["m2"] == v["e2prime"]),
            ("unit-level case-change pairs",
             v["pnul"] == v["m0"] and v["t0"] == v["blr0"] and v["k"] == v["kprime"]),
        ]

    return scan("case-change-equivalences",
                ((prof, row) for prof in profiles for row in rows(prof.verdicts)),
                lambda prof, row: not row[1] and f"{prof.label}: {row[0]}")


# --------------------------------------------------------- base identity

def check_base_identity(model, seed=0):
    """The two mixed-distribution composites that agree in every linearly
    distributive category, over the object quadruples (q, s, t, p) of the
    axiom draw with arrows q*s -> d and t*p -> d (``_draws``) and every
    pair (psi, omega) of spanning arrows of Hom(q*s, d) x Hom(t*p, d)."""
    m = model
    tuples, exhaustive = _draws(m, seed)[4, None, ((0, 1), (2, 3))]
    items = ((q, s, t, p, psi, om) for q, s, t, p in tuples
             for psi, om in product(_hom_to_d(m, m.tens(q, s)), _hom_to_d(m, m.tens(t, p))))

    def body(q, s, t, p, psi, om):
        x = m.chain(m.dist_l(q, s, t),
                    m.par_mor(psi, m.identity(t)),
                    m.lunit_p(t))
        lhs = m.chain(m.invert(m.assoc_t(q, m.par(s, t), p)),
                      m.tens_mor(x, m.identity(p)),
                      om)
        y = m.chain(m.dist_r(s, t, p),
                    m.par_mor(m.identity(s), om),
                    m.runit_p(s))
        rhs = m.chain(m.tens_mor(m.identity(q), y), psi)
        return lhs != rhs and f"at ({q},{s},{t},{p})"

    return scan("base-identity", items, body, exhaustive)
