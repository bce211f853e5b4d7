"""The axiom engine for cyclicity data.

A ``CycleData`` is a family of isomorphisms rdual(p) -> ldual(p); a
``BigCycle`` is the equivalent family of hom-set bijections
Hom(p (x) t, d) -> Hom(t (x) p, d).  ``to_upper``/``to_lower`` convert between
them and are exact mutual inverses.

Thirteen named coherence conditions are checked, five on the object level

    pnul  k  t0  tbin  pbin

and eight on the hom level

    blr0  kprime  e2  e2prime  m0  m2  m2prime  blr2

each transcribed once into a composite builder.  Object-level conditions are
quantified over probe objects; hom-level ones additionally over a spanning
set of the relevant hom space, which suffices because every hom-level
condition is linear in the quantified arrow on linear backends and trivial on
thin ones.
"""

from dataclasses import dataclass, field
import random

from .core.morphisms import ShapeError
from .core.objects import TENS
from .core.quantify import arrows, draw, scan
from .report import CheckResult

LOWER_AXIOMS = ("pnul", "k", "t0", "tbin", "pbin")
UPPER_AXIOMS = ("blr0", "kprime", "e2", "e2prime", "m0", "m2", "m2prime", "blr2")
AXIOMS = LOWER_AXIOMS + UPPER_AXIOMS


class CycleData:
    """Candidate cyclicity family on a model: one iso rdual(p) -> ldual(p)
    per object, produced on demand and memoized."""

    def __init__(self, model, component_fn, label="cycle"):
        self.model = model
        self.label = label
        self._fn = component_fn
        self._memo = {}
        self._inv = {}

    def component(self, p):
        hit = self._memo.get(id(p))
        if hit is None:
            hit = self._fn(p)
            m = self.model
            if hit.dom is not m.rdual(p) or hit.cod is not m.ldual(p):
                raise ShapeError(f"cycle component at {p} has shape {hit}")
            self._memo[id(p)] = hit
        return hit

    def inverse_component(self, p):
        hit = self._inv.get(id(p))
        if hit is None:
            hit = self.model.invert(self.component(p))
            self._inv[id(p)] = hit
        return hit

    def validate(self, probes=None, mor_pairs=None):
        """Invertibility on probes and naturality on morphism spanning sets."""
        m = self.model
        probes = probes if probes is not None else m.probe_objects()
        pairs = mor_pairs if mor_pairs is not None else [
            (a, b) for a in probes for b in probes]

        def natural(a, b, i, f):
            lhs = m.compose(self.component(b), m.ldual_mor(f))
            rhs = m.compose(m.rdual_mor(f), self.component(a))
            return lhs != rhs and f"naturality fails at {f}, arrow #{i}"

        def not_invertible(p):
            self.inverse_component(p)   # raises MorError when there is no inverse

        return [scan("cycle-invertible", probes, not_invertible),
                scan("cycle-natural", arrows(m, pairs), natural)]


class BigCycle:
    """Hom-level form: a natural bijection Hom(p (x) t, d) -> Hom(t (x) p, d)."""

    def __init__(self, model, apply_fn, unapply_fn, label="Cycle"):
        self.model = model
        self.label = label
        self._apply = apply_fn
        self._unapply = unapply_fn

    def apply(self, p, t, omega):
        if omega.dom is not self.model.tens(p, t) or omega.cod is not self.model.d:
            raise ShapeError(f"expected {p} (x) {t} -> d, got {omega}")
        return self._apply(p, t, omega)

    def unapply(self, p, t, psi):
        if psi.dom is not self.model.tens(t, p) or psi.cod is not self.model.d:
            raise ShapeError(f"expected {t} (x) {p} -> d, got {psi}")
        return self._unapply(p, t, psi)

    def to_lower(self, label=None):
        return to_lower(self, label=label)


def to_upper(cycle, label=None):
    """Lower-to-upper direction of the case-change correspondence."""
    m = cycle.model

    def ap(p, t, omega):
        return m.rcurry_inv(m.compose(m.lcurry(omega), cycle.component(p)))

    def unap(p, t, psi):
        return m.lcurry_inv(m.compose(m.rcurry(psi), cycle.inverse_component(p)))

    return BigCycle(m, ap, unap, label or f"upper({cycle.label})")


def to_lower(big, label=None):
    """Upper-to-lower direction; exact inverse of ``to_upper``."""
    m = big.model

    def comp(p):
        gamma = m.dual_counit_r(p)
        return m.rcurry(big.apply(p, m.rdual(p), gamma))

    return CycleData(m, comp, label or f"lower({big.label})")


# ------------------------------------------------------------------ binders

def lbind(model, omega, psi):
    """(p par q) (x) (s (x) t) -> d from omega: p (x) t -> d, psi: q (x) s -> d."""
    m = model
    if omega.dom.kind != TENS or psi.dom.kind != TENS:
        raise ShapeError("lbind expects two arrows out of tensors")
    p, t = omega.dom.args
    q, s = psi.dom.args
    return m.chain(
        m.invert(m.assoc_t(m.par(p, q), s, t)),
        m.tens_mor(m.dist_r(p, q, s), m.identity(t)),
        m.tens_mor(m.par_mor(m.identity(p), psi), m.identity(t)),
        m.tens_mor(m.runit_p(p), m.identity(t)),
        omega)


def rbind(model, omega, psi):
    """(p (x) q) (x) (s par t) -> d from omega: p (x) t -> d, psi: q (x) s -> d."""
    m = model
    if omega.dom.kind != TENS or psi.dom.kind != TENS:
        raise ShapeError("rbind expects two arrows out of tensors")
    p, t = omega.dom.args
    q, s = psi.dom.args
    return m.chain(
        m.assoc_t(p, q, m.par(s, t)),
        m.tens_mor(m.identity(p), m.dist_l(q, s, t)),
        m.tens_mor(m.identity(p), m.par_mor(psi, m.identity(t))),
        m.tens_mor(m.identity(p), m.lunit_p(t)),
        omega)


# ------------------------------------------------------------ probe drawing

@dataclass
class CheckConfig:
    """Quantifier budget for axiom checks; every sampled draw is seeded and
    the report records whether quantification was exhaustive."""

    probes: list = None
    seed: int = 0
    tuple_cap: int = 24
    dim_cap: int = 16

    def for_model(self, model):
        cfg = CheckConfig(list(self.probes) if self.probes is not None
                          else model.probe_objects(),
                          self.seed, self.tuple_cap, self.dim_cap)
        return cfg


# The benchmark's tracer (perfbench/tracer.py) times tuple drawing under this
# name; it is ``draw`` itself.
draw_tuples = draw


def _hom_to_d(model, x):
    return model.hom_span(x, model.d)


# ------------------------------------------------------------ axiom checks

def _lower_sides(m, cycle, which, t):
    """The two sides of object-level axiom ``which`` at the tuple ``t``."""
    comp = cycle.component
    if which == "pnul":
        return (m.compose(comp(m.d), m.invert(m.demorgan("unit_el"))),
                m.invert(m.demorgan("unit_er")))
    if which == "t0":
        return m.compose(comp(m.e), m.demorgan("unit_dl")), m.demorgan("unit_dr")
    if which == "k":
        (r,) = t
        return (m.chain(m.canon_r(r), m.rdual_mor(comp(r)), comp(m.rdual(r))),
                m.canon_l(r))
    if which == "tbin":
        p, q = t
        return (m.compose(comp(m.tens(p, q)), m.demorgan("tens_l", p, q)),
                m.compose(m.demorgan("tens_r", p, q), m.par_mor(comp(q), comp(p))))
    if which == "pbin":
        p, q = t
        return (m.compose(comp(m.par(p, q)), m.invert(m.demorgan("par_l", q, p))),
                m.compose(m.invert(m.demorgan("par_r", q, p)),
                          m.tens_mor(comp(q), comp(p))))
    raise ValueError(which)


def _check_upper_tuple(m, big, which, t):
    pre = m.compose
    if which == "kprime":
        p, q = t
        for i, om in enumerate(_hom_to_d(m, m.tens(p, q))):
            if big.apply(q, p, big.apply(p, q, om)) != om:
                return i
    elif which == "blr0":
        (t0,) = t
        for i, om in enumerate(_hom_to_d(m, m.tens(m.e, t0))):
            lhs = big.apply(m.e, t0, om)
            rhs = m.chain(m.runit_t(t0), m.invert(m.lunit_t(t0)), om)
            if lhs != rhs:
                return i
    elif which == "m0":
        (t0,) = t
        for i, om in enumerate(_hom_to_d(m, m.tens(t0, m.e))):
            lhs = big.apply(t0, m.e, om)
            rhs = m.chain(m.lunit_t(t0), m.invert(m.runit_t(t0)), om)
            if lhs != rhs:
                return i
    elif which == "blr2":
        p, q, tt = t
        for i, om in enumerate(_hom_to_d(m, m.tens(m.tens(p, q), tt))):
            right = big.apply(m.tens(tt, p), q,
                              pre(m.assoc_t(tt, p, q), big.apply(m.tens(p, q), tt, om)))
            left = pre(m.invert(m.assoc_t(q, tt, p)),
                       big.apply(p, m.tens(q, tt),
                                 pre(m.invert(m.assoc_t(p, q, tt)), om)))
            if left != right:
                return i
    elif which == "e2":
        p, q, tt = t
        for i, om in enumerate(_hom_to_d(m, m.tens(m.tens(p, q), tt))):
            lhs = big.apply(m.tens(p, q), tt, om)
            step = pre(m.invert(m.assoc_t(p, q, tt)), om)
            step = big.apply(p, m.tens(q, tt), step)
            step = pre(m.invert(m.assoc_t(q, tt, p)), step)
            step = big.apply(q, m.tens(tt, p), step)
            step = pre(m.invert(m.assoc_t(tt, p, q)), step)
            if lhs != step:
                return i
    elif which == "e2prime":
        p, s, tt = t
        for i, om in enumerate(_hom_to_d(m, m.tens(p, m.tens(s, tt)))):
            lhs = big.apply(p, m.tens(s, tt), om)
            step = pre(m.assoc_t(p, s, tt), om)
            step = big.apply(m.tens(p, s), tt, step)
            step = pre(m.assoc_t(tt, p, s), step)
            step = big.apply(m.tens(tt, p), s, step)
            step = pre(m.assoc_t(s, tt, p), step)
            if lhs != step:
                return i
    elif which in ("m2", "m2prime"):
        p, q, s, tt = t
        span_om = _hom_to_d(m, m.tens(p, tt))
        span_ps = _hom_to_d(m, m.tens(q, s))
        for i, om in enumerate(span_om):
            for j, ps in enumerate(span_ps):
                n_om = big.apply(p, tt, om)
                n_ps = big.apply(q, s, ps)
                if which == "m2":
                    lhs = big.apply(m.par(p, q), m.tens(s, tt), lbind(m, om, ps))
                    rhs = rbind(m, n_ps, n_om)
                else:
                    lhs = big.apply(m.tens(p, q), m.par(s, tt), rbind(m, om, ps))
                    rhs = lbind(m, n_ps, n_om)
                if lhs != rhs:
                    return (i, j)
    else:
        raise ValueError(which)
    return None


_ARITY = {"pnul": 0, "t0": 0, "k": 1, "tbin": 2, "pbin": 2,
          "kprime": 2, "blr0": 1, "m0": 1, "blr2": 3, "e2": 3,
          "e2prime": 3, "m2": 4, "m2prime": 4}

# Currying over a tensor object cubes its dimension in the intermediate
# stages, so the pair-level diagrams that build de Morgan maps on the tensor
# of the two quantified objects get a tighter dimension budget.
_DIM_CAPS = {"tbin": 8, "pbin": 2 * 4, "k": 4}

# Objects whose hom spans into the dualizer each hom-level axiom quantifies
# over, used to drop vacuous tuples during drawing.
_SPAN_SHAPES = {
    "kprime": lambda m, t: [m.tens(t[0], t[1])],
    "blr0": lambda m, t: [m.tens(m.e, t[0])],
    "m0": lambda m, t: [m.tens(t[0], m.e)],
    "blr2": lambda m, t: [m.tens(m.tens(t[0], t[1]), t[2])],
    "e2": lambda m, t: [m.tens(m.tens(t[0], t[1]), t[2])],
    "e2prime": lambda m, t: [m.tens(t[0], m.tens(t[1], t[2]))],
    "m2": lambda m, t: [m.tens(t[0], t[3]), m.tens(t[1], t[2])],
    "m2prime": lambda m, t: [m.tens(t[0], t[3]), m.tens(t[1], t[2])],
}


def check_axiom(cycle, which, config=None, big=None):
    """Exact check of one named coherence condition; returns verdict plus a
    replayable counterexample locator on failure."""
    if which not in AXIOMS:
        raise ValueError(f"unknown axiom {which!r}; known: {AXIOMS}")
    m = cycle.model
    cfg = (config or CheckConfig()).for_model(m)
    k, shapes = _ARITY[which], _SPAN_SHAPES.get(which)
    live = shapes and (lambda t: all(_hom_to_d(m, x) for x in shapes(m, t)))
    tuples, exhaustive = draw(m, cfg.probes, k, cfg.tuple_cap,
                              min(cfg.dim_cap, _DIM_CAPS.get(which, cfg.dim_cap)),
                              cfg.seed * 1000003 + k, live)
    if which in LOWER_AXIOMS:
        def body(*t):
            lhs, rhs = _lower_sides(m, cycle, which, t)
            if lhs != rhs:
                return True if t else "at the unit diagram"
    else:
        big = big or to_upper(cycle)

        def body(*t):
            arrow = _check_upper_tuple(m, big, which, t)
            return arrow is not None and f"at {tuple(map(str, t))}, arrow #{arrow}"
    return scan(which, tuples, body, exhaustive)


@dataclass
class AxiomProfile:
    """Verdict per axiom, with counterexample locators for the failures."""

    verdicts: dict
    witnesses: dict = field(default_factory=dict)
    label: str = ""

    def __getitem__(self, name):
        return self.verdicts[name]

    @property
    def tens_semicycle(self):
        return self.verdicts["tbin"]

    @property
    def par_semicycle(self):
        return self.verdicts["pbin"]

    @property
    def quasicycle(self):
        return self.verdicts["k"]

    @property
    def cycle(self):
        return self.verdicts["tbin"] and self.verdicts["pbin"]

    def classification(self):
        return {"tens_semicycle": self.tens_semicycle,
                "par_semicycle": self.par_semicycle,
                "quasicycle": self.quasicycle,
                "cycle": self.cycle}

    def row(self):
        return {name: self.verdicts[name] for name in AXIOMS}


def classify(cycle, config=None, big=None):
    """Full thirteen-axiom profile plus the derived classification flags.

    Pass ``big`` when the cycle came from a hom-level family: the two forms
    correspond exactly, and evaluating the hom-level conditions on the
    original family avoids re-deriving it through the duals.
    """
    big = big or to_upper(cycle)
    verdicts, witnesses = {}, {}
    cfg = config or CheckConfig()
    for name in AXIOMS:
        res = check_axiom(cycle, name, cfg, big)
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
    bad = []
    for prof in profiles:
        for name in dependency_violations(prof):
            bad.append(f"{prof.label}: {name}")
    return CheckResult("dependency-table", not bad, "; ".join(bad), len(profiles))


def check_upper_lower_equivalences(profile):
    """tbin <=> e2 <=> m2prime, and blr2 <=> (kprime and e2)."""
    v = profile.verdicts
    bad = []
    if not (v["tbin"] == v["e2"] == v["m2prime"]):
        bad.append("tbin<=>e2<=>m2prime")
    if v["blr2"] != (v["kprime"] and v["e2"]):
        bad.append("blr2<=>(kprime&e2)")
    if v["pbin"] != v["m2"] or v["pbin"] != v["e2prime"]:
        bad.append("pbin<=>m2<=>e2prime")
    if v["pnul"] != v["m0"] or v["t0"] != v["blr0"] or v["k"] != v["kprime"]:
        bad.append("unit-level case-change pairs")
    return CheckResult("case-change-equivalences", not bad,
                       f"{profile.label}: " + "; ".join(bad) if bad else "", 1)


# --------------------------------------------------------- base identity

def check_base_identity(model, samples=100, seed=0, config=None):
    """The two mixed-distribution composites that agree in every linearly
    distributive category, sampled over arrow pairs (psi, omega)."""
    m = model
    cfg = (config or CheckConfig()).for_model(m)
    tuples, _ = draw(m, cfg.probes, 4, cfg.tuple_cap, cfg.dim_cap, cfg.seed * 1000003 + 4)
    rng = random.Random(seed)

    def arrow_items():
        for (q, s, t, p) in tuples:
            if m.is_linear:
                per = -(-samples // max(1, len(tuples)))
                pairs = [(m.random_mor(rng, m.tens(q, s), m.d),
                          m.random_mor(rng, m.tens(t, p), m.d)) for _ in range(per)]
            else:
                span1 = _hom_to_d(m, m.tens(q, s))
                span2 = _hom_to_d(m, m.tens(t, p))
                pairs = [(a, b) for a in span1 for b in span2]
            for psi, om in pairs:
                yield q, s, t, p, psi, om

    def body(q, s, t, p, psi, om):
        big_dom_inner = m.tens(m.par(s, t), p)
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
        assert lhs.dom is m.tens(q, big_dom_inner)
        return lhs != rhs and f"at ({q},{s},{t},{p})"

    return scan("base-identity", arrow_items(), body)
