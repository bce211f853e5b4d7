"""Quantale-enriched categories and profunctors.

At thin enrichment a profunctor of a finite enriched category c is a value
matrix over the base quantale subject to two action inequalities.  It is
held as a tuple of base elements, one per pair of ``c.keys`` (the pairs of
objects in row-major order), which is exactly its element of Prof(c, c):
the pointwise operations below and the quantale that
``build_prof_quantale`` assembles share that one representation.
Composition is a join of tensors (the colimit formula collapses to a join)
and par is a meet of pars.  The endo-profunctors therefore assemble into a
quantale of their own, which plugs straight back into the thin
star-autonomous machinery: that is the construction this module verifies.

Composition requires the base to be cyclic (its two duals must agree
pointwise); duals of profunctors transpose the matrix and dualize entries,
and the action inequalities of composites, pars and duals are re-verified,
never assumed -- a failure on a dual is exactly a witness of non-cyclicity
of the base.
"""

from dataclasses import dataclass
from itertools import product
import random

from .core.quantify import scan
from .quantale import Quantale
from .report import renamed
from .thin import ThinModel, thin_identity_cycle
from .core.validate import validate_staut
from . import cyclicity


class ProfError(Exception):
    pass


@dataclass
class VCat:
    """A category enriched in a quantale: objects plus a hom matrix.
    ``keys`` lists the pairs of objects in row-major order, the order of
    the entries of each of its profunctors."""

    base: Quantale
    objects: list
    hom: dict

    def __post_init__(self):
        v = self.base
        for a in self.objects:
            if not v.le(v.unit, self.hom[(a, a)]):
                raise ProfError(f"identity inequality fails at {a}")
        for a, b, c in product(self.objects, repeat=3):
            if not v.le(v.tensor(self.hom[(a, b)], self.hom[(b, c)]),
                        self.hom[(a, c)]):
                raise ProfError(f"composition inequality fails at ({a},{b},{c})")
        self.keys = [(q, r) for q in self.objects for r in self.objects]

    def label(self):
        return f"vcat({self.base.label};{len(self.objects)} objects)"


def discrete_vcat(base, names):
    hom = {(a, b): (base.unit if a == b else base.meet(base.elements))
           for a in names for b in names}
    return VCat(base, list(names), hom)


def action_violation(c, f):
    """The first action inequality the value tuple ``f`` of c fails, as
    ("left", p, q, r) or ("right", q, r, s), or None if it is a profunctor."""
    v, hom, at = c.base, c.hom, dict(zip(c.keys, f))
    for p, q, r in product(c.objects, repeat=3):
        if not v.le(v.tensor(hom[(p, q)], at[(q, r)]), at[(p, r)]):
            return ("left", p, q, r)
    for q, r, s in product(c.objects, repeat=3):
        if not v.le(v.tensor(at[(q, r)], hom[(r, s)]), at[(q, s)]):
            return ("right", q, r, s)
    return None


def _verified(c, f):
    bad = action_violation(c, f)
    if bad is not None:
        raise ProfError(f"action inequality fails at {bad}; "
                        "if this arose from a dual, the base quantale is "
                        "not cyclic there")
    return f


def _require_cyclic(v):
    cyclic = v.is_cyclic()
    if not cyclic.ok:
        raise ProfError(f"base quantale is not cyclic (witness {cyclic.witness})")


def _contract(c, f, g, times, total):
    """The matrix product of f and g over the middle object, with ``times``
    as product and ``total`` as sum: the join of tensors for composition,
    the meet of pars for par."""
    n = len(c.objects)
    return tuple(total(list(map(times, f[i:i + n], g[j::n])))
                 for i in range(0, n * n, n) for j in range(n))


def identity_prof(c):
    return tuple(c.hom[k] for k in c.keys)


def dualizer_prof(c):
    return dual_prof(c, identity_prof(c), "right")


def compose_prof(c, f, g):
    """Join-of-tensors composite, re-verified as a profunctor."""
    _require_cyclic(c.base)
    return _verified(c, _contract(c, f, g, c.base.tensor, c.base.join))


def par_prof(c, f, g):
    """Meet-of-pars composite, the de Morgan dual of composition."""
    return _verified(c, _contract(c, f, g, c.base.par, c.base.meet))


def dual_prof(c, f, side):
    """Pointwise dual on the transposed matrix; ``side`` is "right" or "left"."""
    v, n = c.base, len(c.objects)
    dualize = v.perp if side == "right" else v.prep
    return _verified(c, tuple(dualize(x) for q in range(n) for x in f[q::n]))


# ----------------------------------------------------------- enumeration

def enumerate_profs(c, cap=65536, seed=0):
    """All profunctors of c, exhaustively when the raw matrix count
    |V| ** n^2 stays within cap, else those among a seeded sample of
    candidates, with the unit and the dualizer.  Returns (list of value
    tuples, exhaustive flag)."""
    elements = c.base.elements
    if len(elements) ** len(c.keys) <= cap:
        return [f for f in product(elements, repeat=len(c.keys))
                if action_violation(c, f) is None], True
    rng = random.Random(seed)
    seen, found = set(), []
    for _ in range(cap):
        f = tuple(rng.choice(elements) for _ in c.keys)
        if f not in seen:
            seen.add(f)
            if action_violation(c, f) is None:
                found.append(f)
    for f in (identity_prof(c), dualizer_prof(c)):
        if f not in found:
            found.append(f)
    return found, False


def build_prof_quantale(c, enumeration):
    """Prof(c, c) as a quantale on ``enumeration``, the result of
    ``enumerate_profs(c)``: pointwise order, composition as tensor, the hom
    profunctor as unit, its right dual as dualizer.  A sampled enumeration
    is refused, since its element set is not join-closed."""
    profs, exhaustive = enumeration
    if not exhaustive:
        raise ProfError("profunctor quantale needs exhaustive enumeration; "
                        "raise the cap or shrink the category")
    v = c.base
    _require_cyclic(v)
    unit, dzr = identity_prof(c), dualizer_prof(c)
    if not {unit, dzr} <= set(profs):
        raise ProfError("unit or dualizer profunctor missing from enumeration")
    return Quantale(
        label=f"prof({c.label()})",
        values=profs,
        le_fn=lambda a, b: all(map(v.le, a, b)),
        tensor_fn=lambda a, b: _contract(c, a, b, v.tensor, v.join),
        unit=unit,
        dualizer=dzr,
        name_fn=lambda el: "[" + ",".join(map(v.name, el)) + "]",
        family="prof",
        meta={"keys": c.keys, "base": v.label, "objects": list(c.objects)},
    )


# ------------------------------------------------------------ full checker

def check_prof_staut(c, seed=0):
    """Verify that Prof(c, c) is a cyclic thin star-autonomous model.

    Returns (SuiteReport-ready CheckResult list, AxiomProfile, prof quantale).
    """
    v = c.base
    enumeration = profs, exhaustive = enumerate_profs(c, seed=seed)
    seen = set()

    def listed_once(i, f):
        if f in seen:
            return f"profunctor #{i} is listed twice"
        seen.add(f)

    # its count is the number of profunctors, which the benchmark reads
    out = [scan("prof-enumeration", enumerate(profs), listed_once, exhaustive)]

    def duals_are_profunctors(i, f):
        for side in ("right", "left"):
            try:
                dual_prof(c, f, side)
            except ProfError as exc:
                return f"profunctor #{i}, {side}: {exc}"

    def cyclic_duals_agree(i, f):
        return dual_prof(c, f, "right") != dual_prof(c, f, "left") and f"profunctor #{i}"

    out.append(scan("prof-duals-are-profunctors", enumerate(profs),
                    duals_are_profunctors, exhaustive))
    out.append(scan("prof-cyclic-duals-agree", enumerate(profs),
                    cyclic_duals_agree, exhaustive))

    rng = random.Random(seed)
    picks = profs if len(profs) <= 12 else rng.sample(profs, 12)

    def demorgan(i, j):
        f, g = picks[i], picks[j]
        lhs = dual_prof(c, compose_prof(c, f, g), "right")
        rhs = par_prof(c, dual_prof(c, g, "right"), dual_prof(c, f, "right"))
        return lhs != rhs and f"de Morgan of a composite at picks #{i}, #{j}"

    def unit_counit(f):
        i = identity_prof(c)
        if compose_prof(c, i, f) != f or compose_prof(c, f, i) != f:
            return "identity profunctor is not neutral"
        rf = dual_prof(c, f, "right")
        tau, gamma = par_prof(c, rf, f), compose_prof(c, f, rf)
        for k, h, t, g, d in zip(c.keys, i, tau, gamma, dualizer_prof(c)):
            if not (v.le(h, t) and v.le(g, d)):
                return f"duality unit/counit inequality at {k}"

    def distribution(f, g, h):
        gh_par, fg = par_prof(c, g, h), compose_prof(c, f, g)
        n = len(c.objects)
        for p, q, r, s in product(range(n), repeat=4):
            lhs = v.tensor(f[p * n + q], gh_par[q * n + s])
            rhs = v.par(fg[p * n + r], h[r * n + s])
            if not v.le(lhs, rhs):
                return f"linear distribution at {tuple(c.objects[x] for x in (p, q, r, s))}"

    out.append(scan("prof-demorgan-pointwise", product(range(len(picks)), repeat=2),
                    demorgan, len(picks) == len(profs)))
    # a profunctor is a tuple, which scan would spread over the arguments
    out.append(scan("prof-duality-unit-counit", ((f,) for f in picks), unit_counit))
    out.append(scan("prof-linear-distribution", product(picks[:6], repeat=3),
                    distribution))

    profile = pq = None
    if exhaustive:
        pq = build_prof_quantale(c, enumeration)
        out += renamed(pq.validate(seed) + [pq.is_cyclic()], "profq-")
        model = ThinModel(pq)
        out += renamed(validate_staut(model, seed), "profq-staut-")
        profile = cyclicity.classify(thin_identity_cycle(model), seed)
        out.append(profile.check("profq-cycle-classification", cyclicity.CYCLE))
    return out, profile, pq


# ----------------------------------------------- contraposition agreement

# action arrows per run of the contraposition check
_CONTRAPOSITION_SAMPLES = 50


def check_contraposition_agreement(model, cycle, seed=0):
    """The two derived actions on the right dual of the target of a module
    action a (x) x -> y: transporting through both cycle components versus
    dualizing and cycling the acting object.  They agree whenever the cycle
    is at least tensor-semicyclic; exercised on about
    _CONTRAPOSITION_SAMPLES action arrows, random ones on linear backends
    and the unique witnesses on thin ones.  Only a thin run that reaches
    every action arrow of the probes within that budget is exhaustive."""
    m = model
    rng = random.Random(seed)
    probes = [p for p in m.probe_objects()
              if not m.is_linear or m.dim(p) <= 2]
    actions, sampled = [], m.is_linear
    for a, x, y in product(probes, repeat=3):
        if len(actions) >= _CONTRAPOSITION_SAMPLES:
            sampled = True
            break
        if m.is_linear:
            # whole batches of random action arrows up to the sample size
            alphas = [m.random_mor(rng, m.tens(a, x), y)
                      for _ in range(max(1, _CONTRAPOSITION_SAMPLES // 8))]
        else:
            span = m.hom_span(m.tens(a, x), y)
            alphas = span[:_CONTRAPOSITION_SAMPLES - len(actions)]
            sampled = sampled or len(alphas) < len(span)
        actions += [(a, x, y, alpha) for alpha in alphas]

    def body(a, x, y, alpha):
        ev = m.chain(m.assoc_t(m.ldual(y), a, x),
                     m.tens_mor(m.identity(m.ldual(y)), alpha),
                     m.dual_counit_l(y))
        act = m.curry_right(m.ldual_adj(x), ev)
        one = m.chain(
            m.tens_mor(cycle.component(y), m.identity(a)),
            act,
            cycle.inverse_component(x))
        g = m.chain(m.rdual_mor(alpha),
                    m.demorgan("tens_r", a, x),
                    m.par_mor(m.identity(m.rdual(x)),
                              cycle.component(a)))
        two = m.chain(
            m.tens_mor(g, m.identity(a)),
            m.dist_r(m.rdual(x), m.ldual(a), a),
            m.par_mor(m.identity(m.rdual(x)), m.dual_counit_l(a)),
            m.runit_p(m.rdual(x)))
        return one != two and f"at a={a}, x={x}, y={y}"

    return scan("contraposition", actions, body, not sampled)
