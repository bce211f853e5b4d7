"""Quantale-enriched categories and profunctors.

At thin enrichment a profunctor is a value matrix over the base quantale
subject to two action inequalities; composition is a join of tensors
(the colimit formula collapses to a join) and par is a meet of pars.  The
endo-profunctors of a finite enriched category therefore assemble into a
quantale of their own, which plugs straight back into the thin
star-autonomous machinery: that is the construction this module verifies.

Composition requires the base to be cyclic (its two duals must agree
pointwise); duals of profunctors transpose the matrix and dualize entries,
and the action inequalities of the dual are re-verified, never assumed --
a failure there is exactly a witness of non-cyclicity of the base.
"""

from dataclasses import dataclass
from itertools import product
import random

from .core.quantify import scan
from .quantale import Quantale
from .report import renamed
from .thin import ThinModel
from .core.validate import validate_staut
from . import cyclicity


class ProfError(Exception):
    pass


@dataclass
class VCat:
    """A category enriched in a quantale: objects plus a hom matrix."""

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

    def label(self):
        return f"vcat({self.base.label};{len(self.objects)} objects)"


def discrete_vcat(base, names):
    hom = {(a, b): (base.unit if a == b else base.meet(base.elements))
           for a in names for b in names}
    return VCat(base, list(names), hom)


@dataclass
class VProf:
    """A profunctor between enriched categories: a value matrix with both
    action inequalities verified at construction."""

    src: VCat
    dst: VCat
    values: dict

    def __post_init__(self):
        bad = prof_action_violation(self.src, self.dst, self.values)
        if bad is not None:
            raise ProfError(f"action inequality fails at {bad}; "
                            "if this arose from a dual, the base quantale is "
                            "not cyclic there")

    def value(self, q, r):
        return self.values[(q, r)]


def prof_action_violation(src, dst, values):
    v = src.base
    for p, q in product(src.objects, repeat=2):
        for r in dst.objects:
            if not v.le(v.tensor(src.hom[(p, q)], values[(q, r)]), values[(p, r)]):
                return ("left", p, q, r)
    for q in src.objects:
        for r, s in product(dst.objects, repeat=2):
            if not v.le(v.tensor(values[(q, r)], dst.hom[(r, s)]), values[(q, s)]):
                return ("right", q, r, s)
    return None


def identity_prof(c):
    return VProf(c, c, {k: v for k, v in c.hom.items()})


def dualizer_prof(c):
    v = c.base
    return VProf(c, c, {(q, r): v.perp(c.hom[(r, q)]) for q in c.objects
                        for r in c.objects})


def compose_prof(f, g):
    """Join-of-tensors composite; the action inequalities of the result are
    re-verified by the VProf constructor."""
    if f.dst is not g.src:
        raise ProfError("profunctor composition needs matching middle category")
    v = f.src.base
    cyclic = v.is_cyclic()
    if not cyclic.ok:
        raise ProfError(f"base quantale is not cyclic (witness {cyclic.witness})")
    vals = {}
    for q in f.src.objects:
        for s in g.dst.objects:
            vals[(q, s)] = v.join([v.tensor(f.value(q, r), g.value(r, s))
                                   for r in f.dst.objects])
    return VProf(f.src, g.dst, vals)


def par_prof(f, g):
    """Meet-of-pars composite, the de Morgan dual of composition."""
    if f.dst is not g.src:
        raise ProfError("profunctor par needs matching middle category")
    v = f.src.base
    vals = {}
    for q in f.src.objects:
        for s in g.dst.objects:
            vals[(q, s)] = v.meet([v.par(f.value(q, r), g.value(r, s))
                                   for r in f.dst.objects])
    return VProf(f.src, g.dst, vals)


def dual_prof(f, side):
    """Pointwise dual on the transposed matrix; ``side`` is "right" or "left"."""
    v = f.src.base
    dualize = v.perp if side == "right" else v.prep
    vals = {(q, r): dualize(f.value(r, q))
            for q in f.dst.objects for r in f.src.objects}
    return VProf(f.dst, f.src, vals)


# ----------------------------------------------------------- enumeration

def enumerate_profs(c, cap=65536, seed=0):
    """All endo-profunctor matrices of c, exhaustively when the raw matrix
    count |V| ** n^2 stays within cap, else a seeded sample of candidates.
    Returns (list of value dicts, exhaustive flag)."""
    v = c.base
    n = len(c.objects)
    keys = [(q, r) for q in c.objects for r in c.objects]
    total = len(v.elements) ** (n * n)
    found = []
    if total <= cap:
        for combo in product(v.elements, repeat=len(keys)):
            vals = dict(zip(keys, combo))
            if prof_action_violation(c, c, vals) is None:
                found.append(vals)
        return found, True
    rng = random.Random(seed)
    seen = set()
    for _ in range(cap):
        combo = tuple(rng.choice(v.elements) for _ in keys)
        if combo in seen:
            continue
        seen.add(combo)
        vals = dict(zip(keys, combo))
        if prof_action_violation(c, c, vals) is None:
            found.append(vals)
    if identity_prof(c).values not in found:
        found.append(identity_prof(c).values)
    if dualizer_prof(c).values not in found:
        found.append(dualizer_prof(c).values)
    return found, False


def build_prof_quantale(c, seed=0):
    """Assemble Prof(c, c) as a quantale: pointwise order, composition as
    tensor, the hom profunctor as unit, its right dual as dualizer.  Requires
    exhaustive enumeration (a sampled element set is not join-closed)."""
    profs, exhaustive = enumerate_profs(c, seed=seed)
    if not exhaustive:
        raise ProfError("profunctor quantale needs exhaustive enumeration; "
                        "raise the cap or shrink the category")
    return _prof_quantale(c, profs)


def _prof_quantale(c, profs):
    """Prof(c, c) on the complete list ``profs`` of its profunctors; its
    values are the matrices as tuples of base elements in ``keys`` order."""
    v = c.base
    cyclic = v.is_cyclic()
    if not cyclic.ok:
        raise ProfError(f"base quantale is not cyclic (witness {cyclic.witness})")
    keys = [(q, r) for q in c.objects for r in c.objects]
    values = [tuple(p[k] for k in keys) for p in profs]

    def le(a, b):
        return all(v.le(x, y) for x, y in zip(a, b))

    def tensor(a, b):
        fa, fb = dict(zip(keys, a)), dict(zip(keys, b))
        return tuple(v.join([v.tensor(fa[(q, r)], fb[(r, s)]) for r in c.objects])
                     for q, s in keys)

    unit = tuple(c.hom[k] for k in keys)
    dzr = tuple(v.perp(c.hom[(r, q)]) for (q, r) in keys)
    if not {unit, dzr} <= set(values):
        raise ProfError("unit or dualizer profunctor missing from enumeration")

    def name(el):
        return "[" + ",".join(v.name(x) for x in el) + "]"

    return Quantale(
        label=f"prof({c.label()})",
        values=values,
        le_fn=le,
        tensor_fn=tensor,
        unit=unit,
        dualizer=dzr,
        name_fn=name,
        family="prof",
        meta={"keys": keys, "base": v.label, "objects": list(c.objects)},
    )


# ------------------------------------------------------------ full checker

def check_prof_staut(c, seed=0):
    """Verify that Prof(c, c) is a cyclic thin star-autonomous model.

    Returns (SuiteReport-ready CheckResult list, AxiomProfile, prof quantale).
    """
    v = c.base
    profs, exhaustive = enumerate_profs(c, seed=seed)
    seen = set()

    def listed_once(i, vals):
        key = frozenset(vals.items())
        if key in seen:
            return f"profunctor #{i} is listed twice"
        seen.add(key)

    # its count is the number of profunctors, which the benchmark reads
    out = [scan("prof-enumeration", enumerate(profs), listed_once, exhaustive)]

    def duals_are_profunctors(i, vals):
        f = VProf(c, c, vals)
        for side in ("right", "left"):
            try:
                dual_prof(f, side)
            except ProfError as exc:
                return f"profunctor #{i}, {side}: {exc}"

    def cyclic_duals_agree(i, vals):
        f = VProf(c, c, vals)
        pr = dual_prof(f, "right").values
        pl = dual_prof(f, "left").values
        return pr != pl and f"profunctor #{i}"

    out.append(scan("prof-duals-are-profunctors", enumerate(profs),
                    duals_are_profunctors, exhaustive))
    out.append(scan("prof-cyclic-duals-agree", enumerate(profs),
                    cyclic_duals_agree, exhaustive))

    rng = random.Random(seed)
    picks = profs if len(profs) <= 12 else rng.sample(profs, 12)

    def demorgan(i, j):
        f, g = VProf(c, c, picks[i]), VProf(c, c, picks[j])
        lhs = dual_prof(compose_prof(f, g), "right")
        rhs = par_prof(dual_prof(g, "right"), dual_prof(f, "right"))
        return lhs.values != rhs.values and f"de Morgan of a composite at picks #{i}, #{j}"

    def unit_counit(fa):
        f = VProf(c, c, fa)
        i = identity_prof(c)
        if compose_prof(i, f).values != f.values or compose_prof(f, i).values != f.values:
            return "identity profunctor is not neutral"
        rf = dual_prof(f, "right")
        tau, gamma = par_prof(rf, f).values, compose_prof(f, rf).values
        dz = dualizer_prof(c).values
        for (q, s) in f.values:
            if not (v.le(c.hom[(q, s)], tau[(q, s)]) and v.le(gamma[(q, s)], dz[(q, s)])):
                return f"duality unit/counit inequality at {(q, s)}"

    def distribution(fa, fb, fc):
        f, g, h = (VProf(c, c, x) for x in (fa, fb, fc))
        gh_par = par_prof(g, h)
        fg = compose_prof(f, g)
        for p, q, r, s in product(c.objects, repeat=4):
            lhs = v.tensor(f.value(p, q), gh_par.value(q, s))
            rhs = v.par(fg.value(p, r), h.value(r, s))
            if not v.le(lhs, rhs):
                return f"linear distribution at {(p, q, r, s)}"

    out.append(scan("prof-demorgan-pointwise", product(range(len(picks)), repeat=2),
                    demorgan, len(picks) == len(profs)))
    out.append(scan("prof-duality-unit-counit", picks, unit_counit))
    out.append(scan("prof-linear-distribution", product(picks[:6], repeat=3),
                    distribution))

    profile = None
    if exhaustive:
        pq = _prof_quantale(c, profs)
        out += renamed(pq.validate(seed) + [pq.is_cyclic()], "profq-")
        model = ThinModel(pq)
        out += renamed(validate_staut(model, seed), "profq-staut-")
        from .thin import thin_identity_cycle
        cyc_data = thin_identity_cycle(model)
        profile = cyclicity.classify(cyc_data, seed)
        out.append(profile.check("profq-cycle-classification", cyclicity.CYCLE))
        return out, profile, pq
    return out, profile, None


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
