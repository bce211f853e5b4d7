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

from itertools import product

from .core.quantify import COVERAGE, draw, scan
from .quantale import Quantale
from .report import renamed
from .thin import ThinModel, thin_identity_cycle
from .core.validate import validate_staut
from . import cyclicity


class ProfError(Exception):
    pass


class VCat:
    """A category enriched in a quantale: objects plus a hom matrix, whose
    identity and composition inequalities are checked on construction.
    ``keys`` lists the pairs of objects in row-major order, the order of
    the entries of each of its profunctors."""

    __slots__ = ("base", "objects", "hom", "keys")

    def __init__(self, base, objects, hom):
        v = self.base = base
        self.objects, self.hom = objects, hom
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


def _require_valid(v, seed):
    """Refuse a base that fails a quantale axiom: everything here presumes them."""
    bad = next((res for res in v.validate(seed) if not res.ok), None)
    if bad is not None:
        raise ProfError(f"base quantale {v.label} fails {bad.name} (witness {bad.witness})")


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

def enumerate_profs(c, cap=None, seed=0):
    """All profunctors of c, exhaustively when the raw matrix count
    |V| ** n^2 stays within ``cap`` (default: the coverage table's
    "prof-candidates"), else those among ``cap`` distinct candidates drawn
    from ``seed``, with the unit and the dualizer.  Returns (list of value
    tuples, exhaustive flag)."""
    cap = COVERAGE["prof-candidates"] if cap is None else cap
    candidates, exhaustive = draw(None, c.base.elements, len(c.keys), cap, seed=seed)
    found = [f for f in candidates if action_violation(c, f) is None]
    if not exhaustive:
        found += [f for f in dict.fromkeys((identity_prof(c), dualizer_prof(c))) if f not in found]
    return found, exhaustive


# The largest Prof(c, c) that is built: building takes n^2 order comparisons
# and checking up to n^2 products.  On 2 CPUs under Python 3.11, 512 elements
# (discrete bool2 on three objects) check in 5.3 s, 993 in 19 s and 2,031 in
# 83 s; 19,683 (discrete luk3 on three objects) give no verdict at all.
PROF_MAX_ELEMENTS = 1024


def build_prof_quantale(c, enumeration, seed=0):
    """Prof(c, c) as a quantale on ``enumeration``, the result of
    ``enumerate_profs(c)``: pointwise order, composition as tensor, the hom
    profunctor as unit, its right dual as dualizer.  A sampled enumeration
    is refused, since its element set is not join-closed, and so is one of
    more than PROF_MAX_ELEMENTS profunctors, a base that fails
    ``validate(seed)`` and one that is not cyclic."""
    profs, exhaustive = enumeration
    if not exhaustive:
        raise ProfError("profunctor quantale needs exhaustive enumeration; "
                        "raise the cap or shrink the category")
    if len(profs) > PROF_MAX_ELEMENTS:
        raise ProfError(f"Prof(c, c) has {len(profs):,} elements, more than the "
                        f"{PROF_MAX_ELEMENTS:,} this checker builds; shrink the category")
    v = c.base
    _require_valid(v, seed)
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
    _require_valid(v, seed)
    enumeration = profs, exhaustive = enumerate_profs(c, COVERAGE["prof-candidates"], seed)
    pq = build_prof_quantale(c, enumeration, seed) if exhaustive else None
    seen = set()

    def listed_once(i):
        if profs[i] in seen:
            return f"profunctor #{i} is listed twice"
        seen.add(profs[i])

    def duals_are_profunctors(i):
        for side in ("right", "left"):
            try:
                dual_prof(c, profs[i], side)
            except ProfError as exc:
                return f"profunctor #{i}, {side}: {exc}"

    def cyclic_duals_agree(i):
        f = profs[i]
        return dual_prof(c, f, "right") != dual_prof(c, f, "left") and f"profunctor #{i}"

    def demorgan(i, j):
        f, g = profs[i], profs[j]
        lhs = dual_prof(c, compose_prof(c, f, g), "right")
        rhs = par_prof(c, dual_prof(c, g, "right"), dual_prof(c, f, "right"))
        return lhs != rhs and f"de Morgan of a composite at profunctors #{i}, #{j}"

    def unit_counit(n):
        f, i = profs[n], identity_prof(c)
        if compose_prof(c, i, f) != f or compose_prof(c, f, i) != f:
            return "identity profunctor is not neutral"
        rf = dual_prof(c, f, "right")
        tau, gamma = par_prof(c, rf, f), compose_prof(c, f, rf)
        for k, h, t, g, d in zip(c.keys, i, tau, gamma, dualizer_prof(c)):
            if not (v.le(h, t) and v.le(g, d)):
                return f"duality unit/counit inequality at {k}"

    def distribution(x, y, z):
        f, g, h = profs[x], profs[y], profs[z]
        gh_par, fg = par_prof(c, g, h), compose_prof(c, f, g)
        n = len(c.objects)
        for p, q, r, s in product(range(n), repeat=4):
            lhs = v.tensor(f[p * n + q], gh_par[q * n + s])
            rhs = v.par(fg[p * n + r], h[r * n + s])
            if not v.le(lhs, rhs):
                return f"linear distribution at {tuple(c.objects[x] for x in (p, q, r, s))}"

    # each draws tuples of profunctor numbers, a sample of a sample if profs
    # is one; a built Prof(c, c) is small enough for the first three to scan
    # it whole, so prof-enumeration counts its profunctors, which the
    # benchmark reads
    out = []
    for name, body, k, budget in (
            ("prof-enumeration", listed_once, 1, PROF_MAX_ELEMENTS),
            ("prof-duals-are-profunctors", duals_are_profunctors, 1, PROF_MAX_ELEMENTS),
            ("prof-cyclic-duals-agree", cyclic_duals_agree, 1, PROF_MAX_ELEMENTS),
            ("prof-demorgan-pointwise", demorgan, 2, COVERAGE["prof-pairs"]),
            ("prof-duality-unit-counit", unit_counit, 1, COVERAGE["prof-singles"]),
            ("prof-linear-distribution", distribution, 3, COVERAGE["prof-triples"])):
        items, whole = draw(None, range(len(profs)), k, budget, seed=seed)
        out.append(scan(name, items, body, whole and exhaustive))

    profile = None
    if exhaustive:
        out += renamed(pq.validate(seed) + [pq.is_cyclic()], "profq-")
        model = ThinModel(pq)
        out += renamed(validate_staut(model, seed), "profq-staut-")
        profile = cyclicity.classify(thin_identity_cycle(model), seed)
        out.append(profile.check("profq-cycle-classification", cyclicity.CYCLE))
    return out, profile, pq


# ----------------------------------------------- contraposition agreement

def check_contraposition_agreement(model, cycle, seed=0):
    """The two derived actions on the right dual of the target of a module
    action alpha: a (x) x -> y: transporting through both cycle components
    versus dualizing and cycling the acting object.  They agree whenever
    the cycle is at least tensor-semicyclic.  Checked at every spanning
    arrow alpha of the triples (a, x, y) drawn from ``seed`` among those
    with an action arrow, within the coverage table's
    "contraposition-triples" and "axiom-dims"."""
    m = model
    triples, exhaustive = draw(m, m.probe_objects(), 3, COVERAGE["contraposition-triples"],
                               COVERAGE["axiom-dims"], seed * 1000003 + 3,
                               [((0, 1, 2), lambda a, x, y: m.has_arrow(
                                   cyclicity._span_value(m, (0, 1), (a, x)), y,
                                   lambda: m.tens(a, x)))])
    actions = ((a, x, y, alpha) for a, x, y in triples for alpha in m.hom_span(m.tens(a, x), y))

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

    return scan("contraposition", actions, body, exhaustive)
