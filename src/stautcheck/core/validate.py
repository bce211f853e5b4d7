"""Backend-independent validity rows for star-autonomous models.

``VALIDITY`` holds one row (``quantify.Axiom``) per check: the four linear
triangle identities, pentagon and unit coherence for both monoidal
structures, linear distribution coherence equations, invertibility of the
de Morgan and cancellation maps, and the currying round trips on hom
spanning sets.  ``validate_staut`` runs each with ``quantify.check``: a row
of one object over every probe, the unit de Morgan row over the one empty
tuple, and a row of more objects over the seeded draw of its arity within
"tuples" and "validity-dims", which every row of that arity shares.  Every
row counts tuples; the currying row tries each spanning arrow of its pair's
hom within one tuple.
"""

from functools import partial

from .quantify import COVERAGE, Axiom, check


def _triangle(adjunction, curry, m, p):
    """The counit of the model's ``adjunction`` at p curried by its
    ``curry`` is an endomorphism (of the left object for curry_right, of
    the right one for curry_left) that must be the identity."""
    adj = getattr(m, adjunction)(p)
    f = getattr(m, curry)(adj, adj.counit)
    return f, m.identity(f.dom)


def _monoidal(m, which):
    """The unit, product, product of arrows, associator and unitors of the
    tensor (``"t"``) or of the par (``"p"``)."""
    if which == "t":
        return m.e, m.tens, m.tens_mor, m.assoc_t, m.lunit_t, m.runit_t
    return m.d, m.par, m.par_mor, m.assoc_p, m.lunit_p, m.runit_p


def _pentagon(which, m, p, q, r, s):
    _, over, both, assoc, _, _ = _monoidal(m, which)
    return (m.chain(both(assoc(p, q, r), m.identity(s)),
                    assoc(p, over(q, r), s),
                    both(m.identity(p), assoc(q, r, s))),
            m.chain(assoc(over(p, q), r, s), assoc(p, q, over(r, s))))


def _unit_triangle(which, m, p, q):
    unit, _, both, assoc, lunit, runit = _monoidal(m, which)
    return (m.chain(assoc(p, unit, q), both(m.identity(p), lunit(q))),
            both(runit(p), m.identity(q)))


def _dist_unit_l(m, s, t):
    return (m.lunit_t(m.par(s, t)),
            m.chain(m.dist_l(m.e, s, t), m.par_mor(m.lunit_t(s), m.identity(t))))


def _dist_unit_r(m, p, q):
    return (m.runit_t(m.par(p, q)),
            m.chain(m.dist_r(p, q, m.e), m.par_mor(m.identity(p), m.runit_t(q))))


def _dist_assoc_t(m, q, q2, s, t):
    return (m.chain(m.assoc_t(q, q2, m.par(s, t)),
                    m.tens_mor(m.identity(q), m.dist_l(q2, s, t)),
                    m.dist_l(q, m.tens(q2, s), t)),
            m.chain(m.dist_l(m.tens(q, q2), s, t),
                    m.par_mor(m.assoc_t(q, q2, s), m.identity(t))))


def _dist_assoc_p(m, q, s, t, u):
    return (m.chain(m.dist_l(q, m.par(s, t), u),
                    m.par_mor(m.dist_l(q, s, t), m.identity(u)),
                    m.assoc_p(m.tens(q, s), t, u)),
            m.chain(m.tens_mor(m.identity(q), m.assoc_p(s, t, u)),
                    m.dist_l(q, s, m.par(t, u))))


def _dist_mixed(m, p, q, s, t):
    return (m.chain(m.dist_r(p, q, m.par(s, t)),
                    m.par_mor(m.identity(p), m.dist_l(q, s, t))),
            m.chain(m.dist_l(m.par(p, q), s, t),
                    m.par_mor(m.dist_r(p, q, s), m.identity(t)),
                    m.assoc_p(p, m.tens(q, s), t)))


def _round_trips(m, isos):
    """Each iso composed with its inverse, and the identities they must be."""
    return [m.compose(f, m.invert(f)) for f in isos], [m.identity(f.dom) for f in isos]


def _curry_roundtrip(m, p, t):
    span = list(m.hom_span(m.tens(p, t), m.d))
    return ([m.lcurry_inv(m.lcurry(f)) for f in span]
            + [m.rcurry_inv(m.rcurry(f)) for f in span], span + span)


VALIDITY = {
    "triangle-right-object": Axiom(1, partial(_triangle, "rdual_adj", "curry_right")),
    "triangle-right-dual": Axiom(1, partial(_triangle, "rdual_adj", "curry_left")),
    "triangle-left-object": Axiom(1, partial(_triangle, "ldual_adj", "curry_left")),
    "triangle-left-dual": Axiom(1, partial(_triangle, "ldual_adj", "curry_right")),
    "pentagon-tensor": Axiom(4, partial(_pentagon, "t")),
    "pentagon-par": Axiom(4, partial(_pentagon, "p")),
    "unit-triangle-tensor": Axiom(2, partial(_unit_triangle, "t")),
    "unit-triangle-par": Axiom(2, partial(_unit_triangle, "p")),
    "dist-unit-left": Axiom(2, _dist_unit_l),
    "dist-unit-right": Axiom(2, _dist_unit_r),
    "dist-assoc-tensor": Axiom(4, _dist_assoc_t),
    "dist-assoc-par": Axiom(4, _dist_assoc_p),
    "dist-mixed": Axiom(4, _dist_mixed),
    "demorgan-invertible": Axiom(2, lambda m, p, q: _round_trips(
        m, [m.demorgan(v, p, q) for v in ("tens_r", "tens_l", "par_r", "par_l")])),
    "demorgan-units-invertible": Axiom(0, lambda m: _round_trips(
        m, [m.demorgan(v) for v in ("unit_er", "unit_dr", "unit_el", "unit_dl")])),
    "cancellation-invertible": Axiom(1, lambda m, p: _round_trips(
        m, [m.canon_r(p), m.canon_l(p)])),
    "curry-roundtrip": Axiom(2, _curry_roundtrip),
    "name-of-identity": Axiom(1, lambda m, p: (m.name_mor(m.identity(p)), m.dual_unit_r(p))),
}


def validate_staut(model, seed=0):
    """The validity checks of ``model``, one per row of ``VALIDITY``."""
    budget = {"cap": COVERAGE["tuples"], "dim_cap": COVERAGE["validity-dims"]}
    return [check(name, row, model, seed * 1000003 + row.arity,
                  **(budget if row.arity > 1 else {})) for name, row in VALIDITY.items()]
