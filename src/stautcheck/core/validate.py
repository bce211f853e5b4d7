"""Backend-independent invariant suite for star-autonomous models.

Runs, over the model's probe objects (tuples sampled deterministically when
the pool is large): the four linear triangle identities, pentagon and unit
coherence for both monoidal structures, a representative set of linear
distribution coherence equations, invertibility of the de Morgan and
cancellation maps, and the currying round trips on hom spanning sets.
"""

from .quantify import draw, scan


def validate_staut(model, seed=0, tuple_cap=24, dim_cap=8):
    m = model
    probes = m.probe_objects()

    def tuples(k):
        return draw(m, probes, k, tuple_cap, dim_cap, seed * 1000003 + k)

    def triangle_right_obj(p):
        rp = m.rdual(p)
        t1 = m.chain(m.invert(m.runit_t(p)),
                     m.tens_mor(m.identity(p), m.dual_unit_r(p)),
                     m.dist_l(p, rp, p),
                     m.par_mor(m.dual_counit_r(p), m.identity(p)),
                     m.lunit_p(p))
        return t1 != m.identity(p)

    def triangle_right_dual(p):
        rp = m.rdual(p)
        t2 = m.chain(m.invert(m.lunit_t(rp)),
                     m.tens_mor(m.dual_unit_r(p), m.identity(rp)),
                     m.dist_r(rp, p, rp),
                     m.par_mor(m.identity(rp), m.dual_counit_r(p)),
                     m.runit_p(rp))
        return t2 != m.identity(rp)

    def triangle_left_obj(p):
        lp = m.ldual(p)
        t3 = m.chain(m.invert(m.lunit_t(p)),
                     m.tens_mor(m.dual_unit_l(p), m.identity(p)),
                     m.dist_r(p, lp, p),
                     m.par_mor(m.identity(p), m.dual_counit_l(p)),
                     m.runit_p(p))
        return t3 != m.identity(p)

    def triangle_left_dual(p):
        lp = m.ldual(p)
        t4 = m.chain(m.invert(m.runit_t(lp)),
                     m.tens_mor(m.identity(lp), m.dual_unit_l(p)),
                     m.dist_l(lp, p, lp),
                     m.par_mor(m.dual_counit_l(p), m.identity(lp)),
                     m.lunit_p(lp))
        return t4 != m.identity(lp)

    def pentagon_t(p, q, r, s):
        lhs = m.chain(m.tens_mor(m.assoc_t(p, q, r), m.identity(s)),
                      m.assoc_t(p, m.tens(q, r), s),
                      m.tens_mor(m.identity(p), m.assoc_t(q, r, s)))
        rhs = m.chain(m.assoc_t(m.tens(p, q), r, s),
                      m.assoc_t(p, q, m.tens(r, s)))
        return lhs != rhs

    def pentagon_p(p, q, r, s):
        lhs = m.chain(m.par_mor(m.assoc_p(p, q, r), m.identity(s)),
                      m.assoc_p(p, m.par(q, r), s),
                      m.par_mor(m.identity(p), m.assoc_p(q, r, s)))
        rhs = m.chain(m.assoc_p(m.par(p, q), r, s),
                      m.assoc_p(p, q, m.par(r, s)))
        return lhs != rhs

    def unit_tri_t(p, q):
        lhs = m.chain(m.assoc_t(p, m.e, q),
                      m.tens_mor(m.identity(p), m.lunit_t(q)))
        return lhs != m.tens_mor(m.runit_t(p), m.identity(q))

    def unit_tri_p(p, q):
        lhs = m.chain(m.assoc_p(p, m.d, q),
                      m.par_mor(m.identity(p), m.lunit_p(q)))
        return lhs != m.par_mor(m.runit_p(p), m.identity(q))

    def dist_unit_l(_, s, t):
        rhs = m.chain(m.dist_l(m.e, s, t), m.par_mor(m.lunit_t(s), m.identity(t)))
        return m.lunit_t(m.par(s, t)) != rhs

    def dist_unit_r(p, q, _):
        rhs = m.chain(m.dist_r(p, q, m.e), m.par_mor(m.identity(p), m.runit_t(q)))
        return m.runit_t(m.par(p, q)) != rhs

    def dist_assoc_t(q, q2, s):
        t = s
        start_l = m.chain(m.assoc_t(q, q2, m.par(s, t)),
                          m.tens_mor(m.identity(q), m.dist_l(q2, s, t)),
                          m.dist_l(q, m.tens(q2, s), t))
        start_r = m.chain(m.dist_l(m.tens(q, q2), s, t),
                          m.par_mor(m.assoc_t(q, q2, s), m.identity(t)))
        return start_l != start_r

    def dist_assoc_p(q, s, t):
        u = s
        lhs = m.chain(m.dist_l(q, m.par(s, t), u),
                      m.par_mor(m.dist_l(q, s, t), m.identity(u)),
                      m.assoc_p(m.tens(q, s), t, u))
        rhs = m.chain(m.tens_mor(m.identity(q), m.assoc_p(s, t, u)),
                      m.dist_l(q, s, m.par(t, u)))
        return lhs != rhs

    def dist_mixed(p, q, s):
        t = p
        lhs = m.chain(m.dist_r(p, q, m.par(s, t)),
                      m.par_mor(m.identity(p), m.dist_l(q, s, t)))
        rhs = m.chain(m.dist_l(m.par(p, q), s, t),
                      m.par_mor(m.dist_r(p, q, s), m.identity(t)),
                      m.assoc_p(p, m.tens(q, s), t))
        return lhs != rhs

    def not_invertible(iso):
        return m.compose(iso, m.invert(iso)) != m.identity(iso.dom)

    def demorgan_iso(p, q):
        return any(not_invertible(m.demorgan(variant, p, q))
                   for variant in ("tens_r", "tens_l", "par_r", "par_l"))

    def unit_demorgan(_p):
        return any(not_invertible(m.demorgan(variant))
                   for variant in ("unit_er", "unit_dr", "unit_el", "unit_dl"))

    def cancellation_iso(p):
        return any(not_invertible(build(p)) for build in (m.canon_r, m.canon_l))

    def curry_roundtrip(p, t):
        return any(m.lcurry_inv(m.lcurry(f)) != f or m.rcurry_inv(m.rcurry(f)) != f
                   for f in m.hom_span(m.tens(p, t), m.d))

    def curry_counit(p):
        return m.lcurry(m.dual_counit_r(p)) != m.identity(m.rdual(p))

    def name_of_identity(p):
        return m.name_mor(m.identity(p)) != m.dual_unit_r(p)

    everything = (probes, True)
    quads, pairs, triples = tuples(4), tuples(2), tuples(3)
    checks = [("triangle-right-object", everything, triangle_right_obj),
              ("triangle-right-dual", everything, triangle_right_dual),
              ("triangle-left-object", everything, triangle_left_obj),
              ("triangle-left-dual", everything, triangle_left_dual),
              ("pentagon-tensor", quads, pentagon_t),
              ("pentagon-par", quads, pentagon_p),
              ("unit-triangle-tensor", pairs, unit_tri_t),
              ("unit-triangle-par", pairs, unit_tri_p),
              ("dist-unit-left", triples, dist_unit_l),
              ("dist-unit-right", triples, dist_unit_r),
              ("dist-assoc-tensor", triples, dist_assoc_t),
              ("dist-assoc-par", triples, dist_assoc_p),
              ("dist-mixed", triples, dist_mixed),
              ("demorgan-invertible", pairs, demorgan_iso),
              ("demorgan-units-invertible", (probes[:1], True), unit_demorgan),
              ("cancellation-invertible", everything, cancellation_iso),
              ("curry-roundtrip", pairs, curry_roundtrip),
              ("curry-counit-is-id", everything, curry_counit),
              ("name-of-identity", everything, name_of_identity)]
    return [scan(name, items, body, exhaustive)
            for name, (items, exhaustive), body in checks]
