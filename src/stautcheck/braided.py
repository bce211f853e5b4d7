"""Braidings, twists, and their correspondence with cyclicity data.

A braiding on the tensor induces one on the par through the duals and the de
Morgan isomorphisms; the two cohere through four mixed-distribution diagrams
checked here, and agree outright in degenerate models (par = tensor, equal
units).  A twist and the stitch are p => p families (``cyclicity.Family``),
checked as cycles are.  The bridge to the axiom engine: a twist theta yields
the cycle given at the hom level by omega |-> braid; (theta (x) id); omega,
and a cycle yields a twist through the evaluation loop below; the two are
exact mutual inverses, which ``roundtrip_check`` verifies.

Sign conventions (which crossing is an inverse braiding) were fixed once by
requiring consistency of all composites on the graded-line model, where every
crossing contributes a detectable scalar; the checks then re-verify them on
every braided backend.
"""

from .core.morphisms import MorError
from .core.quantify import COVERAGE, draw, scan
from . import cyclicity


class Braiding:
    """The tensor braiding of a model plus its derived par braiding."""

    def __init__(self, model):
        if not model.is_braided:
            raise MorError("model has no braiding")
        self.model = model

    def tens(self, p, q):
        return self.model.braid(p, q)

    def par(self, p, q):
        """p par q -> q par p through the right duals, built once per model."""
        m = self.model
        return m._structural(("par_braid", p, q), lambda: m.chain(
            m.invert(self._par_encoding(p, q)),
            m.rdual_mor(m.braid(m.ldual(p), m.ldual(q))),
            self._par_encoding(q, p)))

    def _par_encoding(self, a, b):
        """rdual(ldual(b) (x) ldual(a)) -> a par b, the canonical comparison."""
        m = self.model
        return m.chain(
            m.demorgan("tens_r", m.ldual(b), m.ldual(a)),
            m.par_mor(m.invert(m.canon_r(a)), m.invert(m.canon_r(b))))

    # ------------------------------------------------------------ validation

    def check_hexagons(self, seed=0):
        m = self.model

        def body(p, q, r):
            lhs = self.tens(p, m.tens(q, r))
            rhs = m.chain(m.invert(m.assoc_t(p, q, r)),
                          m.tens_mor(self.tens(p, q), m.identity(r)),
                          m.assoc_t(q, p, r),
                          m.tens_mor(m.identity(q), self.tens(p, r)),
                          m.invert(m.assoc_t(q, r, p)))
            if lhs != rhs:
                return f"hexagon-one at ({p},{q},{r})"
            lhs = self.tens(m.tens(p, q), r)
            rhs = m.chain(m.assoc_t(p, q, r),
                          m.tens_mor(m.identity(p), self.tens(q, r)),
                          m.invert(m.assoc_t(p, r, q)),
                          m.tens_mor(self.tens(p, r), m.identity(q)),
                          m.assoc_t(r, p, q))
            if lhs != rhs:
                return f"hexagon-two at ({p},{q},{r})"

        triples, exh = draw(m, m.probe_objects(), 3, COVERAGE["braid-triples"],
                           COVERAGE["braid-dims"], seed)
        return scan("hexagons", triples, body, exh)

    def check_mixed_distributions(self, seed=0):
        """The four coherence diagrams tying the two braidings to the linear
        distributions."""
        m = self.model

        def body(p, q, r):
            d1_l = m.chain(
                m.tens_mor(m.invert(self.par(q, p)), m.identity(r)),
                m.dist_r(q, p, r),
                self.par(q, m.tens(p, r)))
            d1_r = m.chain(
                self.tens(m.par(p, q), r),
                m.dist_l(r, p, q),
                m.par_mor(m.invert(self.tens(p, r)), m.identity(q)))
            if d1_l != d1_r:
                return f"mixed-dist-1 at ({p},{q},{r})"
            d2_l = m.chain(
                self.tens(r, m.par(q, p)),
                m.dist_r(q, p, r),
                m.par_mor(m.identity(q), m.invert(self.tens(r, p))))
            d2_r = m.chain(
                m.tens_mor(m.identity(r), m.invert(self.par(p, q))),
                m.dist_l(r, p, q),
                self.par(m.tens(r, p), q))
            if d2_l != d2_r:
                return f"mixed-dist-2 at ({p},{q},{r})"
            d3_l = m.chain(
                m.tens_mor(self.par(p, q), m.identity(r)),
                m.dist_r(q, p, r),
                m.invert(self.par(m.tens(p, r), q)))
            d3_r = m.chain(
                m.invert(self.tens(r, m.par(p, q))),
                m.dist_l(r, p, q),
                m.par_mor(self.tens(r, p), m.identity(q)))
            if d3_l != d3_r:
                return f"mixed-dist-3 at ({p},{q},{r})"
            d4_l = m.chain(
                m.invert(self.tens(m.par(q, p), r)),
                m.dist_r(q, p, r),
                m.par_mor(m.identity(q), self.tens(p, r)))
            d4_r = m.chain(
                m.tens_mor(m.identity(r), self.par(q, p)),
                m.dist_l(r, p, q),
                m.invert(self.par(q, m.tens(r, p))))
            if d4_l != d4_r:
                return f"mixed-dist-4 at ({p},{q},{r})"

        triples, exh = draw(m, m.probe_objects(), 3, COVERAGE["braid-triples"],
                           COVERAGE["braid-dims"], seed)
        return scan("mixed-distributions", triples, body, exh)

    def check_degenerate_agreement(self):
        """In a degenerate model the derived par braiding must coincide with
        the tensor braiding entrywise."""
        m = self.model
        pairs, exh = draw(m, m.probe_objects(), 2, dim_cap=COVERAGE["braid-dims"])
        return scan("degenerate-braid-agreement", pairs,
                    lambda p, q: self.par(p, q).payload != self.tens(p, q).payload, exh)

    def is_symmetry(self):
        """The check that the braiding is a symmetry; its witness is the
        first pair (p, q) whose double braiding is not the identity."""
        m = self.model
        pairs, exh = draw(m, m.probe_objects(), 2, dim_cap=COVERAGE["braid-dims"])
        return scan("symmetry", pairs, lambda p, q: (
            m.compose(self.tens(p, q), self.tens(q, p)) != m.identity(m.tens(p, q))
            and repr((p, q))), exh)


class Balance(cyclicity.Family):
    """A candidate twist: one automorphism p -> p per object."""

    kind = "twist"
    # the benchmark's tracer (perfbench/tracer.py) wraps this name
    validate = cyclicity.Family.validate

    def _ends(self, p):
        return p, p

    def _square(self, a, b, f):
        m = self.model
        return m.compose(f, self.component(b)), m.compose(self.component(a), f)


def identity_balance(model):
    return Balance(model, model.identity, "identity")


def scaled_balance(model, lam):
    """lam * identity on every object; a balance only when lam is 1."""
    return Balance(model, lambda p: model.mor_scale(lam, model.identity(p)),
                   f"scaled({lam})")


def graded_square_balance(model):
    """c**(deg^2) per object on the graded-line model: its unique scalar-form
    balance, used to exercise the correspondence off the symmetric case."""
    def comp(p):
        return model.mor_scale(model.c ** (model.degree(p) ** 2),
                               model.identity(p))
    return Balance(model, comp, "graded-square")


def ribbon_balance(model):
    """The canonical twist of the double-of-Z2 model."""
    return Balance(model, lambda p: model.mor(p, p, model.twist_matrix(p)),
                   "ribbon")


# ----------------------------------------------------------- constructions

def balance_from_cycle(cycle):
    """Evaluation-loop composite turning cyclicity data into a twist:
    tensor-semicycles give tensor-semibalances and dually."""
    m = cycle.model

    def comp(p):
        left_leg = m.chain(
            m.tens_mor(m.identity(p), cycle.component(p)),
            m.invert(m.braid(m.ldual(p), p)),
            m.dual_counit_l(p))
        return m.curry_right(m.rdual_adj(p), left_leg)

    return Balance(m, comp, f"from({cycle.label})")


def cycle_from_balance(balance):
    """The cycle given at the hom level by omega |-> braid ; (twist (x) id) ; omega.

    The composition order of the display is fixed by dom/cod typing: the
    braiding component is the one from t (x) p, and the twist acts on the
    first factor after crossing.
    """
    m = balance.model

    def ap(p, t, omega):
        return m.chain(m.braid(t, p),
                       m.tens_mor(balance.component(p), m.identity(t)),
                       omega)

    def unap(p, t, psi):
        return m.chain(m.invert(m.tens_mor(balance.component(p), m.identity(t))),
                       m.invert(m.braid(t, p)),
                       psi)

    return cyclicity.CycleData(m, label=f"from({balance.label})", apply_fn=ap, unapply_fn=unap)


def check_semibalance(balance, which):
    """(tensor|par) semibalance square on probe pairs, then the unit
    component pinned to the identity."""
    m = balance.model
    braiding = Braiding(m)
    if which == "tens":
        unit, over, both, cross = m.e, m.tens, m.tens_mor, braiding.tens
    else:
        unit, over, both, cross = m.d, m.par, m.par_mor, braiding.par

    def body(p, q=None):
        if q is None:   # the last item: the unit alone
            return (balance.component(p) != m.identity(p)
                    and "unit component is not the identity")
        lhs = balance.component(over(p, q))
        return lhs != m.chain(cross(p, q),
                              both(balance.component(q), balance.component(p)),
                              cross(q, p))

    pairs, exh = draw(m, m.probe_objects(), 2, dim_cap=COVERAGE["braid-dims"])
    return scan(f"semibalance-{which}", pairs + [unit], body, exh)


def stitch(model, p):
    """The canonical double-crossing automorphism of p, built once per model:
    an evaluation loop whose two crossings are same-handed, so it measures
    the failure of the braiding to be a symmetry.  Identity in any symmetric
    model."""
    m = model
    return m._structural(("stitch", p), lambda: m.curry_right(m.rdual_adj(p), m.chain(
        m.invert(m.braid(m.rdual(p), p)),
        m.invert(m.braid(p, m.rdual(p))),
        m.dual_counit_r(p))))


class _Stitch(Balance):
    kind = "stitch"


def check_stitch_natural(model):
    """Naturality of the p => p family p |-> stitch(model, p)."""
    return _Stitch(model, lambda p: stitch(model, p), "stitch").natural()


def check_quasibalance(balance):
    """twist ; cancel ; ldual(twist at the dual) ; cancel-back must equal the
    stitch on every probe object."""
    m = balance.model

    def body(p):
        lhs = m.chain(balance.component(p),
                      m.canon_l(p),
                      m.ldual_mor(balance.component(m.rdual(p))),
                      m.invert(m.canon_l(p)))
        return lhs != stitch(m, p)

    return scan("quasibalance", m.probe_objects(), body)


def check_balance_double(balance):
    """Per probe object: the twist commutes with the right dual exactly when
    the stitch is the twist squared."""
    m = balance.model

    def body(p):
        left = balance.component(m.rdual(p)) == m.rdual_mor(balance.component(p))
        right = stitch(m, p) == m.compose(balance.component(p), balance.component(p))
        return left != right

    return scan("balance-double", m.probe_objects(), body)


def roundtrip_check(balance):
    """balance -> cycle -> balance must be the identity round trip on the
    components, and the same starting from the cycle."""
    m = balance.model
    cycle = cycle_from_balance(balance)
    back = balance_from_cycle(cycle)
    trips = {"balance": (back, balance), "cycle": (cycle_from_balance(back), cycle)}

    def body(kind, p):
        there, start = trips[kind]
        return there.component(p) != start.component(p) and f"{kind} at {p}"

    return scan("roundtrip", [(kind, p) for kind in trips for p in m.probe_objects()], body)


def check_identity_cycle_symmetry(model, seed=0):
    """The hom family induced by the identity twist is a full cycle exactly
    when the braiding is a symmetry."""
    profile = cyclicity.classify(cycle_from_balance(identity_balance(model)), seed)

    def body(sym):
        return (profile.cycle != sym.ok and f"cycle={profile.cycle}, symmetry={sym.ok}"
                + (f" (witness {sym.witness})" if sym.witness else ""))

    return scan("identity-cycle-vs-symmetry", [Braiding(model).is_symmetry()], body), profile
