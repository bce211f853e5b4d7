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
from .core.quantify import COVERAGE, Axiom, check, draws, scan
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
        return check("hexagons", HEXAGONS, self.model, seed, self, **_TRIPLES)

    def check_mixed_distributions(self, seed=0):
        """The four coherence diagrams tying the two braidings to the linear
        distributions."""
        return check("mixed-distributions", MIXED_DISTRIBUTIONS, self.model, seed, self,
                     **_TRIPLES)

    def check_degenerate_agreement(self):
        """In a degenerate model the derived par braiding must coincide with
        the tensor braiding entrywise."""
        return check("degenerate-braid-agreement", DEGENERATE, self.model, 0, self, **_PAIRS)

    def is_symmetry(self):
        """The check that the braiding is a symmetry; its witness is the
        first pair (p, q) whose double braiding is not the identity."""
        return check("symmetry", SYMMETRY, self.model, 0, self, **_PAIRS)


# The braided rows: sides(model, braiding or twist, *objects).  Pair rows range
# over every pair within "braid-dims"; the hexagons and mixed distributions over
# triples drawn from the check's seed within "braid-triples" and "braid-dims".
_PAIRS = {"dim_cap": COVERAGE["braid-dims"]}
_TRIPLES = {"cap": COVERAGE["braid-triples"], "dim_cap": COVERAGE["braid-dims"]}


def _hexagon_one(m, b, p, q, r):
    return b.tens(p, m.tens(q, r)), m.chain(m.invert(m.assoc_t(p, q, r)),
                                           m.tens_mor(b.tens(p, q), m.identity(r)),
                                           m.assoc_t(q, p, r),
                                           m.tens_mor(m.identity(q), b.tens(p, r)),
                                           m.invert(m.assoc_t(q, r, p)))


def _hexagon_two(m, b, p, q, r):
    return b.tens(m.tens(p, q), r), m.chain(m.assoc_t(p, q, r),
                                           m.tens_mor(m.identity(p), b.tens(q, r)),
                                           m.invert(m.assoc_t(p, r, q)),
                                           m.tens_mor(b.tens(p, r), m.identity(q)),
                                           m.assoc_t(r, p, q))


def _mixed_1(m, b, p, q, r):
    return (m.chain(m.tens_mor(m.invert(b.par(q, p)), m.identity(r)),
                    m.dist_r(q, p, r),
                    b.par(q, m.tens(p, r))),
            m.chain(b.tens(m.par(p, q), r),
                    m.dist_l(r, p, q),
                    m.par_mor(m.invert(b.tens(p, r)), m.identity(q))))


def _mixed_2(m, b, p, q, r):
    return (m.chain(b.tens(r, m.par(q, p)),
                    m.dist_r(q, p, r),
                    m.par_mor(m.identity(q), m.invert(b.tens(r, p)))),
            m.chain(m.tens_mor(m.identity(r), m.invert(b.par(p, q))),
                    m.dist_l(r, p, q),
                    b.par(m.tens(r, p), q)))


def _mixed_3(m, b, p, q, r):
    return (m.chain(m.tens_mor(b.par(p, q), m.identity(r)),
                    m.dist_r(q, p, r),
                    m.invert(b.par(m.tens(p, r), q))),
            m.chain(m.invert(b.tens(r, m.par(p, q))),
                    m.dist_l(r, p, q),
                    m.par_mor(b.tens(r, p), m.identity(q))))


def _mixed_4(m, b, p, q, r):
    return (m.chain(m.invert(b.tens(m.par(q, p), r)),
                    m.dist_r(q, p, r),
                    m.par_mor(m.identity(q), b.tens(p, r))),
            m.chain(m.tens_mor(m.identity(r), b.par(q, p)),
                    m.dist_l(r, p, q),
                    m.invert(b.par(q, m.tens(r, p)))))


DEGENERATE = Axiom(2, lambda m, b, p, q: (b.par(p, q).payload, b.tens(p, q).payload))
SYMMETRY = Axiom(2, lambda m, b, p, q: (m.compose(b.tens(p, q), b.tens(q, p)),
                                        m.identity(m.tens(p, q))))
HEXAGONS = {"hexagon-one": Axiom(3, _hexagon_one), "hexagon-two": Axiom(3, _hexagon_two)}
MIXED_DISTRIBUTIONS = {f"mixed-dist-{i}": Axiom(3, sides)
                       for i, sides in enumerate((_mixed_1, _mixed_2, _mixed_3, _mixed_4), 1)}


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

    pairs, exh = draws(m, 2, 0, **_PAIRS)
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
    return check("quasibalance", QUASIBALANCE, balance.model, 0, balance)


def check_balance_double(balance):
    """Per probe object: the twist commutes with the right dual exactly when
    the stitch is the twist squared."""
    return check("balance-double", BALANCE_DOUBLE, balance.model, 0, balance)


QUASIBALANCE = Axiom(1, lambda m, t, p: (m.chain(t.component(p), m.canon_l(p),
                                                 m.ldual_mor(t.component(m.rdual(p))),
                                                 m.invert(m.canon_l(p))),
                                         stitch(m, p)))
BALANCE_DOUBLE = Axiom(1, lambda m, t, p: (
    t.component(m.rdual(p)) == m.rdual_mor(t.component(p)),
    stitch(m, p) == m.compose(t.component(p), t.component(p))))


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
