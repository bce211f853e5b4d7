"""Thin (posetal) star-autonomous models backed by a quantale.

A morphism p -> q is the unique order witness, existing iff the element of p
is below the element of q; construction of any structural map therefore IS the
check that the corresponding inequality holds in the quantale.  Equality of
parallel morphisms is automatic, which is exactly why thin models satisfy
every coherence diagram they can state.
"""

from .core.model import ISOMORPHISMS, StautModel
from .core.objects import LDUAL, PAR, RDUAL, TENS, UNIT_P, UNIT_T
from .core.morphisms import Mor, MorError
from .quantale import Quantale, QuantaleError


class ThinModel(StautModel):
    def __init__(self, quantale: Quantale, probe_cap=10):
        super().__init__({quantale.name(x): x for x in quantale.elements})
        self.q = q = quantale
        # what evaluates each object kind: an operation of the quantale on
        # the children's values, or for a unit the element itself
        self._ops = {UNIT_T: q.unit, UNIT_P: q.dualizer, TENS: q.tensor, PAR: q.par,
                     RDUAL: q.perp, LDUAL: q.prep}
        self.probes = self._default_probes(probe_cap)

    def _default_probes(self, cap):
        q = self.q
        picked = []
        for x in (q.unit, q.dualizer, *q.elements):
            if len(picked) >= cap:
                break
            if x not in picked:
                picked.append(x)
        return [self.e, self.d] + [self.gen(q.name(x)) for x in picked]

    def describe(self):
        return f"thin({self.q.label})"

    def _object_value(self, kind, *vs):
        # a dual without a residual fails the check that built it, as witness
        op = self._ops[kind]
        try:
            return op(*vs) if vs else op
        except QuantaleError as exc:
            raise MorError(str(exc)) from exc

    # -------------------------------------------------------------- morphisms

    def mor(self, dom, cod, payload=None):
        if payload is not None:
            raise MorError("thin morphisms carry no payload")
        if not self.q.le(dom.value, cod.value):
            raise MorError(
                f"no witness {dom} -> {cod}: {self.q.name(dom.value)} is not "
                f"below {self.q.name(cod.value)} in {self.q.label}")
        return Mor(dom, cod, None, True)

    def identity(self, p):
        return Mor(p, p, None, True)

    def _compose_payload(self, f, g):
        return Mor(f.dom, g.cod, None, True)

    def tens_mor(self, f, g):
        return self.mor(self.tens(f.dom, g.dom), self.tens(f.cod, g.cod))

    def par_mor(self, f, g):
        return self.mor(self.par(f.dom, g.dom), self.par(f.cod, g.cod))

    def invert(self, f):
        return self.mor(f.cod, f.dom)

    def hom_span(self, p, q):
        if self.q.le(p.value, q.value):
            return [self.mor(p, q)]
        return []

    # ------------------------------------------------------- structural maps

    def _structural_mor(self, kind, dom, cod, objects):
        m = self.mor(dom, cod)
        if kind in ISOMORPHISMS:  # the inverse inequality must hold too
            self.mor(cod, dom)
        return m


def thin_identity_cycle(model):
    """The witness family rdual(p) -> ldual(p); exists iff the quantale is
    cyclic, and is then the unique cycle candidate of the thin model."""
    from .cyclicity import CycleData

    def comp(p):
        return model.mor(model.rdual(p), model.ldual(p))

    return CycleData(model, comp, label=f"identity({model.q.label})")
