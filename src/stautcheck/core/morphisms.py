"""Morphism carrier shared by all backends.

A Mor is an exact arrow between two interned object handles.  The
payload is backend-specific: ``None`` for thin (posetal) models, where at most
one arrow exists between two objects, and a rational matrix of shape
dim(cod) x dim(dom) for the linear models.  Composition is only defined when
cod and dom match; violations raise instead of silently coercing.  A Mor is
never changed once built; it is a plain slotted object, not a dataclass,
since one check run builds hundreds of thousands of them.
"""


class MorError(Exception):
    """Illegal morphism construction or use."""


class CompositionError(MorError):
    """cod of the first arrow differs from dom of the second."""


class ShapeError(MorError):
    """An operation was applied to a morphism of the wrong shape."""


class Mor:
    """An arrow dom -> cod with its payload; ``payload_is_id`` says that
    the payload is an identity matrix (always true on thin models)."""

    __slots__ = ("dom", "cod", "payload", "payload_is_id")

    def __init__(self, dom, cod, payload=None, payload_is_id=False):
        self.dom = dom
        self.cod = cod
        self.payload = payload
        self.payload_is_id = payload_is_id

    def __eq__(self, other):
        if not isinstance(other, Mor):
            return NotImplemented
        return (self.dom is other.dom and self.cod is other.cod
                and self.payload == other.payload)

    def __hash__(self):
        return hash((self.dom, self.cod))

    def __str__(self):
        return f"{self.dom} -> {self.cod}"

    def __repr__(self):
        if self.payload is None:
            return f"Mor({self.dom} -> {self.cod})"
        return f"Mor({self.dom} -> {self.cod}, {self.payload!r})"
