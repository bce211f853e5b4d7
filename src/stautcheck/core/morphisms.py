"""Morphism carrier shared by all backends.

A Mor is an exact, immutable arrow between two interned object handles.  The
payload is backend-specific: ``None`` for thin (posetal) models, where at most
one arrow exists between two objects, and a rational matrix of shape
dim(cod) x dim(dom) for the linear models.  Composition is only defined when
cod and dom match; violations raise instead of silently coercing.
"""

from dataclasses import dataclass

from .objects import ObjRef


class MorError(Exception):
    """Illegal morphism construction or use."""


class CompositionError(MorError):
    """cod of the first arrow differs from dom of the second."""


class ShapeError(MorError):
    """An operation was applied to a morphism of the wrong shape."""


@dataclass(frozen=True)
class Mor:
    dom: ObjRef
    cod: ObjRef
    payload: object = None
    payload_is_id: bool = False

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
