"""Object handles for finite star-autonomous models.

Objects are hash-consed descriptor terms over a model's declared generators,
closed under tensor, par, the two units and the two duals.  Structurally
equal descriptors are interned to the same handle, so ``is`` comparison is
object equality, and a handle keys a dict as itself: it hashes by identity.
Nothing bounds how deeply the constructors nest.  A handle is a slotted
object built complete in one step, with its value; its printed key is built
on its first ``str``, since most handles are never printed.  What the
interner stores per handle it stores once: each kind has its own table,
keyed by the handle's own ``args`` tuple, and equal values share one value
object.  The interner holds nothing of its model: the model hands its value
hook to each ``intern`` call, so a dropped model and its handles are freed by
reference counting alone.
"""


class UniverseError(Exception):
    """A descriptor names a generator the model does not declare."""


TENS = "tens"
PAR = "par"
UNIT_T = "unit_t"   # the tensor unit
UNIT_P = "unit_p"   # the par unit (dualizing object)
RDUAL = "rdual"     # right dual, written with a leading bottom in reports
LDUAL = "ldual"     # left dual
GEN = "gen"

# each kind's printed key, filled with the keys of its children (a
# generator's with its name)
_KEYS = {GEN: "{}", UNIT_T: "e", UNIT_P: "d", RDUAL: "⊥{}", LDUAL: "ᵖ{}",
         TENS: "({}⊗{})", PAR: "({}⅋{})"}


class ObjRef:
    """Interned handle for an object descriptor.

    ``args`` holds child ObjRefs for composite kinds and a generator name for
    ``gen``, and ``value`` its value in the model.  Equality and hashing are
    by identity; the interner guarantees structural equality implies identity
    within one model.
    """

    __slots__ = ("kind", "args", "value", "_key")

    def __init__(self, kind, args, value):
        self.kind, self.args, self.value = kind, args, value
        self._key = None

    def __str__(self):
        if self._key is None:
            todo = [self]
            while todo:   # the unprinted sub-objects, innermost first: no key recurses
                kids = [a for a in todo[-1].args if type(a) is ObjRef and a._key is None]
                if kids:
                    todo.extend(kids)
                else:
                    ref = todo.pop()
                    ref._key = _KEYS[ref.kind].format(*ref.args)
        return self._key

    def __repr__(self):
        return f"ObjRef({self})"


class Interner:
    """Hash-consing tables for one model's descriptors, one per kind, each
    keyed by the ``args`` tuple of the handle it holds, so a key costs no
    second tuple.  It evaluates each new handle once, from ``generators`` or
    with the ``evaluate`` its caller passes on its children's values, and
    stores the first value object equal to the result (``values``), so equal
    values share one object.  Every handle of a run passes through
    ``intern``, so it fills its tables inline: one key, one ``get``.
    ``evaluate`` comes with each call and is never stored."""

    def __init__(self, generators):
        self.generators = generators
        self.tables = {kind: {} for kind in _KEYS}
        self.values = {}

    def intern(self, kind, args, evaluate):
        table = self.tables[kind]
        ref = table.get(args)
        if ref is None:
            if kind == GEN:
                value = self.generators[args[0]]
            else:
                value = evaluate(kind, *[a.value for a in args])
            ref = table[args] = ObjRef(kind, args, self.values.setdefault(value, value))
        return ref
