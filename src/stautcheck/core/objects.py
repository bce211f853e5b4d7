"""Object handles for finite star-autonomous models.

Objects are hash-consed descriptor terms over a model's declared generators,
closed under tensor, par, the two units and the two duals.  Structurally
equal descriptors are interned to the same handle, so ``is`` comparison is
object equality, and a handle keys a dict as itself: it hashes by identity.
A handle is a slotted object built complete in one step, with its depth and
its value; its printed key is built on its first ``str``, since most handles
are never printed.  The interner holds nothing of its model: the model hands
its value hook to each ``intern`` call, so a dropped model and its handles
are freed by reference counting alone.
"""


class UniverseError(Exception):
    """A descriptor falls outside the model's generated universe."""


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
    ``gen``, ``depth`` its nesting depth (0 for a generator or a unit) and
    ``value`` its value in the model.  Equality and hashing are by identity;
    the interner guarantees structural equality implies identity within one
    model.
    """

    __slots__ = ("kind", "args", "depth", "value", "_key")

    def __init__(self, kind, args, depth, value):
        self.kind, self.args, self.depth, self.value = kind, args, depth, value
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
    """Hash-consing table for one model's descriptors, keyed by
    ``(kind, *args)``.  It evaluates each new handle once, after its depth
    check, from ``generators`` or with the ``evaluate`` its caller passes on
    its children's values; a refused descriptor stores nothing.  Every handle
    of a run passes through ``intern``, so it fills its own dict: one key,
    one ``get``.  ``evaluate`` comes with each call and is never stored."""

    def __init__(self, depth_limit, generators):
        self.depth_limit, self.generators = depth_limit, generators
        self.table = {}

    def intern(self, kind, args, evaluate):
        key = (kind, *args)
        ref = self.table.get(key)
        if ref is None:
            if kind == GEN:
                ref = ObjRef(kind, args, 0, self.generators[args[0]])
            else:
                depth = 0
                for a in args:
                    if a.depth >= depth:
                        depth = a.depth + 1
                if depth > self.depth_limit:
                    raise UniverseError(
                        f"descriptor depth {depth} exceeds the universe depth limit "
                        f"{self.depth_limit}; rebuild the model with a larger depth "
                        f"(CLI flag --depth)")
                ref = ObjRef(kind, args, depth, evaluate(kind, *[a.value for a in args]))
            self.table[key] = ref
        return ref
