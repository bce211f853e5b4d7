"""Finite quantales: complete-lattice (or at least residuated) ordered monoids
with a dualizing element.  These are the thin star-autonomous models.

Built-in families:

* ``build_rel_quantale(n)`` -- all binary relations on an n-element set under
  relation composition, dualizer "inequality".
* ``build_two_profunctor_quantale(poset)`` -- two-valued profunctors on a
  finite poset, dualizer "not greater or equal".
* ``build_pointed_group(...)`` -- a finite group with a compatible partial
  order and an arbitrary chosen dualizing element.
* ``build_bool2`` / ``build_luk3`` -- the two- and three-element chains.

Relations are encoded as n*n-bit masks, bit i*n+j for the pair (i, j), and are
listed in increasing mask order so reports and counterexamples are stable.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
import random

from .core.quantify import scan

# ``Quantale.validate`` exhausts the triples of elements while there are at
# most _TRIPLE_CAP of them and the pairs for the residual scan (a full
# element sweep each) while there are at most _PAIR_CAP; past that it draws
# that many with replacement.
_TRIPLE_CAP = 4096
_PAIR_CAP = 256


class QuantaleError(Exception):
    """Invalid quantale data or an operation without a defined result."""


@dataclass
class Quantale:
    label: str
    elements: list
    le_fn: object
    tensor_fn: object
    unit: object
    dualizer: object
    join2: object = None
    name_fn: object = field(default=None)
    family: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._under = {}
        self._over = {}
        if self.unit not in self._index or self.dualizer not in self._index:
            raise QuantaleError("unit and dualizer must be elements")

    # ------------------------------------------------------------- basic ops

    def __len__(self):
        return len(self.elements)

    def name(self, x):
        return self.name_fn(x) if self.name_fn else str(x)

    def le(self, a, b):
        return self.le_fn(a, b)

    def tensor(self, a, b):
        return self.tensor_fn(a, b)

    def greatest(self, xs):
        """Greatest element of xs, or None if xs has no maximum."""
        if not xs:
            return None
        if self.join2 is not None:
            m = xs[0]
            for x in xs[1:]:
                m = self.join2(m, x)
            return m if m in self._index and all(self.le(x, m) for x in xs) else None
        for c in xs:
            if all(self.le(x, c) for x in xs):
                return c
        return None

    def join(self, xs):
        xs = list(xs)
        ubs = [c for c in self.elements if all(self.le(x, c) for x in xs)]
        lub = next((c for c in ubs if all(self.le(c, u) for u in ubs)), None)
        if lub is None:
            raise QuantaleError(f"join does not exist for {[self.name(x) for x in xs]}")
        return lub

    def meet(self, xs):
        xs = list(xs)
        lbs = [c for c in self.elements if all(self.le(c, x) for x in xs)]
        glb = next((c for c in lbs if all(self.le(u, c) for u in lbs)), None)
        if glb is None:
            raise QuantaleError(f"meet does not exist for {[self.name(x) for x in xs]}")
        return glb

    # ------------------------------------------------------------- residuals

    def under(self, a, b):
        """Largest x with a * x <= b (brute force over all elements)."""
        key = (a, b)
        hit = self._under.get(key)
        if hit is None:
            le, tensor = self.le_fn, self.tensor_fn
            hit = self.greatest([x for x in self.elements if le(tensor(a, x), b)])
            if hit is None:
                raise QuantaleError(
                    f"residual {self.name(a)} \\ {self.name(b)} does not exist")
            self._under[key] = hit
        return hit

    def over(self, b, a):
        """Largest x with x * a <= b."""
        key = (b, a)
        hit = self._over.get(key)
        if hit is None:
            le, tensor = self.le_fn, self.tensor_fn
            hit = self.greatest([x for x in self.elements if le(tensor(x, a), b)])
            if hit is None:
                raise QuantaleError(
                    f"residual {self.name(b)} / {self.name(a)} does not exist")
            self._over[key] = hit
        return hit

    def perp(self, a):
        return self.under(a, self.dualizer)

    def prep(self, a):
        return self.over(self.dualizer, a)

    def par(self, a, b):
        """De Morgan dual of the tensor: a par b = perp(prep(b) * prep(a))."""
        return self.perp(self.tensor(self.prep(b), self.prep(a)))

    def is_cyclic(self):
        """True iff both duals agree on every element; else a counterexample."""
        for a in self.elements:
            if self.perp(a) != self.prep(a):
                return False, a
        return True, None

    # ------------------------------------------------------------ validation

    def validate(self, seed=0):
        """Brute-force the quantale axioms, one CheckResult each.

        Triples are exhausted when there are at most _TRIPLE_CAP of them, and
        the pairs of the residual-existence scan when there are at most
        _PAIR_CAP; otherwise that many are drawn with replacement from
        ``random.Random(seed)``, and the check's name ends in "(sampled)".
        """
        rng = random.Random(seed)
        els = self.elements
        n = len(els)
        le, tensor, unit = self.le, self.tensor, self.unit

        def tuples(k, budget):
            if n ** k <= budget:
                return list(product(els, repeat=k)), True
            return [tuple(rng.choice(els) for _ in range(k)) for _ in range(budget)], False

        def names(*xs):
            return str(tuple(map(self.name, xs)))

        def unit_law(a):
            return (tensor(unit, a) != a or tensor(a, unit) != a) and self.name(a)

        def associative(a, b, c):
            return tensor(tensor(a, b), c) != tensor(a, tensor(b, c)) and names(a, b, c)

        def monotone(a, b, c):
            return (le(a, b) and (not le(tensor(c, a), tensor(c, b))
                                  or not le(tensor(a, c), tensor(b, c)))
                    and names(a, b, c))

        def residuals(a, b):
            try:
                u, o = self.under(a, b), self.over(b, a)
            except QuantaleError:
                return names(a, b)
            return (not le(tensor(a, u), b) or not le(tensor(o, a), b)) and names(a, b)

        def dualizing(a):
            try:
                return (self.perp(self.prep(a)) != a or self.prep(self.perp(a)) != a) and self.name(a)
            except QuantaleError as exc:
                return str(exc)

        def sampled(name, exhaustive):
            return name + ("" if exhaustive else "(sampled)")

        singles = [(a,) for a in els]   # wrapped, as an element may be a tuple
        triples, exh3 = tuples(3, _TRIPLE_CAP)
        pairs, exh2 = tuples(2, _PAIR_CAP)
        return [scan("unit-law", singles, unit_law),
                scan(sampled("associativity", exh3), triples, associative, exh3),
                scan(sampled("monotonicity", exh3), triples, monotone, exh3),
                scan(sampled("residuals-exist", exh2), pairs, residuals, exh2),
                scan("dualizing-element", singles, dualizing)]


# --------------------------------------------------------------- relations

class _LazyTable(dict):
    """A dict that fills a missing key with ``make(key)`` on first lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _make_rel_composer(n):
    """The composition kernel ``compose(a, b)`` for relations on n points.

    It is driven by two tables, each filled one mask at a time on first use
    (never at import), so each holds at most 2**(n*n) entries:

    * ``rows[m]`` -- the n row masks of relation m;
    * ``spread[b]`` -- for each subset S of row indices (as an n-bit mask),
      the OR of b's rows j over j in S.

    Row i of ``a ; b`` is then ``spread[b][rows[a][i]]``.
    """
    width = 1 << n
    full = width - 1

    def spread_of(b):
        # OR of b's rows over each subset s of row indices, by peeling off
        # the lowest index of s
        brows = rows[b]
        joined = [0] * width
        for s in range(1, width):
            low = s & -s
            joined[s] = joined[s ^ low] | brows[low.bit_length() - 1]
        return tuple(joined)

    rows = _LazyTable(lambda m: tuple((m >> (i * n)) & full for i in range(n)))
    spread = _LazyTable(spread_of)

    def compose(a, b):
        # row i of a;b is the OR of b's rows picked out by row i of a
        joined = spread[b]
        out = shift = 0
        for r in rows[a]:
            out |= joined[r] << shift
            shift += n
        return out

    return compose


_REL_COMPOSERS = _LazyTable(_make_rel_composer)


def rel_compose(a, b, n):
    """Relation composition on n*n-bit masks: (i,k) iff exists j: aij and bjk."""
    return _REL_COMPOSERS[n](a, b)


def rel_reverse(mask, n):
    out = 0
    for i in range(n):
        for j in range(n):
            if mask & (1 << (i * n + j)):
                out |= 1 << (j * n + i)
    return out


def duality_counterexample(q):
    """The first element of a relation or two-valued profunctor quantale
    whose right or left dual is not the complement of its reverse, else None."""
    n = q.meta["n"]
    full = (1 << (n * n)) - 1
    return next((w for w in q.elements
                 if not (q.perp(w) == (full & ~rel_reverse(w, n)) == q.prep(w))), None)


def rel_diag(n):
    out = 0
    for i in range(n):
        out |= 1 << (i * n + i)
    return out


def rel_name(mask, n):
    pairs = [f"{i}{j}" for i in range(n) for j in range(n) if mask & (1 << (i * n + j))]
    return "{" + ",".join(pairs) + "}"


def build_rel_quantale(n):
    """All binary relations on an n-element set; tensor is composition,
    the dualizer is the complement of equality."""
    if not 1 <= n <= 4:
        raise QuantaleError(f"relation quantale size must be 1..4, got {n}")
    full = (1 << (n * n)) - 1
    elements = list(range(full + 1))
    return Quantale(
        label=f"rel:{n}",
        elements=elements,
        le_fn=lambda a, b: (a & ~b) == 0,
        tensor_fn=_REL_COMPOSERS[n],
        unit=rel_diag(n),
        dualizer=full & ~rel_diag(n),
        join2=lambda a, b: a | b,
        name_fn=lambda m: rel_name(m, n),
        family="rel",
        meta={"n": n, "full": full},
    )


# ----------------------------------------------------- two-valued profunctors

def all_posets(n):
    """All partial orders on {0..n-1} as relation masks (reflexive,
    antisymmetric, transitive); brute force, so n <= 3."""
    if n > 3:
        raise QuantaleError("poset enumeration is brute force; n must be <= 3")
    diag = rel_diag(n)
    out = []
    for m in range(1 << (n * n)):
        if m & diag != diag:
            continue
        if m & rel_reverse(m, n) != diag:
            continue
        if rel_compose(m, m, n) & ~m:
            continue
        out.append(m)
    return out


def build_two_profunctor_quantale(poset_mask, n, label=None):
    """Two-valued profunctors on the given poset: relations w with
    (<=);w;(<=) contained in w.  Tensor is profunctor (relation) composition,
    the unit is the order itself, the dualizer the complement of the reverse
    order."""
    if n > 3:
        raise QuantaleError("two-valued profunctor quantale needs |poset| <= 3")
    full = (1 << (n * n)) - 1
    leq = poset_mask
    elements = [w for w in range(full + 1)
                if rel_compose(rel_compose(leq, w, n), leq, n) & ~w == 0]
    if leq not in elements:
        raise QuantaleError("poset order is not among its own profunctors")
    return Quantale(
        label=label or f"2prof:{rel_name(poset_mask, n)}",
        elements=elements,
        le_fn=lambda a, b: (a & ~b) == 0,
        tensor_fn=_REL_COMPOSERS[n],
        unit=leq,
        dualizer=full & ~rel_reverse(leq, n),
        join2=lambda a, b: a | b,
        name_fn=lambda m: rel_name(m, n),
        family="two_prof",
        meta={"n": n, "poset": poset_mask},
    )


# ------------------------------------------------------------ pointed groups

def build_pointed_group(elements, op, dualizer, le=None, label="group", names=None):
    """A finite group with a compatible order (default discrete), pointed at an
    arbitrary dualizing element.  Residuals exist because the monoid is a
    group; the order must be compatible with multiplication."""
    le = le or (lambda a, b: a == b)
    for a in elements:
        for b in elements:
            if le(a, b):
                for c in elements:
                    if not le(op(c, a), op(c, b)) or not le(op(a, c), op(b, c)):
                        raise QuantaleError(
                            "order is not compatible with the group operation")
    unit = next(x for x in elements if all(op(x, y) == y == op(y, x) for y in elements))
    return Quantale(
        label=label,
        elements=list(elements),
        le_fn=le,
        tensor_fn=op,
        unit=unit,
        dualizer=dualizer,
        name_fn=(lambda x: names[x]) if names else None,
        family="pointed_group",
    )


def s3_elements():
    """The six permutations of {0,1,2} with stable display names."""
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = {(0, 1, 2): "e", (1, 0, 2): "(01)", (2, 1, 0): "(02)",
             (0, 2, 1): "(12)", (1, 2, 0): "(012)", (2, 0, 1): "(021)"}
    return perms, names


def s3_compose(a, b):
    return tuple(a[b[i]] for i in range(3))


S3_ALIASES = {"t": "(01)", "c": "(012)"}


def build_s3_pointed(dualizer_name="e"):
    perms, names = s3_elements()
    dualizer_name = S3_ALIASES.get(dualizer_name, dualizer_name)
    by_name = {v: k for k, v in names.items()}
    if dualizer_name not in by_name:
        raise QuantaleError(f"unknown S3 element {dualizer_name!r}; options "
                            f"{sorted(by_name)} or aliases {sorted(S3_ALIASES)}")
    return build_pointed_group(perms, s3_compose, by_name[dualizer_name],
                               label=f"s3:{dualizer_name}", names=names)


def build_zmod(n, dualizer=0):
    els = list(range(n))
    return build_pointed_group(els, lambda a, b: (a + b) % n, dualizer % n,
                               label=f"zmod:{n}", names={i: str(i) for i in els})


def is_central(q, x):
    return all(q.tensor(x, y) == q.tensor(y, x) for y in q.elements)


# ------------------------------------------------------------------- chains

def build_bool2():
    """The two-element chain 0 < 1 with meet as tensor; dualizer 0."""
    return Quantale(
        label="bool2",
        elements=[0, 1],
        le_fn=lambda a, b: a <= b,
        tensor_fn=lambda a, b: min(a, b),
        unit=1,
        dualizer=0,
        join2=max,
        family="chain",
    )


def build_luk3():
    """Three-element chain 0 < 1/2 < 1 with truncated addition, dualizer 0.

    Commutative, hence cyclic; a minimal >=3-element cyclic base for
    enriched-profunctor runs.
    """
    half = Fraction(1, 2)
    els = [Fraction(0), half, Fraction(1)]
    return Quantale(
        label="luk3",
        elements=els,
        le_fn=lambda a, b: a <= b,
        tensor_fn=lambda a, b: max(Fraction(0), a + b - 1),
        unit=Fraction(1),
        dualizer=Fraction(0),
        join2=max,
        family="chain",
    )


BUILTIN_HELP = (
    "rel:N (relations on N points, N=1..4), 2prof:chainN / 2prof:discN (N<=3), "
    "2prof:vee, s3:ELT (ELT in e,(01),(02),(12),(012),(021)), zmod:N, "
    "zmod:N@D (dualizer D), bool2, luk3"
)


def builtin_quantale(spec):
    """Resolve a CLI shorthand like ``rel:3`` or ``s3:(01)`` to a quantale."""
    if spec == "bool2":
        return build_bool2()
    if spec == "luk3":
        return build_luk3()
    if spec.startswith("rel:"):
        return build_rel_quantale(int(spec[4:]))
    if spec.startswith("2prof:"):
        kind = spec[6:]
        if kind.startswith("chain"):
            n = int(kind[5:])
            mask = rel_diag(n)
            for i in range(n):
                for j in range(i, n):
                    mask |= 1 << (i * n + j)
            return build_two_profunctor_quantale(mask, n, label=spec)
        if kind.startswith("disc"):
            n = int(kind[4:])
            return build_two_profunctor_quantale(rel_diag(n), n, label=spec)
        if kind == "vee":
            n = 3
            mask = rel_diag(n) | (1 << (0 * n + 1)) | (1 << (0 * n + 2))
            return build_two_profunctor_quantale(mask, n, label=spec)
        raise QuantaleError(f"unknown 2prof shape {kind!r}")
    if spec.startswith("s3:"):
        return build_s3_pointed(spec[3:])
    if spec.startswith("zmod:"):
        body = spec[5:]
        if "@" in body:
            n, d = body.split("@", 1)
            return build_zmod(int(n), int(d))
        return build_zmod(int(body))
    raise QuantaleError(f"unknown builtin quantale {spec!r}; available: {BUILTIN_HELP}")
