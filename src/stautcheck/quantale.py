"""Finite quantales: complete-lattice (or at least residuated) ordered monoids
with a dualizing element.  These are the thin star-autonomous models.

Elements are indices.  A ``Quantale`` is built from its user-facing values
(relation masks, fractions, permutations, names read from a file, tuples of
base elements for a profunctor quantale) with an order ``le_fn`` and a
tensor ``tensor_fn`` on those values.  It holds its elements as the indices
``0..n-1``, in the order of the values, so a seeded draw over ``elements``
picks the same items a draw over the values would.  The values serve only
``name``, parsing and ``index(value)``; every operation takes and returns
indices.  One kernel serves every family:

* the order: every element has an order code, an int with x <= y iff
  code(x) is a subset of code(y).  The relation families (``rel:n`` and
  ``2prof:*``) use their masks, ordered by inclusion; every other family
  uses the complement of the element's up-set, built once from ``le_fn``.
  Either way the code of a join is the OR of the codes (up(x v y) is
  up(x) & up(y)), so ``le`` is a subset test and ``join`` an OR and one
  lookup of the element with that code.  ``meet`` and the residuals are one
  sweep (below).
* the tensor: a Cayley table on indices, one flat array filled from
  ``tensor_fn`` on first use of each cell, for every carrier whose indices
  fit one- or two-byte cells (fewer than 2**15 elements: a 512-element
  carrier such as ``rel:3`` takes 512 KiB).  Past that each product is
  computed from ``tensor_fn``, and no structure of size |Q|^2 is built
  (``rel:4`` has 65,536 elements).  For ``rel:n`` the index of a relation
  is its mask.

Residuals, memoized per pair, and ``meet`` sweep a list J: the greatest x
with a * x <= b is x* = join{ j in J : a * j <= b } when a * x* <= b, and
there is none otherwise.  When J is every element this needs nothing more.
For the relation families J is the least element holding each mask bit;
each y is then the join of the j below it, and a * - is monotone (relation
composition), so every y with a * y <= b lies below x*.  Should some bit
have no least element, J is every element.  A sweep reads the order codes
of a * j (or j * a) over J from a row stored per element on first use, so
all residuals of a share one row of products; rows are stored only beside
a Cayley table (at most 2 * n * |J| codes) and computed afresh past it
(``rel:4``).

``validate`` checks the axioms on what the kernel computes, over every
triple and pair of elements up to the coverage table's "quantale-elements"
(53) and over a seeded ``draw`` past that.  Associativity and monotonicity
visit only the triples whose first pair the table's rows flag, since no
other can fail, and report the count and witness of the plain scan of all
n^3.

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

from array import array
from fractions import Fraction
from itertools import product

from .core.memo import LazyTable
from .core.quantify import COVERAGE, draw, scan


class QuantaleError(Exception):
    """Invalid quantale data or an operation without a defined result."""


class Quantale:
    """A finite quantale on the indices of ``values`` (see the module
    docstring).  ``unit`` and ``dualizer`` are given as values and held as
    indices.  ``masks`` says that the values are relation masks, ordered by
    inclusion, so that each is its own order code, under a tensor that is
    monotone by definition, as relation composition is; the residuals then
    sweep only the join-irreducibles."""

    def __init__(self, label, values, le_fn, tensor_fn, unit, dualizer,
                 name_fn=None, family="custom", meta=None, masks=False):
        self.label, self.values, self.le_fn, self.tensor_fn = label, values, le_fn, tensor_fn
        self.name_fn, self.family, self.meta = name_fn, family, meta or {}
        n = self._n = len(values)
        self.elements = range(n)
        # value -> index; a range of masks is its own index
        self._index = values if values == self.elements else {x: i for i, x in enumerate(values)}
        if len(self._index) != n:
            raise QuantaleError("duplicate elements")
        if unit not in self._index or dualizer not in self._index:
            raise QuantaleError("unit and dualizer must be elements")
        self.unit = self._index[unit]
        self.dualizer = self._index[dualizer]
        self._under = LazyTable(self._under_at)
        self._over = LazyTable(self._over_at)
        if masks:
            self._codes, self._by_code = values, self._index
        else:
            # bit j of code(x) says that x is not below element j
            self._codes = [sum(1 << j for j, y in enumerate(values) if not le_fn(x, y))
                           for x in values]
            self._by_code = {c: i for i, c in enumerate(self._codes)}
            if len(self._by_code) != n:
                raise QuantaleError("the order is not antisymmetric")
        self._sweep = self._join_irreducibles() if masks else self.elements
        self._sweep_codes = [self._codes[x] for x in self._sweep]
        self._table = (array("b" if n < 1 << 7 else "h", [-1]) * (n * n)
                       if n < 1 << 15 else None)
        # the sweep's rows, stored only beside a table: 2 * n * len(sweep)
        # codes at most, where rel:4's would outweigh its residual memos
        self._rows = LazyTable(self._row_at) if self._table is not None else None

    # ------------------------------------------------------------- basic ops

    def __len__(self):
        return self._n

    def index(self, value):
        """The element whose user-facing value is ``value``; a value that
        ``tensor_fn`` computed and that is not one means the tensor leaves
        the carrier."""
        if value not in self._index:
            raise QuantaleError(f"{value!r} is not an element of {self.label}")
        return self._index[value]

    def name(self, x):
        value = self.values[x]
        return self.name_fn(value) if self.name_fn else str(value)

    def le(self, a, b):
        codes = self._codes
        return not codes[a] & ~codes[b]

    def _product(self, a, b):
        vals = self.values
        return self.index(self.tensor_fn(vals[a], vals[b]))

    def tensor(self, a, b):
        table = self._table
        if table is None:
            return self._product(a, b)
        cell = a * self._n + b
        c = table[cell]
        if c < 0:
            c = table[cell] = self._product(a, b)
        return c

    def join(self, xs):
        codes, by_code, m = self._codes, self._by_code, 0
        for x in xs:
            m |= codes[x]
        if m not in by_code:
            raise QuantaleError(f"join does not exist for {[self.name(x) for x in xs]}")
        return by_code[m]

    def meet(self, xs):
        bound, codes = -1, self._codes
        for x in xs:
            bound &= codes[x]
        glb = self._greatest_below(self._sweep_codes, bound, lambda x: x)
        if glb is None:
            raise QuantaleError(f"meet does not exist for {[self.name(x) for x in xs]}")
        return glb

    # ------------------------------------------------------------- residuals

    def _join_irreducibles(self):
        """The least element holding each mask bit (the meet of the codes
        that hold it), in index order, when every one of these meets is an
        element, so that each element is the join of those below it; else
        every element."""
        codes, by_code, least = self._codes, self._by_code, set()
        for k in range(max(codes).bit_length()):
            bit, meet = 1 << k, -1
            for c in codes:
                if c & bit:
                    meet &= c
                    if meet == bit:  # no code holds less
                        break
            if meet not in by_code:
                return self.elements
            least.add(by_code[meet])
        return sorted(least)

    def _row_at(self, key):
        """The order codes of a * x (``left``) or of x * a over the sweep."""
        a, left = key
        codes, tensor = self._codes, self.tensor
        if left:
            return [codes[tensor(a, x)] for x in self._sweep]
        return [codes[tensor(x, a)] for x in self._sweep]

    def _row(self, a, left):
        rows = self._rows
        return rows[a, left] if rows is not None else self._row_at((a, left))

    def _greatest_below(self, images, bound, image):
        """The greatest x whose image(x) has its code inside ``bound``, or
        None if there is none: the join x* of the swept x whose image, with
        its code read from ``images``, lies inside, when image(x*) does too.
        The sweep is every element, or, for a monotone ``image``, the
        join-irreducibles (see the module docstring)."""
        codes, by_code, outside = self._codes, self._by_code, ~bound
        m = 0
        for x_code, image_code in zip(self._sweep_codes, images):
            if not image_code & outside:
                m |= x_code
        c = by_code[m] if m in by_code else None
        return c if c is not None and not codes[image(c)] & outside else None

    def under(self, a, b):
        """Largest x with a * x <= b."""
        return self._under[a, b]

    def over(self, b, a):
        """Largest x with x * a <= b."""
        return self._over[b, a]

    def _under_at(self, key):
        a, b = key
        hit = self._greatest_below(self._row(a, True), self._codes[b], lambda x: self.tensor(a, x))
        if hit is None:
            raise QuantaleError(f"residual {self.name(a)} \\ {self.name(b)} does not exist")
        return hit

    def _over_at(self, key):
        b, a = key
        hit = self._greatest_below(self._row(a, False), self._codes[b], lambda x: self.tensor(x, a))
        if hit is None:
            raise QuantaleError(f"residual {self.name(b)} / {self.name(a)} does not exist")
        return hit

    def perp(self, a):
        return self.under(a, self.dualizer)

    def prep(self, a):
        return self.over(self.dualizer, a)

    def par(self, a, b):
        """De Morgan dual of the tensor: a par b = perp(prep(b) * prep(a))."""
        return self.perp(self.tensor(self.prep(b), self.prep(a)))

    def is_cyclic(self):
        """The check that both duals agree on every element; its witness is
        the name of the first element where they differ."""
        return scan("cyclic", self.elements,
                    lambda a: self.perp(a) != self.prep(a) and self.name(a))

    # ------------------------------------------------------------ validation

    def _suspect_pairs(self):
        """The pairs (a, b), as a*n + b, that begin a triple failing
        associativity, and those that begin one failing monotonicity, read
        from the Cayley table's rows: row a*b against row a gathered over
        row b, and, for a <= b, the order codes of a's row and column,
        packed into one int of fixed-width fields, against b's."""
        els, codes, tensor, n = self.elements, self._codes, self.tensor, self._n
        rows = [[tensor(a, b) for b in els] for a in els]
        assoc = {a * n + b for a in els for b in els
                 if rows[rows[a][b]] != list(map(rows[a].__getitem__, rows[b]))}
        width = max(codes).bit_length()
        packed = [sum(codes[x] << (i * width) for i, x in enumerate(row + [r[a] for r in rows]))
                  for a, row in enumerate(rows)]
        mono = {a * n + b for a in els for b in els if self.le(a, b) and packed[a] & ~packed[b]}
        return assoc, mono

    def validate(self, seed=0):
        """Brute-force the quantale axioms on the kernel, one CheckResult each.

        Up to "quantale-elements" elements every triple and every pair of
        the residual-existence scan is covered; past that ``draw`` picks
        "quantale-triples" distinct triples and "quantale-pairs" distinct
        pairs from ``seed``, and the checks report ``exhaustive: false``.
        Exhaustive associativity and monotonicity visit only the triples
        that begin with a pair ``_suspect_pairs`` flags, in product order,
        since no other triple can fail; each reports the plain n^3 scan's
        count (n^3 on a pass, the failing triple's position in
        ``product(elements, repeat=3)``) and witness.
        """
        els, n = self.elements, self._n
        le, tensor, unit = self.le, self.tensor, self.unit
        if n <= COVERAGE["quantale-elements"]:
            # (position, triple) of each triple that begins with a flagged pair
            assoc, mono = (((p * n + c + 1, (*divmod(p, n), c)) for p in sorted(flagged)
                            for c in els) for flagged in self._suspect_pairs())
            pairs, size = product(els, repeat=2), n ** 3
            exhaustive = all_pairs = True
        else:
            triples, exhaustive = draw(None, els, 3, COVERAGE["quantale-triples"], seed=seed)
            pairs, all_pairs = draw(None, els, 2, COVERAGE["quantale-pairs"], seed=seed)
            assoc = mono = list(enumerate(triples, 1))
            size = len(triples)

        def names(*xs):
            return str(tuple(map(self.name, xs)))

        def unit_law(a):
            return (tensor(unit, a) != a or tensor(a, unit) != a) and self.name(a)

        def associative(a, b, c):
            return tensor(tensor(a, b), c) != tensor(a, tensor(b, c)) and names(a, b, c)

        def monotone(a, b, c):
            return (le(a, b)
                    and (not le(tensor(c, a), tensor(c, b)) or not le(tensor(a, c), tensor(b, c)))
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

        return [scan("unit-law", els, unit_law),
                scan("associativity", assoc, associative, exhaustive, size),
                scan("monotonicity", mono, monotone, exhaustive, size),
                scan("residuals-exist", pairs, residuals, all_pairs),
                scan("dualizing-element", els, dualizing)]


# --------------------------------------------------------------- relations

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

    rows = LazyTable(lambda m: tuple((m >> (i * n)) & full for i in range(n)))
    spread = LazyTable(spread_of)

    def compose(a, b):
        # row i of a;b is the OR of b's rows picked out by row i of a
        joined = spread[b]
        out = shift = 0
        for r in rows[a]:
            out |= joined[r] << shift
            shift += n
        return out

    return compose


_REL_COMPOSERS = LazyTable(_make_rel_composer)


def rel_compose(a, b, n):
    """Relation composition on n*n-bit masks: (i,k) iff exists j: aij and bjk."""
    return _REL_COMPOSERS[n](a, b)


def rel_reverse(mask, n):
    return sum(1 << (j * n + i) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1)


def check_duality(name, quantales):
    """The check that on every element of every given relation or
    two-valued profunctor quantale both duals are the complement of the
    element's reverse, in one sweep; the witness names the quantale."""
    def body(q, w):
        n, vals = q.meta["n"], q.values
        want = ((1 << (n * n)) - 1) & ~rel_reverse(vals[w], n)
        return not vals[q.perp(w)] == want == vals[q.prep(w)] and f"{q.label}: {q.name(w)}"

    return scan(name, ((q, w) for q in quantales for w in q.elements), body)


def rel_diag(n):
    return sum(1 << (i * n + i) for i in range(n))


def rel_name(mask, n):
    pairs = [f"{i}{j}" for i in range(n) for j in range(n) if mask & (1 << (i * n + j))]
    return "{" + ",".join(pairs) + "}"


def build_rel_quantale(n):
    """All binary relations on an n-element set; tensor is composition,
    the dualizer is the complement of equality."""
    if not 1 <= n <= 4:
        raise QuantaleError(f"relation quantale size must be 1..4, got {n}")
    full = (1 << (n * n)) - 1
    return Quantale(
        label=f"rel:{n}",
        values=range(full + 1),
        le_fn=lambda a, b: (a & ~b) == 0,
        tensor_fn=_REL_COMPOSERS[n],
        unit=rel_diag(n),
        dualizer=full & ~rel_diag(n),
        name_fn=lambda m: rel_name(m, n),
        family="rel",
        meta={"n": n, "full": full},
        masks=True,
    )


# ----------------------------------------------------- two-valued profunctors

def all_posets(n):
    """All partial orders on {0..n-1} as relation masks (reflexive,
    antisymmetric, transitive); brute force, so n <= 3."""
    if n > 3:
        raise QuantaleError("poset enumeration is brute force; n must be <= 3")
    diag = rel_diag(n)
    return [m for m in range(1 << (n * n)) if m & diag == diag
            and m & rel_reverse(m, n) == diag and not rel_compose(m, m, n) & ~m]


def build_two_profunctor_quantale(poset_mask, n, label=None):
    """Two-valued profunctors on the given poset: relations w with
    (<=);w;(<=) contained in w.  Tensor is profunctor (relation) composition,
    the unit is the order itself, the dualizer the complement of the reverse
    order."""
    if not 0 <= n <= 3:
        raise QuantaleError(f"two-valued profunctor quantale needs |poset| 0..3, got {n}")
    full = (1 << (n * n)) - 1
    leq = poset_mask
    values = [w for w in range(full + 1)
              if rel_compose(rel_compose(leq, w, n), leq, n) & ~w == 0]
    if leq not in values:
        raise QuantaleError("poset order is not among its own profunctors")
    return Quantale(
        label=label or f"2prof:{rel_name(poset_mask, n)}",
        values=values,
        le_fn=lambda a, b: (a & ~b) == 0,
        tensor_fn=_REL_COMPOSERS[n],
        unit=leq,
        dualizer=full & ~rel_reverse(leq, n),
        name_fn=lambda m: rel_name(m, n),
        family="two_prof",
        meta={"n": n, "poset": poset_mask},
        masks=True,
    )


# ------------------------------------------------------------ pointed groups

def build_pointed_group(elements, op, dualizer, le=None, label="group", names=None):
    """A finite group with a compatible order (default discrete), pointed at an
    arbitrary dualizing element.  Residuals exist because the monoid is a
    group; the order must be compatible with multiplication."""
    # the discrete order is compatible with any operation: a = b gives ca = cb
    if le is not None and any(le(a, b) and not (le(op(c, a), op(c, b)) and le(op(a, c), op(b, c)))
                              for a, b, c in product(elements, repeat=3)):
        raise QuantaleError("order is not compatible with the group operation")
    le = le or (lambda a, b: a == b)
    unit = next(x for x in elements if all(op(x, y) == y == op(y, x) for y in elements))
    return Quantale(
        label=label,
        values=list(elements),
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
    if n < 1:
        raise QuantaleError(f"zmod needs N >= 1, got {n}")
    els = list(range(n))
    return build_pointed_group(els, lambda a, b: (a + b) % n, dualizer % n,
                               label=f"zmod:{n}", names={i: str(i) for i in els})


def is_central(q, x):
    """Whether the element x commutes with every element."""
    return all(q.tensor(x, y) == q.tensor(y, x) for y in q.elements)


# ------------------------------------------------------------------- chains

def build_bool2():
    """The two-element chain 0 < 1 with meet as tensor; dualizer 0."""
    return Quantale(
        label="bool2",
        values=[0, 1],
        le_fn=lambda a, b: a <= b,
        tensor_fn=min,
        unit=1,
        dualizer=0,
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
        values=els,
        le_fn=lambda a, b: a <= b,
        tensor_fn=lambda a, b: max(Fraction(0), a + b - 1),
        unit=Fraction(1),
        dualizer=Fraction(0),
        family="chain",
    )


BUILTIN_HELP = (
    "rel:N (relations on N points, N=1..4), 2prof:chainN / 2prof:discN (N<=3), "
    "2prof:vee, s3:ELT (ELT in e,(01),(02),(12),(012),(021)), zmod:N, "
    "zmod:N@D (dualizer D), bool2, luk3"
)


def builtin_quantale(spec):
    """Resolve a CLI shorthand like ``rel:3`` or ``s3:(01)`` to a quantale."""
    def int_(text):
        try:
            return int(text)
        except ValueError:
            raise QuantaleError(f"builtin quantale {spec!r}: {text!r} is not an integer") from None
    if spec == "bool2":
        return build_bool2()
    if spec == "luk3":
        return build_luk3()
    if spec.startswith("rel:"):
        return build_rel_quantale(int_(spec[4:]))
    if spec.startswith("2prof:"):
        kind = spec[6:]
        if kind.startswith("chain"):
            n = int_(kind[5:])
            mask = sum(1 << (i * n + j) for i in range(n) for j in range(i, n))
            return build_two_profunctor_quantale(mask, n, label=spec)
        if kind.startswith("disc"):
            n = int_(kind[4:])
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
            return build_zmod(int_(n), int_(d))
        return build_zmod(int_(body))
    raise QuantaleError(f"unknown builtin quantale {spec!r}; available: {BUILTIN_HELP}")
