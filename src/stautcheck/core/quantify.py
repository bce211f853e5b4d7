"""The quantifiers and the one row runner every check is built from.

``draw`` picks the tuples a check ranges over (of probe objects, quantale
elements or profunctors): the full product when it is within its budget in
``COVERAGE``, else a seeded sample, so every verdict can be replayed from
its seed, and says which it was; its vacuity filter calls each
predicate once per distinct projection of the product, not once per tuple.
A sampled draw without a dimension budget counts the live tuples from the
predicates' verdicts and builds only the tuples it keeps.  ``draws`` is
the one draw of a model's probe tuples: ``draw`` kept by the model under
its arguments, so every check that asks for the same tuples shares them.
``scan`` runs a check body over its items and reports the first witness
with its 1-based position, or, where the caller left out items that cannot
fail, the position it gives; it is the only code that builds a
``CheckResult``.

Every coherence diagram is a row, an ``Axiom``: the validity rows, the
thirteen cyclicity axioms, the braided diagrams, the naturality of a
family, the base identity and contraposition, run by ``check``.  There is
one counting rule: an item is one drawn tuple at one pick of its spanning
arrows, so a row without spans counts its tuples, a row with spans counts
arrows (or arrow tuples), and a witness names the tuple and the arrow
index.
"""

from itertools import compress, islice, product
from math import prod
from operator import itemgetter
import random
import sys

from ..report import CheckResult
from .morphisms import MorError
from .objects import TENS

# Every coverage budget of the checker.  A quantifier with more items than
# its budget draws a seeded sample of that many, and its check reports
# ``exhaustive: false``, as does one that a "-dims" budget cut short: the
# largest product of dimensions of a drawn tuple on a linear model.
COVERAGE = {
    "tuples": 24,  # of the model validity checks, the thirteen axioms, the base identity
    "validity-dims": 8,
    "axiom-dims": 16,  # also base identity's and contraposition's; an axiom row may tighten it
    "braid-triples": 40, "braid-dims": 8,
    # ``Quantale.validate`` tries every triple and pair up to this many
    # elements (53 is the luk3 profunctor quantale: 148,877 triples)
    "quantale-elements": 53,
    "quantale-triples": 4096, "quantale-pairs": 256,  # the draws past that
    "prof-candidates": 65536,  # the value tuples ``enumerate_profs`` tries
    # profunctor pairs, profunctors and triples of the pointwise prof- checks
    "prof-pairs": 144, "prof-singles": 12, "prof-triples": 216,
    "contraposition-triples": 50,  # (a, x, y) with an action arrow a (x) x -> y
}


def draw(model, probes, k, cap=None, dim_cap=None, seed=0, live=()):
    """The k-tuples of ``probes`` a check ranges over, and whether they are
    all of them.

    On a linear model, tuples whose dimensions multiply to more than
    ``dim_cap`` are dropped, and the draw is then not all of them; nothing
    else reads ``model``, which a draw of other items leaves None.  ``live``
    holds (positions, predicate) pairs, each with ascending positions: t is
    live when each ``predicate(*(t[i] for i in positions))`` holds, and
    only live tuples are kept, unless none is (one that is not live,
    vacuous say, holds trivially, so dropping it keeps the draw whole).
    Each predicate is called once per distinct projection of the tuples
    within ``dim_cap``, in order of first occurrence (lexicographic when
    no tuple was dropped).  A pool larger than ``cap`` is replaced by
    ``random.Random(seed).sample(pool, cap)``.

    Without a dimension budget the pool is counted, not listed, so the
    pairs must also be disjoint (else ValueError): its size is the product
    of each predicate's passing projections and of the probes at the
    other positions.  A pool larger than ``cap`` then has its sampled
    ranks unranked in its (lexicographic) order; ``sample`` picks its
    positions from the pool's size and ``cap`` alone, so the tuples are
    those of the listed pool.
    """
    if dim_cap is not None and model.is_linear:
        every = list(product(probes, repeat=k))
        pool = [t for t in every if prod(model.dim(x) for x in t) <= dim_cap]
        verdicts = [_verdicts(predicate, map(itemgetter(*pos), pool), len(pos) == 1)
                    for pos, predicate in live]
        return _listed(pool, live, verdicts, cap, seed, len(pool) == len(every))
    groups = [pos for pos, _ in live]
    taken = [i for pos in groups for i in pos]
    if len(set(taken)) != len(taken) or any(
            list(pos) != sorted(pos) or not 0 <= pos[0] <= pos[-1] < k for pos in groups):
        raise ValueError(f"live positions {groups} are not ascending, disjoint and below {k}")
    verdicts = [_verdicts(predicate, probes if len(pos) == 1 else product(probes, repeat=len(pos)),
                          len(pos) == 1)
                for pos, predicate in live]
    n = len(probes)
    counts = [_prefix_counts(probes, len(pos), verdict) for pos, verdict in zip(groups, verdicts)]
    size = prod(c[0][0] for c in counts) * n ** (k - len(taken))
    if not size:   # no tuple is live: the draw ranges over all of them
        size, groups, counts = n ** k, [], []
    if cap is None or size <= cap:
        return _listed(list(product(probes, repeat=k)), live, verdicts, cap, seed, True)
    rng = random.Random(seed)
    ranks = {} if size > sys.maxsize else dict.fromkeys(rng.sample(range(size), cap))
    while len(ranks) < cap:   # past what len() can measure, as sample's set-based draw
        ranks[rng.randrange(size)] = None
    if not groups:   # a rank is its base-n digits
        digits = [[probes[r // w % n] for r in ranks] for w in [n ** j for j in range(k)][::-1]]
        return list(zip(*digits)), False
    return [tuple(map(probes.__getitem__, _unrank(r, k, n, groups, counts))) for r in ranks], False


def _verdicts(predicate, projections, one):
    """``predicate``'s verdict on each distinct projection, called once on
    each, in their order."""
    return {x: predicate(x) if one else predicate(*x) for x in dict.fromkeys(projections)}


def _listed(pool, live, verdicts, cap, seed, whole):
    """The live tuples of the listed ``pool`` (all of it if none is live),
    sampled down to ``cap``."""
    tests = [map(verdict.__getitem__, map(itemgetter(*pos), pool))
             for (pos, _), verdict in zip(live, verdicts)]
    pool = list(compress(pool, map(all, zip(*tests)))) or pool
    if cap is None or len(pool) <= cap:
        return pool, whole
    return random.Random(seed).sample(pool, cap), False


def _prefix_counts(probes, m, verdict):
    """``counts[j][r]``: how many passing projections begin with the j probe
    indices whose base-n number is r."""
    n = len(probes)
    level = [1 if verdict[x] else 0 for x in (probes if m == 1 else product(probes, repeat=m))]
    counts = [level]
    for _ in range(m):
        level = [sum(level[r:r + n]) for r in range(0, len(level), n)]
        counts.append(level)
    return counts[::-1]


def _unrank(rank, k, n, groups, counts):
    """The probe indices of the live k-tuple at ``rank`` in lexicographic
    order, where the positions of each of ``groups`` hold a passing
    projection (``counts`` from ``_prefix_counts``) and the others any of
    the n probes."""
    owner = {i: g for g, positions in enumerate(groups) for i in positions}
    done = [0] * len(groups)     # how many positions of each group are set
    prefix = [0] * len(groups)   # and their indices as a base-n number
    free = k - len(owner)        # the free positions after the current one
    out = []
    for i in range(k):
        g = owner.get(i)
        free -= g is None
        rest = n ** free * prod(c[j][r] for h, (c, j, r) in enumerate(zip(counts, done, prefix))
                                if h != g)
        if g is None:
            v, rank = divmod(rank, rest)
        else:
            below = counts[g][done[g] + 1]
            for v in range(n):
                block = below[prefix[g] * n + v] * rest
                if rank < block:
                    break
                rank -= block
            done[g] += 1
            prefix[g] = prefix[g] * n + v
        out.append(v)
    return out


class Axiom:
    """One coherence diagram, a row that ``check`` runs.  It ranges over
    ``arity`` probe objects and, for each span in ``spans``, over the
    spanning arrows of Hom(x, d) for a shape x (``_span_object``), or of
    Hom(x, y) for ``(x, "->", y)``: ``((0, 3), (1, 2))`` names p (x) t and
    q (x) s over (p, q, s, t), ``((0, "->", 1),)`` the arrows a -> b.
    ``sides(model, *context, *objects, *arrows)`` gives the two sides, which
    must be equal; the context is what the row constrains, a cycle, a
    braiding or a family say.  ``dim_cap`` tightens the runner's dimension
    budget.  A spanning set suffices: on a linear backend both sides are
    linear in each quantified arrow, and a thin hom has at most one."""

    __slots__ = ("arity", "sides", "spans", "dim_cap")

    def __init__(self, arity, sides, spans=(), dim_cap=None):
        self.arity, self.sides, self.spans, self.dim_cap = arity, sides, spans, dim_cap


def _ends(span):
    """The source and target shapes of a span, whose target is d unless given."""
    return span[::2] if isinstance(span, tuple) and len(span) == 3 else (span, "d")


def _span_object(m, shape, t):
    """The object a span shape names over the objects ``t``: ``t[i]`` for a
    position i, the unit for "e", the dualizer for "d", the tensor for a pair."""
    if isinstance(shape, tuple):
        return m.tens(_span_object(m, shape[0], t), _span_object(m, shape[1], t))
    return m.e if shape == "e" else m.d if shape == "d" else t[shape]


def _span_value(m, shape, t):
    """The value of ``_span_object(m, shape, t)``, built by ``_object_value``."""
    if isinstance(shape, tuple):
        return m._object_value(TENS, _span_value(m, shape[0], t), _span_value(m, shape[1], t))
    return _span_object(m, shape, t).value


def _positions(shape):
    if isinstance(shape, tuple):
        return _positions(shape[0]) | _positions(shape[1])
    return set() if shape in ("e", "d") else {shape}


def _live(m, spans):
    """The vacuity filter of ``draw`` for ``spans``: a tuple is live when
    the source of each span has an arrow into its target, as the source's
    value says.  Each tests only the positions it names, in ascending
    order."""
    def test(source, target):
        pos = tuple(sorted(_positions(source) | _positions(target)))
        def live(*xs):
            t = dict(zip(pos, xs))
            return m.has_arrow(_span_value(m, source, t), _span_object(m, target, t),
                               lambda: _span_object(m, source, t))
        return pos, live

    return [test(*_ends(s)) for s in spans]


def draws(model, k, seed, cap=None, dim_cap=None, spans=()):
    """``draw`` of the k-tuples of ``model``'s probes live for ``spans``,
    from ``seed`` as given, kept by the model under these arguments: every
    check that asks for the same tuples shares one draw.  A draw without a
    ``cap`` never samples, so its key leaves the seed out."""
    key = ("draws", k, None if cap is None else seed, cap, dim_cap, spans)
    return model._structural(key, lambda: draw(
        model, model.probe_objects(), k, cap, dim_cap, seed, _live(model, spans)))


def check(name, rows, model, seed, *context, cap=None, dim_cap=None, position=None):
    """The check ``name`` of ``rows`` on ``model``: one ``Axiom``, or a dict
    of labelled rows of one shape, tried in turn on each item, the first
    that fails naming itself in the witness.  The tuples are ``draws(model,
    arity, seed, cap, the row's dim_cap or dim_cap, spans)``; an item is one
    tuple at one pick (``product``) of its spans' arrows, and its witness
    names the tuple and the picked arrows' indices.  A MorError raised while
    building a tuple's spans or sides fails the item, naming the tuple.
    Given a 1-based ``position``, only the item there is checked: the replay
    of a failure whose count was that position."""
    labelled = list(rows.items()) if isinstance(rows, dict) else [(None, rows)]
    row = labelled[0][1]
    m = model
    tuples, exhaustive = draws(m, row.arity, seed, cap, row.dim_cap or dim_cap, row.spans)
    ends = [_ends(s) for s in row.spans]

    def items():
        for t in tuples:
            try:
                spans = [list(enumerate(m.hom_span(_span_object(m, a, t), _span_object(m, b, t))))
                         for a, b in ends]
            except MorError as exc:   # the tuple's one item, failed
                yield t, f"at {_show(t)}: {exc}"
                continue
            for pick in product(*spans):
                yield t, pick

    def body(t, pick):
        if isinstance(pick, str):
            return pick
        mors = [f for _, f in pick]
        try:
            for label, each in labelled:
                lhs, rhs = each.sides(m, *context, *t, *mors)
                if lhs != rhs:
                    where = f"at {_show(t)}" if t else "at the unit diagram"
                    if pick:
                        index = [i for i, _ in pick]
                        where += f", arrow #{index[0] if len(index) == 1 else tuple(index)}"
                    return f"{label} {where}" if label else where
        except MorError as exc:
            return f"at {_show(t)}: {exc}"

    found = items() if position is None else islice(items(), position - 1, position)
    return scan(name, found, body, exhaustive)


def scan(name, items, body, exhaustive=True, size=None):
    """Run ``body`` over ``items`` up to the first one that fails.

    A tuple item is spread over the arguments of ``body``.  ``body``
    returns a false value when the item passes; otherwise the witness text,
    or True to name the item itself.  A MorError raised by ``body`` fails
    the item too.  ``count`` is the number of items tried: all of them on a
    pass, the witness's position on a failure.  Given ``size``, items come
    as (position, item), in order, from a quantifier of ``size`` items
    whose others all pass, and a pass counts ``size``.
    """
    n = 0
    for n, item in enumerate(items, 1) if size is None else items:
        args = item if isinstance(item, tuple) else (item,)
        try:
            bad = body(*args)
        except MorError as exc:
            return CheckResult(name, False, f"at {_show(item)}: {exc}", n, exhaustive)
        if bad:
            witness = bad if isinstance(bad, str) else f"at {_show(item)}"
            return CheckResult(name, False, witness, n, exhaustive)
    return CheckResult(name, True, "", n if size is None else size, exhaustive)


def expect(name, holds=(), fails=()):
    """A check on the verdicts of other checks: each result in ``holds``
    must pass and each in ``fails`` must fail.  The negative checks ("X
    fails", "not X") are the ones with a single result in ``fails``."""
    def body(res, want):
        if res.ok != want:
            return f"{res.name} fails: {res.witness}" if want else f"{res.name} holds"

    return scan(name, [(r, True) for r in holds] + [(r, False) for r in fails], body)


def _show(item):
    return tuple(map(str, item)) if isinstance(item, tuple) else item
