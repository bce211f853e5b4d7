"""The two quantifiers every check is built from.

``draw`` picks the tuples a check ranges over (of probe objects, quantale
elements or profunctors): the full product when it is within its budget in
``COVERAGE``, else a seeded sample, so every verdict can be replayed from
its seed, and says which it was; its vacuity filter calls each
predicate once per distinct projection of the product, not once per tuple.
A sampled draw without a dimension budget counts the live tuples from the
predicates' verdicts and builds only the tuples it keeps.  ``scan`` runs a
check body over its items and reports the first witness with its 1-based
position, or, where the caller left out items that cannot fail, the
position it gives; it is the only code that builds a ``CheckResult``.
"""

from itertools import compress, product
from math import prod
from operator import itemgetter
import random
import sys

from ..report import CheckResult
from .morphisms import MorError

# Every coverage budget of the checker.  A quantifier with more items than
# its budget draws a seeded sample of that many, and its check reports
# ``exhaustive: false``, as does one that a "-dims" budget cut short: the
# largest product of dimensions of a drawn tuple on a linear model.
COVERAGE = {
    "tuples": 24,  # of the model validity checks, the thirteen axioms, the base identity
    "validity-dims": 8,
    "axiom-dims": 16,  # also the base identity's; an axiom row may tighten it
    "base-identity-arrows": 100,  # random arrow pairs per run on a linear model
    "braid-triples": 40, "braid-dims": 8,
    # ``Quantale.validate`` tries every triple and pair up to this many
    # elements (53 is the luk3 profunctor quantale: 148,877 triples)
    "quantale-elements": 53,
    "quantale-triples": 4096, "quantale-pairs": 256,  # the draws past that
    "prof-candidates": 65536,  # the value tuples ``enumerate_profs`` tries
    # profunctor pairs, profunctors and triples of the pointwise prof- checks
    "prof-pairs": 144, "prof-singles": 12, "prof-triples": 216,
    "contraposition-arrows": 50,  # action arrows per run
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


def arrows(model, pairs):
    """(p, q, i, f) for each arrow f, number i, of the hom spanning set of
    each pair (p, q): the items of a naturality check."""
    return ((p, q, i, f) for p, q in pairs for i, f in enumerate(model.hom_span(p, q)))


def _show(item):
    return tuple(map(str, item)) if isinstance(item, tuple) else item
