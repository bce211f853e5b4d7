"""The two quantifiers every check is built from.

``draw`` picks the object tuples a check ranges over: the full product of
the probe objects when it is small enough, else a seeded sample, so every
verdict can be replayed from its seed; its vacuity filter calls each
predicate once per distinct projection of the product, not once per tuple.
``scan`` runs a check body over its items and reports the first witness
with its 1-based position; it is the only code that builds a
``CheckResult``.
"""

from itertools import compress, product
from math import prod
from operator import itemgetter
import random

from ..report import CheckResult
from .morphisms import MorError

# The most object tuples a model-level check ranges over: the validity
# checks, the thirteen axioms and the base identity each draw at most this
# many, and report ``exhaustive: false`` when they drew fewer than all.
TUPLE_CAP = 24


def draw(model, probes, k, cap=None, dim_cap=None, seed=0, live=()):
    """The k-tuples of ``probes`` a check ranges over, and whether they are
    all of them.

    On a linear model, tuples whose dimensions multiply to more than
    ``dim_cap`` are dropped, and the draw is then not all of them.  ``live``
    holds (positions, predicate) pairs: t is live when each
    ``predicate(*(t[i] for i in positions))`` holds, and only live tuples
    are kept, unless none is (one that is not live, vacuous say, holds
    trivially, so dropping it keeps the draw whole).  Each predicate is
    called once per distinct projection of the tuples within ``dim_cap``,
    in first-seen order.  A pool larger than ``cap`` is replaced by
    ``random.Random(seed).sample(pool, cap)``.
    """
    pool = list(product(probes, repeat=k))
    whole = True
    if dim_cap is not None and model.is_linear:
        kept = [t for t in pool if prod(model.dim(x) for x in t) <= dim_cap]
        pool, whole = kept, len(kept) == len(pool)
    tests = []
    for positions, predicate in live:
        get, one = itemgetter(*positions), len(positions) == 1
        ok = {x for x in dict.fromkeys(map(get, pool)) if (predicate(x) if one else predicate(*x))}
        tests.append(map(ok.__contains__, map(get, pool)))
    pool = list(compress(pool, map(all, zip(*tests)))) or pool
    if cap is None or len(pool) <= cap:
        return pool, whole
    return random.Random(seed).sample(pool, cap), False


def scan(name, items, body, exhaustive=True):
    """Run ``body`` over ``items`` up to the first one that fails.

    A tuple item is spread over the arguments of ``body``.  ``body``
    returns a false value when the item passes; otherwise the witness text,
    or True to name the item itself.  A MorError raised by ``body`` fails
    the item too.  ``count`` is the number of items tried: all of them on a
    pass, the witness's position on a failure.
    """
    n = 0
    for n, item in enumerate(items, 1):
        args = item if isinstance(item, tuple) else (item,)
        try:
            bad = body(*args)
        except MorError as exc:
            return CheckResult(name, False, f"at {_show(item)}: {exc}", n, exhaustive)
        if bad:
            witness = bad if isinstance(bad, str) else f"at {_show(item)}"
            return CheckResult(name, False, witness, n, exhaustive)
    return CheckResult(name, True, "", n, exhaustive)


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
