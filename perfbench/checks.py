"""Output checks for the benchmark, computed without the program's code.

Every expected figure here is worked out from first principles by brute
force: two-valued profunctors on sets of pairs, Lukasiewicz arithmetic on
fractions, and the paper's rule for scalar cycles.  Nothing is read from a
stored copy of an earlier output.

``verify(op, exit_code, stdout)`` returns the list of problems with one
operation's output; an empty list means the operation passed.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product

# the thirteen cyclicity axioms, as the paper names them
AXIOMS = ("pnul", "k", "t0", "tbin", "pbin",
          "blr0", "kprime", "e2", "e2prime", "m0", "m2", "m2prime", "blr2")
# the quasicycle condition at object level (k) and at hom level (kprime);
# the two are equivalent, so they share one rule for scalar cycles
QUASI_AXIOMS = ("k", "kprime")

# ------------------------------------------------------------ relations

def _compose(r, s):
    return {(i, k) for (i, j) in r for (j2, k) in s if j == j2}


@lru_cache(maxsize=None)
def all_relations(n):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return [frozenset(p for b, p in enumerate(pairs) if mask >> b & 1)
            for mask in range(1 << len(pairs))]


@lru_cache(maxsize=None)
def profunctor_count(order, n):
    """Relations w with order;w <= w and w;order <= w: the endo-profunctors
    of a preorder enriched in the two-element chain."""
    return sum(1 for w in all_relations(n)
               if _compose(order, w) <= w and _compose(w, order) <= w)


def chain_order(n):
    return frozenset((i, j) for i in range(n) for j in range(i, n))


def discrete_order(n):
    return frozenset((i, i) for i in range(n))


VEE_ORDER = discrete_order(3) | {(0, 1), (0, 2)}


def builtin_elements(spec):
    """Element count of a builtin quantale spec used by the workloads."""
    if spec.startswith("rel:"):
        n = int(spec[4:])
        return len(all_relations(n))
    kind = spec[len("2prof:"):]
    if kind == "vee":
        return profunctor_count(VEE_ORDER, 3)
    if kind.startswith("chain"):
        n = int(kind[5:])
        return profunctor_count(chain_order(n), n)
    n = int(kind[4:])
    return profunctor_count(discrete_order(n), n)


# ------------------------------------------------------------ Lukasiewicz

LUK3 = (Fraction(0), Fraction(1, 2), Fraction(1))


def _luk(a, b):
    return max(Fraction(0), a + b - 1)


def luk3_profunctor_count(hom):
    """Matrices w over the objects with hom(p,q) (x) w(q,r) <= w(p,r) and
    w(q,r) (x) hom(r,s) <= w(q,s), (x) truncated addition on {0, 1/2, 1}."""
    objs = sorted({a for a, _ in hom})
    h = {k: Fraction(v) for k, v in hom.items()}
    keys = [(q, r) for q in objs for r in objs]
    count = 0
    for combo in product(LUK3, repeat=len(keys)):
        w = dict(zip(keys, combo))
        if all(_luk(h[(p, q)], w[(q, r)]) <= w[(p, r)]
               and _luk(w[(p, q)], h[(q, r)]) <= w[(p, r)]
               for p in objs for q in objs for r in objs):
            count += 1
    return count


# ------------------------------------------------------------ scalars

def scalar_rule_problems(table, scalars):
    """The rule for the cycle lam * id: ``k`` (and its hom-level form
    ``kprime``) holds iff lam**2 = 1, the other eleven axioms hold iff
    lam = 1."""
    out = []
    want = sorted(str(Fraction(s)) for s in scalars)
    if sorted(table) != want:
        out.append(f"scalar rows {sorted(table)} != requested {want}")
    for key, row in table.items():
        lam = Fraction(key)
        if sorted(row) != sorted(AXIOMS):
            out.append(f"scalar {key}: axioms {sorted(row)}")
            continue
        for ax in AXIOMS:
            expected = (lam * lam == 1) if ax in QUASI_AXIOMS else (lam == 1)
            if row[ax] is not expected:
                out.append(f"scalar {key}: {ax}={row[ax]}, rule says {expected}")
    return out


# ------------------------------------------------------------ verification

def verdict_problems(doc):
    out = []
    if doc.get("ok") is not True:
        out.append("report is not ok")
    for rep in doc.get("reports", []):
        if rep.get("ok") is not True:
            out.append(f"suite {rep.get('suite')} is not ok")
        out.extend(f"{rep.get('suite')}: check {c.get('name')} failed"
                   for c in rep.get("checks", []) if c.get("ok") is not True)
    if not doc.get("reports"):
        out.append("no reports")
    return out


def _checks_named(rep, name):
    return [c for c in rep["checks"] if c["name"] == name]


def quantale_problems(doc, op):
    got = doc["reports"][0]["stats"].get("elements")
    return [] if got == op.expect else [f"elements {got} != {op.expect}"]


def prof_problems(doc, op):
    rep = doc["reports"][0]
    out = []
    counts = [c["count"] for c in _checks_named(rep, "prof-enumeration")]
    if counts != [op.expect]:
        out.append(f"prof-enumeration counts {counts} != [{op.expect}]")
    got = rep["stats"].get("prof_elements")
    if got != op.expect:
        out.append(f"prof_elements {got} != {op.expect}")
    return out


def scalars_problems(doc, op):
    return scalar_rule_problems(doc["reports"][0]["stats"].get("table", {}), op.expect)


KIND_PROBLEMS = {
    "quantale": quantale_problems,
    "prof": prof_problems,
    "scalars": scalars_problems,
    "verdicts": lambda doc, op: [],
}


def verify(op, exit_code, stdout):
    """Problems with one operation's output (empty when it passed)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["output is not a structured report"]
    problems = verdict_problems(doc)
    try:
        problems += KIND_PROBLEMS[op.kind](doc, op)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
