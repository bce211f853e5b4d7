"""Independent oracle for the scalar cycle family on the linear backend.

When every component of the cycle is lam * identity, each of the thirteen
axiom diagrams compares two composites that differ only in how many cycle
components they traverse; all other arrows are invertible bookkeeping that
cancels.  The table below records, per axiom, how many components each side
uses, counted directly off the two paths of each diagram -- not computed from
the axiom table's diagrams, so it is an independent prediction of the verdict:

    axiom holds at lam  <=>  lam**left == lam**right.

The axiom checker must reproduce exactly this profile for every nonzero lam.
"""

from fractions import Fraction

SCALAR_EXPONENTS = {
    "pnul": (1, 0),
    "k": (0, 2),
    "t0": (1, 0),
    "tbin": (1, 2),
    "pbin": (1, 2),
    "blr0": (1, 0),
    "kprime": (2, 0),
    "e2": (1, 2),
    "e2prime": (1, 2),
    "m0": (1, 0),
    "m2": (1, 2),
    "m2prime": (1, 2),
    "blr2": (2, 1),
}


def predicted_profile(lam):
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("scalar cycles need a nonzero scalar")
    return {name: lam ** a == lam ** b for name, (a, b) in SCALAR_EXPONENTS.items()}
