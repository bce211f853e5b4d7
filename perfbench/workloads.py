"""The benchmark's workloads: the stautcheck commands each one runs, made
from a seed, with the figures their outputs are checked against.

    python3 perfbench/workloads.py WORKLOAD SEED

writes the workload's generated input files under
``perfbench/out/inputs/WORKLOAD-sSEED/`` and prints its commands, one a line,
so that a run can be replayed by hand.
"""

import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

# the linear suites draw their probe tuples from pools whose objects differ
# widely in dimension, so their time and memory follow the program seed: over
# a few seeds the braided suite took 5.0-6.7 s and a max-dim 2 scalar table
# used 54-66 MB.  They run at the CLI's default seed.
SAMPLING_SEED = 0

# the 2prof builtins that ``quantale check`` documents
TWO_PROF_BUILTINS = ("2prof:chain1", "2prof:chain2", "2prof:chain3",
                     "2prof:disc1", "2prof:disc2", "2prof:disc3", "2prof:vee")

# preorders on three points, one per isomorphism class used, as their
# non-reflexive pairs; the seed relabels the points and names the objects.
# Their Prof(c, c) sizes are 2 and 6.  Preorders with a larger Prof take
# seconds each (a chain beside a point, 108: 3.4 s; discrete, 512: 20-34 s),
# which would leave too few rounds in a run to time each command steadily.
PREORDERS = {
    "indiscrete": {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)},
    "pair-below-point": {(0, 1), (1, 0), (0, 2), (1, 2)},
}

# two-object luk3 categories as the unordered pair of their off-diagonal
# homs; the seed picks the orientation and the object names
LUK3_CATEGORIES = (("1/2", "0"), ("1", "1"))

NAMES = ("a", "b", "c", "u", "v", "w", "x", "y", "z", "p", "q", "r", "s", "t")


@dataclass
class Op:
    """One stautcheck command; ``kind`` and ``expect`` say how its output
    is checked (see ``checks.verify``)."""

    args: list
    kind: str = "verdicts"
    expect: object = None


@dataclass
class Workload:
    name: str
    ops: list
    setup: dict = field(default_factory=dict)


def _structured(seed, *args):
    """Arguments of a command with a structured report; ``seed`` is the
    program's --seed, or a random.Random to draw it from."""
    if isinstance(seed, random.Random):
        seed = seed.randrange(1_000_000)
    return ["--format", "structured", "--seed", str(seed), *args]


def _vcat_text(base, objects, hom):
    lines = [f"quantale {base}", "objects " + " ".join(objects)]
    lines += [f"hom {a} {b} {v}" for (a, b), v in hom.items()]
    return "\n".join(lines) + "\n"


def _preorder_file(rng, path, pairs):
    perm = list(range(3))
    rng.shuffle(perm)
    names = rng.sample(NAMES, 3)
    order = frozenset((perm[i], perm[j]) for (i, j) in pairs | {(i, i) for i in range(3)})
    hom = {(names[i], names[j]): int((i, j) in order) for i in range(3) for j in range(3)}
    items = list(hom.items())
    rng.shuffle(items)
    path.write_text(_vcat_text("bool2", names, dict(items)))
    return checks.profunctor_count(order, 3)


def _luk3_file(rng, path, homs):
    names = rng.sample(NAMES, 2)
    there, back = homs if rng.random() < 0.5 else homs[::-1]
    hom = {(names[0], names[0]): "1", (names[0], names[1]): there,
           (names[1], names[0]): back, (names[1], names[1]): "1"}
    path.write_text(_vcat_text("luk3", names, hom))
    return checks.luk3_profunctor_count(hom)


def thin(seed, inputs):
    rng = random.Random(seed)
    ops = [Op(_structured(rng, "quantale", "check", spec), "quantale",
              checks.builtin_elements(spec))
           for spec in ("rel:3",) + TWO_PROF_BUILTINS]
    files = []
    for name, pairs in PREORDERS.items():
        path = inputs / f"preorder-{name}.vcat"
        count = _preorder_file(rng, path, pairs)
        files.append(path)
        ops.append(Op(_structured(rng, "prof", "check", str(path)), "prof", count))
    for homs in LUK3_CATEGORIES:
        path = inputs / f"luk3-{'-'.join(h.replace('/', '_') for h in homs)}.vcat"
        count = _luk3_file(rng, path, homs)
        files.append(path)
        ops.append(Op(_structured(rng, "prof", "check", str(path)), "prof", count))
    ops.append(Op(_structured(rng, "zang", "suite", "thin:rel:2")))
    setup = {"quantales": ["rel:3", *TWO_PROF_BUILTINS],
             "vcats": [str(p) for p in files], "thin": ["rel:2"]}
    return Workload("thin", ops, setup)


def _scalars(rng, k):
    """1, -1 and k distinct other nonzero rationals, in a seeded order."""
    out = [Fraction(1), Fraction(-1)]
    while len(out) < k + 2:
        lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if lam not in out:
            out.append(lam)
    rng.shuffle(out)
    return [str(x) for x in out]


def linear(seed, inputs):
    rng = random.Random(seed)
    ops = []
    for max_dim, extra in ((2, 4), (1, 6)):
        values = _scalars(rng, extra)
        args = _structured(SAMPLING_SEED, "vec", "scalar-table",
                           "--values=" + ",".join(values), "--max-dim", str(max_dim))
        ops.append(Op(args, "scalars", values))
    ops.append(Op(_structured(SAMPLING_SEED, "braided", "d2-suite", "--counter-model")))
    setup = {"vec": [2, 1], "drinfeld": True, "gradedline": True}
    return Workload("linear", ops, setup)


WORKLOADS = {"thin": thin, "linear": linear}


def make(name, seed, out_dir):
    """The workload ``name`` for ``seed``; its files go under ``out_dir``."""
    inputs = out_dir / "inputs" / f"{name}-s{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, inputs)


if __name__ == "__main__":
    wl = make(sys.argv[1], int(sys.argv[2]), Path(__file__).resolve().parent / "out")
    for op in wl.ops:
        print("stautcheck " + " ".join(op.args))
    print("setup: " + json.dumps(wl.setup))
