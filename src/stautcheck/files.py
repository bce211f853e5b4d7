"""Line-oriented description files for quantales and enriched categories.

Quantale file::

    # comment
    elements a b c
    le a b            # one pair per line; the order is the reflexive and
                      # transitive closure of the given pairs
    tensor a b c      # a * b = c; one line per pair, all |Q|^2 required
    unit a
    dualizer c

Enriched-category file::

    quantale rel:2    # builtin shorthand, or a path to a quantale file
    objects x y
    hom x x {00,11}   # base-element name per ordered object pair; all pairs

Parse errors carry the offending line number and exit the CLI with code 2.
"""

import os

from .quantale import Quantale, QuantaleError, builtin_quantale
from .profunctors import ProfError, VCat


class FileFormatError(Exception):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield i, line.split()


def load_quantale_file(path):
    elements = None
    le_pairs = set()
    tensor = {}
    unit = dualizer = None
    for i, toks in _lines(path):
        head, rest = toks[0], toks[1:]
        if head == "elements":
            if elements is not None:
                raise FileFormatError(path, i, "duplicate elements line")
            if not rest:
                raise FileFormatError(path, i, "elements line needs names")
            if len(set(rest)) != len(rest):
                raise FileFormatError(path, i, "duplicate element names")
            elements = list(rest)
        elif head == "le":
            if len(rest) != 2:
                raise FileFormatError(path, i, "le needs exactly two names")
            le_pairs.add((rest[0], rest[1]))
        elif head == "tensor":
            if len(rest) != 3:
                raise FileFormatError(path, i, "tensor needs three names")
            if (rest[0], rest[1]) in tensor:
                raise FileFormatError(path, i, f"repeated tensor {rest[0]} {rest[1]}")
            tensor[(rest[0], rest[1])] = rest[2]
        elif head in ("unit", "dualizer"):
            if len(rest) != 1:
                raise FileFormatError(path, i, f"{head} needs exactly one name")
            if (unit if head == "unit" else dualizer) is not None:
                raise FileFormatError(path, i, f"repeated {head} line")
            if head == "unit":
                unit = rest[0]
            else:
                dualizer = rest[0]
        elif head == "quantale":
            continue
        else:
            raise FileFormatError(path, i, f"unknown directive {head!r}")
    if elements is None:
        raise FileFormatError(path, 0, "missing elements line")
    for name in ([unit, dualizer]
                 + [x for pair in le_pairs for x in pair]
                 + [x for k, v in tensor.items() for x in (*k, v)]):
        if name is None or name not in elements:
            raise FileFormatError(path, 0, f"unknown or missing element {name!r}")
    missing = [(a, b) for a in elements for b in elements if (a, b) not in tensor]
    if missing:
        raise FileFormatError(path, 0,
                              f"tensor table incomplete; first missing {missing[0]}")
    order = {(a, a) for a in elements} | set(le_pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(order):
            for (c, d) in list(order):
                if b == c and (a, d) not in order:
                    order.add((a, d))
                    changed = True
    for (a, b) in order:
        if a != b and (b, a) in order:
            raise FileFormatError(path, 0, f"order is not antisymmetric on {a}, {b}")
    q = Quantale(
        label=os.path.basename(path),
        values=elements,
        le_fn=lambda a, b: (a, b) in order,
        tensor_fn=lambda a, b: tensor[(a, b)],
        unit=unit,
        dualizer=dualizer,
        family="file",
    )
    return q


def resolve_quantale(spec):
    """A builtin shorthand if it parses as one, else a file path."""
    try:
        return builtin_quantale(spec)
    except QuantaleError:
        if os.path.exists(spec):
            return load_quantale_file(spec)
        raise


def load_vcat_file(path):
    base = None
    objects = None
    hom_names = {}
    for i, toks in _lines(path):
        head, rest = toks[0], toks[1:]
        if head == "quantale":
            if base is not None:
                raise FileFormatError(path, i, "duplicate quantale line")
            if len(rest) != 1:
                raise FileFormatError(path, i, "quantale needs one spec")
            try:
                base = resolve_quantale(rest[0])
            except (QuantaleError, FileNotFoundError) as exc:
                raise FileFormatError(path, i, str(exc)) from None
        elif head == "objects":
            if objects is not None:
                raise FileFormatError(path, i, "duplicate objects line")
            if not rest:
                raise FileFormatError(path, i, "objects line needs names")
            if len(set(rest)) != len(rest):
                raise FileFormatError(path, i, "duplicate object names")
            objects = list(rest)
        elif head == "hom":
            if len(rest) != 3:
                raise FileFormatError(path, i, "hom needs: src dst element")
            if (rest[0], rest[1]) in hom_names:
                raise FileFormatError(path, i, f"repeated hom {rest[0]} {rest[1]}")
            hom_names[(rest[0], rest[1])] = (rest[2], i)
        else:
            raise FileFormatError(path, i, f"unknown directive {head!r}")
    if base is None or objects is None:
        raise FileFormatError(path, 0, "missing quantale or objects line")
    for (a, b), (_, line_no) in hom_names.items():
        if a not in objects or b not in objects:
            raise FileFormatError(path, line_no, f"hom {a} {b} names an undeclared object")
    by_name = {base.name(x): x for x in base.elements}
    hom = {}
    for a in objects:
        for b in objects:
            if (a, b) not in hom_names:
                raise FileFormatError(path, 0, f"missing hom {a} {b}")
            name, line_no = hom_names[(a, b)]
            if name not in by_name:
                raise FileFormatError(path, line_no,
                                      f"unknown base element {name!r}")
            hom[(a, b)] = by_name[name]
    try:
        return VCat(base, objects, hom)
    except ProfError as exc:
        raise FileFormatError(path, 0, f"not an enriched category: {exc}") from None
