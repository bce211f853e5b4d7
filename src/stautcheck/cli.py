"""Command-line front end.

Subcommands::

    stautcheck quantale check <builtin-or-file>
    stautcheck vec scalar-table [--values 1,-1,2,1/2] [--max-dim 2]
    stautcheck prof check <vcat-file | builtin:disc2 | builtin:luk3>
    stautcheck braided d2-suite [--counter-model]
    stautcheck zang suite <vec | thin:SPEC>
    stautcheck paper all

Global flags: --seed N, --window N, --depth N (quantale, vec and zang
only), --report PATH, --format text|structured.  Exit codes: 0 all verdicts
pass, 1 some verdict failed, 2 input error.  Structured reports are
byte-identical across runs with the same seed.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import suites
from .core.objects import UniverseError
from .files import FileFormatError, load_vcat_file, resolve_quantale
from .quantale import QuantaleError, BUILTIN_HELP
from .report import SCHEMA_VERSION
from . import profunctors as pf


class InputError(Exception):
    pass


def _add_common(p, leaf):
    """Global flags, accepted both before and after the subcommand; the leaf
    copies suppress their defaults so they never clobber a prefix value."""
    def flag(name, default, help_text, **kw):
        p.add_argument(name, default=argparse.SUPPRESS if leaf else default,
                       help=argparse.SUPPRESS if leaf else help_text, **kw)

    flag("--seed", 0, "seed for sampled checks", type=int)
    flag("--window", 3, "half-width W of the string verification window [-W, W]", type=int)
    flag("--depth", None, "universe depth limit (quantale and vec: default 8; zang: "
         "raises the depth its window needs)", type=int)
    flag("--report", None, "write the report to this path")
    flag("--format", "text", "report format", choices=("text", "structured"))


def _parser():
    p = argparse.ArgumentParser(
        prog="stautcheck",
        description="exact coherence checking for finite star-autonomous models")
    _add_common(p, leaf=False)
    sub = p.add_subparsers(dest="command", required=True)

    def leaf(group, name, help_text):
        lp = group.add_parser(name, help=help_text)
        _add_common(lp, leaf=True)
        return lp

    q = sub.add_parser("quantale", help="quantale model checks")
    qsub = q.add_subparsers(dest="action", required=True)
    qc = leaf(qsub, "check", "validate a quantale and its thin model")
    qc.add_argument("spec", help=f"builtin ({BUILTIN_HELP}) or a file path")

    v = sub.add_parser("vec", help="linear model checks")
    vsub = v.add_subparsers(dest="action", required=True)
    vt = leaf(vsub, "scalar-table", "axiom profile per scalar cycle")
    vt.add_argument("--values", default="1,-1,2,1/2",
                    help="comma-separated nonzero rationals")
    vt.add_argument("--max-dim", type=int, default=2)

    pr = sub.add_parser("prof", help="enriched profunctor checks")
    prsub = pr.add_subparsers(dest="action", required=True)
    prc = leaf(prsub, "check", "verify Prof(c,c) for an enriched c")
    prc.add_argument("vcat", help="vcat file path, builtin:disc2 or builtin:luk3")

    b = sub.add_parser("braided", help="braided model checks")
    bsub = b.add_subparsers(dest="action", required=True)
    bd = leaf(bsub, "d2-suite", "the double-of-Z2 module suite")
    bd.add_argument("--counter-model", action="store_true",
                    help="also run the graded-line negative-branch suite")

    z = sub.add_parser("zang", help="strictification checks")
    zsub = z.add_subparsers(dest="action", required=True)
    zs = leaf(zsub, "suite", "string-category suite over a backend")
    zs.add_argument("backend", help="vec or thin:SPEC (e.g. thin:rel:2)")

    pa = sub.add_parser("paper", help="acceptance runs")
    pasub = pa.add_subparsers(dest="action", required=True)
    leaf(pasub, "all", "run every acceptance criterion")
    return p


def _parse_scalars(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            val = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad scalar {tok!r}")
        if val == 0:
            raise InputError("scalars must be nonzero")
        if val in out:
            raise InputError(f"repeated scalar {tok!r}")
        out.append(val)
    return out


def _run(args):
    if args.window < 1:
        raise InputError("--window must be at least 1")
    if args.depth is not None and args.command not in ("quantale", "vec", "zang"):
        raise InputError(f"--depth is read only by quantale, vec and zang, not by {args.command}")
    if args.depth is not None and args.depth < 1:
        raise InputError("--depth must be at least 1")
    if args.report and (os.path.isdir(args.report)
                        or not os.path.isdir(os.path.dirname(args.report) or ".")):
        raise InputError(f"--report {args.report}: not a file in an existing directory")
    window = (-args.window, args.window)
    depth = 8 if args.depth is None else args.depth
    if args.command == "quantale":
        try:
            q = resolve_quantale(args.spec)
        except QuantaleError as exc:
            raise InputError(str(exc))
        return [suites.quantale_suite(q, args.seed, depth=depth)]
    if args.command == "vec":
        scalars = _parse_scalars(args.values)
        if not 1 <= args.max_dim <= 3:
            raise InputError("--max-dim must be 1..3")
        return [suites.scalar_table_suite(args.seed, tuple(scalars), args.max_dim,
                                          depth=depth)]
    if args.command == "prof":
        builtin = suites.BUILTIN_VCATS.get(args.vcat)
        vcat = builtin() if builtin else load_vcat_file(args.vcat)
        try:
            return [suites.prof_suite(vcat, args.seed)]
        except pf.ProfError as exc:   # a base that is not cyclic, or a category too large
            raise InputError(str(exc))
    if args.command == "braided":
        reports = [suites.braided_suite(args.seed)]
        if args.counter_model:
            reports.append(suites.counter_model_suite(args.seed))
        return reports
    if args.command == "zang":
        from .strictify import FangPreconditionError
        try:
            return [suites.zang_suite(args.backend, window, args.seed,
                                      depth=args.depth)]
        except (FangPreconditionError, QuantaleError, ValueError) as exc:
            raise InputError(str(exc))
    if args.command == "paper":
        return suites.paper_all(args.seed, window)
    raise InputError(f"unknown command {args.command!r}")


def _emit(reports, args, out=None):
    if args.format == "structured":
        doc = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
               "reports": [r.to_json_dict() for r in reports],
               "ok": all(r.ok for r in reports)}
        text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)
    else:
        blocks = [r.to_text() for r in reports]
        total = sum(len(r.checks) for r in reports)
        passed = sum(sum(1 for c in r.checks if c.ok) for r in reports)
        blocks.append(f"TOTAL: {passed}/{total} checks passed in "
                      f"{sum(r.duration for r in reports):.2f}s")
        text = "\n\n".join(blocks)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text, file=out or sys.stdout)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        reports = _run(args)
    except (InputError, FileFormatError, OSError, UnicodeDecodeError, UniverseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit(reports, args)
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
