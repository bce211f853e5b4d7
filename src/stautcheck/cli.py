"""Command-line front end.

Subcommands::

    stautcheck quantale check <builtin-or-file>
    stautcheck vec scalar-table [--values 1,-1,2,1/2] [--max-dim 2]
    stautcheck prof check <vcat-file | builtin:disc2 | builtin:luk3>
    stautcheck braided d2-suite [--counter-model]
    stautcheck zang suite <vec | thin:SPEC>
    stautcheck paper all

Global flags: --seed N, --window N, --report PATH, --format
text|structured.  Exit codes: 0 all verdicts pass, 1 some verdict failed,
2 input error.  Structured reports are byte-identical across runs with the
same seed.
"""

import argparse
import gc
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
    flag("--report", None, "write the report to this path")
    flag("--format", "text", "report format", choices=("text", "structured"))


def _quantale(p):
    p.add_argument("spec", help=f"builtin ({BUILTIN_HELP}) or a file path")


def _vec(p):
    p.add_argument("--values", default="1,-1,2,1/2",
                   help="comma-separated nonzero rationals")
    p.add_argument("--max-dim", type=int, default=2)


def _prof(p):
    p.add_argument("vcat", help="vcat file path, builtin:disc2 or builtin:luk3")


def _braided(p):
    p.add_argument("--counter-model", action="store_true",
                   help="also run the graded-line negative-branch suite")


def _zang(p):
    p.add_argument("backend", help="vec or thin:SPEC (e.g. thin:rel:2)")


# each command: its help, and its one action with that action's help and
# the builder of its own arguments
COMMANDS = {
    "quantale": ("quantale model checks",
                 "check", "validate a quantale and its thin model", _quantale),
    "vec": ("linear model checks", "scalar-table", "axiom profile per scalar cycle", _vec),
    "prof": ("enriched profunctor checks", "check", "verify Prof(c,c) for an enriched c", _prof),
    "braided": ("braided model checks", "d2-suite", "the double-of-Z2 module suite", _braided),
    "zang": ("strictification checks",
             "suite", "string-category suite over a backend", _zang),
    "paper": ("acceptance runs", "all", "run every acceptance criterion", None),
}


def _parse(argv):
    """The arguments of ``argv``.  Every command is named, with its help,
    but only the one that runs gets its parser tree: a first pass, with each
    command's parser bare (no -h of its own), finds which one it is."""
    p = argparse.ArgumentParser(
        prog="stautcheck",
        description="exact coherence checking for finite star-autonomous models")
    _add_common(p, leaf=False)
    sub = p.add_subparsers(dest="command", required=True)
    bare = {name: sub.add_parser(name, help=cmd[0], add_help=False)
            for name, cmd in COMMANDS.items()}
    command = p.parse_known_args(argv)[0].command
    _, action, help_text, build = COMMANDS[command]
    cp = bare[command]
    # what add_help=True would have added first
    cp.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS,
                    help="show this help message and exit")
    leaf = cp.add_subparsers(dest="action", required=True).add_parser(action, help=help_text)
    _add_common(leaf, leaf=True)
    if build:
        build(leaf)
    return p.parse_args(argv)


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
    if args.report and (os.path.isdir(args.report)
                        or not os.path.isdir(os.path.dirname(args.report) or ".")):
        raise InputError(f"--report {args.report}: not a file in an existing directory")
    window = (-args.window, args.window)
    if args.command == "quantale":
        try:
            q = resolve_quantale(args.spec)
        except QuantaleError as exc:
            raise InputError(str(exc))
        return [suites.quantale_suite(q, args.seed)]
    if args.command == "vec":
        scalars = _parse_scalars(args.values)
        if not 1 <= args.max_dim <= 3:
            raise InputError("--max-dim must be 1..3")
        return [suites.scalar_table_suite(args.seed, tuple(scalars), args.max_dim)]
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
            return [suites.zang_suite(args.backend, window, args.seed)]
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
    """Run one command; returns its exit code.  Every object a check builds
    is freed by reference counting, so the cyclic collector is off for the
    run, and on return it is as the caller left it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse(argv)
        try:
            reports = _run(args)
        except (InputError, FileFormatError, OSError, UnicodeDecodeError, UniverseError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        _emit(reports, args)
        return 0 if all(r.ok for r in reports) else 1
    finally:
        if enabled:
            gc.enable()


def run():
    """The process entry, of ``python -m stautcheck.cli`` and of the
    ``stautcheck`` script: ``main``, then the heap frozen, so that the
    interpreter's collection at exit skips it.  The output is written by
    then, and no object of the program has a finalizer."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
