"""Command-line interface.

    opptypes check FILE [--json]     run a proof script (use - for stdin)
    opptypes onf [TYPE]              opposite normal form of a type
    opptypes dual [TYPE]             dual of a type
    opptypes equal [TYPE TYPE]       definitional equality of two types
    opptypes nnf [FORMULA]           negation normal form of a formula

The one-shot subcommands are syntactic: they need no declarations and read
their operands from the arguments or, when omitted, from standard input.
Exit status: 0 all directives ok, 1 some directive failed (or a one-shot
operand was rejected, or was nested too deeply for the layers after
parsing, which still recurse), 2 syntax or usage error, which includes a
script FILE that is missing, is a directory or is not UTF-8.
"""

from __future__ import annotations

import argparse
import sys

from .duality import dual, onf
from .errors import ParseError, TypeTheoryError
from .kernel import type_equal
from .logic import formula_nnf
from .parser import parse, parse_formula, parse_type
from .printer import formula_str, type_str
from .runner import DEEP_INPUT, report_json, report_text, run


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opptypes",
        description="Proof checker and type algebra for a paraconsistent "
                    "type theory with opposite and co-function types.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a proof script")
    p_check.add_argument("file", help="script path, or - for stdin")
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable report")

    for name, help_ in (("onf", "opposite normal form of a type"),
                        ("dual", "dual of a type")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("type", nargs="?", default=None)

    p_eq = sub.add_parser("equal", help="definitional equality of two types")
    p_eq.add_argument("types", nargs="*", default=[])

    p_nnf = sub.add_parser("nnf", help="negation normal form of a formula")
    p_nnf.add_argument("formula", nargs="?", default=None)

    return ap


def _operand(given, count: int = 1):
    """Operands from the command line, or stdin when omitted."""
    if isinstance(given, list):
        if len(given) == count:
            return given
        if given:
            print(f"error: expected {count} operands, got {len(given)}",
                  file=sys.stderr)
            raise SystemExit(2)
        raw = [ln.strip() for ln in sys.stdin.read().splitlines()
               if ln.strip()]
        if len(raw) < count:
            print("error: expected operands on stdin", file=sys.stderr)
            raise SystemExit(2)
        return raw[:count]
    if given is not None:
        return [given]
    raw = sys.stdin.read().strip()
    if not raw:
        print("error: expected an operand on stdin", file=sys.stderr)
        raise SystemExit(2)
    return [raw]


def _script_text(path: str) -> str:
    """The script at path, or on stdin for -; a script that cannot be
    read or is not UTF-8 is a usage error."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "check":
            report = run(parse(_script_text(args.file)))
            out = report_json(report) if args.json else report_text(report)
            sys.stdout.write(out)
            return 0 if report.ok else 1

        if args.command == "onf":
            (src,) = _operand(args.type)
            print(type_str(onf(parse_type(src))))
            return 0

        if args.command == "dual":
            (src,) = _operand(args.type)
            print(type_str(dual(parse_type(src))))
            return 0

        if args.command == "equal":
            left_src, right_src = _operand(args.types, count=2)
            left, right = parse_type(left_src), parse_type(right_src)
            if type_equal(None, left, right):
                print("equal")
                return 0
            print(f"not equal: {type_str(onf(left))} vs "
                  f"{type_str(onf(right))}")
            return 1

        if args.command == "nnf":
            (src,) = _operand(args.formula)
            print(formula_str(formula_nnf(parse_formula(src))))
            return 0
    except ParseError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    except TypeTheoryError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: {DEEP_INPUT}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
