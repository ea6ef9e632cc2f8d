"""Command-line interface.

    opptypes check FILE [--json]     run a proof script (use - for stdin)
    opptypes onf [TYPE]              opposite normal form of a type
    opptypes dual [TYPE]             dual of a type
    opptypes equal [TYPE TYPE]       definitional equality of two types
    opptypes nnf [FORMULA]           negation normal form of a formula

The one-shot subcommands are syntactic: they need no declarations and read
their operands from the arguments or, when there are none, from standard
input (all of it is one operand; two are its non-blank lines).  Any other
count is a usage error, `error: expected N operand(s), got M`.
Exit status: 0 all directives ok, 1 some directive failed (or a one-shot
operand was rejected, or was nested too deeply for the layers after
parsing, which still recurse), 2 syntax or usage error, which includes a
script FILE that is missing, is a directory or is not UTF-8.
"""

from __future__ import annotations

import argparse
import sys

from .duality import dual, onf
from .errors import ParseError
from .kernel import type_equal
from .logic import formula_nnf
from .parser import parse, parse_formula, parse_type
from .printer import formula_str, type_str
from .runner import FAILURES, failure_text, report_json, report_text, run


# Each one-shot command: its help, its operand's name in usage, the parser
# of one operand, how many it takes, and what it answers for them: the line
# it prints and its exit status.
_ONESHOT = {
    "onf": ("opposite normal form of a type", "type", parse_type, 1,
            lambda a: (type_str(onf(a)), 0)),
    "dual": ("dual of a type", "type", parse_type, 1,
             lambda a: (type_str(dual(a)), 0)),
    "equal": ("definitional equality of two types", "types", parse_type, 2,
              lambda a, b: ("equal", 0) if type_equal(None, a, b) else
              (f"not equal: {type_str(onf(a))} vs {type_str(onf(b))}", 1)),
    "nnf": ("negation normal form of a formula", "formula", parse_formula, 1,
            lambda f: (formula_str(formula_nnf(f)), 0)),
}


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

    for name, (help_, operand, _, count, _) in _ONESHOT.items():
        sub.add_parser(name, help=help_).add_argument(
            "operands", metavar=operand, nargs="?" if count == 1 else "*")
    return ap


def _operands(given, count: int) -> list:
    """The operands on the command line or, when there are none, on
    stdin; exactly count of them, or a usage error."""
    if isinstance(given, str):      # nargs="?" gives its one operand bare
        given = [given]
    if not given:
        text = sys.stdin.read()
        given = [s.strip() for s in
                 ([text] if count == 1 else text.splitlines()) if s.strip()]
    if len(given) != count:
        print(f"error: expected {count} operand{'s' * (count > 1)}, "
              f"got {len(given)}", file=sys.stderr)
        raise SystemExit(2)
    return given


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
        _, _, read, count, answer = _ONESHOT[args.command]
        line, status = answer(*map(read, _operands(args.operands, count)))
        print(line)
        return status
    except ParseError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    except FAILURES as e:
        print(f"error: {failure_text(e)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
