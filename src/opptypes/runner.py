"""Batch execution of scripts against an accumulating context.

Directive errors are collected, never fatal; the report has one entry per
directive, in order, and running the same bytes twice yields the same
report, including every generated fresh name.  Input nested too deeply
for Python's recursion limit in the layers after parsing (which uses no
recursion) is one such error, reported as DEEP_INPUT.  failure_text
writes each error payload, and the CLI prints it for a failed one-shot.

Beside the context, a run keeps the signature that translate and nnf read,
growing it as atom and pred directives succeed: an atom is a sort and a
nullary predicate, and a pred is a predicate when each of its argument
types is a declared sort.
"""

from __future__ import annotations

from itertools import count
from json.encoder import encode_basestring_ascii as _quote

from . import script as s
from .duality import dual, expand_in_basis, onf
from .errors import TypeTheoryError
from .kernel import (Context, U0, declare_term, declare_type_const,
                     ensure_formed, ensure_typed, infer, type_equal)
from .logic import Signature, check_sorts, formula_nnf, translate
from .printer import context_str, formula_str, term_str, type_str
from .search import bounded_inhabit
from .syntax import Atom

DEEP_INPUT = "RecursionError: input nested too deeply"
# the errors that fail one directive, or one CLI one-shot, and no more
FAILURES = (TypeTheoryError, RecursionError)


def failure_text(e: BaseException) -> str:
    """A failure as its report payload, which the CLI prints too."""
    return (DEEP_INPUT if isinstance(e, RecursionError)
            else f"{type(e).__name__}: {e}")


def run(sc: s.Script) -> s.Report:
    """Execute a parsed script and collect one report entry per directive."""
    ctx, sig = Context(), Signature()
    entries = []
    for d in sc.directives:
        kw = s.DIRECTIVE_KEYWORDS[type(d)]
        try:
            ctx, payload, status = _execute(ctx, sig, d)
        except FAILURES as e:
            payload, status = failure_text(e), "error"
        entries.append(s.ReportEntry(status, kw, payload, d.span))
    return s.Report(tuple(entries))


def _execute(ctx: Context, sig: Signature, d):
    """Run one directive; a declaration that succeeds also grows sig."""
    if isinstance(d, s.AtomDecl):
        ctx = _declare(ctx, sig, d.name, ())
        return ctx, f"atom {d.name} : U0", "ok"

    if isinstance(d, s.PredDecl):
        # x1, x2, ..., skipping the names the context declares
        taken = ctx.names
        free = (v for v in map("x{}".format, count(1)) if v not in taken)
        telescope = tuple(zip(free, d.arg_types))
        ctx = _declare(ctx, sig, d.name, telescope)
        args = ", ".join(type_str(a) for a in d.arg_types)
        return ctx, f"pred {d.name}({args}) : U0", "ok"

    if isinstance(d, s.Assume):
        ctx = declare_term(ctx, d.var, d.type)
        return ctx, f"assumed {d.var} : {type_str(d.type)}", "ok"

    if isinstance(d, s.CheckDirective):
        ensure_formed(ctx, d.type, U0)
        ensure_typed(ctx, d.term, d.type)
        return ctx, f"{term_str(d.term)} : {type_str(d.type)}", "ok"

    if isinstance(d, s.InferDirective):
        ty = infer(ctx, d.term)
        return ctx, f"{term_str(d.term)} : {type_str(ty)}", "ok"

    if isinstance(d, s.DualDirective):
        ensure_formed(ctx, d.type, U0)
        return ctx, type_str(dual(d.type)), "ok"

    if isinstance(d, s.OnfDirective):
        ensure_formed(ctx, d.type, U0)
        return ctx, type_str(onf(d.type)), "ok"

    if isinstance(d, s.EqualDirective):
        if type_equal(ctx, d.left, d.right):
            payload = f"{type_str(d.left)} = {type_str(d.right)}"
            return ctx, payload, "ok"
        payload = (f"not equal: {type_str(onf(d.left))} "
                   f"vs {type_str(onf(d.right))}")
        return ctx, payload, "error"

    if isinstance(d, s.ExpandDirective):
        ensure_formed(ctx, d.type, U0)
        expanded = expand_in_basis(d.type, d.basis)
        return ctx, type_str(expanded), "ok"

    if isinstance(d, s.TranslateDirective):
        tctx, ty = translate(sig, d.formula)
        return ctx, f"{context_str(tctx)} |- {type_str(ty)}", "ok"

    if isinstance(d, s.NnfDirective):
        check_sorts(sig, d.formula)
        return ctx, formula_str(formula_nnf(d.formula)), "ok"

    if isinstance(d, s.InhabitDirective):
        found = bounded_inhabit(ctx, d.type, d.depth)
        if found is None:
            payload = (f"no inhabitant of {type_str(d.type)} "
                       f"found at depth {d.depth}")
        else:
            payload = f"inhabitant of {type_str(d.type)}: {term_str(found)}"
        return ctx, payload, "ok"

    raise TypeError(f"not a directive: {d!r}")


def _declare(ctx: Context, sig: Signature, name: str, telescope) -> Context:
    """Declare a type constant of U0, then add it to sig: with no
    arguments it is a sort and a nullary predicate, and with arguments
    that are all declared sorts it is a predicate over them.  (A sort
    takes no arguments, so formation has rejected a sort applied to any.)
    """
    ctx = declare_type_const(ctx, name, telescope, U0)
    arity = tuple(ty.name for _, ty in telescope
                  if isinstance(ty, Atom) and ty.name in sig.sorts)
    if len(arity) == len(telescope):
        if not arity:
            sig.sorts.add(name)
        sig.add_predicate(name, arity)
    return ctx


def report_text(report: s.Report) -> str:
    lines = []
    for e in report.entries:
        loc = f"{e.span.line}:{e.span.col}" if e.span else "-"
        lines.append(f"{e.status:5s} [{loc}] {e.directive}: {e.payload}")
    return "\n".join(lines) + "\n"


# The layout json.dumps(items, indent=2) gives a report's items.
_ENTRY = ('  {\n    "status": %s,\n    "directive": %s,\n    "payload": %s,'
          '\n    "span": %s\n  }')
_SPAN = ('{\n      "line": %d,\n      "col": %d,\n      "end_line": %d,'
         '\n      "end_col": %d\n    }')


def report_json(report: s.Report) -> str:
    """Stable machine-readable rendering; see docs/report_schema.json.

    Each entry is written from a fixed template, and only its strings go
    through the JSON string encoder, so the result is, byte for byte,
    json.dumps of the list of entry objects with indent=2, plus a
    newline.
    """
    items = []
    for e in report.entries:
        sp = e.span
        span = "null" if sp is None else _SPAN % (
            sp.line, sp.col, sp.end_line, sp.end_col)
        items.append(_ENTRY % (_quote(e.status), _quote(e.directive),
                               _quote(e.payload), span))
    if not items:
        return "[]\n"
    return "[\n" + ",\n".join(items) + "\n]\n"
