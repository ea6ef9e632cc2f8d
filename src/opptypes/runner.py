"""Batch execution of scripts against an accumulating context.

Directive errors are collected, never fatal; the report has one entry per
directive, in order, and running the same bytes twice yields the same
report, including every generated fresh name.  Input nested too deeply
for Python's recursion limit in the layers after parsing (which uses no
recursion) is one such error, reported as DEEP_INPUT.
"""

from __future__ import annotations

import json
from itertools import count

from . import script as s
from .duality import dual, expand_in_basis, onf
from .errors import TypeTheoryError
from .kernel import (Context, EMPTY, TypeConstDecl, U0, check,
                     check_formation, declare_term, declare_type_const,
                     infer, type_equal)
from .logic import Signature, check_sorts, formula_nnf, translate
from .printer import context_str, formula_str, term_str, type_str
from .search import bounded_inhabit
from .syntax import Atom

DEEP_INPUT = "RecursionError: input nested too deeply"


def run(sc: s.Script) -> s.Report:
    """Execute a parsed script and collect one report entry per directive."""
    ctx = EMPTY
    entries = []
    for d in sc.directives:
        kw = s.DIRECTIVE_KEYWORDS[type(d)]
        try:
            ctx, payload, status = _execute(ctx, d)
        except TypeTheoryError as e:
            payload = f"{type(e).__name__}: {e}"
            status = "error"
        except RecursionError:
            payload = DEEP_INPUT
            status = "error"
        entries.append(s.ReportEntry(status, kw, payload, d.span))
    return s.Report(tuple(entries))


def _execute(ctx: Context, d):
    if isinstance(d, s.AtomDecl):
        ctx = declare_type_const(ctx, d.name, (), U0)
        return ctx, f"atom {d.name} : U0", "ok"

    if isinstance(d, s.PredDecl):
        # x1, x2, ..., skipping the names the context declares
        taken = ctx.names
        free = (v for v in map("x{}".format, count(1)) if v not in taken)
        telescope = tuple(zip(free, d.arg_types))
        ctx = declare_type_const(ctx, d.name, telescope, U0)
        args = ", ".join(type_str(a) for a in d.arg_types)
        return ctx, f"pred {d.name}({args}) : U0", "ok"

    if isinstance(d, s.Assume):
        ctx = declare_term(ctx, d.var, d.type)
        return ctx, f"assumed {d.var} : {type_str(d.type)}", "ok"

    if isinstance(d, s.CheckDirective):
        check_formation(ctx, d.type, U0)
        check(ctx, d.term, d.type)
        return ctx, f"{term_str(d.term)} : {type_str(d.type)}", "ok"

    if isinstance(d, s.InferDirective):
        ty = infer(ctx, d.term)
        return ctx, f"{term_str(d.term)} : {type_str(ty)}", "ok"

    if isinstance(d, s.DualDirective):
        check_formation(ctx, d.type, U0)
        return ctx, type_str(dual(d.type)), "ok"

    if isinstance(d, s.OnfDirective):
        check_formation(ctx, d.type, U0)
        return ctx, type_str(onf(d.type)), "ok"

    if isinstance(d, s.EqualDirective):
        if type_equal(ctx, d.left, d.right):
            payload = f"{type_str(d.left)} = {type_str(d.right)}"
            return ctx, payload, "ok"
        payload = (f"not equal: {type_str(onf(d.left))} "
                   f"vs {type_str(onf(d.right))}")
        return ctx, payload, "error"

    if isinstance(d, s.ExpandDirective):
        check_formation(ctx, d.type, U0)
        expanded = expand_in_basis(d.type, d.basis)
        return ctx, type_str(expanded), "ok"

    if isinstance(d, s.TranslateDirective):
        sig = _signature_of(ctx)
        tctx, ty = translate(sig, d.formula)
        return ctx, f"{context_str(tctx)} |- {type_str(ty)}", "ok"

    if isinstance(d, s.NnfDirective):
        check_sorts(_signature_of(ctx), d.formula)
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


def _signature_of(ctx: Context) -> Signature:
    """Signature view of the declared constants.

    Zero-arity constants double as sorts and as atomic propositions;
    constants whose telescope entries are plain sort atoms are predicates.
    """
    sorts = set()
    predicates = {}
    for e in ctx.entries:
        if not isinstance(e, TypeConstDecl) or e.universe is not U0:
            continue
        if not e.telescope:
            sorts.add(e.name)
            predicates[e.name] = ()
    for e in ctx.entries:
        if not isinstance(e, TypeConstDecl) or not e.telescope:
            continue
        arg_sorts = []
        for _, ty in e.telescope:
            if isinstance(ty, Atom) and not ty.args and ty.name in sorts:
                arg_sorts.append(ty.name)
            else:
                break
        else:
            predicates[e.name] = tuple(arg_sorts)
    return Signature(sorts, predicates)


def report_text(report: s.Report) -> str:
    lines = []
    for e in report.entries:
        loc = f"{e.span.line}:{e.span.col}" if e.span else "-"
        lines.append(f"{e.status:5s} [{loc}] {e.directive}: {e.payload}")
    return "\n".join(lines) + "\n"


def report_json(report: s.Report) -> str:
    """Stable machine-readable rendering; see docs/report_schema.json."""
    items = []
    for e in report.entries:
        span = None
        if e.span is not None:
            span = {"line": e.span.line, "col": e.span.col,
                    "end_line": e.span.end_line, "end_col": e.span.end_col}
        items.append({"status": e.status, "directive": e.directive,
                      "payload": e.payload, "span": span})
    return json.dumps(items, indent=2) + "\n"
