"""Sort checking and translation as separate walks, kept as a reference.

It is how logic.py read a formula before one walk both checked and
translated it: check_sorts validated the formula with its own isinstance
ladder, _formula_type translated it through CONNECTIVES in a second
walk, and translation_context extended the signature's context by one
free variable at a time.  Tests compare check_sorts, translate,
translation_context and strong_equiv_check against it on generated
formulas, well sorted and malformed.  context_str prints a context entry
by entry, as printer.context_str did before a translation context kept
the printed text of its signature's declarations.
"""

from __future__ import annotations

from typing import Dict

from opptypes import (And, Atom, CoImpl, Context, Exists, Forall, Impl, Neg,
                      Opp, Or, Pred, SortError, TermDecl, TypeConstDecl, U0,
                      Var, type_equal)
from opptypes.logic import CONNECTIVES
from opptypes.printer import type_str


def check_sorts(sig, f) -> Dict[str, str]:
    """Validate f against sig; return the sorts of its free variables."""
    free: Dict[str, str] = {}

    def walk(g, bound: Dict[str, str]):
        if isinstance(g, Pred):
            if g.name not in sig.predicates:
                raise SortError(f"undeclared predicate: {g.name}")
            arity = sig.predicates[g.name]
            if len(g.args) != len(arity):
                raise SortError(
                    f"predicate {g.name} expects {len(arity)} argument(s), "
                    f"got {len(g.args)}")
            for v, s in zip(g.args, arity):
                seen = bound.get(v, free.get(v))
                if seen is None:
                    free[v] = s
                elif seen != s:
                    raise SortError(
                        f"variable {v} used at sorts {seen} and {s}")
        elif isinstance(g, (Impl, CoImpl, And, Or)):
            walk(g.lhs, bound)
            walk(g.rhs, bound)
        elif isinstance(g, Neg):
            walk(g.body, bound)
        elif isinstance(g, (Forall, Exists)):
            if g.sort not in sig.sorts:
                raise SortError(f"undeclared sort: {g.sort}")
            inner = dict(bound)
            inner[g.var] = g.sort
            walk(g.body, inner)
        else:
            raise SortError(f"not a formula: {g!r}")

    walk(f, {})
    return free


def translate(sig, f):
    return translation_context(sig, f), _formula_type(f)


def translation_context(sig, *formulas) -> Context:
    merged: Dict[str, str] = {}
    for f in formulas:
        free = check_sorts(sig, f)
        for v, sort in free.items():
            if v not in merged:
                merged[v] = sort
            elif merged[v] != sort:
                raise SortError(
                    f"variable {v} used at sorts {merged[v]} and {sort}")
    ctx = _signature_context(sig)
    for v, sort in merged.items():
        ctx = ctx.extended(TermDecl(v, Atom(sort)))
    return ctx


def _signature_context(sig) -> Context:
    def decl(name, arity):
        telescope = tuple((f"x{i + 1}", Atom(s)) for i, s in enumerate(arity))
        return TypeConstDecl(name, telescope, U0)

    entries = [decl(s, ()) for s in sorted(sig.sorts)]
    entries += [decl(p, sig.predicates[p]) for p in sorted(sig.predicates)]
    return Context(tuple(entries))


def _formula_type(f):
    cls = type(f)
    if cls is Pred:
        return Atom(f.name, tuple(Var(v) for v in f.args))
    if cls is Neg:
        return Opp(_formula_type(f.body))
    con = CONNECTIVES.get(cls)
    if con is None:
        raise SortError(f"not a formula: {f!r}")
    if cls is Forall or cls is Exists:
        return con(f.var, Atom(f.sort), _formula_type(f.body))
    return con(_formula_type(f.lhs), _formula_type(f.rhs))


def strong_equiv_check(sig, f, g) -> bool:
    ctx = translation_context(sig, f, g)
    if not type_equal(ctx, _formula_type(f), _formula_type(g)):
        return False
    return type_equal(ctx, _formula_type(Neg(f)), _formula_type(Neg(g)))


def context_str(ctx) -> str:
    parts = []
    for e in ctx.entries:
        if isinstance(e, TermDecl):
            parts.append(f"{e.name} : {type_str(e.type)}")
        elif e.telescope:
            tel = ", ".join(f"{v}:{type_str(s)}" for v, s in e.telescope)
            parts.append(f"{e.name}({tel}) : {e.universe!s}")
        else:
            parts.append(f"{e.name} : {e.universe!s}")
    return ", ".join(parts)
