"""Plain enumerator of spine-form inhabitants, kept as a reference.

It is the searcher as it was before the search remembered empty
subproblems: every node normalizes the context's hypothesis types again,
and every subproblem is enumerated in full each time it comes up.  Tests
compare opptypes.search against it, term for term and in order.
"""

from __future__ import annotations

from opptypes import (App, Case, CoFun, Fun, Inl, Inr, Lam, Pair, Pi, Prod,
                      Proj1, Proj2, Sigma, Sum, Var, onf, subst_type)
from opptypes.duality import components, equiv, halves
from opptypes.kernel import TermDecl
from opptypes.syntax import fresh_name


def first_inhabitant(ctx, goal, depth):
    """The first term oracle_inhabitants yields for onf(goal), or None."""
    return next(oracle_inhabitants(ctx, onf(goal), depth), None)


def oracle_inhabitants(ctx, goal, depth):
    if depth <= 0:
        return

    for decl in ctx.term_decls():
        yield from _eliminate(ctx, Var(decl.name), onf(decl.type),
                              goal, depth - 1)

    if isinstance(goal, (Fun, Pi)):
        dom, var, cod = halves(goal)
        x = fresh_name(var or "x", ctx.names)
        if var is not None:
            cod = onf(subst_type(cod, var, Var(x)))
        ctx2 = ctx.extended(TermDecl(x, dom))
        for body in oracle_inhabitants(ctx2, cod, depth - 1):
            yield Lam(x, dom, body)
    elif isinstance(goal, (Prod, CoFun, Sigma)):
        first_type = halves(goal)[0]
        for fst in oracle_inhabitants(ctx, first_type, depth - 1):
            _, snd_type = components(goal, fst)
            for snd in oracle_inhabitants(ctx, snd_type, depth - 1):
                yield Pair(fst, snd)
    elif isinstance(goal, Sum):
        for arg in oracle_inhabitants(ctx, goal.left, depth - 1):
            yield Inl(arg)
        for arg in oracle_inhabitants(ctx, goal.right, depth - 1):
            yield Inr(arg)


def _eliminate(ctx, head, head_type, goal, depth):
    if equiv(head_type, goal):
        yield head
    if depth <= 0:
        return

    if isinstance(head_type, (Fun, Pi)):
        dom, var, cod = halves(head_type)
        for arg in oracle_inhabitants(ctx, dom, depth):
            res = cod if var is None else onf(subst_type(cod, var, arg))
            yield from _eliminate(ctx, App(head, arg), res, goal, depth - 1)
    elif isinstance(head_type, (Prod, CoFun, Sigma)):
        c1, c2 = components(head_type, Proj1(head))
        yield from _eliminate(ctx, Proj1(head), c1, goal, depth - 1)
        yield from _eliminate(ctx, Proj2(head), c2, goal, depth - 1)
    elif isinstance(head_type, Sum):
        lv = fresh_name("w", ctx.names)
        rv = fresh_name("w", ctx.names)
        ctxl = ctx.extended(TermDecl(lv, head_type.left))
        ctxr = ctx.extended(TermDecl(rv, head_type.right))
        for lbody in oracle_inhabitants(ctxl, goal, depth - 1):
            for rbody in oracle_inhabitants(ctxr, goal, depth - 1):
                yield Case(head, lv, lbody, rv, rbody)
