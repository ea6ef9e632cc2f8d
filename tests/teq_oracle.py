"""Type-directed term comparison as three functions, kept as a reference.

It is how the kernel compared normal forms before _teq became one walk:
_teq takes the eta arms and the injections, _atomic_eq the case and
split terms, and _neutral_eq the spines, reading Fun apart from Pi and
Proj1 apart from Proj2.  Tests compare opptypes.kernel._teq against it
on pairs of checked, normalized terms.
"""

from __future__ import annotations

from opptypes import (App, Case, CoFun, Fun, Inl, Inr, Pi, Prod, Proj1,
                      Proj2, Sigma, Split, Sum, Var, onf, subst_type)
from opptypes.duality import components, halves
from opptypes.kernel import Context, TermDecl, _norm, _open_branches
from opptypes.syntax import TermExpr, TypeExpr, alpha_eq, open_binders


def _teq(ctx: Context, t: TermExpr, u: TermExpr, T: TypeExpr) -> bool:
    if alpha_eq(t, u):
        return True

    if isinstance(T, (Fun, Pi)):
        # t and u are well scoped in ctx, so a name outside ctx is fresh
        dom, var, cod = halves(T)
        (z,), (cod,) = open_binders(ctx.names, (var or "z",),
                                    [(cod, (var,))], [])
        ctx2 = ctx.extended(TermDecl(z, dom))
        return _teq(ctx2, _norm(App(t, Var(z))), _norm(App(u, Var(z))), cod)

    if isinstance(T, (Prod, CoFun, Sigma)):
        p1t, p1u = _norm(Proj1(t)), _norm(Proj1(u))
        c1, c2 = components(T, p1t)
        if not _teq(ctx, p1t, p1u, c1):
            return False
        return _teq(ctx, _norm(Proj2(t)), _norm(Proj2(u)), c2)

    if isinstance(T, Sum):
        if isinstance(t, Inl) and isinstance(u, Inl):
            return _teq(ctx, t.arg, u.arg, T.left)
        if isinstance(t, Inr) and isinstance(u, Inr):
            return _teq(ctx, t.arg, u.arg, T.right)
        if isinstance(t, (Inl, Inr)) or isinstance(u, (Inl, Inr)):
            return False
        return _atomic_eq(ctx, t, u, T)

    return _atomic_eq(ctx, t, u, T)


def _atomic_eq(ctx: Context, t: TermExpr, u: TermExpr,
               goal: TypeExpr) -> bool:
    """Comparison at a type with no applicable eta rule."""
    if type(t) is not type(u):
        return False

    if isinstance(t, (Case, Split)):
        styp = _neutral_eq(ctx, t.scrut, u.scrut)
        if not isinstance(styp, Sum if isinstance(t, Case) else Sigma):
            return False
        for decls, (tb, ub) in _open_branches(ctx, styp, (t, u)):
            if not _teq(Context(ctx.entries + decls), tb, ub, goal):
                return False
        return True

    return _neutral_eq(ctx, t, u) is not None


def _neutral_eq(ctx: Context, n: TermExpr, m: TermExpr):
    """Compare two neutral spines; return their common type or None."""
    if type(n) is not type(m):
        return None
    if isinstance(n, Var):
        if n.name != m.name:
            return None
        ty = ctx.lookup_term(n.name)
        return onf(ty) if ty is not None else None
    if isinstance(n, App):
        fty = _neutral_eq(ctx, n.fn, m.fn)
        if isinstance(fty, Fun):
            if not _teq(ctx, n.arg, m.arg, fty.dom):
                return None
            return fty.cod
        if isinstance(fty, Pi):
            if not _teq(ctx, n.arg, m.arg, fty.gen):
                return None
            return onf(subst_type(fty.body, fty.var, n.arg))
        return None
    if isinstance(n, Proj1):
        sty = _neutral_eq(ctx, n.arg, m.arg)
        if isinstance(sty, (Prod, CoFun, Sigma)):
            return components(sty, Proj1(n.arg))[0]
        return None
    if isinstance(n, Proj2):
        sty = _neutral_eq(ctx, n.arg, m.arg)
        if isinstance(sty, (Prod, CoFun, Sigma)):
            return components(sty, Proj1(n.arg))[1]
        return None
    return None
