"""Bounded, exhaustive inhabitation search.

The searcher enumerates beta-normal inhabitants in spine form: it either
builds an elimination chain starting from a context variable, or applies
an introduction rule to the goal, each step consuming one unit of depth.
Atoms and opposite atoms have no introduction rule, so they can only be
reached through the context.  Up to the depth bound the enumeration is
exhaustive over the rule schemas; an empty result is therefore evidence
of non-inhabitation at that depth, which is what the paraconsistency and
non-collapse tests rely on.  Rule order (assumptions left to right, then
introductions) is fixed, so results are deterministic.

The caller's context is read, never extended: hypotheses bound on a
branch go down it as one tuple, tried after the caller's, and fresh
names avoid both.  Per top-level call the caller's hypotheses are
normalized once, and each (bound hypotheses, goal) subproblem that ran
out without a result is remembered with its depth; enumeration only
grows with depth, so it is skipped when met again at that depth or less.

An elimination spine is focused on the goal (Liang and Miller, TCS 2009):
before the argument of a function-typed spine is enumerated, _reaches
asks whether any spine from its codomain can end in the goal's head.  An
atom or an opposite atom matches by name and polarity, any other normal
form by its duality.FAMILY, the only heads duality.equiv relates, and a
Sum on the way reaches every goal, because a case can.  Family arguments
are not looked at, so a dependent substitution cannot change the answer.

Where one enumeration runs inside another and the inner one cannot
depend on the outer value, one empty inner run ends the outer loop: the
second half of a Prod or CoFun goal, the result of a Fun spine's
application and the right branch of a case use the outer term only to
build terms, so if they have no inhabitant once, they have none for any
later outer term.  (A Pi or Sg half may depend on it, and is not cut.)

The memo, the reach test and the early stop skip only enumerations that
are provably empty: a skipped branch could yield only terms whose type
equiv accepts against the goal, and there are none.  So the terms found,
and their order, are those of the plain enumeration.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .duality import FAMILY, components, equiv, halves, onf
from .errors import DepthCapExceeded
from .kernel import Context, U0, ensure_formed
from .syntax import (App, Atom, Case, CoFun, Fun, Inl, Inr, Lam, Opp, Pair,
                     Pi, Prod, Proj1, Proj2, Sigma, Sum, TermExpr, TypeExpr,
                     Var, fresh_name)

DEPTH_CAP = 8


def bounded_inhabit(ctx: Context, A: TypeExpr,
                    depth: int) -> Optional[TermExpr]:
    """First inhabitant of A in ctx found within the depth bound, or None.

    Depth counts rule applications along a branch of the term, at most
    DEPTH_CAP.  Any term returned checks against A in the kernel.
    """
    if depth > DEPTH_CAP:
        raise DepthCapExceeded(f"depth {depth} exceeds the cap of {DEPTH_CAP}")
    ensure_formed(ctx, A, U0)
    return next(iter_inhabitants(ctx, onf(A), depth), None)


def iter_inhabitants(ctx: Context, goal: TypeExpr, depth: int,
                     _call=None, _bound=()) -> Iterator[TermExpr]:
    """Enumerate all spine-form inhabitants of a normal goal up to depth.

    ctx is read, never extended.  _call, made once per top-level call,
    holds ctx's normalized hypotheses and the memo, keyed on _bound, the
    (variable, type) pairs bound on this branch, and the goal.
    """
    if depth <= 0:
        return
    if _call is None:
        _call = (tuple((Var(d.name), onf(d.type))
                       for d in ctx.term_decls()), {})
    empty, key = _call[1], (_bound, goal)
    if empty.get(key, 0) >= depth:
        return
    found = False
    for term in _inhabitants(ctx, _call, _bound, goal, depth):
        found = True
        yield term
    if not found:
        empty[key] = depth


def _inhabitants(ctx: Context, call, bound, goal: TypeExpr,
                 depth: int) -> Iterator[TermExpr]:
    """The enumeration behind iter_inhabitants: eliminations of each
    hypothesis in turn, bound ones last, then the introduction rule."""
    for head, head_type in call[0] + bound:
        yield from _eliminate(ctx, call, bound, head, head_type, goal,
                              depth - 1)

    if isinstance(goal, (Fun, Pi)):
        x = fresh_name(halves(goal)[1] or "x", ctx.names,
                       [v.name for v, _ in bound])
        dom, cod = components(goal, Var(x))
        for body in iter_inhabitants(ctx, cod, depth - 1, call,
                                     bound + ((Var(x), dom),)):
            yield Lam(x, dom, body)
    elif isinstance(goal, (Prod, CoFun, Sigma)):
        first_type, var, _ = halves(goal)
        for fst in iter_inhabitants(ctx, first_type, depth - 1, call, bound):
            _, snd_type = components(goal, fst)
            found = False
            for snd in iter_inhabitants(ctx, snd_type, depth - 1, call, bound):
                found = True
                yield Pair(fst, snd)
            if not found and var is None:
                break
    elif isinstance(goal, Sum):
        for arg in iter_inhabitants(ctx, goal.left, depth - 1, call, bound):
            yield Inl(arg)
        for arg in iter_inhabitants(ctx, goal.right, depth - 1, call, bound):
            yield Inr(arg)
    # atoms and opposite atoms: no introduction rule


def _eliminate(ctx: Context, call, bound, head: TermExpr,
               head_type: TypeExpr, goal: TypeExpr,
               depth: int) -> Iterator[TermExpr]:
    """Extend an elimination spine of the given type toward the goal."""
    if equiv(head_type, goal):
        yield head
    if depth <= 0:
        return

    if isinstance(head_type, (Fun, Pi)):
        dom, var, cod = halves(head_type)
        if not _reaches(cod, goal):
            return
        for arg in iter_inhabitants(ctx, dom, depth, call, bound):
            found = False
            for term in _eliminate(ctx, call, bound, App(head, arg),
                                   components(head_type, arg)[1], goal,
                                   depth - 1):
                found = True
                yield term
            if not found and var is None:
                break
    elif isinstance(head_type, (Prod, CoFun, Sigma)):
        c1, c2 = components(head_type, Proj1(head))
        yield from _eliminate(ctx, call, bound, Proj1(head), c1, goal,
                              depth - 1)
        yield from _eliminate(ctx, call, bound, Proj2(head), c2, goal,
                              depth - 1)
    elif isinstance(head_type, Sum):
        w = fresh_name("w", ctx.names, [v.name for v, _ in bound])
        boundr = bound + ((Var(w), head_type.right),)
        for lbody in iter_inhabitants(ctx, goal, depth - 1, call,
                                      bound + ((Var(w), head_type.left),)):
            found = False
            for rbody in iter_inhabitants(ctx, goal, depth - 1, call, boundr):
                found = True
                yield Case(head, w, lbody, w, rbody)
            if not found:
                break


def _head(T: TypeExpr):
    """Atoms by name and polarity, every other normal form by family."""
    if isinstance(T, Atom):
        return T.name, True
    if isinstance(T, Opp):
        return T.inner.name, False
    return FAMILY[type(T)]


def _reaches(T: TypeExpr, goal: TypeExpr) -> bool:
    """Whether an elimination spine from a term of normal type T can end
    in a type with the goal's head.  A spine applies a function-like type
    and projects a pair-like one; a Sum reaches every goal."""
    want = _head(goal)
    stack = [T]
    while stack:
        T = stack.pop()
        if isinstance(T, Sum) or _head(T) == want:
            return True
        if isinstance(T, (Fun, Pi)):
            stack.append(halves(T)[2])
        elif isinstance(T, (Prod, CoFun, Sigma)):
            stack += halves(T)[::2]
    return False
