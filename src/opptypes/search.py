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
names avoid both.  The caller's hypotheses are normalized and indexed
once per context, by the first search over it (Context.kept).

An elimination spine is focused on the goal (Liang and Miller, TCS 2009),
and the hypotheses are indexed by where their spines can end, in the way
of first-argument term indexing.  A spine applies a function-like type
and projects a pair-like one.  Its head is _head's: an atom or an
opposite atom by name and polarity, any other normal form by its
duality.FAMILY, the only heads duality.equiv relates.  _spine records,
for a hypothesis type and for each half a spine goes on to, the set of
heads a spine from there can end in; a Sum on the way makes it a
wildcard, because a case can reach every goal.  Each type node keeps
its record, so a type is walked once, not once per call.  Family
arguments are not looked at, so a dependent substitution cannot change
a set, and one record serves every instance of a type.  The hypotheses
are indexed by these sets, and a node tries only those whose set holds
the goal's head (at depth 1, where only the equiv test is left, it tests
those of that very head and starts nothing else); an application is not
tried when its codomain's set lacks the goal's head, and a projection is
not tried when its half's set lacks it (at the last level, when the half
is not of that very head); and a dependent pair whose second half is an
atom or an opposite atom, which only a spine can reach, ends before its
first half is enumerated when no hypothesis reaches that half's head.
(Substituting for the pair's variable changes only family arguments, and
only a case split, itself a wildcard, binds a hypothesis on the way to
that half.)

Where one enumeration runs inside another and the inner one cannot
depend on the outer value, one empty inner run ends the outer loop: the
second half of a Prod or CoFun goal, the result of a Fun spine's
application and the right branch of a case use the outer term only to
build terms, so if they have no inhabitant once, they have none for any
later outer term.  (A Pi or Sg half may depend on it, and is not cut.)

The index and the early stop skip only enumerations that are provably
empty.  A branch the index skips could yield only terms whose type equiv
accepts against the goal, and equiv accepts only types of the goal's
head; an inner run the early stop skips is the one that already came up
empty for an earlier outer term, and does not depend on it.  So the
terms found, and their order, are those of the plain enumeration.
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
                     _hyps=None, _bound=()) -> Iterator[TermExpr]:
    """Enumerate all spine-form inhabitants of a normal goal up to depth:
    eliminations of each hypothesis in turn, bound ones last, then the
    introduction rule.

    ctx is read, never extended.  _hyps is ctx's _Hypotheses, kept on
    ctx, and _bound the (variable, type) pairs bound on this branch.
    """
    if depth <= 0:
        return
    hyps = ctx.kept(_Hypotheses) if _hyps is None else _hyps
    bound, want = _bound, _head(goal)
    if depth == 1:  # a leaf: an introduction's parts would get depth 0
        for head, head_type, _ in hyps.tried(bound, want, True):
            if equiv(head_type, goal):
                yield head
        return
    for head, head_type, spine in hyps.tried(bound, want, False):
        yield from _eliminate(ctx, hyps, bound, head, head_type, spine,
                              goal, want, depth - 1)

    if isinstance(goal, (Fun, Pi)):
        x = fresh_name(halves(goal)[1] or "x", ctx.names,
                       [v.name for v, _ in bound])
        dom, cod = components(goal, Var(x))
        for body in iter_inhabitants(ctx, cod, depth - 1, hyps,
                                     bound + ((Var(x), dom),)):
            yield Lam(x, dom, body)
    elif isinstance(goal, (Prod, CoFun, Sigma)):
        first_type, var, second = halves(goal)
        if (var is not None and isinstance(second, (Atom, Opp))
                and not hyps.tried(bound, _head(second), False)):
            return
        for fst in iter_inhabitants(ctx, first_type, depth - 1, hyps, bound):
            _, snd_type = components(goal, fst)
            found = False
            for snd in iter_inhabitants(ctx, snd_type, depth - 1, hyps, bound):
                found = True
                yield Pair(fst, snd)
            if not found and var is None:
                break
    elif isinstance(goal, Sum):
        for arg in iter_inhabitants(ctx, goal.left, depth - 1, hyps, bound):
            yield Inl(arg)
        for arg in iter_inhabitants(ctx, goal.right, depth - 1, hyps, bound):
            yield Inr(arg)
    # atoms and opposite atoms: no introduction rule


class _Hypotheses:
    """A context's hypotheses, made by the first search over it and kept
    on it (Context.kept): hyps, each as (variable, normal type, _spine),
    and picked, the part of them tried, by (goal head, leaf), see tried."""

    __slots__ = ("hyps", "picked")

    def __init__(self, ctx: Context):
        hyps = []
        for d in ctx.term_decls():
            T = onf(d.type)
            hyps.append((Var(d.name), T, _spine(T)))
        self.hyps, self.picked = tuple(hyps), {}

    def tried(self, bound, want, leaf: bool):
        """The hypotheses, the caller's then those in bound, as (variable,
        type, _spine), whose spines can end in a type of head want; at a
        leaf, where only the equiv test is left, those of head want."""
        picked = self.picked.get((want, leaf))
        if picked is None:
            picked = self.picked[want, leaf] = _pick(self.hyps, want, leaf)
        if not bound:
            return picked
        return picked + _pick([(v, T, _spine(T)) for v, T in bound], want,
                              leaf)


def _pick(hyps, want, leaf: bool) -> tuple:
    if leaf:
        return tuple(h for h in hyps if h[2][0] == want)
    return tuple(h for h in hyps if h[2][1] is None or want in h[2][1])


def _eliminate(ctx: Context, hyps: _Hypotheses, bound, head: TermExpr,
               head_type: TypeExpr, spine, goal: TypeExpr, want,
               depth: int) -> Iterator[TermExpr]:
    """Extend an elimination spine of the given type toward the goal;
    spine is the type's _spine and want the goal's _head."""
    if spine[0] == want and equiv(head_type, goal):
        yield head
    if depth <= 0:
        return

    if isinstance(head_type, (Fun, Pi)):
        dom, var, _ = halves(head_type)
        (cod,) = spine[2]
        if cod[1] is not None and want not in cod[1]:
            return
        for arg in iter_inhabitants(ctx, dom, depth, hyps, bound):
            found = False
            for term in _eliminate(ctx, hyps, bound, App(head, arg),
                                   components(head_type, arg)[1], cod, goal,
                                   want, depth - 1):
                found = True
                yield term
            if not found and var is None:
                break
    elif isinstance(head_type, (Prod, CoFun, Sigma)):
        # a half is entered only if its spine can end in want, as in _pick
        leaf = depth <= 1
        for proj, half, sub in zip((Proj1, Proj2),
                                   components(head_type, Proj1(head)),
                                   spine[2]):
            if (sub[0] == want if leaf
                    else sub[1] is None or want in sub[1]):
                yield from _eliminate(ctx, hyps, bound, proj(head), half,
                                      sub, goal, want, depth - 1)
    elif isinstance(head_type, Sum) and depth > 1:
        # a case's branches get depth - 1, and none is found at depth 0
        w = fresh_name("w", ctx.names, [v.name for v, _ in bound])
        boundr = bound + ((Var(w), head_type.right),)
        for lbody in iter_inhabitants(ctx, goal, depth - 1, hyps,
                                      bound + ((Var(w), head_type.left),)):
            found = False
            for rbody in iter_inhabitants(ctx, goal, depth - 1, hyps, boundr):
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


def _spine(T: TypeExpr):
    """(head, heads, halves) for a normal type T: T's _head; the set of
    heads an elimination spine from a term of type T can end in, or None
    where a Sum on the way lets it end in any; and the same for the halves
    a spine goes on to, the codomain of a function-like T or the two
    components of a pair-like one.  Each node keeps its own (_spine), so
    a type is walked once, and the walk needs no recursion."""
    if T._spine is not None:
        return T._spine
    walk, starts = [T], []
    for S in walk:  # each type's halves are appended after it
        starts.append(len(walk))
        if S._spine is not None:
            continue
        if isinstance(S, (Fun, Pi)):
            walk.append(halves(S)[2])
        elif isinstance(S, (Prod, CoFun, Sigma)):
            walk += halves(S)[::2]
    starts.append(len(walk))
    for i in range(len(walk) - 1, -1, -1):
        S = walk[i]
        if S._spine is not None:
            continue
        subs = tuple(H._spine for H in walk[starts[i]:starts[i + 1]])
        head = _head(S)
        heads = None if isinstance(S, Sum) else frozenset((head,))
        for sub in subs:
            heads = None if heads is None or sub[1] is None else heads | sub[1]
        object.__setattr__(S, "_spine", (head, heads, subs))
    return T._spine
