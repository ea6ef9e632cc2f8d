"""Judgment checking for the paraconsistent type theory.

The checker is bidirectional: introduction forms are checked against a
goal type, elimination forms infer their type, and annotations mediate.
Every type that the kernel compares or returns is first reduced to
opposite normal form (see duality.onf), so the distribution rules for the
opposite constructor hold definitionally and the rules for opposite types
reduce to the rules of the seven head constructors:

    goal shape      introduction            eliminations
    A -> B          \\x:A. b                 f a
    Pi x:A. B       \\x:A. b                 f a
    A * B           <a, b>                  p1 c : A,  p2 c : B
    B <~ A          <a, b>  (a:~A, b:B)     p1 c : ~A, p2 c : B
    Sg x:A. B       <a, b>  (b : B(a))      p1, p2, split
    A + B           inl a | inr b           case
    ~x (x atomic)   none                    none

Since, for example, ~(A -> B) normalizes to ~B <~ ~A, pairing a proof of
A with a refutation of B refutes A -> B, exactly as the refutation
reading demands.  Beyond normal-form equality, checking also accepts a
term whose inferred type is equivalent to the goal (see duality.equiv).
"""

from __future__ import annotations

import enum
import weakref
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple, Union

from .duality import components, dual, equiv, halves, onf
from .errors import (IllFormedContext, IllFormedType,
                     InternalInvariantViolation, InvalidDerivation,
                     NonInferableTerm, TypeMismatch, TypeTheoryError,
                     UnboundVariable)
from .syntax import (SCOPES, Ann, App, Atom, Case, CoFun, Fun, Inl, Inr,
                     Lam, Opp, Pair, Pi, Prod, Proj1, Proj2, Sigma, Split,
                     Sum, TermExpr, TypeExpr, Var, alpha_eq, free_vars,
                     normalize_term, open_binders, subst)


class Universe(enum.Enum):
    U0 = 0
    U1 = 1

    def __str__(self) -> str:
        return "U0" if self is Universe.U0 else "U1"


U0 = Universe.U0
U1 = Universe.U1


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermDecl:
    name: str
    type: TypeExpr


@dataclass(frozen=True)
class TypeConstDecl:
    """Declaration of a type constant.

    An empty telescope declares a plain type variable; a non-empty one
    declares a dependent family, applied to term arguments that are checked
    against the telescope entry by entry (later entries may mention earlier
    variables).  The universe is the one the applied constant lands in.
    """
    name: str
    telescope: Tuple[Tuple[str, TypeExpr], ...] = ()
    universe: Universe = U0


ContextEntry = Union[TermDecl, TypeConstDecl]


@dataclass(frozen=True)
class Context:
    """Ordered telescope of term declarations and type-constant declarations.

    Each context has an index from every name to the last entry under
    that name, beside the fields, so ==, hash, repr and replace ignore
    it.  A context built directly indexes its entries on first use, and
    extended hands the index over to the new context: a context used
    again after that builds its own from its entries.  A lookup reads
    the index and scans the entries only when the last entry under the
    name is of the other kind, which only a context built by hand can
    give.  Pickling and copying drop the index, which the copy builds
    again on first use.

    A kernel walk binds the names it opens in the index of the context
    it walks in, while it runs (see _Bound), so a names view shows them
    until the walk leaves their binders.  No two threads may walk one
    context at once, and a context a walk is in must not be extended.

    A context may also keep, beside its fields, the printed text of its
    first entries, which its builder notes with with_printed_prefix and
    printer.context_str reuses: logic's translation contexts keep that
    of their signature's declarations.  And it keeps what kept makes from
    it, once per context, as the search keeps its hypotheses' index;
    pickling, copying and extending do not carry that over.
    """
    entries: Tuple[ContextEntry, ...] = ()

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_by_name", None)
        state.pop("_kept", None)
        return state

    def with_printed_prefix(self, n: int, text: str) -> "Context":
        """Note beside the fields that the first n entries print as
        text, and return this same context."""
        object.__setattr__(self, "_printed_prefix", (n, text))
        return self

    @property
    def printed_prefix(self) -> Tuple[int, str]:
        """(n, text) as noted by with_printed_prefix, else (0, "")."""
        return self.__dict__.get("_printed_prefix", (0, ""))

    def kept(self, make):
        """make(self), made at the first call with make and kept beside
        the fields after that (see Context)."""
        kept = self.__dict__.setdefault("_kept", {})
        if make not in kept:
            kept[make] = make(self)
        return kept[make]

    def _index(self) -> dict:
        """The index, built from the entries if this context has none."""
        index = self.__dict__.get("_by_name")
        if index is None:
            index = {e.name: e for e in self.entries}
            self.__dict__["_by_name"] = index
        return index

    @property
    def names(self):
        return self._index().keys()

    def lookup_term(self, name: str) -> Optional[TypeExpr]:
        e = self._index().get(name)
        if e is not None and not isinstance(e, TermDecl):
            e = self._scan(TermDecl, name)
        return None if e is None else e.type

    def lookup_const(self, name: str) -> Optional[TypeConstDecl]:
        e = self._index().get(name)
        if e is not None and not isinstance(e, TypeConstDecl):
            e = self._scan(TypeConstDecl, name)
        return e

    def _scan(self, kind, name: str):
        for e in reversed(self.entries):
            if isinstance(e, kind) and e.name == name:
                return e
        return None

    def extended(self, entry: ContextEntry) -> "Context":
        index = self._index()
        del self.__dict__["_by_name"]
        index[entry.name] = entry
        ctx = Context(self.entries + (entry,))
        ctx.__dict__["_by_name"] = index
        return ctx

    def term_decls(self):
        return tuple(e for e in self.entries if isinstance(e, TermDecl))


EMPTY = Context()


def declare_term(ctx: Context, name: str, type_: TypeExpr) -> Context:
    """Extend ctx with name : type_, validating the declaration."""
    if name in ctx.names:
        raise IllFormedContext(f"duplicate declaration of {name}")
    ensure_formed(ctx, type_, U0)
    return ctx.extended(TermDecl(name, type_))


def declare_type_const(ctx: Context, name: str,
                       telescope=(), universe: Universe = U0) -> Context:
    """Extend ctx with a type constant, validating its telescope."""
    if name in ctx.names:
        raise IllFormedContext(f"duplicate declaration of {name}")
    with ExitStack() as scope:
        for var, sort in telescope:
            ensure_formed(ctx, sort, U0)
            if var in ctx.names:
                raise IllFormedContext(f"duplicate telescope variable {var} "
                                       f"in declaration of {name}")
            scope.enter_context(_Bound(ctx, (TermDecl(var, sort),)))
    return ctx.extended(TypeConstDecl(name, tuple(telescope), universe))


def check_context(ctx: Context) -> None:
    """Re-validate a context built by hand, left to right."""
    acc = EMPTY
    for entry in ctx.entries:
        if isinstance(entry, TermDecl):
            acc = declare_term(acc, entry.name, entry.type)
        else:
            acc = declare_type_const(acc, entry.name, entry.telescope,
                                     entry.universe)


# ---------------------------------------------------------------------------
# Judgments and derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formation:
    ctx: Optional[Context]
    type: TypeExpr
    universe: Universe


@dataclass(frozen=True)
class Typing:
    ctx: Context
    term: TermExpr
    type: TypeExpr


@dataclass(frozen=True)
class TypeEq:
    ctx: Optional[Context]
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class TermEq:
    ctx: Context
    left: TermExpr
    right: TermExpr
    type: TypeExpr


Judgment = Union[Formation, Typing, TypeEq, TermEq]


@dataclass(frozen=True)
class Derivation:
    """Evidence object: a rule name, a conclusion, and sub-derivations.

    The rule name is part of the evidence: recheck() looks it up and
    verifies that the conclusion follows from the premises' conclusions
    under that rule, and rejects a name it does not know.
    """
    rule: str
    conclusion: Judgment
    premises: Tuple["Derivation", ...] = ()


# ---------------------------------------------------------------------------
# Type formation
# ---------------------------------------------------------------------------

# rule-name stems: the rules of a constructor's types are <stem>-form,
# <stem>-intro, <stem>-elim and <stem>-elim-<side>
_STEM = {Fun: "fun", CoFun: "cofun", Prod: "prod", Sum: "sum", Pi: "pi",
         Sigma: "sigma", Opp: "opp"}


def check_formation(ctx: Context, A: TypeExpr, u: Universe) -> Derivation:
    """Derivation that A is a type in universe u.

    U0 is closed under all eight constructors; U1 only under the function
    arrow, over atoms declared in U1 or lifted from U0 (the lift exists
    solely so predicate classifiers over small sorts can be formed).
    """
    return _form(ctx, A, u, _node)


def ensure_formed(ctx: Context, A: TypeExpr, u: Universe) -> None:
    """Check that A is a type in universe u, as check_formation does, with
    the same errors in the same order, but build no derivation."""
    _form(ctx, A, u, _no_node)


def _node(rule: str, judgment, ctx: Context, x, y, premises):
    return Derivation(rule, judgment(ctx, x, y), tuple(premises))


def _no_node(rule, judgment, ctx, x, y, premises):
    return None


class _Bound:
    """`with _Bound(ctx, decls, node) as inner:` runs its block with decls,
    term declarations of names ctx does not hold, bound in ctx's index,
    and unbinds them on the way out, raised or not.  inner is ctx itself,
    or, when node builds derivation nodes, a context of their own for
    them: ctx's entries and decls, over a copy of the bound index."""
    __slots__ = ("ctx", "decls", "node", "index")

    def __init__(self, ctx: "Context", decls, node=_no_node):
        self.ctx, self.decls, self.node = ctx, decls, node

    def __enter__(self) -> "Context":
        ctx = self.ctx
        index = self.index = ctx._index()
        for decl in self.decls:
            index[decl.name] = decl
        if self.node is _no_node:
            return ctx
        inner = Context(ctx.entries + self.decls)
        inner.__dict__["_by_name"] = index.copy()
        return inner

    def __exit__(self, *exc) -> None:
        index = self.index
        for decl in self.decls:
            del index[decl.name]


def _form(ctx: Context, A: TypeExpr, u: Universe, node):
    """The formation walk behind check_formation and ensure_formed: node
    makes each node of the derivation from its rule, its conclusion's
    judgment class and parts, and its premises, or makes nothing.  The
    kernel's own formations go through here, as its own typings go
    through _check, with the same node."""
    if isinstance(A, Atom):
        decl = ctx.lookup_const(A.name)
        if decl is None:
            raise IllFormedType(f"unbound type constant: {A.name}")
        if len(A.args) != len(decl.telescope):
            raise IllFormedType(
                f"{A.name} expects {len(decl.telescope)} argument(s), "
                f"got {len(A.args)}")
        if decl.universe is U1 and u is U0:
            raise IllFormedType(f"{A.name} lives in U1, not in U0")
        premises = []
        inst = {}
        for (tvar, sort), arg in zip(decl.telescope, A.args):
            sort = subst(sort, inst)
            premises.append(_check(ctx, arg, sort, node, onf(sort)))
            inst[tvar] = arg
        rule = "atom-form" if decl.universe is u else "atom-form-lift"
        return node(rule, Formation, ctx, A, u, premises)

    if u is U1 and not isinstance(A, Fun):
        raise IllFormedType(
            f"universe U1 is closed only under ->, cannot form {A}")

    if isinstance(A, Opp):
        # a run of ~ is read with a loop, so a deep one costs no stack
        run = []
        while isinstance(A, Opp):
            run.append(A)
            A = A.inner
        d = _form(ctx, A, U0, node)
        for opp in reversed(run):
            d = node("opp-form", Formation, ctx, opp, U0, (d,))
        return d
    if isinstance(A, TypeExpr):
        # the subtrees of SCOPES in order; a binder's body is formed
        # under its generating type
        premises = []
        for field, *binders in SCOPES[type(A)]:
            sub = getattr(A, field)
            if not binders:
                premises.append(_form(ctx, sub, u, node))
                continue
            var = A.var
            if var in ctx.names:
                (var,), (sub,) = open_binders(
                    ctx.names, (var,), [(sub, (var,))], [A.gen])
            with _Bound(ctx, (TermDecl(var, A.gen),), node) as inner:
                premises.append(_form(inner, sub, u, node))
        return node(f"{_STEM[type(A)]}-form", Formation, ctx, A, u,
                    premises)
    raise IllFormedType(f"not a type: {A!r}")


# ---------------------------------------------------------------------------
# Type equality and equivalence
# ---------------------------------------------------------------------------

def type_equal(ctx: Optional[Context], A: TypeExpr, B: TypeExpr) -> bool:
    """Definitional equality: equality of opposite normal forms.

    When a context is supplied both types are first validated in U0.
    """
    if ctx is not None:
        ensure_formed(ctx, A, U0)
        ensure_formed(ctx, B, U0)
    return _type_equal(A, B)


def _type_equal(A: TypeExpr, B: TypeExpr) -> bool:
    return alpha_eq(onf(A), onf(B))


def equivalent(ctx: Optional[Context], A: TypeExpr, B: TypeExpr) -> bool:
    """Inhabitation equivalence: duality.equiv of the normal forms, once
    both types are validated in U0 when a context is supplied."""
    if ctx is not None:
        ensure_formed(ctx, A, U0)
        ensure_formed(ctx, B, U0)
    return equiv(onf(A), onf(B))


def check_duality_principle(A: TypeExpr, ctx=None):
    """Derivation of the judgment A = ~(dual A) : U0.

    With a context the input is first validated; without one the check is
    purely syntactic.  Failure on a well-formed input would mean the
    normalizer and the dual operation disagree, which is a bug, so it is
    reported as InternalInvariantViolation.
    """
    premises = []
    if ctx is not None:
        premises.append(_form(ctx, A, U0, _node))
    rhs = Opp(dual(A))
    left, right = onf(A), onf(rhs)
    if not alpha_eq(left, right):
        raise InternalInvariantViolation(
            f"duality principle failed: onf({A}) = {left} "
            f"but onf(~dual) = {right}")
    premises.append(Derivation("onf", TypeEq(ctx, A, left), ()))
    premises.append(Derivation("onf", TypeEq(ctx, rhs, right), ()))
    return Derivation("duality-principle", TypeEq(ctx, A, rhs),
                      tuple(premises))


# ---------------------------------------------------------------------------
# Bidirectional checking
# ---------------------------------------------------------------------------

# a weak reference to the derivation check returned last (see check)
_last = [lambda: None]


def check(ctx: Context, t: TermExpr, A: TypeExpr) -> Derivation:
    """Derivation of ctx |- t : A.

    Expects A to be well formed (see check_formation); introductions are
    checked against the normal form of A, eliminations are inferred and
    their type compared up to equivalence.  A caller that drops the
    derivation should call ensure_typed, which builds none.

    Asked again with the very objects (is, not ==) of the judgment it
    proved last, check returns the derivation it gave then, which it
    holds only weakly.  Contexts, terms and types are immutable, so the
    same three objects have the same derivation.
    """
    d = _last[0]()
    if d is not None:
        c = d.conclusion
        if c.ctx is ctx and c.term is t and c.type is A:
            return d
    d = _check(ctx, t, A, _node, onf(A))
    _last[0] = weakref.ref(d)
    return d


def ensure_typed(ctx: Context, t: TermExpr, A: TypeExpr) -> None:
    """Check that ctx |- t : A, as check does, with the same errors in the
    same order, but build no derivation and neither read nor fill
    check's memo."""
    _check(ctx, t, A, _no_node, onf(A))


def _check(ctx: Context, t: TermExpr, A: TypeExpr, node, goal=None):
    """The typing walk behind check and ensure_typed, with node as in
    _form: the kernel's own typings go through here, so they neither add
    a Python frame a level nor displace check's memo.  The conclusion
    states A, and the rules read goal, its normal form, which an entry
    point works out once; a rule passing on a normal half passes no
    goal.  A binder whose name ctx does not hold is opened as it stands."""
    if goal is None:
        goal = A

    if isinstance(t, Lam):
        if not isinstance(goal, (Fun, Pi)):
            raise TypeMismatch(
                f"a lambda cannot have type {goal}", expected=goal, actual=None)
        (dom, gvar, cod), ann = halves(goal), onf(t.dom)
        if not equiv(ann, dom):
            raise TypeMismatch(f"lambda domain {ann} does not match {dom}",
                               expected=dom, actual=ann)
        var, body = t.var, t.body
        if var in ctx.names:
            (var,), (body,) = open_binders(ctx.names, (var,),
                                           ((body, (var,)),), (dom,))
        if gvar not in (None, var):
            cod = components(goal, Var(var))[1]
        with _Bound(ctx, (TermDecl(var, dom),), node) as inner:
            d = _check(inner, body, cod, node)
        return node(f"{_STEM[type(goal)]}-intro", Typing, ctx, t, A, (d,))

    if isinstance(t, Pair):
        if isinstance(goal, (Prod, CoFun, Sigma)):
            c1, c2 = components(goal, t.fst)
            d1 = _check(ctx, t.fst, c1, node)
            d2 = _check(ctx, t.snd, c2, node)
            return node(f"{_STEM[type(goal)]}-intro", Typing, ctx, t, A,
                        (d1, d2))
        raise TypeMismatch(
            f"a pair cannot have type {goal}", expected=goal, actual=None)

    if isinstance(t, (Inl, Inr)):
        side = "left" if isinstance(t, Inl) else "right"
        if isinstance(goal, Sum):
            d = _check(ctx, t.arg, getattr(goal, side), node)
            return node(f"sum-intro-{side}", Typing, ctx, t, A, (d,))
        raise TypeMismatch(
            f"a {side} injection cannot have type {goal}",
            expected=goal, actual=None)

    if isinstance(t, (Case, Split)):
        rule, dscrut, branches = _open_elim(ctx, t, node, goal)
        premises = [dscrut]
        for decls, (body,) in branches:
            with _Bound(ctx, decls, node) as inner:
                premises.append(_check(inner, body, goal, node))
        return node(rule, Typing, ctx, t, A, premises)

    if isinstance(t, Ann):
        df = _form(ctx, t.type, U0, node)
        ann = onf(t.type)
        dt = _check(ctx, t.term, t.type, node, ann)
        if not equiv(ann, goal):
            raise TypeMismatch(
                f"annotation {ann} does not match expected {goal}",
                expected=goal, actual=ann)
        return node("ann", Typing, ctx, t, A, (df, dt))

    # elimination or variable: infer then convert
    ity, d = _infer(ctx, t, node)
    if not equiv(ity, goal):
        raise TypeMismatch(
            f"term {t} has type {ity}, expected {goal}",
            expected=goal, actual=ity)
    return node("conv", Typing, ctx, t, A, (d,))


def _open_elim(ctx: Context, t: Union[Case, Split], node, goal=None):
    """The rule that eliminates t's scrutinee, the scrutinee's derivation
    (made by node), and t's opened branches (see _open_branches)."""
    styp, dscrut = _infer(ctx, t.scrut, node)
    if isinstance(t, Case) and not isinstance(styp, Sum):
        raise TypeMismatch(
            f"case scrutinee must have a sum-shaped type, got {styp}",
            expected=None, actual=styp)
    if isinstance(t, Split) and not isinstance(styp, Sigma):
        raise TypeMismatch(
            f"split scrutinee must have a dependent-pair-shaped type, "
            f"got {styp}", expected=None, actual=styp)
    return (f"{_STEM[type(styp)]}-elim", dscrut,
            _open_branches(ctx, styp, (t,), goal))


def _open_branches(ctx: Context, styp: TypeExpr, elims, goal=None):
    """Open the branches of case terms over a scrutinee of sum type styp,
    or of split terms over one of dependent pair type styp.

    The binders are named after the first term's, but not after a
    variable free in goal, the type the branches are checked against,
    which the binders must not capture.  Returns, per branch, the term
    declarations of its binders and each term's body; the caller binds
    one branch at a time (see _Bound).
    """
    n, case = len(elims), isinstance(elims[0], Case)
    # the goal lies in the binders' scope, but none of them binds in it
    outer = [] if goal is None else [(goal, (None,) * (1 if case else 2))]
    if case:
        sides = ((styp.left, [(e.lbranch, (e.lvar,)) for e in elims]),
                 (styp.right, [(e.rbranch, (e.rvar,)) for e in elims]))
        branches = []
        for ty, scopes in sides:
            (name,), bodies = open_binders(ctx.names, scopes[0][1],
                                           scopes + outer, [ty])
            branches.append(((TermDecl(name, ty),), bodies[:n]))
        return branches
    scopes = [(e.body, (e.var1, e.var2)) for e in elims]
    (v1, v2), bodies = open_binders(ctx.names, scopes[0][1], scopes + outer,
                                    [styp])
    gen, snd = components(styp, Var(v1))
    return [((TermDecl(v1, gen), TermDecl(v2, snd)), bodies[:n])]


def infer(ctx: Context, t: TermExpr) -> TypeExpr:
    """Infer a type for t, returned in opposite normal form.

    Bare pairs and injections are rejected: several non-equal types share
    their introduction rule, so no canonical choice exists; annotate them.
    Like ensure_typed, infer builds no derivation.
    """
    return _infer(ctx, t, _no_node)[0]


def _infer(ctx: Context, t: TermExpr, node):
    """The inferred type of t in normal form, and its derivation made by
    node as in _form."""
    if isinstance(t, Var):
        ty = ctx.lookup_term(t.name)
        if ty is None:
            raise UnboundVariable(f"unbound variable: {t.name}")
        nf = onf(ty)
        return nf, node("var", Typing, ctx, t, nf, ())

    if isinstance(t, Ann):
        df = _form(ctx, t.type, U0, node)
        nf = onf(t.type)
        dt = _check(ctx, t.term, t.type, node, nf)
        return nf, node("ann", Typing, ctx, t, nf, (df, dt))

    if isinstance(t, App):
        fty, df = _infer(ctx, t.fn, node)
        if not isinstance(fty, (Fun, Pi)):
            raise TypeMismatch(f"cannot apply a term of type {fty}",
                               expected=None, actual=fty)
        da = _check(ctx, t.arg, halves(fty)[0], node)
        _, res = components(fty, t.arg)
        return res, node(f"{_STEM[type(fty)]}-elim", Typing, ctx, t, res,
                         (df, da))

    if isinstance(t, (Proj1, Proj2)):
        sty, d = _infer(ctx, t.arg, node)
        if not isinstance(sty, (Prod, CoFun, Sigma)):
            raise TypeMismatch(
                f"cannot project from a term of type {sty}",
                expected=None, actual=sty)
        if isinstance(t, Proj1):
            res, side = halves(sty)[0], 1
        else:
            res, side = components(sty, Proj1(t.arg))[1], 2
        return res, node(f"{_STEM[type(sty)]}-elim-{side}", Typing, ctx, t,
                         res, (d,))

    if isinstance(t, (Case, Split)):
        rule, dscrut, branches = _open_elim(ctx, t, node)
        types, premises, escaped = [], [dscrut], False
        for decls, (body,) in branches:
            with _Bound(ctx, decls, node) as inner:
                ty, d = _infer(inner, body, node)
            types.append(ty)
            premises.append(d)
            escaped = escaped or not free_vars(ty).isdisjoint(
                decl.name for decl in decls)
        if escaped:
            raise NonInferableTerm(
                "case branch type mentions its bound variable; "
                "annotate the case expression" if isinstance(t, Case) else
                "split body type mentions a bound variable; "
                "annotate the split expression")
        ty = types[0]
        if len(types) == 2 and not _type_equal(ty, types[1]):
            raise TypeMismatch(
                f"case branches have different types: {ty} vs {types[1]}",
                expected=ty, actual=types[1])
        return ty, node(rule, Typing, ctx, t, ty, premises)

    if isinstance(t, Lam):
        df = _form(ctx, t.dom, U0, node)
        var, body = t.var, t.body
        if var in ctx.names:
            (var,), (body,) = open_binders(ctx.names, (var,),
                                           [(body, (var,))], [t.dom])
        with _Bound(ctx, (TermDecl(var, t.dom),), node) as inner:
            bty, db = _infer(inner, body, node)
        res = onf(Pi(var, t.dom, bty))
        return res, node(f"{_STEM[type(res)]}-intro", Typing, ctx, t, res,
                         (df, db))

    if isinstance(t, Pair):
        raise NonInferableTerm(
            "a bare pair admits several non-equal types (a product, a "
            "co-function, a dependent pair, or an opposite); annotate it")
    if isinstance(t, (Inl, Inr)):
        raise NonInferableTerm(
            "a bare injection admits several non-equal types (a sum or an "
            "opposite product); annotate it")
    raise NonInferableTerm(f"cannot infer a type for {t!r}")


# ---------------------------------------------------------------------------
# Term equality
# ---------------------------------------------------------------------------

def term_equal(ctx: Context, t: TermExpr, u: TermExpr, A: TypeExpr) -> bool:
    """Definitional term equality at type A.

    Like check, expects A to be well formed.  Both terms are checked
    against A first (errors propagate): t by check, so a t the caller has
    just checked hits check's memo, and u by ensure_typed, which builds
    no derivation.  Each is then reduced to normal form once and the two
    are compared type-directed: an eta or projection step reads the
    normal form of t z, p1 t or p2 t off that of t, as the body renamed
    to z, a component, or a neutral node.  The theory is beta, the identity
    contractions of case and split (see normalize_term), and eta at
    function-like types (Fun, Pi; compared by applying to a fresh
    variable) and at pair-like types (Prod, Sigma, and CoFun, which
    opposites of function types become; compared by projections).  At
    sums and atoms terms are compared structurally: there is no eta at
    sums and no commuting conversion, so a case at a function type is not
    equal to the case of its branches' eta expansions.
    """
    check(ctx, t, A)
    ensure_typed(ctx, u, A)
    return _teq(ctx, _norm(t), _norm(u), onf(A))


def _norm(t: TermExpr) -> TermExpr:
    return normalize_term(t, type_norm=onf)


def _teq(ctx: Context, t: TermExpr, u: TermExpr, T: TypeExpr) -> bool:
    """Compare normal forms t and u, both of type T."""
    if alpha_eq(t, u):
        return True

    if isinstance(T, (Fun, Pi)):
        # t and u are well scoped in ctx, so a name outside ctx is fresh
        dom, var, cod = halves(T)
        (z,), (cod,) = open_binders(ctx.names, (var or "z",),
                                    [(cod, (var,))], [])
        with _Bound(ctx, (TermDecl(z, dom),)):
            return _teq(ctx, _applied(t, z), _applied(u, z), cod)

    if isinstance(T, (Prod, CoFun, Sigma)):
        p1t, p1u = _projected(Proj1, t), _projected(Proj1, u)
        c1, c2 = components(T, p1t)
        if not _teq(ctx, p1t, p1u, c1):
            return False
        return _teq(ctx, _projected(Proj2, t), _projected(Proj2, u), c2)

    if type(t) is not type(u):
        return False
    if isinstance(t, (Inl, Inr)):
        # an injection has a sum type
        side = T.left if isinstance(t, Inl) else T.right
        return _teq(ctx, t.arg, u.arg, side)
    if isinstance(t, (Case, Split)):
        styp = _neutral_eq(ctx, t.scrut, u.scrut)
        if not isinstance(styp, Sum if isinstance(t, Case) else Sigma):
            return False
        for decls, (tb, ub) in _open_branches(ctx, styp, (t, u)):
            with _Bound(ctx, decls):
                if not _teq(ctx, tb, ub, T):
                    return False
        return True
    return _neutral_eq(ctx, t, u) is not None


def _applied(t: TermExpr, z: str) -> TermExpr:
    """The normal form of t z, for t normal and z fresh: renaming a
    lambda's variable to z makes no redex, since subst renames any
    binder that z would meet."""
    if isinstance(t, Lam):
        return subst(t.body, {t.var: Var(z)})
    return App(t, Var(z))


def _projected(proj, t: TermExpr) -> TermExpr:
    """The normal form of proj t (Proj1 or Proj2), for t normal."""
    if isinstance(t, Pair):
        return t.fst if proj is Proj1 else t.snd
    return proj(t)


def _neutral_eq(ctx: Context, n: TermExpr, m: TermExpr):
    """Compare two neutral spines; return their common type up to family
    arguments, or None.

    A dependent codomain or second component is returned with its bound
    variable left free, not instantiated: types depend on terms only
    through family arguments, and _teq never looks inside an atom.
    """
    if type(n) is not type(m):
        return None
    if isinstance(n, Var):
        ty = ctx.lookup_term(n.name) if n.name == m.name else None
        return None if ty is None else onf(ty)
    if isinstance(n, App):
        fty = _neutral_eq(ctx, n.fn, m.fn)
        if (not isinstance(fty, (Fun, Pi))
                or not _teq(ctx, n.arg, m.arg, halves(fty)[0])):
            return None
        return halves(fty)[2]
    if isinstance(n, (Proj1, Proj2)):
        sty = _neutral_eq(ctx, n.arg, m.arg)
        if not isinstance(sty, (Prod, CoFun, Sigma)):
            return None
        return halves(sty)[2 if isinstance(n, Proj2) else 0]
    return None


# ---------------------------------------------------------------------------
# Derivation auditing
# ---------------------------------------------------------------------------

def recheck(d: Derivation) -> bool:
    """Re-verify a derivation node by node, re-deriving nothing.

    Each node's rule is looked up in _RULES, and its conclusion must
    follow from its premises' conclusions under that rule alone: the
    rule fixes the judgment form, the number of premises, their contexts
    (the node's own, or it extended by fresh term declarations), their
    terms (up to renaming of what the rule binds) and their types (up to
    normal form), and each node reads its own type from its conclusion.
    A premise the rule needs inferred, such as an applied function, a
    projected pair or a scrutinee, must come from a rule that infers.
    TypeEq and TermEq nodes are decided by type and term equality, a
    TermEq node once its type is formed in its context.  The walk keeps
    its own stack, so a deep derivation adds no Python frames.

    A root that concludes a typing must also have a type formed in its
    context, checked once: check takes its goal as formed, and no rule
    checks a premise's type for formation, so a binder could otherwise
    capture a variable the goal leaves unbound.

    Every failure is an InvalidDerivation that names the first node
    that does not follow, so True means the whole tree is sound evidence.
    """
    node = None
    try:
        c = getattr(d, "conclusion", None)
        if type(c) is Typing and type(c.ctx) is Context:
            ensure_formed(c.ctx, c.type, U0)
        # a node, and whether its parent needs its typing inferred
        todo = [(d, False)]
        while todo:
            node, infer = todo.pop()
            if type(node) is not Derivation:
                raise InvalidDerivation(f"not a derivation: {node!r}")
            rule = _RULES.get(node.rule) if type(node.rule) is str else None
            if rule is None:
                raise InvalidDerivation(f"unknown rule {node.rule!r}")
            if type(node.premises) is not tuple:
                _bad(node, "its premises are not a tuple")
            todo.extend(rule(node, infer))
    except InvalidDerivation:
        raise
    except TypeTheoryError as e:
        where = ("the root's type is not formed" if node is None
                 else f"rule {node.rule}")
        raise InvalidDerivation(f"{where}: {e}") from None
    return True


def _bad(d: Derivation, why: str):
    raise InvalidDerivation(f"rule {d.rule}: {why}")


def _judgment(d: Derivation, form, n: int):
    """d's conclusion, checked to be of the given form, from n premises."""
    c = d.conclusion
    if type(c) is not form or (form in (Typing, TermEq)
                               and type(c.ctx) is not Context):
        _bad(d, f"does not conclude a {form.__name__} judgment")
    if len(d.premises) != n:
        _bad(d, f"has {len(d.premises)} premise(s), not {n}")
    return c


def _typing(d: Derivation, terms, n: int):
    """The term of d's typing conclusion, checked to be of class terms,
    and the normal form of its type."""
    c = _judgment(d, Typing, n)
    if not isinstance(c.term, terms):
        _bad(d, f"does not apply to {c.term}")
    return c.term, onf(c.type)


def _premise(d: Derivation, i: int, form, opened: int = 0):
    """The conclusion of d's premise i, checked to be of the given form in
    d's context extended by `opened` fresh term declarations, and those
    declarations."""
    c, pc = d.conclusion, getattr(d.premises[i], "conclusion", None)
    if type(pc) is not form:
        _bad(d, f"premise {i + 1} is not a {form.__name__} judgment")
    if pc.ctx is c.ctx and not opened:
        return pc, ()
    outer = () if c.ctx is None else c.ctx.entries
    inner = () if pc.ctx is None else pc.ctx.entries
    n = len(outer)
    if len(inner) != n + opened or inner[:n] != outer:
        _bad(d, f"premise {i + 1} is not in the node's context"
             + (f" extended by {opened} declaration(s)" if opened else ""))
    taken, new = () if c.ctx is None else c.ctx.names, set()
    for e in inner[n:]:
        if type(e) is not TermDecl or e.name in taken or e.name in new:
            _bad(d, f"premise {i + 1} declares no fresh variable")
        new.add(e.name)
    return pc, inner[n:]


def _typed(d: Derivation, i: int, term, opened: int = 0):
    """_premise for a typing of term (None: any term)."""
    pc, new = _premise(d, i, Typing, opened)
    if term is not None and not alpha_eq(pc.term, term):
        _bad(d, f"premise {i + 1} types {pc.term}, not {term}")
    return pc, new


def _typed_as(d: Derivation, i: int, term, nf):
    """The stack entry of d's premise i, checked to type term at a type
    with normal form nf."""
    pc, _ = _typed(d, i, term)
    if not _has_nf(pc.type, nf):
        _bad(d, f"premise {i + 1} has type {pc.type}, not {nf}")
    return d.premises[i], False


def _checks(d: Derivation, infer: bool):
    """Reject a rule that only checks where a typing must be inferred."""
    if infer:
        _bad(d, "checks a typing that must be inferred")


def _has_nf(T: TypeExpr, nf: TypeExpr) -> bool:
    return T is nf or alpha_eq(onf(T), nf)


def _formed(d: Derivation, i: int, A: TypeExpr, u: Universe):
    """The stack entry of d's premise i, checked to form A in u."""
    pc, _ = _premise(d, i, Formation)
    if pc.universe is not u or not alpha_eq(pc.type, A):
        _bad(d, f"premise {i + 1} forms {pc.type} in {pc.universe}, "
             f"not {A} in {u}")
    return d.premises[i], False


def _atom_form(lift: bool, d, infer):
    c = d.conclusion
    if type(c) is not Formation or type(c.type) is not Atom:
        _bad(d, "does not form an atom")
    A = c.type
    _judgment(d, Formation, len(A.args))
    decl = (EMPTY if c.ctx is None else c.ctx).lookup_const(A.name)
    if decl is None or len(decl.telescope) != len(A.args):
        _bad(d, f"{A} is not a declared type constant fully applied")
    if not ((decl.universe, c.universe) == (U0, U1) if lift
            else decl.universe is c.universe):
        _bad(d, f"{A.name} in {decl.universe} does not form a type "
             f"in {c.universe}")
    todo, inst = [], {}
    for i, ((var, sort), arg) in enumerate(zip(decl.telescope, A.args)):
        todo.append(_typed_as(d, i, arg, onf(subst(sort, inst))))
        inst[var] = arg
    return todo


def _formation(cls, d, infer):
    """The formation rule of a constructor: its premises form the
    subtrees of SCOPES[cls], a binder's body under its generating type."""
    c = _judgment(d, Formation, len(SCOPES[cls]))
    A = c.type
    if type(A) is not cls:
        _bad(d, f"does not form a {cls.__name__} type")
    if c.universe is not U0 and cls is not Fun:
        _bad(d, "U1 is closed only under ->")
    todo = []
    for i, (field, *binders) in enumerate(SCOPES[cls]):
        if not binders:
            todo.append(_formed(d, i, getattr(A, field), c.universe))
            continue
        pc, (decl,) = _premise(d, i, Formation, 1)
        if not (pc.universe is U0 and alpha_eq(decl.type, A.gen)
                and alpha_eq(cls(decl.name, A.gen, pc.type), A)):
            _bad(d, f"premise {i + 1} does not form the body of {A}")
        todo.append((d.premises[i], False))
    return todo


def _var(d, infer):
    t, goal = _typing(d, Var, 0)
    ty = d.conclusion.ctx.lookup_term(t.name)
    if ty is None or not _has_nf(ty, goal):
        _bad(d, f"{t} is not declared at type {goal}")
    return ()


def _ann(d, infer):
    t, goal = _typing(d, Ann, 2)
    ann = onf(t.type)
    if not (alpha_eq(ann, goal) if infer else equiv(ann, goal)):
        _bad(d, f"annotation {ann} does not match {goal}")
    return _formed(d, 0, t.type, U0), _typed_as(d, 1, t.term, ann)


def _conv(d, infer):
    t, goal = _typing(d, (Var, App, Proj1, Proj2), 1)
    _checks(d, infer)
    pc, _ = _typed(d, 0, t)
    ity = onf(pc.type)
    if not equiv(ity, goal):
        _bad(d, f"cannot convert {ity} to {goal}")
    return [(d.premises[0], True)]


def _lam(kind, d, infer):
    """fun-intro and pi-intro: checked from one premise, the body under
    the goal's domain, or inferred from two, the domain's formation and
    the body's inferred type."""
    inferred = len(d.premises) == 2
    t, goal = _typing(d, Lam, 2 if inferred else 1)
    body, (decl,) = _typed(d, int(inferred), None, 1)
    bty = onf(body.type)
    if inferred:
        dom = onf(t.dom)
        rebuilt = onf(Pi(decl.name, dom, bty))
        todo = [_formed(d, 0, t.dom, U0)]
    else:
        _checks(d, infer)
        if type(goal) is not kind:
            _bad(d, f"cannot check a lambda against {goal}")
        dom, gvar, cod = halves(goal)
        if not equiv(onf(t.dom), dom):
            _bad(d, f"lambda domain {onf(t.dom)} does not match {dom}")
        # a body typed at the goal's own codomain rebuilds the goal itself
        rebuilt = (goal if bty is cod and gvar in (None, decl.name)
                   else Fun(dom, bty) if gvar is None
                   else Pi(decl.name, dom, bty))
        todo = []
    if not (type(rebuilt) is kind and alpha_eq(rebuilt, goal)
            and _has_nf(decl.type, dom)
            and (decl.name == t.var and body.term is t.body
                 or alpha_eq(Lam(decl.name, t.dom, body.term), t))):
        _bad(d, f"the body premise does not give {t} type {goal}")
    todo.append((d.premises[-1], inferred))
    return todo


def _pair(cls, d, infer):
    t, goal = _typing(d, Pair, 2)
    _checks(d, infer)
    if type(goal) is not cls:
        _bad(d, f"cannot check a pair against {goal}")
    c1, c2 = components(goal, t.fst)
    return _typed_as(d, 0, t.fst, c1), _typed_as(d, 1, t.snd, c2)


def _inj(cls, d, infer):
    t, goal = _typing(d, cls, 1)
    _checks(d, infer)
    if type(goal) is not Sum:
        _bad(d, f"cannot check an injection against {goal}")
    return [_typed_as(d, 0, t.arg, goal.left if cls is Inl else goal.right)]


def _elim(cls, d, infer):
    """sum-elim and sigma-elim: the scrutinee's inferred typing, then
    each branch at the node's type, checked or, when the node's typing
    is to be inferred, inferred at a type free of the bound variables."""
    t, goal = _typing(d, cls, 3 if cls is Case else 2)
    scrut, _ = _typed(d, 0, t.scrut)
    styp = onf(scrut.type)
    todo = [(d.premises[0], True)]
    if cls is Case and type(styp) is Sum:
        (l, (dl,)), (r, (dr,)) = _typed(d, 1, None, 1), _typed(d, 2, None, 1)
        ok = (_has_nf(dl.type, styp.left) and _has_nf(dr.type, styp.right)
              and alpha_eq(Case(t.scrut, dl.name, l.term, dr.name, r.term),
                           t))
        branches = ((l, (dl.name,)), (r, (dr.name,)))
    elif cls is Split and type(styp) is Sigma:
        b, (d1, d2) = _typed(d, 1, None, 2)
        ok = (alpha_eq(Sigma(d1.name, onf(d1.type), onf(d2.type)), styp)
              and alpha_eq(Split(t.scrut, d1.name, d2.name, b.term), t))
        branches = ((b, (d1.name, d2.name)),)
    else:
        _bad(d, f"cannot eliminate a scrutinee of type {styp}")
    if not ok:
        _bad(d, f"the branch premises are not the branches of {t}")
    # checked or inferred, the node's type must not mention a binder
    escaping = free_vars(goal)
    for i, (b, names) in enumerate(branches, 1):
        if not _has_nf(b.type, goal):
            _bad(d, f"branch {i} does not have type {goal}")
        if not escaping.isdisjoint(names):
            _bad(d, f"the type of branch {i} mentions its bound variable")
        todo.append((d.premises[i], infer))
    return todo


def _app(kind, d, infer):
    t, goal = _typing(d, App, 2)
    fn, _ = _typed(d, 0, t.fn)
    fty = onf(fn.type)
    if type(fty) is not kind:
        _bad(d, f"cannot apply a term of type {fty}")
    dom, res = components(fty, t.arg)
    if not alpha_eq(res, goal):
        _bad(d, f"{t} has type {res}, not {goal}")
    return (d.premises[0], True), _typed_as(d, 1, t.arg, dom)


def _proj(cls, proj, d, infer):
    t, goal = _typing(d, proj, 1)
    pc, _ = _typed(d, 0, t.arg)
    sty = onf(pc.type)
    if type(sty) is not cls:
        _bad(d, f"cannot project from a term of type {sty}")
    res = (halves(sty)[0] if proj is Proj1
           else components(sty, Proj1(t.arg))[1])
    if not alpha_eq(res, goal):
        _bad(d, f"{t} has type {res}, not {goal}")
    return [(d.premises[0], True)]


def _onf_eq(d, infer):
    c = _judgment(d, TypeEq, 0)
    if not _type_equal(c.left, c.right):
        _bad(d, f"type equality {c.left} = {c.right} does not hold")
    return ()


def _duality_principle(d, infer):
    """A = ~(dual A), from A's formation when there is a context, and
    two type equalities that give A and ~(dual A) one normal form."""
    n = 2 if getattr(d.conclusion, "ctx", None) is None else 3
    c = _judgment(d, TypeEq, n)
    if n == 3:
        _formed(d, 0, c.left, U0)
    e1, _ = _premise(d, n - 2, TypeEq)
    e2, _ = _premise(d, n - 1, TypeEq)
    if not (alpha_eq(c.right, Opp(dual(c.left)))
            and alpha_eq(e1.left, c.left) and alpha_eq(e2.left, c.right)
            and alpha_eq(e1.right, e2.right)):
        _bad(d, f"does not equate {c.left} with ~(dual) through its premises")
    return [(p, False) for p in d.premises]


def _term_eq(d, infer):
    """term_equal expects its type formed, as check does, so the node's
    type is formed first."""
    c = _judgment(d, TermEq, 0)
    ensure_formed(c.ctx, c.type, U0)
    if not term_equal(c.ctx, c.left, c.right, c.type):
        _bad(d, f"term equality does not hold at {c.type}")
    return ()


# rule name -> local check of a node under that rule: the check raises
# InvalidDerivation unless the node's conclusion follows from its
# premises' conclusions, and returns the premises' stack entries (see
# recheck).  Every rule that check, _infer, check_formation and
# check_duality_principle emit is here; term-equal is for TermEq
# judgments built by hand.
_RULES = {
    "atom-form": partial(_atom_form, False),
    "atom-form-lift": partial(_atom_form, True),
    **{f"{stem}-form": partial(_formation, cls)
       for cls, stem in _STEM.items()},
    "var": _var,
    "ann": _ann,
    "conv": _conv,
    **{f"{_STEM[cls]}-intro": partial(_lam, cls) for cls in (Fun, Pi)},
    **{f"{_STEM[cls]}-elim": partial(_app, cls) for cls in (Fun, Pi)},
    **{f"{_STEM[cls]}-intro": partial(_pair, cls)
       for cls in (Prod, CoFun, Sigma)},
    **{f"{_STEM[cls]}-elim-{side}": partial(_proj, cls, proj)
       for cls in (Prod, CoFun, Sigma)
       for side, proj in ((1, Proj1), (2, Proj2))},
    "sum-intro-left": partial(_inj, Inl),
    "sum-intro-right": partial(_inj, Inr),
    "sum-elim": partial(_elim, Case),
    "sigma-elim": partial(_elim, Split),
    "onf": _onf_eq,
    "duality-principle": _duality_principle,
    "term-equal": _term_eq,
}
