"""Many-sorted formulas with constructive negation and co-implication,
translated into the type theory.

The translation sends implication to the function type, co-implication to
the co-function type, conjunction and disjunction to products and sums,
negation to the opposite constructor, and quantifiers to Pi and Sigma over
their sort; CONNECTIVES states that map once.  Negation normal form pushes
negations to the atoms by the type identities of duality.DUALS, read
through CONNECTIVES, so the implication clause uses the contraposed
co-implication reading

    ~(A => B)   ==>   ~B <~ ~A

which mirrors the type identity ~(A -> B) = ~B <~ ~A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from . import syntax
from .duality import dual_plans
from .errors import SortError
from .kernel import Context, TermDecl, TypeConstDecl, U0, type_equal
from .syntax import (Atom, CoFun, Fun, Opp, Pi, Prod, Sigma, Sum, TypeExpr,
                     Var)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula:
    def __str__(self) -> str:
        from .printer import formula_str
        return formula_str(self)


@dataclass(frozen=True)
class Pred(Formula):
    """Atomic formula: a predicate applied to sorted variables."""
    name: str
    args: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Impl(Formula):
    """lhs => rhs."""
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class CoImpl(Formula):
    """lhs <~ rhs: lhs excludes rhs."""
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: str
    body: Formula


@dataclass
class Signature:
    """Sorts plus predicate arities.  A nullary predicate is an atomic
    proposition; its translation is a plain type variable.

    A signature grows in place: sorts is a set, and add_predicate, like
    the constructor, rejects an arity that uses an undeclared sort.
    Beside its fields (so == and repr ignore it) each signature keeps a
    memo from (name, arity) to the declaration _signature_context gives
    that name, sorts under arity ().  A declaration depends on its key
    alone, so growing the signature leaves every memo entry valid.
    """
    sorts: set
    predicates: Dict[str, Tuple[str, ...]]

    def __init__(self, sorts=(), predicates=None):
        self.sorts = set(sorts)
        self.predicates = {}
        self._decls = {}
        for name, arity in (predicates or {}).items():
            self.add_predicate(name, arity)

    def add_predicate(self, name: str, arity: Tuple[str, ...]) -> None:
        for s in arity:
            if s not in self.sorts:
                raise SortError(f"predicate {name} uses undeclared sort {s}")
        self.predicates[name] = tuple(arity)

    def _decl(self, name: str, arity: Tuple[str, ...]) -> TypeConstDecl:
        decl = self._decls.get((name, arity))
        if decl is None:
            telescope = tuple((f"x{i + 1}", Atom(s))
                              for i, s in enumerate(arity))
            decl = self._decls[name, arity] = TypeConstDecl(
                name, telescope, U0)
        return decl


# ---------------------------------------------------------------------------
# Sort checking
# ---------------------------------------------------------------------------

def check_sorts(sig: Signature, f: Formula) -> Dict[str, str]:
    """Validate f against sig; return the sorts of its free variables."""
    free: Dict[str, str] = {}

    def walk(g: Formula, bound: Dict[str, str]):
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


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def translate(sig: Signature, f: Formula) -> Tuple[Context, TypeExpr]:
    """Propositions-as-types translation of f over sig.

    The returned context declares every sort as a small type constant,
    every predicate as a dependent family over its sorts, and the free
    variables of f as terms of their sorts.
    """
    return translation_context(sig, f), _formula_type(f)


def translation_context(sig: Signature, *formulas: Formula) -> Context:
    """One context covering several formulas (shared sorts and variables)."""
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


def _signature_context(sig: Signature) -> Context:
    decl, preds = sig._decl, sig.predicates
    entries = [decl(s, ()) for s in sorted(sig.sorts)]
    entries += [decl(p, preds[p]) for p in sorted(preds)]
    return Context(tuple(entries))


# Each connective with the type constructor that translates it.  Their
# fields match position by position, a quantifier's sort standing for the
# generating type, so the duality table serves formulas too.
CONNECTIVES = {Impl: Fun, CoImpl: CoFun, And: Prod, Or: Sum,
               Forall: Pi, Exists: Sigma}

_DUAL_CONNECTIVES = dual_plans(CONNECTIVES)

# The connectives' own symbols, each at the level of the constructor that
# translates it (see syntax.FIXITY); ~ is at the level of Opp.
FIXITY = {cls: (sym, syntax.FIXITY[CONNECTIVES.get(cls, Opp)][1])
          for cls, sym in ((Impl, "=>"), (CoImpl, "<~"), (And, "&"),
                           (Or, "|"), (Neg, "~"), (Forall, "all"),
                           (Exists, "ex"))}


def _formula_type(f: Formula) -> TypeExpr:
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


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

def formula_nnf(f: Formula) -> Formula:
    """Push negations to the atoms.

    ~(A & B) => ~A | ~B        ~(all x:s. A) => ex x:s. ~A
    ~(A | B) => ~A & ~B        ~(ex x:s. A)  => all x:s. ~A
    ~~A => A                   ~(A => B) => ~B <~ ~A
                               ~(B <~ A) => ~A => ~B

    Apart from ~~A these are the type identities of duality.DUALS, read
    through CONNECTIVES.
    """
    cls = type(f)
    if cls is Pred:
        return f
    if cls is Neg:
        g = f.body
        if type(g) is Pred:
            return f
        if type(g) is Neg:
            return formula_nnf(g.body)
        plan = _DUAL_CONNECTIVES.get(type(g))
        if plan is None:
            raise SortError(f"not a formula: {f!r}")
        dcls, get, binder = plan
        if binder:
            var, sort, body = get(g)
            return dcls(var, sort, formula_nnf(Neg(body)))
        first, second = get(g)
        return dcls(formula_nnf(Neg(first)), formula_nnf(Neg(second)))
    if cls is Forall or cls is Exists:
        return cls(f.var, f.sort, formula_nnf(f.body))
    if cls in CONNECTIVES:
        return cls(formula_nnf(f.lhs), formula_nnf(f.rhs))
    raise SortError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Strong equivalence (sound under-approximation)
# ---------------------------------------------------------------------------

def strong_equiv_check(sig: Signature, f: Formula, g: Formula) -> bool:
    """True iff the translations of f and g are type-equal and so are the
    translations of their negations.

    This is sound for strong equivalence through the correspondence but
    deliberately incomplete: it is a normal-form comparison, not a proof
    search, so e.g. A & A and A are strongly equivalent as formulas yet
    rejected here because A * A and A are not equal types.
    """
    ctx = translation_context(sig, f, g)
    if not type_equal(ctx, _formula_type(f), _formula_type(g)):
        return False
    return type_equal(ctx, _formula_type(Neg(f)), _formula_type(Neg(g)))
