"""Many-sorted formulas with constructive negation and co-implication,
translated into the type theory.

One walk checks a formula against its signature and translates it.  The
translation sends implication to the function type, co-implication to
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

from bisect import bisect
from dataclasses import dataclass
from operator import attrgetter
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


_NAME = attrgetter("name")


class _Front:
    """The declarations that every translation context over a signature
    starts with: its sorts, then its predicates, each in name order, as
    a list of declarations and a list of their printed texts; the sorts
    and arities they stand for; and the declarations and joined text as
    the last translation read them."""
    __slots__ = ("sorts", "predicates", "decls", "texts", "printed")

    def __init__(self):
        self.sorts, self.predicates = set(), {}
        self.decls, self.texts = [], []
        self.printed = (), ""

    def insert(self, decl: TypeConstDecl, text: str, lo: int,
               hi: int) -> None:
        """Put decl at its place in name order among entries lo to hi."""
        i = bisect(self.decls, decl.name, lo, hi, key=_NAME)
        self.decls.insert(i, decl)
        self.texts.insert(i, text)


@dataclass
class Signature:
    """Sorts plus predicate arities.  A nullary predicate is an atomic
    proposition; its translation is a plain type variable.

    A signature grows in place: sorts is a set, and add_predicate, like
    the constructor, rejects an arity that uses an undeclared sort.
    Beside its fields (so == and repr ignore them) each signature keeps:

    - a memo from (name, arity) to the declaration that translation
      contexts give that name, sorts under arity (), and its printed
      text.  A declaration depends on its key alone, so growing the
      signature leaves every memo entry valid;
    - the front of its translation contexts, in name order (see _Front).
      A translation sorts in only the names added since the last one.
      It first tests by content that the front stands for no sort or
      arity that the fields lack (removing a sort, or replacing an
      arity, breaks that), and starts a new front when it does.
    """
    sorts: set
    predicates: Dict[str, Tuple[str, ...]]

    def __init__(self, sorts=(), predicates=None):
        self.sorts = set(sorts)
        self.predicates = {}
        self._decls = {}
        self._front = _Front()
        for name, arity in (predicates or {}).items():
            self.add_predicate(name, arity)

    def add_predicate(self, name: str, arity: Tuple[str, ...]) -> None:
        for s in arity:
            if s not in self.sorts:
                raise SortError(f"predicate {name} uses undeclared sort {s}")
        self.predicates[name] = tuple(arity)

    def _translation_front(self) -> Tuple[tuple, str]:
        """The declarations every translation context starts with, and
        their printed text."""
        front = self._front
        if not (front.sorts <= self.sorts
                and front.predicates.items() <= self.predicates.items()):
            front = self._front = _Front()
        # all the front holds, the fields hold: any more is new
        if (len(front.sorts) < len(self.sorts)
                or len(front.predicates) < len(self.predicates)):
            from .printer import decl_str
            new_sorts = self.sorts - front.sorts
            new_preds = self.predicates.keys() - front.predicates.keys()
            for name in new_sorts:
                front.insert(*self._decl(name, (), decl_str), 0,
                             len(front.sorts))
                front.sorts.add(name)
            for name in new_preds:
                arity = front.predicates[name] = self.predicates[name]
                front.insert(*self._decl(name, arity, decl_str),
                             len(front.sorts), len(front.decls))
            front.printed = tuple(front.decls), ", ".join(front.texts)
        return front.printed

    def _decl(self, name: str, arity: Tuple[str, ...],
              show) -> Tuple[TypeConstDecl, str]:
        """The declaration of name over arity, and its text by show."""
        memo = self._decls.get((name, arity))
        if memo is None:
            telescope = tuple((f"x{i + 1}", Atom(s))
                              for i, s in enumerate(arity))
            decl = TypeConstDecl(name, telescope, U0)
            memo = self._decls[name, arity] = decl, show(decl)
        return memo


# ---------------------------------------------------------------------------
# Sort checking and translation
# ---------------------------------------------------------------------------

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


def check_sorts(sig: Signature, f: Formula) -> Dict[str, str]:
    """Validate f against sig; return the sorts of its free variables."""
    free: Dict[str, str] = {}
    _walk(sig, f, {}, free)
    return free


def translate(sig: Signature, f: Formula) -> Tuple[Context, TypeExpr]:
    """Propositions-as-types translation of f over sig.

    The returned context declares every sort as a small type constant,
    every predicate as a dependent family over its sorts, and the free
    variables of f as terms of their sorts.
    """
    ctx, (ty,) = _translation(sig, (f,))
    return ctx, ty


def translation_context(sig: Signature, *formulas: Formula) -> Context:
    """One context covering several formulas (shared sorts and variables)."""
    return _translation(sig, formulas)[0]


def _translation(sig: Signature, formulas) -> Tuple[Context, list]:
    """The translations of formulas, each checked on its own, and one
    context for them all: the sorts, then the predicates, each in name
    order, then the free variables, in order of first occurrence."""
    free: Dict[str, str] = {}
    types = []
    for f in formulas:
        own: Dict[str, str] = {}
        types.append(_walk(sig, f, {}, own))
        for v, s in own.items():
            seen = free.setdefault(v, s)
            if seen != s:
                raise SortError(f"variable {v} used at sorts {seen} and {s}")
    front, text = sig._translation_front()
    ctx = Context(front + tuple(TermDecl(v, Atom(s)) for v, s in free.items()))
    return ctx.with_printed_prefix(len(front), text), types


def _walk(sig: Signature, f: Formula, bound: Dict[str, str],
          free: Dict[str, str]) -> TypeExpr:
    """The translation of f, checked against sig with bound giving the
    sorts of the variables bound around f; each free variable's sort goes
    into free at its first occurrence."""
    cls = type(f)
    if cls is Pred:
        arity = sig.predicates.get(f.name)
        if arity is None:
            raise SortError(f"undeclared predicate: {f.name}")
        if len(f.args) != len(arity):
            raise SortError(f"predicate {f.name} expects {len(arity)} "
                            f"argument(s), got {len(f.args)}")
        for v, s in zip(f.args, arity):
            seen = bound.get(v, free.get(v))
            if seen is None:
                free[v] = s
            elif seen != s:
                raise SortError(f"variable {v} used at sorts {seen} and {s}")
        return Atom(f.name, tuple(Var(v) for v in f.args))
    if cls is Neg:
        return Opp(_walk(sig, f.body, bound, free))
    con = CONNECTIVES.get(cls)
    if con is None:
        raise SortError(f"not a formula: {f!r}")
    if cls is Forall or cls is Exists:
        if f.sort not in sig.sorts:
            raise SortError(f"undeclared sort: {f.sort}")
        inner = {**bound, f.var: f.sort}
        return con(f.var, Atom(f.sort), _walk(sig, f.body, inner, free))
    return con(_walk(sig, f.lhs, bound, free), _walk(sig, f.rhs, bound, free))


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
    """True iff the translations of f and g are type-equal, and so the
    translations of their negations are too.

    The negations need no comparison of their own: the normal form of ~A
    is read off that of A (see duality.onf), so type-equal translations
    always have type-equal opposites.

    This is sound for strong equivalence through the correspondence but
    deliberately incomplete: it is a normal-form comparison, not a proof
    search, so e.g. A & A and A are strongly equivalent as formulas yet
    rejected here because A * A and A are not equal types.
    """
    ctx, (A, B) = _translation(sig, (f, g))
    return type_equal(ctx, A, B)
