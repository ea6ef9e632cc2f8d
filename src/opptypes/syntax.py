"""Abstract syntax: type and term trees, binding, substitution, reduction,
evaluation.

Types are built from named atoms (type variables, possibly applied to term
arguments when they stand for dependent families) and eight constructors:
functions, co-functions, products, sums, Pi, Sigma and the opposite-type
marker.  Terms are the usual lambda-calculus forms with pairs, injections,
case and split.  Everything is an immutable dataclass, hashed on an
explicit stack once per node (see _hash) and compared on one (_eq).
Binders are named; which fields bind over which subtrees is stated once,
in SCOPES, which free_vars, all_names, alpha_eq, the simultaneous subst
and the binder opener open_binders read.  Substitution freshens binders
on demand, so alpha_eq is the only equality client code should rely on.

A node keeps its free variables and, when it binds, every name in it,
once asked (see free_vars and all_names).  Substitution returns a
subtree in which no replaced variable is free as it is, so a renaming
rebuilds only the paths down to the occurrences it changes and shares the
rest; alpha_eq takes a shared subtree as equal to itself when its free
variables are bound alike on both sides.  Naming a binder apart and
comparing it back then cost work along those paths, not across its whole
scope.

Reduction comes in two forms.  normalize_term rewrites a term to its
normal form.  evaluate turns a term into a value, reducing nothing under
a lambda, and read_back gives a value's normal form; kernel.term_equal
compares values, so an eta step applies a closure to a variable and
substitutes nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Union

from .errors import IllFormedType, NormalizationOverflow


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

class _Node:
    """Base class of trees.  A node keeps, outside the dataclass fields,
    what is worked out from it once asked: its hash (_hash, see _hash),
    where free_vars and all_names say so, its free variables (_fv) and
    every name in it (_names), and for a type the search indexes, where
    its elimination spines can end (_spine, see search._spine), the
    normal form duality.onf found for it (_onf) and, for a co-function,
    its first half as duality.halves reads it (_first).  Pickling and
    copying drop these six: string hashes differ between processes, _onf
    and _first would carry a second tree along, and each is worked out
    again on demand.
    They keep the normal-form mark (_nf) on purpose: a twin of a normal
    node is as normal as the node."""

    _hash = _fv = _names = _spine = None

    def __getstate__(self):
        state = dict(self.__dict__)
        for kept in ("_hash", "_fv", "_names", "_spine", "_onf", "_first"):
            state.pop(kept, None)
        return state


class TypeExpr(_Node):
    """Base class of type expressions."""

    # set on each node duality.onf returns: the node is its own normal form
    _nf = False
    # set by duality.onf on an unmarked node: the normal form it found
    _onf = None
    # set by duality.halves on a co-function: its first half
    _first = None

    def __str__(self) -> str:
        from .printer import type_str
        return type_str(self)


class TermExpr(_Node):
    """Base class of term expressions."""

    def __str__(self) -> str:
        from .printer import term_str
        return term_str(self)


Expr = Union[TypeExpr, TermExpr]


@dataclass(frozen=True)
class Atom(TypeExpr):
    """A type variable, or a dependent family applied to term arguments."""
    name: str
    args: "tuple[TermExpr, ...]" = ()


@dataclass(frozen=True)
class Fun(TypeExpr):
    """Function type: dom -> cod."""
    dom: TypeExpr
    cod: TypeExpr


@dataclass(frozen=True)
class CoFun(TypeExpr):
    """Co-function type, written cod <~ dom ("cod excludes dom")."""
    cod: TypeExpr
    dom: TypeExpr


@dataclass(frozen=True)
class Prod(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Sum(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Pi(TypeExpr):
    """Dependent function type Pi var:gen. body; gen is the generating type."""
    var: str
    gen: TypeExpr
    body: TypeExpr


@dataclass(frozen=True)
class Sigma(TypeExpr):
    """Dependent pair type Sg var:gen. body."""
    var: str
    gen: TypeExpr
    body: TypeExpr


@dataclass(frozen=True)
class Opp(TypeExpr):
    """Opposite type ~A: the type of refutations of A."""
    inner: TypeExpr


@dataclass(frozen=True)
class Var(TermExpr):
    name: str


@dataclass(frozen=True)
class Lam(TermExpr):
    """Annotated abstraction \\var:dom. body."""
    var: str
    dom: TypeExpr
    body: TermExpr


@dataclass(frozen=True)
class App(TermExpr):
    fn: TermExpr
    arg: TermExpr


@dataclass(frozen=True)
class Pair(TermExpr):
    fst: TermExpr
    snd: TermExpr


@dataclass(frozen=True)
class Proj1(TermExpr):
    arg: TermExpr


@dataclass(frozen=True)
class Proj2(TermExpr):
    arg: TermExpr


@dataclass(frozen=True)
class Inl(TermExpr):
    arg: TermExpr


@dataclass(frozen=True)
class Inr(TermExpr):
    arg: TermExpr


@dataclass(frozen=True)
class Case(TermExpr):
    """case scrut of { inl lvar => lbranch | inr rvar => rbranch }."""
    scrut: TermExpr
    lvar: str
    lbranch: TermExpr
    rvar: str
    rbranch: TermExpr


@dataclass(frozen=True)
class Split(TermExpr):
    """split scrut as (var1, var2) => body."""
    scrut: TermExpr
    var1: str
    var2: str
    body: TermExpr


@dataclass(frozen=True)
class Ann(TermExpr):
    """Explicit annotation (term : type)."""
    term: TermExpr
    type: TypeExpr


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

# Levels of the concrete syntax, loosest first.  A binder extends as far
# right as possible.  The two arrows share level 1, associate to the right
# and never mix without parentheses; every higher infix level binds
# tighter and associates to the left.  The prefix ~ binds tightest.  In
# terms, application (juxtaposition) sits between the binders and the
# prefixes and associates to the left, and a bracketed form is an atom.
BINDER, ARROW, APPLY, PREFIX, ATOM = 0, 1, 3, 4, 5

# Each type constructor with its symbol and level.  The parser and the
# printer read this table; logic.FIXITY gives the connectives the levels
# of the constructors that translate them.
FIXITY = {
    Pi: ("Pi", BINDER), Sigma: ("Sg", BINDER),
    Fun: ("->", ARROW), CoFun: ("<~", ARROW),
    Sum: ("+", 2), Prod: ("*", 3),
    Opp: ("~", PREFIX),
}

# Each term constructor with its level and its concrete syntax: literal
# text around one {field} per field, in field order.  A term field's spec
# is the loosest level it takes without parentheses; a field with none
# takes any term, and only there may a term start with a binder.  The
# parser reads the text as tokens, and the printer writes it as it stands.
# Here and in templates, a field's annotation says what the parser reads
# there: an identifier (str) or an operand of the annotated sort.
TERM_FIXITY = {
    Lam: (BINDER, "\\{var}:{dom}. {body}"),
    Split: (BINDER, "split {scrut:3} as ({var1}, {var2}) => {body}"),
    App: (APPLY, "{fn:3} {arg:4}"),
    Proj1: (PREFIX, "p1 {arg:4}"), Proj2: (PREFIX, "p2 {arg:4}"),
    Inl: (PREFIX, "inl {arg:4}"), Inr: (PREFIX, "inr {arg:4}"),
    Pair: (ATOM, "<{fst}, {snd}>"),
    Case: (ATOM, "case {scrut:3} of {{ inl {lvar} => {lbranch} "
                 "| inr {rvar} => {rbranch} }}"),
    Ann: (ATOM, "({term} : {type})"),
}


def templates(fixity):
    """The binders and prefix of FIXITY or logic.FIXITY as TERM_FIXITY
    entries.  Their specs only place the printer's parentheses: an operand
    of a type or formula may be at any level, and a binder's domain is
    parenthesized below ARROW for the reader's sake."""
    forms = {BINDER: "%s {%s}:{%s:1}. {%s}", PREFIX: "%s{%s:4}"}
    return {cls: (level, forms[level] % (
                sym, *(f.name for f in dataclasses.fields(cls))))
            for cls, (sym, level) in fixity.items() if level in forms}


# ---------------------------------------------------------------------------
# Binding structure
# ---------------------------------------------------------------------------

# Each node class but Atom and Var, with its subtrees in field order; a
# subtree is followed by the binder fields that scope over it.  An Atom is
# a name with a tuple of term arguments and a Var is a leaf, so the
# traversals below treat those two by hand and read everything else here.
SCOPES = {
    Fun: (("dom",), ("cod",)),
    CoFun: (("cod",), ("dom",)),
    Prod: (("left",), ("right",)),
    Sum: (("left",), ("right",)),
    Pi: (("gen",), ("body", "var")),
    Sigma: (("gen",), ("body", "var")),
    Opp: (("inner",),),
    Lam: (("dom",), ("body", "var")),
    App: (("fn",), ("arg",)),
    Pair: (("fst",), ("snd",)),
    Proj1: (("arg",),),
    Proj2: (("arg",),),
    Inl: (("arg",),),
    Inr: (("arg",),),
    Case: (("scrut",), ("lbranch", "lvar"), ("rbranch", "rvar")),
    Split: (("scrut",), ("body", "var1", "var2")),
    Ann: (("term",), ("type",)),
}


# a getter of every field of each node class: the bare value when the
# class has one field, a tuple in field order otherwise
_FIELDS = {cls: attrgetter(*(f.name for f in dataclasses.fields(cls)))
           for cls in (Atom, Var, *SCOPES)}


class _Plans(dict):
    def __missing__(self, cls):
        raise TypeError(f"not an expression: {cls.__name__}")


def _plan(cls, subtrees):
    """SCOPES entry compiled to (get, one, [(subtree, binders)]).

    get is _FIELDS[cls], and one is True when the class has one field.
    Subtrees and binders are given as positions in get's tuple.
    """
    fields = [f.name for f in dataclasses.fields(cls)]
    plan = tuple((fields.index(sub), tuple(map(fields.index, binders)))
                 for sub, *binders in subtrees)
    return _FIELDS[cls], len(fields) == 1, plan


_PLANS = _Plans((cls, _plan(cls, subtrees))
                for cls, subtrees in SCOPES.items())

# the classes with a binder field
_BINDERS = frozenset(cls for cls, plan in SCOPES.items()
                     if any(len(sub) > 1 for sub in plan))


# ---------------------------------------------------------------------------
# Hashing and equality
# ---------------------------------------------------------------------------

def _hash(e: Expr) -> int:
    """Hash of a tree, consistent with _eq.  It is worked out bottom-up on
    an explicit stack, so a deep tree cannot overflow it, and kept on each
    node, so a node is hashed once."""
    if e._hash is None:
        stack = [e]
        while stack:
            todo = [s for s in _subtrees(stack[-1]) if s._hash is None]
            if todo:
                stack += todo
                continue
            node = stack.pop()
            h = hash((type(node), _FIELDS[type(node)](node)))
            object.__setattr__(node, "_hash", h)
    return e._hash


def _subtrees(e: Expr):
    cls = type(e)
    if cls is Atom:
        return e.args
    if cls is Var:
        return ()
    get, one, plan = _PLANS[cls]
    if one:
        return (get(e),)
    vals = get(e)
    return [vals[i] for i, _ in plan]


def _eq(a: Expr, b) -> bool:
    """== of trees: field by field, as the dataclasses' own, but on an
    explicit stack, so a deep tree cannot overflow it.  Two nodes whose
    kept hashes differ are unequal."""
    if type(b) is not type(a):
        return NotImplemented
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        cls = type(a)
        if a is b:
            continue
        if cls is not type(b):
            return False
        if cls is tuple and len(a) == len(b):
            stack += zip(a, b)
        elif cls not in _FIELDS:
            if a != b:
                return False
        elif a._hash != b._hash and None not in (a._hash, b._hash):
            return False
        else:
            stack.append((_FIELDS[cls](a), _FIELDS[cls](b)))
    return True


for _cls in _FIELDS:
    _cls.__hash__ = _hash
    _cls.__eq__ = _eq


# ---------------------------------------------------------------------------
# Free variables and name collection
# ---------------------------------------------------------------------------

_NONE = frozenset()


def _union(s: frozenset, t: frozenset) -> frozenset:
    """s | t, or s or t itself when it already holds the other, so that
    a node whose subtrees name the same things holds no set of its own."""
    if t <= s:
        return s
    if s <= t:
        return t
    return s | t


def free_vars(e: Expr) -> frozenset:
    """Free term variables of a type or term.

    Atom names are type constants resolved through the context, never term
    variables, so they do not appear here; only their arguments contribute.
    A node of two or more fields other than an Atom keeps the set once
    asked.  An Atom, whose arguments are few, and a node of one field,
    which would keep its subtree's set again, build theirs each time.
    """
    out = e._fv
    if out is not None:
        return out
    cls = type(e)
    if cls is Var:
        return frozenset((e.name,))
    out = _NONE
    if cls is Atom:
        for a in e.args:
            out = _union(out, free_vars(a))
        return out
    get, one, plan = _PLANS[cls]
    if one:
        return free_vars(get(e))
    vals = get(e)
    for i, binders in plan:
        fv = free_vars(vals[i])
        if binders and fv:
            rest = fv.difference(map(vals.__getitem__, binders))
            if len(rest) < len(fv):
                fv = rest or _NONE
        out = _union(out, fv)
    object.__setattr__(e, "_fv", out)
    return out


def all_names(e: Expr) -> frozenset:
    """Every identifier occurring in e: variables, binders and atom names.

    Used to seed fresh-name generation so new binders never collide.  A
    binder node keeps the set once asked.  Any other node collects its
    names into one set in one walk, down to the binder nodes, each time.
    """
    out = e._names
    if out is not None:
        return out
    if type(e) not in _BINDERS:
        names, todo = set(), [e]
        while todo:
            node = todo.pop()
            cls = type(node)
            if cls is Var:
                names.add(node.name)
            elif cls is Atom:
                names.add(node.name)
                todo += node.args
            elif cls in _BINDERS:
                names.update(all_names(node))
            else:
                get, one, _ = _PLANS[cls]
                if one:
                    todo.append(get(node))
                else:
                    todo += get(node)
        return frozenset(names)
    get, _, plan = _PLANS[type(e)]
    vals = get(e)
    out = _NONE
    for i, binders in plan:
        out = _union(out, all_names(vals[i]))
        if binders and not out.issuperset(map(vals.__getitem__, binders)):
            out = out.union(map(vals.__getitem__, binders))
    object.__setattr__(e, "_names", out)
    return out


def fresh_name(base: str, avoid, also=()) -> str:
    """The first of base, base1, base2, ... in neither avoid nor also."""
    name, i = base, 0
    while name in avoid or name in also:
        i += 1
        name = f"{base}{i}"
    return name


# ---------------------------------------------------------------------------
# Substitution (simultaneous, capture-avoiding)
# ---------------------------------------------------------------------------

def subst(e: Expr, mapping) -> Expr:
    """e with every free occurrence of each variable x in mapping replaced
    by mapping[x], all at once.

    A binder is renamed only where it would capture a free variable of the
    replacement for some x free beneath it.  The new name is the first of
    binder, binder1, binder2, ... that is not free in those replacements
    or in the scope, is not a replaced variable, and is not the name of
    another binder of the same node.
    """
    if not mapping:
        return e
    return _subst(e, {x: (u, free_vars(u)) for x, u in mapping.items()})


def subst_term(t: TermExpr, x: str, u: TermExpr) -> TermExpr:
    """t with every free occurrence of x replaced by u; see subst."""
    return subst(t, {x: u})


def subst_type(A: TypeExpr, x: str, u: TermExpr) -> TypeExpr:
    """A with u substituted for the term variable x; see subst."""
    return subst(A, {x: u})


def _subst(e: Expr, m: dict) -> Expr:
    """subst with m mapping each variable to (replacement, its free vars).
    A node in which no variable of m is free is returned as it is."""
    cls = type(e)
    if cls is Var:
        hit = m.get(e.name)
        return e if hit is None else hit[0]
    if m.keys().isdisjoint(free_vars(e)):
        return e
    if cls is Atom:
        return Atom(e.name, tuple([_subst(a, m) for a in e.args]))
    get, one, plan = _PLANS[cls]
    if one:
        return cls(_subst(get(e), m))
    vals = list(get(e))
    for i, binders in plan:
        inner = _enter(vals, binders, vals[i], m) if binders else m
        if inner:
            vals[i] = _subst(vals[i], inner)
    return cls(*vals)


def _enter(vals: list, binders: tuple, body: Expr, m: dict) -> dict:
    """The mapping to apply to body under the given binders of a node.

    Drops the variables the binders shadow, and renames in vals each
    binder that would capture, adding its renaming to the mapping.
    """
    inner = m
    for j in binders:
        if vals[j] in inner:
            if inner is m:
                inner = dict(m)
            del inner[vals[j]]
    body_fv = avoid = None
    for j in binders:
        b = vals[j]
        if not any(b in fv for _, fv in inner.values()):
            continue
        if body_fv is None:
            body_fv = free_vars(body)
        if not any(b in fv for x, (_, fv) in inner.items() if x in body_fv):
            continue
        if avoid is None:
            avoid = body_fv.union(inner, *(fv for _, fv in inner.values()))
        vals[j] = fresh = fresh_name(
            b, avoid.union(vals[k] for k in binders if k != j))
        if inner is m:
            inner = dict(m)
        inner[b] = (Var(fresh), frozenset((fresh,)))
    return inner


def open_binders(taken, hints, scopes, near):
    """Name a group of binders apart from taken and rename their scopes.

    hints are the binders' preferred names, in binding order.  Each scope
    is a (body, vars) pair: vars gives, binder by binder, the name body
    uses for it, or None where the binder does not scope over body.  A
    hint is kept unless it is taken, an earlier binder of the group took
    it, or a scope has it free other than as one of the group.  It is
    then replaced by the first of hint, hint1, hint2, ... that is outside
    taken, the group's other names, and every name in the scopes and in
    the expressions near.  Each scope is renamed with one simultaneous
    subst, so of repeated binders the last is the one its body sees.
    Returns the names and the renamed bodies.
    """
    names = []
    avoid = None
    for hint in hints:
        clash = hint in taken or hint in names
        for body, vs in scopes:
            if clash:
                break
            clash = hint not in vs and hint in free_vars(body)
        if clash:
            if avoid is None:
                exprs = [body for body, _ in scopes] + list(near)
                avoid = set().union(*map(all_names, exprs))
            later = hints[len(names) + 1:]
            hint = fresh_name(hint, taken, avoid.union(names, later))
        names.append(hint)
    names = tuple(names)
    bodies = []
    for body, vs in scopes:
        if vs != names:
            ren = dict(zip(vs, names))
            body = subst(body, {v: Var(n) for v, n in ren.items()
                                if v is not None and v != n})
        bodies.append(body)
    return names, bodies


# ---------------------------------------------------------------------------
# Alpha-equality
# ---------------------------------------------------------------------------

def alpha_eq(a: Expr, b: Expr) -> bool:
    """Structural equality up to consistent renaming of bound variables.
    An object is equal to itself at once, without a walk."""
    if a is b:
        return True
    env = {}
    return _alpha(a, b, env, env, 0)


def _alpha(a, b, envl: dict, envr: dict, depth: int) -> bool:
    """envl and envr map bound names to the depth of their binder.  They
    are one dict while every binder passed so far has the same name on
    both sides.  A shared subtree is equal to itself when each of its free
    variables is bound at the same depth on both sides, or free on both."""
    cls = type(a)
    if a is b and (envl is envr or cls is not Var
                   and _same_binders(free_vars(a), envl, envr)):
        return True
    if cls is not type(b):
        return False
    if cls is Var:
        dl, dr = envl.get(a.name), envr.get(b.name)
        return dl == dr and (dl is not None or a.name == b.name)
    if cls is Atom:
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        for x, y in zip(a.args, b.args):
            if not _alpha(x, y, envl, envr, depth):
                return False
        return True
    get, one, plan = _PLANS[cls]
    if one:
        return _alpha(get(a), get(b), envl, envr, depth)
    va, vb = get(a), get(b)
    for i, binders in plan:
        el, er, d = envl, envr, depth
        if binders:
            el = dict(envl)
            er = el if envl is envr else dict(envr)
            for j in binders:
                x, y = va[j], vb[j]
                if er is el and x != y:
                    er = dict(el)
                el[x] = er[y] = d
                d += 1
        if not _alpha(va[i], vb[i], el, er, d):
            return False
    return True


def _same_binders(names, envl: dict, envr: dict) -> bool:
    """Each of names is bound at the same depth in envl and envr, or
    free in both."""
    for x in names:
        if envl.get(x) != envr.get(x):
            return False
    return True


# ---------------------------------------------------------------------------
# Untyped reduction
# ---------------------------------------------------------------------------

FUEL = 100_000


def normalize_term(t: TermExpr,
                   type_norm: "Optional[Callable[[TypeExpr], TypeExpr]]" = None
                   ) -> TermExpr:
    """Full beta normal form, plus the two identity contractions
    case c of {inl x => inl x | inr y => inr y}  ==>  c
    split c as (x, y) => <x, y>                  ==>  c
    and erasure of annotations.

    Both contractions are sound wherever the redex is well typed, so this
    reduction is usable untyped.  type_norm, when given, is applied to the
    types embedded in the term (lambda domain annotations); equality of
    normal forms is then alpha_eq.  A subterm already in normal form is
    returned as it is, not rebuilt.  FUEL bounds the number of contraction
    steps so that ill-typed input fails loudly instead of looping.
    """
    budget = [FUEL]

    def tnorm(T):
        return type_norm(T) if type_norm is not None else T

    def norm(t):
        # a contraction at the head continues the loop, so a term that
        # reduces forever runs out of FUEL, not of stack
        while True:
            if isinstance(t, Var):
                return t
            if isinstance(t, Lam):
                dom, body = tnorm(t.dom), norm(t.body)
                if dom is t.dom and body is t.body:
                    return t
                return Lam(t.var, dom, body)
            if isinstance(t, App):
                fn = norm(t.fn)
                arg = norm(t.arg)
                if isinstance(fn, Lam):
                    _spend(budget)
                    t = subst_term(fn.body, fn.var, arg)
                    continue
                return t if fn is t.fn and arg is t.arg else App(fn, arg)
            if isinstance(t, Pair):
                fst, snd = norm(t.fst), norm(t.snd)
                return t if fst is t.fst and snd is t.snd else Pair(fst, snd)
            if isinstance(t, (Proj1, Proj2)):
                arg = norm(t.arg)
                if isinstance(arg, Pair):
                    _spend(budget)
                    return arg.fst if isinstance(t, Proj1) else arg.snd
                return t if arg is t.arg else type(t)(arg)
            if isinstance(t, (Inl, Inr)):
                arg = norm(t.arg)
                return t if arg is t.arg else type(t)(arg)
            if isinstance(t, Case):
                scrut = norm(t.scrut)
                if isinstance(scrut, Inl):
                    _spend(budget)
                    t = subst_term(t.lbranch, t.lvar, scrut.arg)
                    continue
                if isinstance(scrut, Inr):
                    _spend(budget)
                    t = subst_term(t.rbranch, t.rvar, scrut.arg)
                    continue
                lbranch = norm(t.lbranch)
                rbranch = norm(t.rbranch)
                if lbranch == Inl(Var(t.lvar)) and rbranch == Inr(Var(t.rvar)):
                    _spend(budget)
                    return scrut
                if (scrut is t.scrut and lbranch is t.lbranch
                        and rbranch is t.rbranch):
                    return t
                return Case(scrut, t.lvar, lbranch, t.rvar, rbranch)
            if isinstance(t, Split):
                scrut = norm(t.scrut)
                if isinstance(scrut, Pair):
                    _spend(budget)
                    t = subst(t.body, {t.var1: scrut.fst, t.var2: scrut.snd})
                    continue
                body = norm(t.body)
                if t.var1 != t.var2 and body == Pair(Var(t.var1), Var(t.var2)):
                    _spend(budget)
                    return scrut
                if scrut is t.scrut and body is t.body:
                    return t
                return Split(scrut, t.var1, t.var2, body)
            if isinstance(t, Ann):
                return norm(t.term)
            raise IllFormedType(f"not a term: {t!r}")

    return norm(t)


def _spend(fuel: list) -> None:
    """Count one contraction against fuel, a list of the number left."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise NormalizationOverflow(
            f"term normalization exceeded {FUEL} steps")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A value is what evaluate makes of a term: a tuple headed by the class of
# the normal form it reads back as (see read_back).  A closure (Lam, env,
# lam, fuel, kept) is lam with env, a dict, for its bound variables, the
# fuel left to the term it came from, and kept, a list that _opened fills
# once the closure has been applied.  A variable (Var, x) is free in the
# term or made by new_variable.  (Pair, v, w), (Inl, v) and (Inr, v) hold
# values.  A stuck elimination (App, n, v), (Proj1, n) or (Proj2, n)
# eliminates a variable, another stuck elimination, or a case (Case, n,
# x, y, v, w) or split (Split, n, x, y, v) of one, whose branches are
# evaluated with new variables named x and y.

def new_variable():
    """A variable value named by a new object, equal to no other name."""
    return (Var, object())


def evaluate(t: TermExpr, env: Optional[dict] = None,
             fuel: Optional[list] = None):
    """The value of t, with env for its bound variables: it contracts what
    normalize_term contracts but nothing under a lambda, at most fuel[0]
    redexes (FUEL for a term of its own) or NormalizationOverflow is
    raised.  A spine of eliminations is read with a loop, and as in
    normalize_term a contraction at the head continues it, so a term that
    reduces forever runs out of fuel, not of stack."""
    env = {} if env is None else env
    fuel = [FUEL] if fuel is None else fuel
    while True:
        cls = type(t)
        if cls is Var:
            return env.get(t.name) or (Var, t.name)
        if cls is Lam:
            return (Lam, env, t, fuel, [])
        if cls is Pair:
            return (Pair, evaluate(t.fst, env, fuel),
                    evaluate(t.snd, env, fuel))
        if cls is Inl or cls is Inr:
            return (cls, evaluate(t.arg, env, fuel))
        if cls is Ann:
            t = t.term
        elif cls is App or cls is Proj1 or cls is Proj2:
            spine = []
            while cls is App or cls is Proj1 or cls is Proj2:
                spine.append(t)
                t = t.fn if cls is App else t.arg
                cls = type(t)
            v = evaluate(t, env, fuel)
            while spine:
                e = spine.pop()
                if type(e) is not App:
                    if v[0] is Pair:
                        _spend(fuel)
                    v = projected(v, type(e))
                    continue
                a = evaluate(e.arg, env, fuel)
                if v[0] is Lam:
                    _spend(fuel)
                    if not spine:
                        t, env = _opened(v, a)
                        break
                v = applied(v, a)
            else:
                return v
        elif cls is Case or cls is Split:
            n = evaluate(t.scrut, env, fuel)
            if n[0] is Pair if cls is Split else n[0] in (Inl, Inr):
                _spend(fuel)
                if cls is Split:
                    env = {**env, t.var1: n[1], t.var2: n[2]}
                    t = t.body
                elif n[0] is Inl:
                    env, t = {**env, t.lvar: n[1]}, t.lbranch
                else:
                    env, t = {**env, t.rvar: n[1]}, t.rbranch
                continue
            x, y = new_variable(), new_variable()
            if cls is Split:
                body = evaluate(t.body, {**env, t.var1: x, t.var2: y}, fuel)
                if body[0] is Pair and body[1] == x and body[2] == y:
                    _spend(fuel)
                    return n
                return (Split, n, x[1], y[1], body)
            left = evaluate(t.lbranch, {**env, t.lvar: x}, fuel)
            right = evaluate(t.rbranch, {**env, t.rvar: y}, fuel)
            if (left[0] is Inl and left[1] == x
                    and right[0] is Inr and right[1] == y):
                _spend(fuel)
                return n
            return (Case, n, x[1], y[1], left, right)
        else:
            raise IllFormedType(f"not a term: {t!r}")


def applied(v, a):
    """The value of v applied to the value a (a closure's contraction is
    counted by its caller).  A closure applied before is applied through
    its body's normal form (see _opened)."""
    if v[0] is Lam:
        return evaluate(*_opened(v, a), v[3])
    return (App, v, a)


def _opened(v, a):
    """The term and env that closure v applied to a evaluates.  The first
    time, they are v's body and env.  After that, they are the normal form
    of v's body, read back once with a new variable for its binder and
    kept on v, and that variable bound to a alone.  So a closure applied
    again and again, as f is in d = \\f:a->a. \\x:a. f (f x), makes its
    body's contractions once, and d applied k times to \\y:a. y takes
    steps linear in k, not 2^k.  A variable of that normal form evaluates
    to a new value of the same name, which is why evaluate tells a split's
    or a case's own variables by ==."""
    _, env, lam, fuel, kept = v
    if not kept:
        kept.append(None)
        return lam.body, {**env, lam.var: a}
    if kept[0] is None:
        x = new_variable()
        body = evaluate(lam.body, {**env, lam.var: x}, fuel)
        kept[0] = x[1], _read_back(body, {}, None, {})
    x, body = kept[0]
    return body, {x: a}


def projected(v, proj):
    """The value of proj v, for proj Proj1 or Proj2 (a pair's contraction
    is counted by its caller)."""
    if v[0] is Pair:
        return v[1] if proj is Proj1 else v[2]
    return (proj, v)


def read_back(v, names=None, type_norm=None) -> TermExpr:
    """The normal form value v reads back as, normalize_term's up to the
    names of its binders: type_norm is as there, and names, a dict, may
    rename variables new_variable made.  A closure is read back applied
    to a new variable.  A value v holds twice, as the value of
    (\\x:a. <x, x>) y holds that of y, is read back once, and its normal
    form is shared."""
    return _read_back(v, {} if names is None else names, type_norm, {})


def _read_back(v, names: dict, type_norm, memo: dict) -> TermExpr:
    """read_back, with memo keeping what each value read back as, by the
    value object."""
    tag = v[0]
    if tag is Var:
        return Var(names.get(v[1], v[1]))
    hit = memo.get(id(v))
    if hit is not None:
        return hit[1]
    if tag is Lam:
        _, env, lam, fuel, _ = v
        x = new_variable()
        dom = subst(lam.dom, {y: _read_back(env[y], names, type_norm, memo)
                              for y in free_vars(lam.dom) if y in env})
        body = evaluate(lam.body, {**env, lam.var: x}, fuel)
        out = Lam(x[1], dom if type_norm is None else type_norm(dom),
                  _read_back(body, names, type_norm, memo))
    else:
        # one frame a level, as evaluate takes: a comprehension is another
        n = _read_back(v[1], names, type_norm, memo)
        if tag is Case or tag is Split:
            x, y = names.get(v[2], v[2]), names.get(v[3], v[3])
            w = _read_back(v[4], names, type_norm, memo)
            out = (Split(n, x, y, w) if tag is Split else
                   Case(n, x, w, y, _read_back(v[5], names, type_norm, memo)))
        else:
            out = (tag(n) if len(v) == 2 else
                   tag(n, _read_back(v[2], names, type_norm, memo)))
    # v is kept beside what it read back as, so no other value takes its id
    memo[id(v)] = v, out
    return out
