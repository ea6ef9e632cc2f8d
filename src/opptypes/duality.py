"""The type algebra: opposite normal forms, dual types, complete bases.

The opposite constructor distributes over every other constructor:

    ~(A -> B)      =  ~B <~ ~A          ~(B <~ A)      =  ~A -> ~B
    ~(A * B)       =  ~A + ~B           ~(A + B)       =  ~A * ~B
    ~(Pi x:A. B)   =  Sg x:A. ~B        ~(Sg x:A. B)   =  Pi x:A. ~B
    ~~A            =  A

Read left to right these form a terminating rewrite system whose normal
forms carry ~ only on atoms; onf() computes that normal form and is the
decision procedure behind definitional type equality.  Two further
definitional identities are folded into the normal form because the
non-dependent constructors are special cases of the binders:

    Pi x:A. B  =  A -> B        when x is not free in B
    Sg x:A. B  =  B <~ ~A       when x is not free in B

The six distribution identities are stated once, in the table DUALS.
dual() and the normalizer's negation _neg() read it: both exchange each
constructor with its partner and mark every atom with ~, leaving
generating types and term arguments untouched, and they differ only at
an ~ already present, which dual keeps and _neg cancels.  The round trip
law  A = ~(dual A)  is checked by kernel.check_duality_principle.  Basis
expansion writes a constructor the basis lacks as ~ of its dual, and
logic.formula_nnf reads the same table through dual_plans.

The kernel and the search read normal forms here too: FAMILY sorts the
constructors that head those other than atoms and their opposites by
elimination, application (-> and Pi), projection (*, <~ and Sg) or case
(+); halves gives the two sides of such a head, components instantiates
a dependent second side with a term, and equiv decides equivalence.
"""

from __future__ import annotations

import dataclasses
import enum
from operator import attrgetter, is_

from .errors import IllFormedType
from .syntax import (SCOPES, Atom, CoFun, Fun, Opp, Pi, Prod, Sigma, Sum,
                     TermExpr, TypeExpr, Var, all_names, alpha_eq,
                     free_vars, normalize_term, open_binders, subst_type)


def onf(A: TypeExpr) -> TypeExpr:
    """Opposite normal form: the canonical representative of A's equality
    class.  Pushes ~ down to atoms, cancels double opposites, collapses
    degenerate binders, and beta-normalizes atom arguments.  An ~ over a
    constructor is pushed one constructor down (see _pushed) before the
    fields are normalized, so each input node is walked once.  A subtree
    already in normal form is returned as it is, not rebuilt, so
    onf(onf(A)) is onf(A).

    Each node onf returns is marked normal, outside the dataclass fields
    (TypeExpr._nf), and a marked input is returned at once.  Invariant: a
    marked node is its own normal form, and so is every subtree of it.
    An unmarked input keeps the normal form found for it (TypeExpr._onf),
    returned at once when asked again.  Invariant: _onf is set only on an
    unmarked node and points to a marked one, never to itself, so no
    normal form is a cycle.  Nodes are immutable, so neither can go stale;
    ==, hash, repr and dataclasses.replace ignore both.
    """
    try:
        if A._nf:
            return A
        if A._onf is not None:
            return A._onf
    except AttributeError:
        raise IllFormedType(f"not a type: {A!r}") from None
    # a run of ~ is read with a loop, so a deep one costs no stack; ~~B
    # is B, and ~B is normalized in this frame, so a level costs one frame
    T, odd = A, False
    while isinstance(T, Opp):
        T, odd = T.inner, not odd
    if odd and not isinstance(T, Atom):
        T = _pushed(T)
    if isinstance(T, Atom):
        nf = T
        if T.args:
            args = tuple([normalize_term(t, type_norm=onf) for t in T.args])
            if not all(map(is_, args, T.args)):
                nf = Atom(T.name, args)
        if odd:
            nf = A if nf is A.inner else Opp(nf)
    elif isinstance(T, Fun):
        dom, cod = onf(T.dom), onf(T.cod)
        nf = T if dom is T.dom and cod is T.cod else Fun(dom, cod)
    elif isinstance(T, CoFun):
        cod, dom = onf(T.cod), onf(T.dom)
        nf = T if cod is T.cod and dom is T.dom else CoFun(cod, dom)
    elif isinstance(T, (Prod, Sum)):
        left, right = onf(T.left), onf(T.right)
        nf = (T if left is T.left and right is T.right
              else type(T)(left, right))
    elif isinstance(T, (Pi, Sigma)):
        gen, body = onf(T.gen), onf(T.body)
        if T.var in free_vars(body):
            nf = (T if gen is T.gen and body is T.body
                  else type(T)(T.var, gen, body))
        elif isinstance(T, Pi):
            nf = Fun(gen, body)
        else:
            nf = CoFun(body, _neg(gen))
    else:
        raise IllFormedType(f"not a type: {T!r}")
    object.__setattr__(nf, "_nf", True)
    if nf is not A:
        object.__setattr__(A, "_onf", nf)
    return nf


# ~ sends each binary constructor to its dual.  An entry gives the dual's
# class and its fields in field order, each named by the field it takes
# from the original and marked ~ where the opposite lands on it:
# ~(A -> B) = ~B <~ ~A reads  Fun -> CoFun(~cod, ~dom).
DUALS = {
    Fun: (CoFun, "~cod", "~dom"),
    CoFun: (Fun, "~dom", "~cod"),
    Prod: (Sum, "~left", "~right"),
    Sum: (Prod, "~left", "~right"),
    Pi: (Sigma, "var", "gen", "~body"),
    Sigma: (Pi, "var", "gen", "~body"),
}


def dual_plans(family) -> dict:
    """DUALS read by position for classes shaped like the constructors.

    family maps each class to the constructor whose fields its own match
    position by position.  Returns, per class, (dual, get, binder): the
    class of the family matching the dual constructor, a getter of the
    class's fields in the dual's field order, and whether it is a binder,
    whose last field alone is negated (otherwise both fields are).
    """
    member = {con: cls for cls, con in family.items()}
    plans = {}
    for cls, con in family.items():
        dcon, *fields = DUALS[con]
        mine = [f.name for f in dataclasses.fields(cls)]
        theirs = [f.name for f in dataclasses.fields(con)]
        negated = [f.startswith("~") for f in fields]
        binder = negated == [False, False, True]
        assert binder or negated == [True, True], con
        src = [mine[theirs.index(f.lstrip("~"))] for f in fields]
        plans[cls] = (member[dcon], attrgetter(*src), binder)
    return plans


_DUAL_PLANS = dual_plans({con: con for con in DUALS})


def _opposite(A: TypeExpr, keep: bool) -> TypeExpr:
    """A with every constructor exchanged for its dual (see DUALS) and
    every atom marked with ~.  An ~ already in A is kept when keep is true
    and cancelled otherwise, with the rest of its operand left alone.
    """
    cls = type(A)
    if cls is Atom:
        return Opp(A)
    if cls is Opp:
        return Opp(_opposite(A.inner, keep)) if keep else A.inner
    plan = _DUAL_PLANS.get(cls)
    if plan is None:
        raise IllFormedType(f"not a type: {A!r}")
    dcls, get, binder = plan
    if binder:
        var, gen, body = get(A)
        return dcls(var, gen, _opposite(body, keep))
    first, second = get(A)
    return dcls(_opposite(first, keep), _opposite(second, keep))


def _pushed(A: TypeExpr) -> TypeExpr:
    """~A read one constructor down, for A not an atom nor an opposite:
    ~(A * B) is ~A + ~B, with ~ on the fields DUALS marks."""
    plan = _DUAL_PLANS.get(type(A))
    if plan is None:
        raise IllFormedType(f"not a type: {A!r}")
    dcls, get, binder = plan
    if binder:
        var, gen, body = get(A)
        return dcls(var, gen, Opp(body))
    first, second = get(A)
    return dcls(Opp(first), Opp(second))


def _neg(N: TypeExpr) -> TypeExpr:
    """Normal form of ~N for N already in normal form.  Atom arguments
    stay intact, so a binder's variable stays free in the negated body and
    no degenerate binder needs collapsing."""
    return _opposite(N, False)


def dual(A: TypeExpr) -> TypeExpr:
    """The dual type: swap -> with <~ (exchanging sides), * with +,
    Pi with Sg, and mark every atom with ~.  Generating types and term
    arguments are left unchanged.
    """
    return _opposite(A, True)


FAMILY = {Fun: Fun, Pi: Fun, Prod: Prod, CoFun: Prod, Sigma: Prod, Sum: Sum}


def halves(T: TypeExpr):
    """(first, var, second) of a normal form with a FAMILY head: the
    domain and codomain, the component types or the summands.  var is
    None but for Pi and Sg; in second it stands for the argument or the
    first projection.  The first half of a co-function B <~ A is ~A,
    worked out on the first read and kept on the node (TypeExpr._first);
    it is a new tree, which does not point back at the node."""
    if isinstance(T, Fun):
        return T.dom, None, T.cod
    if isinstance(T, (Prod, Sum)):
        return T.left, None, T.right
    if isinstance(T, CoFun):
        first = T._first
        if first is None:
            first = _neg(T.dom)
            object.__setattr__(T, "_first", first)
        return first, None, T.cod
    if isinstance(T, (Pi, Sigma)):
        return T.gen, T.var, T.body
    raise AssertionError(f"not function-, pair- or sum-like: {T!r}")


def components(T: TypeExpr, term: TermExpr):
    """First and second half of T (see halves), with term for var and the
    second normalized: the argument and result types of an application
    to term, or the projections' types of a pair whose first is term.
    Where term is var itself, the second half is not copied."""
    first, var, second = halves(T)
    if var is not None:
        second = onf(second if term == Var(var)
                     else subst_type(second, var, term))
    return first, second


def equiv(X: TypeExpr, Y: TypeExpr) -> bool:
    """Inhabitation equivalence of normal forms, the closure of equality
    under the eta and co-eta conversions: alpha-equal, or of one FAMILY
    with equivalent halves, the second halves read under one binder.
    Equivalent types carry exactly the same inhabitants but are not
    inter-substitutable, because their opposites may differ: e.g.
    ~(A -> B) and A * ~B.  An object is equivalent to itself at once."""
    if X is Y or alpha_eq(X, Y):
        return True
    family = FAMILY.get(type(X))
    if family is None or family is not FAMILY.get(type(Y)):
        return False
    x1, xv, x2 = halves(X)
    y1, yv, y2 = halves(Y)
    if not equiv(x1, y1):
        return False
    if xv or yv:
        _, (x2, y2) = open_binders((), (xv or yv,),
                                   [(x2, (xv,)), (y2, (yv,))], [])
    return equiv(x2, y2)


class Basis(enum.Enum):
    """The four complete constructor sets, each named by the binder and
    the pair constructor it keeps (and taken together with ~)."""
    PI_PROD = (Pi, Prod)
    PI_SUM = (Pi, Sum)
    SIGMA_PROD = (Sigma, Prod)
    SIGMA_SUM = (Sigma, Sum)


BASIS_NAMES = {
    "pi_prod": Basis.PI_PROD,
    "pi_sum": Basis.PI_SUM,
    "sg_prod": Basis.SIGMA_PROD,
    "sg_sum": Basis.SIGMA_SUM,
}


def expand_in_basis(A: TypeExpr, basis: Basis) -> TypeExpr:
    """Rewrite A to use only the basis constructors plus ~, preserving
    definitional equality:

        A -> B     =>  Pi x:A. B            (x fresh)
        B <~ A     =>  Sg x:~A. B           (x fresh)

    and a constructor the basis lacks becomes ~ of its dual (see DUALS),
    e.g. A * B => ~(~A + ~B) and Pi x:A. B => ~(Sg x:A. ~B).

    Fresh binder names are drawn from a counter, so the expansion is
    reproducible byte for byte.
    """
    avoid = all_names(A)
    counter = [0]

    def fresh() -> str:
        # the counter makes each candidate once, so none is taken twice
        while True:
            counter[0] += 1
            cand = f"x{counter[0]}"
            if cand not in avoid:
                return cand

    def go(T: TypeExpr) -> TypeExpr:
        cls = type(T)
        if cls is Atom:
            return T
        if cls is Opp:
            return Opp(go(T.inner))
        if cls is Fun:
            cls, fields = Pi, (fresh(), go(T.dom), go(T.cod))
        elif cls is CoFun:
            cls, fields = Sigma, (fresh(), Opp(go(T.dom)), go(T.cod))
        elif cls is Pi or cls is Sigma:
            fields = (T.var, go(T.gen), go(T.body))
        elif cls is Prod or cls is Sum:
            fields = (go(T.left), go(T.right))
        else:
            raise IllFormedType(f"not a type: {T!r}")
        T = cls(*fields)
        return T if cls in basis.value else Opp(_pushed(T))

    return go(A)


# the subtrees of each type node; an atom's arguments are terms and are
# not visited
_TYPE_SCOPES = {Atom: (), **{cls: subtrees for cls, subtrees in SCOPES.items()
                             if issubclass(cls, TypeExpr)}}


def _every_node(A: TypeExpr, holds) -> bool:
    """True iff holds(T) for every type node T of A."""
    subtrees = _TYPE_SCOPES.get(type(A))
    if subtrees is None:
        raise IllFormedType(f"not a type: {A!r}")
    if not holds(A):
        return False
    for field, *_ in subtrees:
        if not _every_node(getattr(A, field), holds):
            return False
    return True


def is_onf(A: TypeExpr) -> bool:
    """True iff the opposite constructor is applied only to atoms in A.
    A node marked by onf is normal throughout, so it is not walked."""
    if getattr(A, "_nf", False):
        return True
    return _every_node(A, lambda T: type(T) is not Opp
                       or type(T.inner) is Atom)


def uses_only_basis(A: TypeExpr, basis: Basis) -> bool:
    """True iff A mentions no constructor outside the basis (~ is free)."""
    kept = {Atom, Opp, *basis.value}
    return _every_node(A, lambda T: type(T) in kept)
