"""Binding, substitution, alpha-equality, hashing and reduction."""

import copy
import dataclasses
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import opptypes.search as search
import opptypes.syntax as syntax

from opptypes import (EMPTY, Ann, App, Atom, Basis, Case, CoFun, Fun, Inl,
                      Inr, Lam, NormalizationOverflow, Opp, Pair, Pi, Prod,
                      Proj1, Proj2, Split, TermExpr, TypeExpr, Var, alpha_eq,
                      check, declare_type_const, dual, expand_in_basis,
                      free_vars, is_onf, normalize_term, onf, parse_term,
                      subst, subst_term, subst_type, uses_only_basis)
from opptypes.syntax import SCOPES, all_names

import binding_oracle as oracle
from generators import terms, types

a, b, c = Atom("a"), Atom("b"), Atom("c")


def naive_subst(t, x, u):
    """Independent oracle: plain structural replacement.

    Only valid when no binder in t shadows x or captures a variable of u;
    the frozen test cases below satisfy that.
    """
    if isinstance(t, Var):
        return u if t.name == x else t
    if isinstance(t, App):
        return App(naive_subst(t.fn, x, u), naive_subst(t.arg, x, u))
    if isinstance(t, Pair):
        return Pair(naive_subst(t.fst, x, u), naive_subst(t.snd, x, u))
    if isinstance(t, Proj1):
        return Proj1(naive_subst(t.arg, x, u))
    raise AssertionError(f"oracle does not handle {t!r}")


class TestSubstTerm:
    def test_direct_hit(self):
        target = Pair(Var("a0"), Var("b0"))
        assert subst_term(Var("x"), "x", target) == target

    def test_shadowed_binder(self):
        t = Lam("x", a, Var("x"))
        assert subst_term(t, "x", Var("u")) == t

    def test_structural_recursion_matches_oracle(self):
        t = App(Var("f"), Var("x"))
        u = Proj1(Var("c0"))
        expected = naive_subst(t, "x", u)
        assert expected == App(Var("f"), Proj1(Var("c0")))  # frozen
        assert subst_term(t, "x", u) == expected

    def test_capture_avoided(self):
        # substituting y under a binder named y must freshen the binder
        t = Lam("y", a, App(Var("x"), Var("y")))
        out = subst_term(t, "x", Var("y"))
        assert isinstance(out, Lam)
        assert out.var != "y"
        assert out.body == App(Var("y"), Var(out.var))

    def test_split_capture(self):
        t = Split(Var("s"), "u", "v", Pair(Var("x"), Var("u")))
        out = subst_term(t, "x", Var("u"))
        assert "u" in free_vars(out.body)
        assert alpha_eq(out, Split(Var("s"), "u1", "v",
                                   Pair(Var("u"), Var("u1"))))


class TestSubstType:
    def test_atom_argument(self):
        assert (subst_type(Atom("b", (Var("x"),)), "x", Var("a0"))
                == Atom("b", (Var("a0"),)))

    def test_under_binder(self):
        A = Pi("y", a, Atom("b", (Var("x"), Var("y"))))
        out = subst_type(A, "x", Var("a0"))
        assert out == Pi("y", a, Atom("b", (Var("a0"), Var("y"))))

    def test_opp_transparent(self):
        A = Opp(Atom("b", (Var("x"),)))
        assert subst_type(A, "x", Var("a0")) == Opp(Atom("b", (Var("a0"),)))

    def test_binder_shadow(self):
        A = Pi("x", a, Atom("b", (Var("x"),)))
        assert subst_type(A, "x", Var("u")) == A


class TestAlphaEq:
    def test_renamed_binder(self):
        assert alpha_eq(Pi("x", a, Atom("b", (Var("x"),))),
                        Pi("y", a, Atom("b", (Var("y"),))))

    def test_distinct_constructors(self):
        assert not alpha_eq(Fun(a, b), CoFun(b, a))

    def test_lambda(self):
        assert alpha_eq(Lam("x", a, Var("x")), Lam("z", a, Var("z")))

    def test_free_variables_matter(self):
        assert not alpha_eq(Var("x"), Var("y"))
        assert not alpha_eq(Lam("x", a, Var("y")), Lam("x", a, Var("z")))

    def test_bound_free_mixup_rejected(self):
        assert not alpha_eq(Lam("x", a, Var("x")), Lam("y", a, Var("x")))

    def test_a_shared_body_is_read_through_its_free_variables(self):
        # one body object under differently named binders: equal only
        # when neither binder name is free in it
        for B in (Var("x"), App(Var("x"), Var("z"))):
            assert not alpha_eq(Lam("x", a, B), Lam("y", a, B))
        for B in (Var("z"), App(Var("z"), Lam("x", a, Var("x")))):
            assert alpha_eq(Lam("x", a, B), Lam("y", a, B))


class TestFreeVars:
    def test_closed_pi(self):
        assert free_vars(Pi("x", a, Atom("b", (Var("x"),)))) == frozenset()

    def test_family_application(self):
        assert free_vars(Atom("b", (Var("x"),))) == {"x"}

    def test_mixed_term(self):
        t = Pair(Var("x"), Lam("y", a, Var("y")))
        assert free_vars(t) == {"x"}


@settings(max_examples=200)
@given(terms(), st.sampled_from(("x", "y", "z")), terms(max_depth=2))
def test_subst_of_var_is_identity(t, x, u):
    assert alpha_eq(subst_term(t, x, Var(x)), t)


@settings(max_examples=200)
@given(terms(), st.sampled_from(("x", "y", "z")), terms(max_depth=2))
def test_free_vars_after_subst(t, x, u):
    out = free_vars(subst_term(t, x, u))
    bound = (free_vars(t) - {x}) | free_vars(u)
    if x in free_vars(t):
        assert out <= bound
    else:
        assert out == free_vars(t)


@settings(max_examples=200)
@given(terms(), st.sampled_from(("x", "y")), terms(max_depth=2))
def test_subst_respects_alpha(t, x, u):
    # renaming binders before substituting cannot change the result
    renamed = subst_term(subst_term(t, "q", Var("q")), x, u)
    assert alpha_eq(subst_term(t, x, u), renamed)


@settings(max_examples=150)
@given(types(max_depth=3))
def test_alpha_eq_reflexive(A):
    assert alpha_eq(A, A)


@settings(max_examples=150)
@given(types(max_depth=3), terms())
def test_hash_is_structural(A, t):
    for e in (A, t):
        h, fv, names = hash(e), free_vars(e), all_names(e)
        twin = copy.deepcopy(e)     # fresh nodes, nothing kept
        assert twin._hash is twin._fv is twin._names is None
        assert twin == e and hash(twin) == h
        assert free_vars(twin) == fv and all_names(twin) == names
        state = e.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert not {"_hash", "_fv", "_names"} & set(state)
        assert pickle.loads(pickle.dumps(e)) == e


def test_pickling_and_copying_keep_only_the_fields_and_the_mark():
    # fill every attribute a node keeps, on an input and on its normal
    # form, and on a co-function its first half
    u, c = Var("u"), Atom("c")
    T = Pi("u", c, Opp(Prod(Atom("p", (u,)), Opp(Opp(Atom("b"))))))
    N = onf(T)
    C = onf(CoFun(N, Opp(Prod(c, Atom("a")))))
    for e in (T, N, C):
        hash(e), free_vars(e), all_names(e)
    search._spine(N), search._spine(C)
    assert {"_hash", "_fv", "_names", "_onf"} <= set(T.__dict__)
    assert {"_hash", "_fv", "_names", "_spine", "_nf"} <= set(N.__dict__)
    assert {"_hash", "_fv", "_spine", "_nf", "_first"} <= set(C.__dict__)
    for e in (T, N, C):
        fields = {f.name for f in dataclasses.fields(e)}
        for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert twin == e and set(twin.__dict__) <= fields | {"_nf"}
    # the mark is kept on purpose: a twin of a normal node is normal
    assert copy.deepcopy(N)._nf and pickle.loads(pickle.dumps(N))._nf


def test_hash_of_a_deep_tree():
    def trees():
        T, t = Atom("d"), Var("x")
        for _ in range(3000):
            T = Fun(Atom("p", (Var("u"),)), T)
            t = App(t, Lam("y", a, Var("y")))
        return T, t
    (T1, t1), (T2, t2) = trees(), trees()
    assert hash(T1) == hash(T2) and hash(t1) == hash(t2)
    assert len({T1: 0, t1: 1}) == 2


def test_equality_of_deep_trees():
    # == walks a stack of its own, so 3000 levels do not overflow
    def trees(leaf):
        T, t = Atom(leaf), Var(leaf)
        for _ in range(3000):
            T = Fun(Atom("p", (Var("u"),)), T)
            t = App(t, Lam("y", a, Var("y")))
        return T, t
    (T1, t1), (T2, t2), (T3, t3) = trees("d"), trees("d"), trees("e")
    assert T1 == T2 and t1 == t2 and not T1 != T2
    assert T1 != T3 and t1 != t3 and not t1 == t3
    table = {T1: "type", t1: "term"}
    assert table[T2] == "type" and table[t2] == "term"
    assert T3 not in table and t3 not in table
    assert T1 != T3 and t1 != t3     # now with kept hashes


def test_names_of_deep_trees_without_binders():
    # all_names walks a tree without binders on a list of its own, and
    # its binder nodes, each with a binder-free body, one frame apiece
    T, t = Atom("d"), Var("x")
    for i in range(3000):
        T = Fun(Atom("p", (Var(f"u{i % 3}"),)), T)
        t = App(t, Lam("y", a, Var("y")) if i % 1000 == 0 else Var("z"))
    assert all_names(T) == {"d", "p", "u0", "u1", "u2"}
    assert all_names(t) == {"x", "y", "z", "a"}
    assert all_names(Pi("v", a, T)) == all_names(T) | {"v", "a"}

def _nodes(e):
    """Every node of e once, each before its subtrees."""
    seen, out, stack = set(), [], [e]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            out.append(n)
            stack.extend(syntax._subtrees(n))
    return out


def _agrees_with_oracle(e, top_down):
    """Ask e's nodes for their sets, the root first or the leaves first,
    then compare every node's with the plain walks."""
    nodes = _nodes(e)
    for n in nodes if top_down else reversed(nodes):
        free_vars(n), all_names(n)
    for n in nodes:
        assert free_vars(n) == oracle.free_vars(n), n
        assert all_names(n) == oracle.all_names(n), n


@settings(max_examples=200)
@given(st.one_of(types(max_depth=3), terms()), terms(max_depth=2),
       st.sampled_from(("x", "y", "z", "v1")), st.booleans())
def test_kept_sets_match_the_oracle(e, u, x, top_down):
    # e shared under a binder of x and beside it, and in a family's
    # argument when it is a term
    if isinstance(e, TermExpr):
        shared = Pair(e, Lam(x, Atom("p", (e,)), App(e, Var(x))))
    else:
        shared = Pi(x, e, Fun(e, Atom("p", (Var(x), u))))
    _agrees_with_oracle(shared, top_down)
    out = subst(shared, {x: u, "w": Var(x)})
    _agrees_with_oracle(out, top_down)
    assert free_vars(shared) == oracle.free_vars(shared)


@settings(max_examples=200)
@given(st.one_of(types(max_depth=3), terms()), terms(max_depth=2))
def test_subst_returns_a_node_it_does_not_change(e, u):
    for n in _nodes(e):
        free = oracle.free_vars(n)
        for x in ("x", "y", "z", "w", "v1"):
            if x not in free:
                assert subst(n, {x: u}) is n
    if "x" in oracle.free_vars(e):
        assert subst(e, {"x": u}) is not e


def test_subst_shares_the_subtrees_it_does_not_change():
    kept = Lam("y", a, App(Var("y"), Var("z")))
    t = Pair(App(Var("x"), kept), kept)
    out = subst(t, {"x": Var("u")})
    assert out.snd is kept and out.fst.arg is kept
    assert out == Pair(App(Var("u"), kept), kept)


class TestNormalize:
    def test_beta(self):
        t = App(Lam("x", a, Var("x")), Var("u"))
        assert normalize_term(t) == Var("u")

    def test_projections(self):
        t = Proj2(Pair(Var("u"), Var("v")))
        assert normalize_term(t) == Var("v")

    @pytest.mark.parametrize("inj", [Inl, Inr], ids=["inl", "inr"])
    def test_case_iota(self, inj):
        t = Case(inj(Var("u")), "x", Pair(Var("x"), Var("x")),
                 "y", Var("y"))
        assert normalize_term(t) == (Pair(Var("u"), Var("u"))
                                     if inj is Inl else Var("u"))

    def test_split_iota(self):
        t = Split(Pair(Var("u"), Var("v")), "x", "y",
                  App(Var("x"), Var("y")))
        assert normalize_term(t) == App(Var("u"), Var("v"))

    def test_case_identity_collapses(self):
        t = Case(Var("z"), "x", Inl(Var("x")), "y", Inr(Var("y")))
        assert normalize_term(t) == Var("z")

    def test_split_identity_collapses(self):
        t = Split(Var("z"), "x", "y", Pair(Var("x"), Var("y")))
        assert normalize_term(t) == Var("z")

    def test_split_shadowed_identity_kept(self):
        t = Split(Var("z"), "x", "x", Pair(Var("x"), Var("x")))
        assert normalize_term(t) != Var("z")

    def test_annotation_erased(self):
        assert normalize_term(Ann(Var("u"), a)) == Var("u")

    @pytest.mark.parametrize("body", [
        "x x",
        "case inl x of { inl u => u u | inr v => v }",
        "split <x, x> as (u, v) => u v"])
    def test_a_term_that_reduces_forever_runs_out_of_fuel(self, body,
                                                          monkeypatch):
        # a contraction at the head, by beta, case of an injection or
        # split of a pair, costs fuel but no stack
        monkeypatch.setattr(syntax, "FUEL", 1000)
        omega = parse_term(f"(\\x:a. {body}) (\\x:a. {body})")
        with pytest.raises(NormalizationOverflow,
                           match="exceeded 1000 steps"):
            normalize_term(omega)


class TestSimultaneousSubst:
    def test_swap(self):
        t = App(Var("x"), Var("y"))
        out = subst(t, {"x": Var("y"), "y": Var("x")})
        assert out == App(Var("y"), Var("x"))

    def test_capture_by_either_replacement(self):
        t = Lam("y", a, App(Var("x"), App(Var("z"), Var("y"))))
        out = subst(t, {"x": Var("y"), "z": Var("w")})
        assert out.var not in ("y", "w")
        assert out.body == App(Var("y"), App(Var("w"), Var(out.var)))

    def test_shadowing_drops_only_the_bound_variable(self):
        t = Lam("x", a, App(Var("x"), Var("z")))
        out = subst(t, {"x": Var("u"), "z": Var("w")})
        assert out == Lam("x", a, App(Var("x"), Var("w")))

    def test_split_reduction_substitutes_both_binders_at_once(self):
        # the second binder is named like the first component
        t = Split(Pair(Var("y"), Var("w")), "x", "y", Var("x"))
        assert normalize_term(t) == Var("y")

    def test_repeated_split_binder_is_the_second_component(self):
        t = Split(Pair(Var("y"), Var("w")), "x", "x", Var("x"))
        assert normalize_term(t) == Var("w")


def _lambda_chain(n, body):
    """n lambdas x0, ..., x{n-1} of domain a around body, and the type
    a -> ... -> a with n arrows; built with loops, not recursion."""
    t, T = body, a
    for i in reversed(range(n)):
        t = Lam(f"x{i}", a, t)
        T = Fun(a, T)
    return t, T


def test_deep_lambda_chain():
    t, T = _lambda_chain(800, Var("x0"))
    check(declare_type_const(EMPTY, "a"), t, T)
    assert free_vars(t) == frozenset()
    open_chain, _ = _lambda_chain(800, App(Var("x0"), Var("y")))
    out = subst_term(open_chain, "y", Var("z"))
    assert free_vars(out) == {"z"}
    assert alpha_eq(out, _lambda_chain(800, App(Var("x0"), Var("z")))[0])
    assert not alpha_eq(out, open_chain)
    # the type algebra takes one Python frame per level of T as well
    for basis in Basis:
        expand_in_basis(T, basis)
        assert not uses_only_basis(T, basis)
    assert isinstance(dual(T), CoFun)
    assert isinstance(onf(Opp(T)), CoFun)
    assert is_onf(T)


def test_scope_table_covers_every_node_class():
    nodes = set(TypeExpr.__subclasses__()) | set(TermExpr.__subclasses__())
    assert nodes == set(SCOPES) | {Atom, Var}
    for cls, subtrees in SCOPES.items():
        listed = [name for subtree in subtrees for name in subtree]
        fields = [f.name for f in dataclasses.fields(cls)]
        assert sorted(listed) == sorted(fields), cls
