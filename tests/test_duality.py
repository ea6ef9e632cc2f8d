"""Opposite normal forms, duals, the duality principle and the bases."""

import copy
import dataclasses
import pickle
import random
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import opptypes.duality as duality
import opptypes.syntax as syntax
from opptypes import (Atom, Basis, CoFun, Fun, IllFormedType, Opp, Pi, Prod,
                      Sigma, Sum, Var, alpha_eq, check_duality_principle,
                      dual, expand_in_basis, is_onf, onf, parse_type,
                      recheck, subst_type, type_equal, uses_only_basis)
from opptypes.duality import DUALS, FAMILY, _neg, components, equiv, halves
from opptypes.logic import CONNECTIVES, Formula, Neg, Pred
from opptypes.syntax import TypeExpr, normalize_term

from generators import (rand_type, std_ctx, types, unnormalize,
                        with_term_args)
from rewrite_oracle import (rewrite_to_fixpoint, step_innermost,
                            step_outermost)

a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestOnfExamples:
    def test_opp_prod(self):
        assert onf(parse_type("~(a * b)")) == Sum(Opp(a), Opp(b))

    def test_double_opposite(self):
        assert onf(parse_type("~~(a -> b)")) == Fun(a, b)

    def test_nested_matches_rewrite_oracle(self):
        A = parse_type("~((a -> b) * c)")
        expected = rewrite_to_fixpoint(A, step_innermost)
        assert expected == Sum(CoFun(Opp(b), Opp(a)), Opp(c))  # frozen
        assert onf(A) == expected

    def test_already_normal(self):
        assert onf(a) == a

    def test_seven_distribution_identities(self):
        for lhs, rhs in [
            ("~(a -> b)", "~b <~ ~a"),
            ("~(b <~ a)", "~a -> ~b"),
            ("~(a * b)", "~a + ~b"),
            ("~(a + b)", "~a * ~b"),
            ("~(Pi x:a. p(x))", "Sg x:a. ~p(x)"),
            ("~(Sg x:a. p(x))", "Pi x:a. ~p(x)"),
            ("~~a", "a"),
        ]:
            assert alpha_eq(onf(parse_type(lhs)), onf(parse_type(rhs))), lhs

    @pytest.mark.parametrize("n, expected", [(3000, a), (3001, Opp(a))])
    def test_tower_of_opposites(self, n, expected):
        # a run of ~ far deeper than the recursion limit, built bottom-up
        ty = a
        for _ in range(n):
            ty = Opp(ty)
        assert onf(ty) == expected

    def test_degenerate_binders_collapse(self):
        assert onf(parse_type("Pi x:a. b")) == Fun(a, b)
        assert onf(parse_type("Sg x:~a. b")) == CoFun(b, a)
        assert onf(parse_type("Sg x:a. b")) == CoFun(b, Opp(a))


class TestDualExamples:
    def test_fun(self):
        A = parse_type("a -> b")
        assert dual(A) == CoFun(Opp(b), Opp(a))
        # oracle: the dual satisfies A = ~(dual A)
        assert alpha_eq(onf(Opp(dual(A))), onf(A))

    def test_pi_generating_type_unchanged(self):
        A = parse_type("Pi x:a. p(x)")
        assert dual(A) == Sigma("x", a, Opp(Atom("p", (Var("x"),))))

    def test_prod(self):
        A = parse_type("a * b")
        assert dual(A) == Sum(Opp(a), Opp(b))
        assert alpha_eq(onf(Opp(dual(A))), onf(A))

    def test_atom(self):
        assert dual(a) == Opp(a)


class TestDualityPrinciple:
    def test_fun_instance(self):
        d = check_duality_principle(parse_type("a -> b"))
        assert d.rule == "duality-principle"

    def test_atom_instance(self):
        check_duality_principle(a)

    def test_dependent_instance(self):
        A = parse_type("Sg x:a. p(x) + c")
        assert alpha_eq(onf(Opp(dual(A))), onf(A))
        check_duality_principle(A)

    def test_with_context_produces_rechecking_derivation(self):
        d = check_duality_principle(parse_type("~(a -> b) * c"), std_ctx())
        assert recheck(d)


@settings(max_examples=300, deadline=None)
@given(types(max_depth=5))
def test_onf_idempotent(A):
    n = onf(A)
    assert onf(n) == n


@settings(max_examples=100, deadline=None)
@given(types(max_depth=5))
def test_onf_shares_normal_subtrees(A):
    # identity, not just equality: a normal form is returned as it is
    n = onf(A)
    assert onf(n) is n


def test_onf_shares_normal_atom_arguments():
    n = onf(parse_type("p(split s as (u, v) => (\\w:a. w) u) <~ ~a"))
    assert n == parse_type("p(split s as (u, v) => u) <~ ~a")
    assert onf(n) is n


@pytest.mark.parametrize("x", [Var("x"), "a", None])
def test_onf_rejects_what_is_not_a_type(x):
    with pytest.raises(IllFormedType, match="not a type"):
        onf(x)


def _rewrite_nf(A):
    """The normal form by rewriting to a fixpoint, after beta-normalizing
    the atom arguments, which the rewrite rules leave alone."""
    return rewrite_to_fixpoint(_args_normalized(A), step_innermost)


def _args_normalized(A):
    if isinstance(A, Atom):
        return Atom(A.name, tuple(normalize_term(t, type_norm=_rewrite_nf)
                                  for t in A.args))
    return dataclasses.replace(A, **{
        f.name: _args_normalized(getattr(A, f.name))
        for f in dataclasses.fields(A)
        if isinstance(getattr(A, f.name), TypeExpr)})


def _type_nodes(e):
    """Every type node of e, those inside atom arguments included."""
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, TypeExpr):
            yield e
        if isinstance(e, tuple):
            todo.extend(e)
        elif dataclasses.is_dataclass(e):
            todo.extend(getattr(e, f.name) for f in dataclasses.fields(e))


@settings(max_examples=100, deadline=None)
@given(types(max_depth=5), st.integers(0, 2 ** 32))
def test_the_normal_form_mark_is_sound(A, seed):
    # a marked node is its own normal form: onf returns it at once
    rng = random.Random(seed)
    B = unnormalize(rng, A, rng.randint(1, 3))
    for T in (A, B, with_term_args(rng, A), with_term_args(rng, B)):
        expected = _rewrite_nf(T)
        n = onf(T)
        assert n == expected
        assert onf(T) is n             # again: kept on T, or T is n
        assert onf(n) is n
        assert n._nf
        assert T._onf is (None if T is n else n)
        for N in (*_type_nodes(T), *_type_nodes(n)):
            if N._nf:
                assert _rewrite_nf(N) == N
            # a kept normal form hangs off an unmarked node, and is marked
            if N._onf is not None:
                assert not N._nf and N._onf._nf
                assert N._onf == _rewrite_nf(N)


@settings(max_examples=100, deadline=None)
@given(types(max_depth=5))
def test_the_normal_form_mark_is_invisible(A):
    opp = Opp(A)
    n = onf(opp)
    assert opp._onf is (None if opp is n else n)
    fresh = dataclasses.replace(n)
    assert not fresh._nf and n._nf
    assert fresh == n and hash(fresh) == hash(n)
    assert repr(fresh) == repr(n) and str(fresh) == str(n)
    for T in (A, opp, n):
        twins = [pickle.loads(pickle.dumps(T)), copy.deepcopy(T)]
        if T is not n:
            twins.append(dataclasses.replace(T))
        for twin in twins:
            assert twin._onf is None
            assert twin == T and hash(twin) == hash(T)
            assert repr(twin) == repr(T) and str(twin) == str(T)
            assert onf(twin) == onf(T)
    assert onf(fresh) is fresh and fresh._nf


def test_a_kept_normal_form_is_not_walked_again(monkeypatch):
    # 64 layers, each T -> b written as ~(~b <~ ~T): the first onf walks
    # every layer and negates, the second reads the form kept on the root
    T = a
    for _ in range(64):
        T = Opp(CoFun(Opp(b), Opp(T)))
    calls = {"onf": [], "_opposite": []}
    for name, seen in calls.items():
        real = getattr(duality, name)
        # the recursion goes through the module's name, so it is counted
        monkeypatch.setattr(
            duality, name,
            lambda *args, real=real, seen=seen: seen.append(1) or real(*args))
    n = duality.onf(T)
    assert len(calls["onf"]) > 64 and calls["_opposite"]
    assert n == rewrite_to_fixpoint(T, step_innermost)
    for seen in calls.values():
        seen.clear()
    assert duality.onf(T) is n
    assert len(calls["onf"]) == 1 and calls["_opposite"] == []


def test_a_co_function_keeps_its_first_half(monkeypatch):
    # B <~ A pairs a refutation ~A with a proof of B: ~A is worked out on
    # the first read of the halves and read off the node after that
    T = onf(parse_type("b <~ (Pi u:c. p(u) * ~a)"))
    assert isinstance(T, CoFun) and T._first is None
    first = halves(T)[0]
    assert first is halves(T)[0] is T._first
    assert alpha_eq(first, onf(Opp(T.dom)))
    built = []
    real = duality._opposite
    monkeypatch.setattr(duality, "_opposite",
                        lambda *args: built.append(1) or real(*args))
    assert duality.halves(T) == (first, None, T.cod)
    assert duality.components(T, Var("t"))[0] is first
    assert built == []
    # a co-function not yet read negates its domain once
    fresh = onf(parse_type("c <~ a + b"))
    assert duality.halves(fresh)[0] == onf(parse_type("~a * ~b"))
    assert built


def test_is_onf_reads_the_mark(monkeypatch):
    A = parse_type("~(a -> b)")
    n = onf(A)
    assert not A._nf and not is_onf(A)
    # an unmarked type is walked below its root
    assert not is_onf(parse_type("a -> ~~b"))
    monkeypatch.setattr(duality, "_every_node", None)
    assert is_onf(n)


def test_components_at_the_binders_own_variable(monkeypatch):
    body = Atom("p", (Var("u"),))
    for _ in range(200):
        body = Fun(a, body)
    T = onf(Pi("u", a, body))
    calls = []
    real = syntax._subst
    monkeypatch.setattr(syntax, "_subst",
                        lambda *args: calls.append(1) or real(*args))
    first, second = components(T, Var("u"))
    assert first is a and second is T.body and calls == []
    # any other term is still substituted
    assert components(T, Var("y"))[1] == subst_type(T.body, "u", Var("y"))
    assert calls


@settings(max_examples=300, deadline=None)
@given(types(max_depth=5))
def test_onf_is_normal_and_equal(A):
    n = onf(A)
    assert is_onf(n)
    assert type_equal(std_ctx(), A, n)


@settings(max_examples=300, deadline=None)
@given(types(max_depth=5))
def test_dual_involution_at_onf(A):
    assert alpha_eq(onf(dual(dual(A))), onf(A))


@settings(max_examples=300, deadline=None)
@given(types(max_depth=5))
def test_duality_principle_generated(A):
    check_duality_principle(A)


@settings(max_examples=200, deadline=None)
@given(types(max_depth=4))
def test_strategies_agree(A):
    inner = rewrite_to_fixpoint(A, step_innermost)
    outer = rewrite_to_fixpoint(A, step_outermost)
    assert inner == outer
    assert inner == onf(A)


@settings(max_examples=200, deadline=None)
@given(types(max_depth=4), types(max_depth=4))
def test_constructor_duality(A, B):
    # each constructor pair is dual under the opposite marker
    assert alpha_eq(onf(Opp(Prod(A, B))), onf(Sum(Opp(A), Opp(B))))
    assert alpha_eq(onf(Opp(Sum(A, B))), onf(Prod(Opp(A), Opp(B))))
    # the arrows swap sides
    assert alpha_eq(onf(Opp(Fun(A, B))), onf(CoFun(Opp(B), Opp(A))))
    assert alpha_eq(onf(Opp(CoFun(B, A))), onf(Fun(Opp(A), Opp(B))))


def test_pi_sigma_duality_generated():
    rng = random.Random(7231)
    for _ in range(300):
        gen = a
        body = rand_type(rng, 3, ("v1",))
        lhs = onf(Opp(Pi("v1", gen, body)))
        rhs = onf(Sigma("v1", gen, Opp(body)))
        assert alpha_eq(lhs, rhs)
        lhs = onf(Opp(Sigma("v1", gen, body)))
        rhs = onf(Pi("v1", gen, Opp(body)))
        assert alpha_eq(lhs, rhs)


@settings(max_examples=150, deadline=None)
@given(types(max_depth=4))
def test_basis_completeness(A):
    for basis in Basis:
        out = expand_in_basis(A, basis)
        assert uses_only_basis(out, basis)
        assert type_equal(None, A, out)


def test_basis_examples():
    out = expand_in_basis(parse_type("a + b"), Basis.PI_PROD)
    assert uses_only_basis(out, Basis.PI_PROD)
    assert not uses_only_basis(parse_type("a * (b -> c)"), Basis.PI_PROD)
    assert out == Opp(Prod(Opp(a), Opp(b)))
    out = expand_in_basis(parse_type("b <~ a"), Basis.SIGMA_PROD)
    assert out == Sigma("x1", Opp(a), b)
    assert expand_in_basis(a, Basis.SIGMA_SUM) == a


def test_expansion_deterministic():
    A = parse_type("(a -> b) -> (c <~ a)")
    assert expand_in_basis(A, Basis.SIGMA_SUM) == expand_in_basis(
        A, Basis.SIGMA_SUM)


def test_unnormalize_preserves_normal_form():
    rng = random.Random(99)
    for _ in range(200):
        A = rand_type(rng, 4)
        B = unnormalize(rng, A, rng.randint(1, 3))
        assert alpha_eq(onf(A), onf(B))


def _co_eta(T):
    """An equivalent of the normal form T: each B <~ A written as ~A * B,
    the pair type with the same halves."""
    if isinstance(T, CoFun):
        return Prod(_co_eta(_neg(T.dom)), _co_eta(T.cod))
    if isinstance(T, (Pi, Sigma)):
        return type(T)(T.var, _co_eta(T.gen), _co_eta(T.body))
    if isinstance(T, (Fun, Prod, Sum)):
        return type(T)(*map(_co_eta, halves(T)[::2]))
    return T


@settings(max_examples=200, deadline=None)
@given(types(max_depth=4), types(max_depth=4), st.integers(0, 2**32))
def test_equiv_on_normal_forms(A, B, seed):
    X, Y = onf(A), onf(B)
    twin = onf(unnormalize(random.Random(seed), A, 2))
    co = _co_eta(X)
    assert equiv(X, twin) and equiv(X, co) and is_onf(co)
    for P, Q in ((X, Y), (X, twin), (X, co), (co, Y)):
        assert equiv(P, P)
        assert equiv(P, Q) == equiv(Q, P)
        if type_equal(None, P, Q):
            assert equiv(P, Q)
        family = FAMILY.get(type(P))
        if family is None or family is not FAMILY.get(type(Q)):
            assert equiv(P, Q) == alpha_eq(P, Q)
    assert halves(Sum(X, Y)) == (X, None, Y)


def test_equiv_reads_second_halves_under_one_binder():
    pv, pw = Atom("p", (Var("v"),)), Atom("p", (Var("w"),))
    # the same type under two binder names, once with <~ for the pair
    assert equiv(Sigma("v", a, CoFun(pv, Opp(b))), Sigma("w", a, Prod(b, pw)))
    # renaming v to w would capture the free w
    assert not equiv(Sigma("v", a, Prod(pv, pw)), Sigma("w", a, Prod(pw, pw)))
    # a binder against the free variable of the same name
    for dep, plain in ((Pi("v", a, pv), Fun(a, pv)),
                       (Sigma("v", a, pv), Prod(a, pv)),
                       (Sigma("v", a, pv), CoFun(pv, Opp(a)))):
        assert not equiv(dep, plain) and not equiv(plain, dep)


class TestNegativeControls:
    def test_opp_fun_vs_prod_not_equal(self):
        assert not type_equal(None, parse_type("~(a -> b)"),
                              parse_type("a * ~b"))

    def test_equivalence_gap_witness(self):
        # the opposites differ: ~~(a->b) = a->b but ~(a*~b) = ~a + b
        lhs = onf(parse_type("~~(a -> b)"))
        rhs = onf(parse_type("~(a * ~b)"))
        assert lhs == Fun(a, b)
        assert rhs == Sum(Opp(a), b)
        assert not alpha_eq(lhs, rhs)

    def test_prod_idempotence_fails(self):
        assert not type_equal(None, Prod(a, a), a)


def test_duality_table_covers_every_constructor():
    assert set(TypeExpr.__subclasses__()) == set(DUALS) | {Atom, Opp}
    for cls, (dcls, *fields) in DUALS.items():
        assert DUALS[dcls][0] is cls
        names = [f.name for f in dataclasses.fields(cls)]
        assert len(fields) == len(dataclasses.fields(dcls))
        assert sorted(f.lstrip("~") for f in fields) == sorted(names), cls


def test_duality_table_is_an_involution():
    # the dual's dual is the constructor again, with every field back in
    # its place and negated twice or not at all
    px = Atom("p", (Var("x"),))
    for T in (Fun(a, b), CoFun(a, b), Prod(a, b), Sum(a, b),
              Pi("x", a, px), Sigma("x", a, px)):
        assert type(_neg(T)) is DUALS[type(T)][0]
        assert _neg(_neg(T)) == T
        assert onf(dual(dual(T))) == T


def test_connective_map_covers_every_formula_class():
    assert set(Formula.__subclasses__()) == set(CONNECTIVES) | {Pred, Neg}
    assert set(CONNECTIVES.values()) == set(DUALS)
    for conn, con in CONNECTIVES.items():
        assert (len(dataclasses.fields(conn))
                == len(dataclasses.fields(con))), conn


def test_duality_survey_script_runs():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "duality_survey.py"),
         "--count", "200", "--depth", "5"],
        capture_output=True, text=True, cwd=repo)
    assert proc.returncode == 0, proc.stderr
    assert "duality principle held on every instance" in proc.stdout
