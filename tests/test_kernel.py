"""Judgment checking: formation, typing, equality, derivation soundness."""

import random

import pytest
from hypothesis import given, settings

from opptypes import (Atom, CoFun, Fun, IllFormedContext, IllFormedType,
                      NonInferableTerm, Opp, Pi, Prod, Sigma, Sum,
                      TypeMismatch, UnboundVariable, Var, bounded_inhabit,
                      check, check_formation, declare_term,
                      declare_type_const, equivalent, infer, parse_term,
                      parse_type, recheck, subst_term, subst_type,
                      term_equal, type_equal, U0, U1)

from generators import rand_type, std_ctx, types, unnormalize

a, b, c = Atom("a"), Atom("b"), Atom("c")


def ctx_with(*decls):
    ctx = std_ctx()
    for name, ty in decls:
        ctx = declare_term(ctx, name, parse_type(ty))
    return ctx


class TestFormation:
    def test_fun_in_u0(self):
        check_formation(std_ctx(), Fun(a, b), U0)

    def test_double_opposite_in_u0(self):
        check_formation(std_ctx(), Opp(Opp(a)), U0)

    def test_opposite_rejected_in_u1(self):
        with pytest.raises(IllFormedType):
            check_formation(std_ctx(), Opp(a), U1)

    def test_u1_closed_under_arrow_over_lifted_atoms(self):
        check_formation(std_ctx(), Fun(a, Fun(b, c)), U1)

    def test_u1_atom_not_available_in_u0(self):
        ctx = declare_type_const(std_ctx(), "big", (), U1)
        check_formation(ctx, Atom("big"), U1)
        with pytest.raises(IllFormedType):
            check_formation(ctx, Atom("big"), U0)

    def test_unbound_atom(self):
        with pytest.raises(IllFormedType):
            check_formation(std_ctx(), Atom("nope"), U0)

    def test_arity_mismatch(self):
        with pytest.raises(IllFormedType):
            check_formation(std_ctx(), Atom("p"), U0)
        with pytest.raises(IllFormedType):
            check_formation(std_ctx(), Atom("a", (Var("x"),)), U0)

    def test_family_argument_is_typechecked(self):
        ctx = ctx_with(("x", "a"))
        check_formation(ctx, Atom("p", (Var("x"),)), U0)
        ctx_bad = ctx_with(("y", "b"))
        with pytest.raises(TypeMismatch):
            check_formation(ctx_bad, Atom("p", (Var("y"),)), U0)

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(IllFormedContext):
            declare_term(ctx_with(("x", "a")), "x", b)
        with pytest.raises(IllFormedContext):
            declare_type_const(std_ctx(), "a")


class TestCheck:
    def test_pairing_refutes_function(self):
        ctx = ctx_with(("x", "~(a->b)"))
        d = check(ctx, parse_term("<p1 x, p2 x>"), parse_type("a * ~b"))
        assert recheck(d)

    def test_case_refutes_product(self):
        ctx = ctx_with(("z", "~(a*b)"))
        d = check(ctx, parse_term(
            "case z of { inl x => inl x | inr y => inr y }"),
            parse_type("~a + ~b"))
        assert recheck(d)

    def test_double_opposite_is_transparent(self):
        ctx = ctx_with(("x", "a"))
        check(ctx, Var("x"), parse_type("~~a"))
        ctx2 = ctx_with(("x", "~~a"))
        check(ctx2, Var("x"), a)

    def test_cofun_introduction(self):
        ctx = ctx_with(("x", "~a"), ("y", "b"))
        d = check(ctx, parse_term("<x, y>"), parse_type("b <~ a"))
        assert recheck(d)

    def test_plain_mismatch(self):
        ctx = ctx_with(("x", "a"))
        with pytest.raises(TypeMismatch):
            check(ctx, Var("x"), b)

    def test_eta_retyping_of_variables(self):
        # equivalent but not equal goal types accept the same inhabitants
        ctx = ctx_with(("x", "~(a->b)"))
        check(ctx, Var("x"), parse_type("a * ~b"))
        ctx2 = ctx_with(("x", "a * ~b"))
        check(ctx2, Var("x"), parse_type("~(a->b)"))
        # but the gap shows at one more opposite
        ctx3 = ctx_with(("x", "~~(a->b)"))
        with pytest.raises(TypeMismatch):
            check(ctx3, Var("x"), parse_type("~(a * ~b)"))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            check(std_ctx(), Var("ghost"), a)

    def test_annotation_mediates(self):
        ctx = ctx_with(("x", "~a"), ("y", "~b"))
        term = parse_term("(<x, y> : ~(a + b))")
        check(ctx, term, parse_type("~a * ~b"))

    def test_dependent_pair(self):
        ctx = ctx_with(("x", "a"), ("h", "p(x)"))
        check(ctx, parse_term("<x, h>"), parse_type("Sg v:a. p(v)"))

    def test_opposite_pi_pairs(self):
        # refuting Pi x:a. p(x): give a point and a refutation there
        ctx = ctx_with(("x", "a"), ("n", "~p(x)"))
        check(ctx, parse_term("<x, n>"), parse_type("~(Pi v:a. p(v))"))

    def test_opposite_sigma_lambda(self):
        ctx = ctx_with(("f", "Pi v:a. ~p(v)"))
        check(ctx, Var("f"), parse_type("~(Sg v:a. p(v))"))

    def test_lambda_domain_annotation_checked(self):
        with pytest.raises(TypeMismatch):
            check(std_ctx(), parse_term("\\x:b. x"), parse_type("a -> a"))


class TestInfer:
    def test_cofun_projection_right(self):
        ctx = ctx_with(("c0", "~(a->b)"))
        assert infer(ctx, parse_term("p2 c0")) == Opp(b)

    def test_cofun_projection_left(self):
        ctx = ctx_with(("c0", "b <~ a"))
        assert infer(ctx, parse_term("p1 c0")) == Opp(a)

    def test_bare_pair_not_inferable(self):
        ctx = ctx_with(("x", "~a"), ("y", "~b"))
        with pytest.raises(NonInferableTerm):
            infer(ctx, parse_term("<x, y>"))

    def test_bare_injection_not_inferable(self):
        ctx = ctx_with(("x", "~a"))
        with pytest.raises(NonInferableTerm):
            infer(ctx, parse_term("inl x"))

    def test_inferred_type_is_normal(self):
        ctx = ctx_with(("x", "~~((a->b))"))
        assert infer(ctx, Var("x")) == Fun(a, b)

    def test_application_dependent(self):
        ctx = ctx_with(("f", "Pi v:a. p(v)"), ("x", "a"))
        assert infer(ctx, parse_term("f x")) == Atom("p", (Var("x"),))

    def test_annotation(self):
        ctx = ctx_with(("x", "~a"), ("y", "~b"))
        got = infer(ctx, parse_term("(<x, y> : ~(a + b))"))
        assert got == Prod(Opp(a), Opp(b))


class TestSplitBinders:
    """Regression tests: split binds both names at once, and of two equal
    names the second one is the one the body sees."""

    def test_capturing_names_in_a_type_argument(self):
        # reducing the argument must give y: the binder y is not the pair's
        ctx = declare_type_const(std_ctx(), "q", (("z1", a),))
        for name, ty in (("y", "a"), ("w", "p(y)"), ("z", "q(y)")):
            ctx = declare_term(ctx, name, parse_type(ty))
        goal = parse_type("q(split (<y, w> : Sg u:a. p(u)) as (x, y) => x)")
        check_formation(ctx, goal, U0)
        check(ctx, Var("z"), goal)

    @pytest.mark.parametrize("declared", [False, True])
    def test_repeated_binder_is_the_second_component(self, declared):
        decls = [("s", "Sg u:a. p(u) * b")]
        if declared:
            decls.append(("v", "c"))
        ctx = ctx_with(*decls)
        check(ctx, parse_term("split s as (v, v) => p2 v"), b)
        assert infer(ctx, parse_term("split s as (v, v) => p2 v")) == b
        with pytest.raises(TypeMismatch):
            check(ctx, parse_term("split s as (v, v) => v"), a)
        with pytest.raises(NonInferableTerm):
            infer(ctx, parse_term("split s as (v, v) => v"))


class TestTypeEqual:
    def test_opp_fun_is_cofun(self):
        assert type_equal(std_ctx(), parse_type("~(a->b)"),
                          parse_type("~b <~ ~a"))

    def test_opp_pi_is_sigma(self):
        assert type_equal(std_ctx(), parse_type("~(Pi x:a. p(x))"),
                          parse_type("Sg x:a. ~p(x)"))

    def test_opp_fun_not_prod(self):
        assert not type_equal(std_ctx(), parse_type("~(a->b)"),
                              parse_type("a * ~b"))

    def test_atom_args_compared_up_to_reduction(self):
        ctx = ctx_with(("x", "a"))
        lhs = parse_type("p((\\v:a. v) x)")
        rhs = parse_type("p(x)")
        assert type_equal(ctx, lhs, rhs)

    def test_formation_validated_when_ctx_given(self):
        with pytest.raises(IllFormedType):
            type_equal(std_ctx(), Atom("nope"), a)


class TestTermEqual:
    def test_surjective_pairing_at_opp_fun(self):
        ctx = ctx_with(("x", "~(a->b)"))
        assert term_equal(ctx, parse_term("<p1 x, p2 x>"), Var("x"),
                          parse_type("~(a->b)"))

    def test_case_identity_at_opp_prod(self):
        ctx = ctx_with(("z", "~(a*b)"))
        assert term_equal(
            ctx, parse_term("case z of { inl x => inl x | inr y => inr y }"),
            Var("z"), parse_type("~(a*b)"))

    def test_eta_at_fun(self):
        ctx = ctx_with(("f0", "a -> b"))
        assert term_equal(ctx, parse_term("\\x:a. f0 x"), Var("f0"),
                          parse_type("a -> b"))

    def test_injections_differ(self):
        ctx = ctx_with(("x", "~a"), ("y", "~b"))
        assert not term_equal(ctx, parse_term("inl x"),
                              parse_term("inr y"), parse_type("~(a*b)"))

    def test_beta(self):
        ctx = ctx_with(("u", "a"))
        assert term_equal(ctx, parse_term("(\\x:a. x) u"), Var("u"), a)

    def test_reflexive_on_neutral_case(self):
        ctx = ctx_with(("s", "a + b"), ("f", "a -> c"), ("g", "b -> c"))
        t = parse_term("case s of { inl x => f x | inr y => g y }")
        assert term_equal(ctx, t, t, c)

    def test_pre_is_enforced(self):
        ctx = ctx_with(("x", "a"))
        with pytest.raises(TypeMismatch):
            term_equal(ctx, Var("x"), Var("x"), b)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _search_ctx(rng):
    """Standard context plus a few random assumptions."""
    ctx = std_ctx()
    for i in range(rng.randint(1, 3)):
        ctx = declare_term(ctx, f"h{i}", rand_type(rng, rng.randint(0, 3)))
    return ctx


def test_derivations_recheck_and_infer_agrees_with_check():
    rng = random.Random(424242)
    found = 0
    for _ in range(150):
        ctx = _search_ctx(rng)
        goal = rand_type(rng, rng.randint(0, 3))
        t = bounded_inhabit(ctx, goal, 4)
        if t is None:
            continue
        found += 1
        assert recheck(check(ctx, t, goal))
        try:
            ty = infer(ctx, t)
        except NonInferableTerm:
            continue
        assert recheck(check(ctx, t, ty))
        assert equivalent(ctx, ty, goal)
    assert found > 40  # the searcher does find plenty of witnesses


def test_type_equal_is_equivalence_and_congruence():
    rng = random.Random(20240811)
    for _ in range(300):
        A = rand_type(rng, rng.randint(0, 6))
        B = unnormalize(rng, A, rng.randint(1, 3))
        C = unnormalize(rng, B, rng.randint(1, 3))
        assert type_equal(None, A, A)
        assert type_equal(None, A, B) and type_equal(None, B, A)
        assert type_equal(None, B, C) and type_equal(None, A, C)
        # congruence: wrapping both sides preserves equality
        other = rand_type(rng, 2)
        wrappers = [
            lambda t: Opp(t),
            lambda t: Fun(other, t),
            lambda t: CoFun(t, other),
            lambda t: Prod(t, other),
            lambda t: Sum(other, t),
            lambda t: Pi("w1", t, other),
            lambda t: Sigma("w1", other, t),
        ]
        wrap = rng.choice(wrappers)
        assert type_equal(None, wrap(A), wrap(B))


def test_substitution_property():
    rng = random.Random(777)
    ctx = std_ctx()
    ctx = declare_term(ctx, "f", parse_type("Pi v:a. p(v)"))
    ctx = declare_term(ctx, "u0", a)
    checked = 0
    for _ in range(60):
        inner = declare_term(ctx, "x", a)
        B = rand_type(rng, 2, ("x",))
        t = bounded_inhabit(inner, B, 4)
        if t is None:
            continue
        checked += 1
        # ctx, x:a |- t : B  and  ctx |- u0 : a  give  ctx |- t[x:=u0] : B[x:=u0]
        check(ctx, subst_term(t, "x", Var("u0")),
              subst_type(B, "x", Var("u0")))
    assert checked > 10


def test_inter_substitutability_of_equal_types():
    rng = random.Random(31337)
    for _ in range(150):
        A = rand_type(rng, 2)
        B = unnormalize(rng, A, rng.randint(1, 2))
        other = rand_type(rng, 2)
        shape = rng.choice([
            lambda t: Opp(t),
            lambda t: Fun(t, other),
            lambda t: Prod(other, t),
            lambda t: Sum(t, t),
            lambda t: CoFun(other, t),
        ])
        C, C2 = shape(A), shape(B)
        ctx1 = declare_term(std_ctx(), "x", C)
        check(ctx1, Var("x"), C2)
        ctx2 = declare_term(std_ctx(), "x", C2)
        check(ctx2, Var("x"), C)


def test_paraconsistent_context_not_trivial():
    ctx = ctx_with(("x", "a"), ("y", "~a"))
    assert bounded_inhabit(ctx, b, 6) is None
    assert bounded_inhabit(ctx, a, 1) == Var("x")
    assert bounded_inhabit(ctx, Opp(a), 1) == Var("y")


def test_non_collapse():
    goal = parse_type("a -> (~a -> b)")
    assert bounded_inhabit(std_ctx(), goal, 6) is None


def test_excluded_middle_not_inhabited():
    assert bounded_inhabit(std_ctx(), parse_type("a + ~a"), 5) is None
    assert bounded_inhabit(std_ctx(), parse_type("~(a * ~a)"), 5) is None


@settings(max_examples=100, deadline=None)
@given(types(max_depth=3))
def test_fresh_variable_inhabits_its_own_type(A):
    ctx = declare_term(std_ctx(), "x", A)
    assert recheck(check(ctx, Var("x"), A))
