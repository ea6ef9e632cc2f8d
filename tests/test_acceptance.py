"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Bulk criteria use fixed seeds, so every run checks the same
instances.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import opptypes as O
from opptypes import (Atom, Basis, CoFun, Fun, Lam, Opp, Pair, Pi, Prod,
                      Proj1, Proj2, Sigma, Split, Sum, Var,
                      bounded_inhabit, check, check_duality_principle,
                      declare_term, expand_in_basis, is_onf, onf, parse,
                      parse_formula, parse_term, parse_type, recheck,
                      script_str, strong_equiv_check, term_equal, type_equal,
                      uses_only_basis)

from generators import (STD_SIG, rand_dependent_body, rand_script,
                        rand_type, std_ctx)
from rewrite_oracle import (rewrite_to_fixpoint, step_innermost,
                            step_outermost)

REPO = Path(__file__).resolve().parents[1]
a, b, c = Atom("a"), Atom("b"), Atom("c")


def _report(number, label, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def _ctx_with(*decls):
    ctx = std_ctx()
    for name, ty in decls:
        ctx = declare_term(ctx, name, parse_type(ty))
    return ctx


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_golden_derivations():
    def body():
        start = time.perf_counter()
        ctx = _ctx_with(("x", "~(a->b)"))
        assert recheck(check(ctx, parse_term("<p1 x, p2 x>"),
                             parse_type("a * ~b")))
        assert recheck(check(ctx, Var("x"), parse_type("a * ~b")))
        ctx2 = _ctx_with(("z", "~(a*b)"))
        assert recheck(check(
            ctx2, parse_term("case z of { inl x => inl x | inr y => inr y }"),
            parse_type("~a + ~b")))
        assert recheck(check(ctx2, Var("z"), parse_type("~a + ~b")))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "golden derivations", body)


# -- 2 -----------------------------------------------------------------------

def _seven_rules(A, B, body, var):
    """The seven distribution identities instantiated at A, B, body."""
    return [
        (Opp(Fun(A, B)), CoFun(Opp(B), Opp(A))),
        (Opp(CoFun(B, A)), Fun(Opp(A), Opp(B))),
        (Opp(Prod(A, B)), Sum(Opp(A), Opp(B))),
        (Opp(Sum(A, B)), Prod(Opp(A), Opp(B))),
        (Opp(Pi(var, a, body)), Sigma(var, a, Opp(body))),
        (Opp(Sigma(var, a, body)), Pi(var, a, Opp(body))),
        (Opp(Opp(A)), A),
    ]


def test_criterion_2_equality_rule_suite():
    def body():
        for lhs, rhs in _seven_rules(a, b, Atom("p", (Var("v1"),)), "v1"):
            assert type_equal(std_ctx(), lhs, rhs), f"{lhs} vs {rhs}"
        rng = random.Random(2024_02)
        for _ in range(1000):
            A = rand_type(rng, rng.randint(0, 5))
            B = rand_type(rng, rng.randint(0, 5))
            dep = rand_dependent_body(rng, 3, "v1")
            for lhs, rhs in _seven_rules(A, B, dep, "v1"):
                assert type_equal(None, lhs, rhs), f"{lhs} vs {rhs}"
        assert not type_equal(std_ctx(), parse_type("~(a->b)"),
                              parse_type("a * ~b"))
    _report(2, "equality rules, 1000 instantiations", body)


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_strong_equivalences():
    def body():
        rng = random.Random(2024_03)
        for i in range(7):
            for _ in range(1000):
                A = rand_type(rng, rng.randint(0, 4))
                B = rand_type(rng, rng.randint(0, 4))
                dep = rand_dependent_body(rng, 2, "v1")
                lhs, rhs = _seven_rules(A, B, dep, "v1")[i]
                assert type_equal(None, lhs, rhs)
                assert type_equal(None, Opp(lhs), Opp(rhs))
    _report(3, "strong equivalences on both sides", body)


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_duality_principle():
    def body():
        start = time.perf_counter()
        rng = random.Random(2024_04)
        for i in range(10_000):
            A = rand_type(rng, rng.randint(0, 6))
            d = check_duality_principle(A)
            assert d.rule == "duality-principle"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        # a sample with full context validation and rechecking
        rng2 = random.Random(2024_40)
        for _ in range(100):
            A = rand_type(rng2, rng2.randint(0, 4))
            assert recheck(check_duality_principle(A, std_ctx()))
    _report(4, "principle of duality, 10000 types", body)


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_opposite_normal_form():
    def body():
        rng = random.Random(2024_05)
        for i in range(10_000):
            A = rand_type(rng, rng.randint(0, 6))
            n = onf(A)
            assert is_onf(n)
            assert onf(n) == n
            assert type_equal(None, A, n)
            inner = rewrite_to_fixpoint(A, step_innermost)
            outer = rewrite_to_fixpoint(A, step_outermost)
            assert inner == outer == n
    _report(5, "opposite normal form, 10000 types", body)


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_basis_completeness():
    def body():
        rng = random.Random(2024_06)
        for basis in Basis:
            for _ in range(1000):
                A = rand_type(rng, rng.randint(0, 4))
                out = expand_in_basis(A, basis)
                assert uses_only_basis(out, basis)
                assert type_equal(None, A, out)
    _report(6, "four complete bases, 1000 types each", body)


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_paraconsistency():
    def body():
        start = time.perf_counter()
        ctx = _ctx_with(("x", "a"), ("y", "~a"))
        assert bounded_inhabit(ctx, b, 6) is None
        assert bounded_inhabit(ctx, b, 8) is None
        assert bounded_inhabit(ctx, a, 1) == Var("x")
        assert bounded_inhabit(ctx, Opp(a), 1) == Var("y")
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(7, "contradictory but not trivial", body)


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_logic_duality():
    def body():
        dualities = [
            ("~(P & Q)", "~P | ~Q"),
            ("~(P | Q)", "~P & ~Q"),
            ("~all x:s. R(x)", "ex x:s. ~R(x)"),
            ("~ex x:s. R(x)", "all x:s. ~R(x)"),
            ("~(P => Q)", "~Q <~ ~P"),
        ]
        for lhs, rhs in dualities:
            assert strong_equiv_check(STD_SIG, parse_formula(lhs),
                                      parse_formula(rhs)), lhs
        f, g = parse_formula("~(P => Q)"), parse_formula("P & ~Q")
        assert not strong_equiv_check(STD_SIG, f, g)
        from opptypes.logic import Neg, translate, translation_context
        ctx = translation_context(STD_SIG, f, g)
        assert not type_equal(ctx, translate(STD_SIG, Neg(f))[1],
                              translate(STD_SIG, Neg(g))[1])
        assert not strong_equiv_check(
            STD_SIG, parse_formula("P & P"), parse_formula("P"))
    _report(8, "five dualities, two rejections", body)


# -- 9 -----------------------------------------------------------------------

def _conversion_members(rng):
    """Generated instances of every type the conversion rules range over:
    the four with a lambda eta rule, the six with surjective pairing, the
    two with the identity-case rule and the two with the identity-split
    rule."""
    A = rand_type(rng, rng.randint(0, 2))
    B = rand_type(rng, rng.randint(0, 2))
    dep = rand_dependent_body(rng, 2, "v1")
    pi_t = Pi("v1", a, dep)
    sg_t = Sigma("v1", a, dep)
    eta_members = [Fun(A, B), pi_t, Opp(CoFun(B, A)), Opp(sg_t)]
    pairing_members = [Prod(A, B), CoFun(B, A), sg_t, Opp(Sum(A, B)),
                       Opp(Fun(A, B)), Opp(pi_t)]
    case_members = [Sum(A, B), Opp(Prod(A, B))]
    split_members = [sg_t, Opp(pi_t)]
    return eta_members, pairing_members, case_members, split_members


def test_criterion_9_eta_and_co_eta():
    def body():
        rng = random.Random(2024_09)
        for _ in range(100):
            etas, pairings, cases, splits = _conversion_members(rng)
            for member in etas:
                ctx = std_ctx().extended(O.TermDecl("c0", member))
                m = onf(member)
                dom = m.dom if isinstance(m, Fun) else m.gen
                eta = Lam("e0", dom, O.App(Var("c0"), Var("e0")))
                assert term_equal(ctx, eta, Var("c0"), member), member
            for member in pairings:
                ctx = std_ctx().extended(O.TermDecl("c0", member))
                pairing = Pair(Proj1(Var("c0")), Proj2(Var("c0")))
                assert term_equal(ctx, pairing, Var("c0"), member), member
            for member in cases:
                ctx = std_ctx().extended(O.TermDecl("c0", member))
                ident = parse_term(
                    "case c0 of { inl u => inl u | inr v => inr v }")
                assert term_equal(ctx, ident, Var("c0"), member), member
            for member in splits:
                ctx = std_ctx().extended(O.TermDecl("c0", member))
                ident = Split(Var("c0"), "u", "v", Pair(Var("u"), Var("v")))
                assert term_equal(ctx, ident, Var("c0"), member), member
    _report(9, "eta/co-eta across all fourteen conversion members", body)


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_round_trip_and_determinism():
    def body():
        rng = random.Random(2024_10)
        for _ in range(1000):
            sc = rand_script(rng)
            assert parse(script_str(sc)) == sc
        src = script_str(rand_script(random.Random(99)))
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "opptypes", "check", "-", "--json"],
                input=src, capture_output=True, text=True, cwd=REPO)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        json.loads(outs[0])  # well-formed
    _report(10, "round-trip and byte-identical reports", body)
