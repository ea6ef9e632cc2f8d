"""Judgment checking: formation, typing, equality, derivation soundness."""

import copy
import gc
import pickle
import random
import sys
import time
import weakref
from dataclasses import replace
from itertools import combinations, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings

import opptypes.kernel as kernel
import opptypes.script as s
import opptypes.syntax as syntax
from opptypes import (EMPTY, Ann, App, Atom, Case, CoFun, Context,
                      Derivation, Formation, Fun, IllFormedContext,
                      IllFormedType, InvalidDerivation, Lam, NonInferableTerm,
                      Opp, Pair, Pi, Prod, Proj1, Proj2, Sigma,
                      Split, Sum, TermDecl, TermEq, TypeConstDecl, TypeEq,
                      TypeMismatch, TypeTheoryError, Typing, UnboundVariable,
                      Var, bounded_inhabit, check, check_context,
                      check_duality_principle,
                      check_formation, declare_term, declare_type_const,
                      ensure_formed, ensure_typed, equivalent, infer, onf,
                      parse,
                      parse_term, parse_type, recheck, report_json, run,
                      strong_equiv_check, subst, subst_term, subst_type,
                      term_equal, type_equal, U0, U1)
from opptypes.kernel import _RULES
from opptypes.logic import Signature, translation_context
from opptypes.runner import _execute
from opptypes.search import iter_inhabitants
from opptypes.syntax import all_names, alpha_eq, fresh_name, normalize_term

import teq_oracle
from generators import (STD_SIG, rand_formula, rand_type, std_ctx, types,
                        unnormalize, with_term_args)
from test_cli import GOLDEN
from test_search import SWEEP_GOALS, _sweep_ctx

a, b, c = Atom("a"), Atom("b"), Atom("c")


def ctx_with(*decls):
    ctx = std_ctx()
    for name, ty in decls:
        ctx = declare_term(ctx, name, parse_type(ty))
    return ctx


class TestContext:
    def test_names_of_a_context_built_directly(self):
        built = std_ctx().extended(TermDecl("x", a))
        direct = Context(built.entries)
        assert direct.names == built.names == {"a", "b", "c", "p", "x"}
        assert Context().names == frozenset()
        assert replace(built, entries=built.entries[:2]).names == {"a", "b"}

    def test_names_leave_equality_and_hash_alone(self):
        built = std_ctx().extended(TermDecl("x", a))
        direct = Context(built.entries)
        assert direct == built and hash(direct) == hash(built)
        assert repr(direct) == repr(built)
        assert built != std_ctx()
        assert isinstance(Context.__dict__["names"], property)

    def test_lookups_agree_with_a_reversed_scan(self):
        rng = random.Random(8)
        pool = ("a", "b", "p", "x", "y")
        for _ in range(200):
            built = EMPTY
            for _ in range(rng.randrange(8)):
                built = built.extended(_rand_entry(rng, pool))
            k = rng.randrange(len(built.entries) + 1)
            cut = replace(built, entries=built.entries[:k])
            for ctx in (built, Context(built.entries), cut,
                        cut.extended(_rand_entry(rng, pool))):
                _assert_scan_agrees(ctx, pool + ("zz",))

    def test_lookups_of_hand_built_contexts(self):
        x_a, x_b = TermDecl("x", a), TermDecl("x", b)
        x_const = TypeConstDecl("x")
        for entries in ((x_a, x_b), (x_a, x_const), (x_const, x_a),
                        (x_a, x_const, x_b),
                        (x_const, x_b, TypeConstDecl("x", (), U1))):
            built = EMPTY
            for e in entries:
                built = built.extended(e)
            _assert_scan_agrees(built, ("x", "y"))
            _assert_scan_agrees(Context(entries), ("x", "y"))
        assert Context((x_a, x_b)).lookup_term("x") == b
        both = Context((x_a, x_const))
        assert both.lookup_term("x") == a and both.lookup_const("x") is x_const
        assert both.names == {"x"}
        assert both.lookup_term("y") is None and both.lookup_const("y") is None

    def test_signature_context_matches_declaring_one_by_one(self):
        rng = random.Random(8)
        pool = ("a", "b", "c", "d", "s", "t")
        for _ in range(100):
            sorts = rng.sample(pool, rng.randrange(len(pool) + 1))
            preds = {}
            for name in rng.sample(pool, rng.randrange(len(pool) + 1)):
                # a zero-arity name may be a sort as well as a predicate
                arity = rng.randrange(3) if sorts else 0
                preds[name] = tuple(rng.choice(sorts) for _ in range(arity))
            sig = Signature(sorts, preds)
            one_pass = translation_context(sig)
            assert one_pass.entries == _signature_by_extension(sig).entries
            _assert_scan_agrees(one_pass, pool + ("x1",))

    def test_lookup_cost_does_not_grow_with_the_context(self):
        def best_time(n):
            ctx = Context((TypeConstDecl("s"),)
                          + tuple(TermDecl(f"x{i}", a) for i in range(n)))
            assert ctx.lookup_term("x0") == a   # indexes the entries
            best = float("inf")
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(100):
                    ctx.lookup_term("x0")
                    ctx.lookup_const("s")
                best = min(best, time.perf_counter() - start)
            return best

        # a reversed scan to the first entry costs about 1000x here
        assert best_time(100_000) < 10 * best_time(100)

    def test_lookups_in_a_version_tree_across_the_handover_size(self):
        # a 200-long chain, each version handing its index to the next,
        # siblings of old versions, and every version used in random order
        rng = random.Random(23)
        pool = tuple(f"n{i}" for i in range(40)) + ("a", "x")
        versions = [EMPTY]
        for _ in range(200):
            versions.append(versions[-1].extended(_rand_entry(rng, pool)))
        for _ in range(300):
            ctx = rng.choice(versions)
            if rng.random() < 0.3:
                versions.append(ctx.extended(_rand_entry(rng, pool)))
            else:
                _assert_scan_agrees(ctx, rng.sample(pool, 3) + ["zz"])
        for ctx in versions:
            _assert_scan_agrees(ctx, pool)

    def test_names_of_a_large_context_after_its_child_is_used(self):
        big = EMPTY
        for i in range(200):
            big = big.extended(TermDecl(f"v{i}", a))
        own = set(big.names)
        child = big.extended(TermDecl("w", a))
        assert "w" in child.names and child.lookup_term("w") == a
        sibling = big.extended(TypeConstDecl("w"))
        assert sibling.lookup_const("w") is not None
        assert big.names == own and big.lookup_term("w") is None
        assert child.lookup_const("w") is None
        assert set(child.names) == own | {"w"}

    def test_a_large_context_hands_its_index_over(self):
        # at every size, the child holds the parent's former dict, and the
        # parent, used again, rebuilds its own from its entries
        ctx = EMPTY
        for i in range(200):
            index = ctx._index()
            child = ctx.extended(TermDecl(f"v{i}", a))
            assert child.__dict__["_by_name"] is index
            assert "_by_name" not in ctx.__dict__
            own = ctx._index()
            assert own is not index and f"v{i}" not in own
            _assert_scan_agrees(ctx, (f"v{i}", "v0"))
            assert child._index() is index
            ctx = child

    def test_duplicate_telescope_variable_of_a_large_context(self):
        ctx = EMPTY.extended(TypeConstDecl("a"))
        for i in range(200):
            ctx = declare_term(ctx, f"v{i}", a)
        for telescope in ((("x", a), ("x", a)), (("x", a), ("v3", a))):
            with pytest.raises(IllFormedContext,
                               match="duplicate telescope variable"):
                declare_type_const(ctx, "q", telescope)
            _assert_scan_agrees(ctx, ("x", "v3", "q"))
        q = declare_type_const(ctx, "q", (("x", a), ("y", Atom("a"))))
        assert q.lookup_const("q").telescope[0] == ("x", a)
        assert "x" not in q.names and "x" not in ctx.names

    def test_a_held_context_keeps_no_chain_alive(self):
        first = EMPTY.extended(TypeConstDecl("s"))
        for i in range(159):
            first = first.extended(TermDecl(f"v{i}", a))
        assert len(first.entries) == 160
        names, s_decl = set(first.names), first.lookup_const("s")
        ctx, probes = first, []
        for i in range(2000):
            ctx = ctx.extended(TermDecl(f"w{i}", Opp(a)))
            if i % 100 == 99:
                probes.append(weakref.ref(ctx))
        assert ctx.lookup_term("w0") == Opp(a)
        del ctx
        gc.collect()
        assert [p for p in probes if p() is not None] == []
        assert first.names == names and "w0" not in first.names
        assert first.lookup_term("v0") == a and first.lookup_term("w0") is None
        assert first.lookup_const("s") is s_decl
        _assert_scan_agrees(first, ("s", "v0", "v158", "w0", "w1999"))

    def test_copies_of_a_context_that_handed_its_index_over(self):
        ctx = EMPTY
        for i in range(200):
            ctx = ctx.extended(TermDecl(f"v{i}", a))
        child = ctx.extended(TermDecl("w", b))
        assert child.lookup_term("w") == b
        for twin in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
            assert twin == ctx and "_by_name" not in twin.__dict__
            _assert_scan_agrees(twin, ("v0", "w"))
        _assert_scan_agrees(child, ("v0", "w"))

    def test_a_parent_used_after_its_chain_is_freed_rebuilds_its_index(self):
        # the dict goes down the chain and stays with the last context;
        # each context used again builds its own from its entries
        big = EMPTY
        for i in range(200):
            big = big.extended(TermDecl(f"v{i}", a))
        index = big._index()
        outer = big.extended(TermDecl("x", a))
        inner = outer.extended(TermDecl("y", b))
        assert inner._index() is index
        assert inner.lookup_term("x") == a and "y" in inner.names
        del inner
        gc.collect()
        assert "y" not in outer.names and outer.lookup_term("x") == a
        assert outer._index() is not index
        del outer
        gc.collect()
        assert "x" not in big.names and big._index() is not index
        _assert_scan_agrees(big, ("v0", "v199", "x", "y"))


def _rand_entry(rng, pool):
    name = rng.choice(pool)
    if rng.random() < 0.5:
        return TermDecl(name, rng.choice((a, b, Opp(c))))
    return TypeConstDecl(name, (), rng.choice((U0, U1)))


def _assert_scan_agrees(ctx, probes):
    """ctx's names and lookups give what a reversed scan of its entries
    gives."""
    assert ctx.names == frozenset(e.name for e in ctx.entries)
    for name in probes:
        terms = [e.type for e in reversed(ctx.entries)
                 if isinstance(e, TermDecl) and e.name == name]
        consts = [e for e in reversed(ctx.entries)
                  if isinstance(e, TypeConstDecl) and e.name == name]
        assert ctx.lookup_term(name) == (terms[0] if terms else None)
        assert ctx.lookup_const(name) is (consts[0] if consts else None)


def _signature_by_extension(sig):
    """The signature context declared one entry at a time."""
    ctx = EMPTY
    for sort in sorted(sig.sorts):
        ctx = ctx.extended(TypeConstDecl(sort, (), U0))
    for p in sorted(sig.predicates):
        telescope = tuple((f"x{i + 1}", Atom(sort))
                          for i, sort in enumerate(sig.predicates[p]))
        ctx = ctx.extended(TypeConstDecl(p, telescope, U0))
    return ctx


class TestFormation:
    def test_fun_in_u0(self):
        check_formation(std_ctx(), Fun(a, b), U0)

    def test_double_opposite_in_u0(self):
        check_formation(std_ctx(), Opp(Opp(a)), U0)

    @pytest.mark.parametrize("n, expected", [(3000, a), (3001, Opp(a))])
    def test_tower_of_opposites(self, n, expected):
        # a run of ~ far deeper than the recursion limit, built bottom-up
        ty = a
        for _ in range(n):
            ty = Opp(ty)
        d = check_formation(std_ctx(), ty, U0)
        assert recheck(d)
        assert onf(d.conclusion.type) == expected
        for _ in range(n):
            assert d.rule == "opp-form"
            (d,) = d.premises
        assert (d.rule, d.conclusion.type) == ("atom-form", a)

    @pytest.mark.parametrize("n", [3000, 3001])
    def test_term_at_a_tower_of_opposites(self, n):
        # y : a inhabits a run of ~ over a exactly when the run is even
        ctx, y, ty = ctx_with(("y", "a")), Var("y"), a
        for _ in range(n):
            ty = Opp(ty)
        if n % 2:
            with pytest.raises(TypeMismatch):
                check(ctx, y, ty)
            assert bounded_inhabit(ctx, ty, 3) is None
            return
        assert recheck(check(ctx, y, ty))
        assert term_equal(ctx, y, y, ty)
        assert bounded_inhabit(ctx, ty, 3) == y

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

    @staticmethod
    def _outcome(entry, ctx, ty, u):
        """What entry returns for ty in u, or its error's class and text."""
        try:
            return type(entry(ctx, ty, u))
        except Exception as e:
            return type(e), str(e)

    def test_ensure_formed_agrees_with_check_formation(self, monkeypatch):
        # one walk behind both: the same types pass, and the rest fail
        # with the same error, in U0 and in U1, with and without a v1
        # declared that the generators' binders must be renamed away from
        rng = random.Random(1818)
        std, big = std_ctx(), declare_type_const(std_ctx(), "big", (), U1)
        renaming = ctx_with(("v1", "b"))
        tower, nope = a, Atom("nope")
        for _ in range(3000):
            tower, nope = Opp(tower), Opp(nope)
        plain = [(std, Atom("nope")), (std, Atom("p")),
                 (std, Atom("a", (Var("x"),))), (big, Atom("big")),
                 (big, parse_type("~big -> a")), (std, parse_type("a * b")),
                 (std, tower), (std, nope)]
        # bodies formed under a renamed binder, well or ill formed
        plain += [(renaming, parse_type(ty)) for ty in
                  ("Pi v1:a. p(v1)", "Pi v1:b. p(v1)", "Sg v1:a. p(v1) + q")]
        term_args = []
        for _ in range(400):
            ty = rand_type(rng, rng.randint(0, 4))
            plain.append((rng.choice((std, renaming)), ty))
            term_args.append((rng.choice((std, renaming)),
                              with_term_args(rng, ty)))
        ensured, verdicts = {}, set()
        for ctx, ty in plain + term_args:
            for u in (U0, U1):
                made = self._outcome(check_formation, ctx, ty, u)
                ensured[ctx, ty, u] = self._outcome(ensure_formed, ctx, ty, u)
                if made is Derivation:
                    assert ensured[ctx, ty, u] is type(None)
                else:
                    assert ensured[ctx, ty, u] == made
                verdicts.add(made if made is Derivation else made[0])
        assert verdicts >= {Derivation, IllFormedType, TypeMismatch,
                            UnboundVariable}

        # and ensure_formed makes no formation node: no family argument
        # of these types is an annotation, whose type the kernel forms
        def refuse(*args):
            raise AssertionError("a formation node was made")

        monkeypatch.setattr(kernel, "Formation", refuse)
        for ctx, ty in plain:
            for u in (U0, U1):
                assert (self._outcome(ensure_formed, ctx, ty, u)
                        == ensured[ctx, ty, u])

    def test_callers_that_discard_a_formation_build_none(self, monkeypatch):
        # each call's value, or its error's class and text, before and
        # after check_formation is made to fail wherever it can be reached
        def golden_report(path):
            return report_json(run(parse(path.read_text(encoding="utf-8"))))

        rng = random.Random(18)
        ctx, sweep = std_ctx(), _sweep_ctx()
        fam = (("u", a), ("v", parse_type("p(u)")))
        types_ = ["a -> ~b", "Pi u:a. p(u)", "~~a", "p(x)", "a * nope"]
        p_of_x = parse_type("p(x)")
        formulas = [rand_formula(rng, 3) for _ in range(20)]
        calls = [
            *[(declare_term, ctx, "x", parse_type(ty)) for ty in types_],
            *[(declare_type_const, ctx, "q", fam[:n]) for n in (0, 1, 2)],
            (declare_type_const, ctx, "q", (("u", Atom("nope")),)),
            (check_context, declare_type_const(ctx, "q", fam)),
            (check_context, Context(ctx.entries + (TermDecl("x", b),
                                                   TermDecl("y", p_of_x)))),
            (check_context, Context(ctx.entries + (TermDecl("y", p_of_x),))),
            *[(f, ctx, parse_type(x), parse_type(y))
              for f in (type_equal, equivalent)
              for x, y in combinations(types_ + ["~b <~ a"], 2)],
            *[(strong_equiv_check, STD_SIG, f, g)
              for f, g in zip(formulas, formulas[1:])],
            *[(bounded_inhabit, sweep, parse_type(goal), 4)
              for goal in SWEEP_GOALS + ("nope",)],
            *[(golden_report, path) for path in GOLDEN.values()],
        ]

        def outcomes():
            out = []
            for f, *args in calls:
                try:
                    out.append(f(*args))
                except TypeTheoryError as e:
                    out.append((type(e), str(e)))
            return out

        def refuse(*args):
            raise AssertionError("check_formation was called")

        before = outcomes()
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").split(".")[0] == "opptypes"
                    and hasattr(module, "check_formation")):
                monkeypatch.setattr(module, "check_formation", refuse)
        assert outcomes() == before

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(IllFormedContext):
            declare_term(ctx_with(("x", "a")), "x", b)
        with pytest.raises(IllFormedContext):
            declare_type_const(std_ctx(), "a")

    def test_duplicate_telescope_variable_rejected(self):
        # twice in one telescope, or the name of a declaration before it
        for telescope, var in (((("u", a), ("u", b)), "u"),
                               ((("c", a),), "c")):
            with pytest.raises(IllFormedContext,
                               match=f"duplicate telescope variable {var} "
                                     "in declaration of q"):
                declare_type_const(std_ctx(), "q", telescope)

    def test_check_context_revalidates_term_declarations(self):
        entries = std_ctx().entries
        check_context(Context(entries + (
            TermDecl("y", a), TermDecl("x", parse_type("p(y)")))))
        for decl, error in ((TermDecl("x", Atom("nope")), IllFormedType),
                            (TermDecl("a", b), IllFormedContext)):
            with pytest.raises(error):
                check_context(Context(entries + (decl,)))
        # a family argument must be declared before the term that uses it
        with pytest.raises(UnboundVariable):
            check_context(Context(entries + (
                TermDecl("x", parse_type("p(y)")), TermDecl("y", a))))


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


class TestCheckMemo:
    """check returns the derivation it gave last when asked again with the
    very same objects, and holds it weakly."""

    def _judgment(self):
        ctx = ctx_with(("x", "~(a->b)"))
        return ctx, parse_term("<p1 x, p2 x>"), parse_type("a * ~b")

    def test_same_objects_give_the_same_derivation(self):
        ctx, t, A = self._judgment()
        d = check(ctx, t, A)
        assert check(ctx, t, A) is d
        assert recheck(check(ctx, t, A))

    def test_equal_objects_give_a_fresh_derivation(self):
        ctx, t, A = self._judgment()
        d = check(ctx, t, A)
        for args in ((Context(ctx.entries), t, A),
                     (ctx, parse_term("<p1 x, p2 x>"), A),
                     (ctx, t, parse_type("a * ~b"))):
            assert args == (ctx, t, A)
            fresh = check(*args)
            assert fresh is not d and fresh == d
            d = fresh

    def test_a_failed_judgment_is_not_remembered(self):
        ctx, t, A = self._judgment()
        d = check(ctx, t, A)
        bad = parse_type("a * b")
        for _ in range(2):
            with pytest.raises(TypeMismatch):
                check(ctx, t, bad)
        assert check(ctx, t, A) is d

    def test_the_slot_keeps_nothing_alive(self):
        ctx, t, A = self._judgment()
        ref = weakref.ref(check(ctx, t, A))
        gc.collect()
        assert ref() is None
        assert recheck(check(ctx, t, A))

    def test_term_equal_checks_the_first_term_after_a_hit(self):
        ctx, t, A = self._judgment()
        check(ctx, t, A)
        with pytest.raises(TypeMismatch):
            term_equal(ctx, parse_term("<p2 x, p1 x>"), t, A)
        assert term_equal(ctx, t, parse_term("<p1 x, p2 x>"), A)

    def test_internal_typings_keep_the_slot(self):
        # recheck forms the root's type, typing the family argument y of
        # p(y) on the way; that must not displace the typing just proved
        ctx = ctx_with(("y", "a"), ("w", "p(y)"))
        t, A = Var("w"), parse_type("~~p(y)")
        d = check(ctx, t, A)
        assert recheck(d)
        assert check(ctx, t, A) is d


def _rejection(fn, *args):
    """The class and message of the error fn raises on args, or None."""
    try:
        fn(*args)
    except TypeTheoryError as e:
        return type(e), str(e)
    return None


class TestEnsureTyped:
    @staticmethod
    def _equal():
        """t, twin and A, for term_equal to compare by an eta step."""
        return (parse_term("\\v:a. f v"), Var("f"),
                parse_type("Pi u:a. p(u)"))

    def _verdicts(self, ctx, t, twin, A):
        """The verdicts of ensure_typed, infer, ensure_formed and
        term_equal on judgments, with binders and without, over ctx."""
        judgments = [(parse_term(term), parse_type(ty))
                     for term, ty in AUDIT_JUDGMENTS + (
                         ("y", "b"), ("\\v:b. v", "a -> b"),
                         ("<y, k>", "a -> b"), ("p1 f", "a"),
                         ("case y of { inl u => u | inr v => v }", "a"))]
        binders = parse_type("Pi u:a. Sg w:a. p(u) -> p(w)")
        family = parse_type("p(y) -> p(y) * p(y)")
        out = []
        for term, ty in judgments:
            out.append(_rejection(ensure_typed, ctx, term, ty))
            try:
                out.append(infer(ctx, term))
            except TypeTheoryError as e:
                out.append((type(e), str(e)))
        out.append(_rejection(ensure_formed, ctx, binders, U0))
        out.append(_rejection(ensure_formed, ctx, family, U0))
        out.append(term_equal(ctx, t, twin, A))
        return out

    def test_builds_no_derivation(self, monkeypatch):
        ctx, (t, twin, A) = _audit_ctx(), self._equal()
        before = self._verdicts(ctx, t, twin, A)
        errors = [v for v in before if type(v) is tuple]
        assert len(errors) >= 5 and before[-3:] == [None, None, True]
        memo = check(ctx, t, A)   # held, so that term_equal's check hits it

        def banned(*args):
            raise AssertionError("a derivation node was built")

        monkeypatch.setattr(kernel, "Derivation", banned)
        monkeypatch.setattr(kernel, "Typing", banned)
        assert self._verdicts(ctx, t, twin, A) == before
        assert check(ctx, t, A) is memo

    def test_builds_no_context(self, monkeypatch):
        # their binders bind in the index of the context they walk in
        ctx, (t, twin, A) = _audit_ctx(), self._equal()
        before = self._verdicts(ctx, t, twin, A)
        index, names = ctx._index(), set(ctx.names)
        memo = check(ctx, t, A)

        def banned(context, *args):
            raise AssertionError("a context was built")

        monkeypatch.setattr(Context, "__init__", banned)
        assert self._verdicts(ctx, t, twin, A) == before
        assert check(ctx, t, A) is memo
        assert ctx._index() is index and set(index) == names

    def test_rejects_what_check_rejects_with_the_same_error(self):
        # every check and infer directive of the pinned error script, by
        # the walk that builds derivations and the one that builds none
        ctx, sig, rejected = EMPTY, Signature(), 0
        text = (REPO / "tests" / "golden" / "errors.ptt").read_text()
        for d in parse(text).directives:
            if isinstance(d, (s.AtomDecl, s.PredDecl, s.Assume)):
                ctx, _, _ = _execute(ctx, sig, d)
                continue
            if isinstance(d, s.CheckDirective):
                want = _rejection(check, ctx, d.term, d.type)
                got = _rejection(ensure_typed, ctx, d.term, d.type)
            else:
                want = _rejection(kernel._infer, ctx, d.term, kernel._node)
                got = _rejection(infer, ctx, d.term)
            assert got == want
            rejected += want is not None
        assert rejected >= 15


class TestBindersBindInPlace:
    """A walk binds the names it opens in its context's index while it
    runs, and leaves that index as it found it, raised or not."""

    # a walk, the term it types (None: it forms the type), the type, and
    # the names it binds before it meets the unbound zz
    RAISING = (
        (ensure_typed, "\\x:a. \\y:b. zz", "a -> b -> a", ("x", "y")),
        (check, "\\x:a. \\y:b. zz", "a -> b -> a", ("x", "y")),
        (ensure_formed, None, "Pi x:a. Sg y:a. p(zz)", ("x", "y")),
        (ensure_formed, None, "Sg x:a. Pi y:b. p(x) * p(zz)", ("x", "y")),
        (ensure_typed, "split s as (t, h) => zz", "a", ("t", "h")),
        (check, "case e of { inl l => l | inr r => zz }", "a", ("l", "r")),
    )

    @staticmethod
    def _ctx(size):
        ctx = ctx_with(("s", "Sg u:a. p(u)"), ("e", "a + a"),
                       ("f", "a -> a"), ("g", "a -> a"))
        for i in range(size):
            ctx = declare_term(ctx, f"v{i}", a)
        return ctx

    @pytest.mark.parametrize("size", (0, 2000))
    def test_a_walk_that_raises_under_binders(self, size):
        ctx = self._ctx(size)
        index, names = ctx._index(), set(ctx.names)
        for walk, term, ty, bound in self.RAISING:
            args = ((parse_type(ty), U0) if term is None
                    else (parse_term(term), parse_type(ty)))
            with pytest.raises(UnboundVariable, match="zz"):
                walk(ctx, *args)
            assert ctx._index() is index and set(index) == names
            _assert_scan_agrees(ctx, bound + ("zz", "s", "v0"))

    @pytest.mark.parametrize("size", (0, 2000))
    def test_an_eta_step_that_raises(self, size, monkeypatch):
        ctx = self._ctx(size)
        index, names = ctx._index(), set(ctx.names)
        seen = []

        class Boom(Exception):
            pass

        def boom(ctx, n, m):
            seen.append(set(ctx.names) - names)
            raise Boom

        monkeypatch.setattr(kernel, "_neutral_eq", boom)
        with pytest.raises(Boom):
            term_equal(ctx, Var("f"), parse_term("\\x:a. g x"),
                       parse_type("a -> a"))
        assert seen == [{"z"}]
        assert ctx._index() is index and set(index) == names
        _assert_scan_agrees(ctx, ("x", "z", "f"))

    def test_a_dropped_derivation_leaves_the_index_in_place(self):
        big = self._ctx(2000)
        index = big._index()
        d = check(big, parse_term("\\u:a. \\w:a. u"),
                  parse_type("a -> a -> a"))
        inner = d.premises[0].conclusion.ctx
        assert inner.names - big.names == {"u"}
        assert recheck(d)
        del d, inner
        gc.collect()
        assert big._index() is index
        _assert_scan_agrees(big, ("u", "w", "v0"))

    @pytest.mark.parametrize("text", (
        "atom a; pred q(a, zz); assume x1 : a;",
        "atom a; check \\x1:a. zz : a -> a; assume x1 : a;"))
    def test_a_failed_directive_leaves_its_binder_free(self, text):
        report = run(parse(text))
        assert [e.status for e in report.entries] == ["ok", "error", "ok"]
        assert report.entries[-1].payload == "assumed x1 : a"


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

    @pytest.mark.parametrize("term", [
        "split s as (v, h) => h",
        "case e of { inl v => k v | inr v => k v }"])
    def test_binder_does_not_capture_a_free_variable_of_the_goal(self, term):
        # p(v) is ill formed: its v is not the binder's
        ctx = ctx_with(("s", "Sg u:a. p(u)"), ("e", "a + a"),
                       ("k", "Pi u:a. p(u)"))
        with pytest.raises(TypeMismatch):
            check(ctx, parse_term(term), parse_type("p(v)"))

    def test_recheck_rejects_a_binder_free_in_the_goal(self):
        ctx = ctx_with(("s", "Sg u:a. p(u)"))
        t, goal = parse_term("split s as (v, h) => h"), parse_type("p(v)")
        inner = ctx.extended(TermDecl("v", a)).extended(TermDecl("h", goal))
        scrut = Typing(ctx, Var("s"), parse_type("Sg u:a. p(u)"))
        body = Typing(inner, Var("h"), goal)
        d = Derivation("sigma-elim", Typing(ctx, t, goal),
                       (Derivation("var", scrut),
                        Derivation("conv", body, (Derivation("var", body),))))
        with pytest.raises(InvalidDerivation):
            recheck(d)


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

    def test_family_args_compared_up_to_beta_and_alpha_not_eta(self):
        # h and its eta expansion are equal terms at a -> a, but family
        # arguments are converted by beta and alpha only
        a_to_a = Fun(a, a)
        ctx = declare_type_const(EMPTY, "a")
        ctx = declare_type_const(ctx, "p", (("x1", a_to_a),))
        ctx = declare_term(ctx, "h", a_to_a)
        h, eta = Var("h"), parse_term("\\y:a. h y")
        assert term_equal(ctx, h, eta, a_to_a)
        assert not type_equal(ctx, Atom("p", (h,)), Atom("p", (eta,)))
        assert type_equal(ctx, Atom("p", (h,)),
                          parse_type("p((\\g:a -> a. g) h)"))
        assert type_equal(ctx, Atom("p", (eta,)), parse_type("p(\\z:a. h z)"))


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

    # each pair differs only by the eta expansion \z:a. g z of g, placed
    # so that one arm of the comparison has to see through it
    @pytest.mark.parametrize("left, right, type_", [
        # application with a Fun head, then with a Pi head
        ("k (\\z:a. g z)", "k g", "c"),
        ("kk x (\\z:a. g z)", "kk x g", "r(x)"),
        # both projections of a neutral pair
        ("p1 (f (\\z:a. g z))", "p1 (f g)", "a"),
        ("p2 (f (\\z:a. g z))", "p2 (f g)", "b"),
        # a projection whose type the spine goes on to apply
        ("p2 m (\\z:a. g z)", "p2 m g", "c"),
        # case and split, compared by scrutinee and then branches
        ("case s of { inl y => k (\\z:a. g z) | inr y => k g }",
         "case s of { inl y => k g | inr y => k (\\z:a. g z) }", "c"),
        ("split w as (u, v) => k (\\z:a. g z)", "split w as (u, v) => k g",
         "c"),
        # the same injection, compared at its side of the sum
        ("(inl (\\z:a. g z) : (a -> a) + b)", "(inl g : (a -> a) + b)",
         "(a -> a) + b"),
        ("(inr (\\z:a. g z) : b + (a -> a))", "(inr g : b + (a -> a))",
         "b + (a -> a)"),
        # a neutral term at a sum
        ("q (\\z:a. g z)", "q g", "c + c"),
    ])
    def test_every_arm_sees_through_eta(self, left, right, type_):
        ctx, A = _arm_ctx(), parse_type(type_)
        t, u = parse_term(left), parse_term(right)
        assert not alpha_eq(normalize_term(t), normalize_term(u))
        assert term_equal(ctx, t, u, A)
        assert term_equal(ctx, u, t, A)

    @pytest.mark.parametrize("left, right, type_", [
        # an injection against a neutral term at a sum
        ("(inl x : a + b)", "s", "a + b"),
        ("q g", "(inr (k g) : c + c)", "c + c"),
        # cases on different scrutinees
        ("case q g of { inl y => y | inr y => y }",
         "case q (\\z:a. x) of { inl y => y | inr y => y }", "c"),
        # no commuting conversion: a case at a function type is not
        # equal to the case of the branches' eta expansions
        ("case s of { inl y => \\z:a. h1 y z | inr y => \\z:a. h2 y z }",
         "case s of { inl y => h1 y | inr y => h2 y }", "a -> c"),
    ])
    def test_unequal(self, left, right, type_):
        ctx, A = _arm_ctx(), parse_type(type_)
        t, u = parse_term(left), parse_term(right)
        assert not term_equal(ctx, t, u, A)
        assert not term_equal(ctx, u, t, A)

    @pytest.mark.parametrize("shape", ("chain", "nest"))
    @pytest.mark.parametrize("depth", (20, 40))
    def test_each_term_is_normalized_once(self, monkeypatch, shape, depth):
        # an eta or projection step reads its operand's normal form off the
        # normal form it has, instead of normalizing again
        if shape == "chain":
            # f against \x1:a. ... \xn:a. f x1 ... xn
            A = a
            for _ in range(depth):
                A = Fun(a, A)
            names = [f"x{i}" for i in range(depth)]
            twin = Var("f")
            for name in names:
                twin = App(twin, Var(name))
            for name in reversed(names):
                twin = Lam(name, a, twin)
        else:
            # f against its full expansion by projections, through
            # products and co-functions in turn
            A = a
            for i in range(depth):
                A = Prod(A, b) if i % 2 else CoFun(A, b)
            twin = _expand_pairs(Var("f"), A)
        ctx = declare_term(std_ctx(), "f", A)
        calls, normalize = [], kernel._norm

        def norm(t):
            calls.append(t)
            return normalize(t)

        monkeypatch.setattr(kernel, "_norm", norm)
        assert term_equal(ctx, Var("f"), twin, A)
        assert term_equal(ctx, twin, Var("f"), A)
        assert len(calls) == 4

    def test_agrees_with_the_three_function_walk(self):
        # up to 40 inhabitants per goal, each alone and eta-expanded, all
        # compared in both orders with the walk kept in teq_oracle
        ctx = _sweep_ctx()
        goals = SWEEP_GOALS + ("(c -> d) -> d", "c * d", "Pi u:c. p(u) * d",
                               "~c * d")
        pairs = equal_not_alpha = 0
        for goal in map(onf, map(parse_type, goals)):
            terms = []
            for t in islice(iter_inhabitants(ctx, goal, 5), 40):
                terms.append(t)
                if isinstance(goal, (Fun, Pi, Prod, CoFun, Sigma)):
                    terms.append(_eta_expand(ctx, t, goal))
                    assert term_equal(ctx, t, terms[-1], goal)
            for t in terms:
                check(ctx, t, goal)
            normal = [kernel._norm(t) for t in terms]
            for nt, nu in product(normal, repeat=2):
                equal = teq_oracle._teq(ctx, nt, nu, goal)
                assert kernel._teq(ctx, nt, nu, goal) == equal, (nt, nu)
                pairs += 1
                equal_not_alpha += equal and not alpha_eq(nt, nu)
        assert pairs >= 3000 and equal_not_alpha >= 50


def _eta_expand(ctx, t, goal):
    """\\e:dom. t e at a function-like goal, <p1 t, p2 t> at a pair-like
    one, with t annotated so that it infers."""
    t = Ann(t, goal)
    if isinstance(goal, (Fun, Pi)):
        e = fresh_name("e", set(ctx.names) | all_names(t))
        return Lam(e, kernel.halves(goal)[0], App(t, Var(e)))
    return Pair(Proj1(t), Proj2(t))


def _expand_pairs(t, A):
    """t expanded by projections at every pair-like level of A."""
    if not isinstance(A, (Prod, CoFun, Sigma)):
        return t
    c1, c2 = kernel.components(A, Proj1(t))
    return Pair(_expand_pairs(Proj1(t), c1), _expand_pairs(Proj2(t), c2))


_ARM_HYPS = (("x", "a"), ("s", "a + b"), ("g", "a -> a"),
             ("k", "(a -> a) -> c"), ("f", "(a -> a) -> a * b"),
             ("kk", "Pi u:a. (a -> a) -> r(u)"), ("w", "Sg u:a. r(u)"),
             ("q", "(a -> a) -> c + c"), ("h1", "a -> a -> c"),
             ("h2", "b -> a -> c"), ("m", "a * ((a -> a) -> c)"))


def _arm_ctx():
    ctx = declare_type_const(std_ctx(), "r", (("x1", a),))
    for name, ty in _ARM_HYPS:
        ctx = declare_term(ctx, name, parse_type(ty))
    return ctx


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


# ---------------------------------------------------------------------------
# Derivation auditing
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
DEMOS = ("scripts/golden.ptt", "scripts/paraconsistency.ptt",
         "tests/golden/renaming.ptt", "tests/golden/algebra.ptt")

AUDIT_DECLS = (("y", "a"), ("w", "p(y)"), ("k", "~b"), ("e", "a + ~b"),
               ("x", "~(a -> b)"), ("q0", "a * b"), ("f0", "a -> b"),
               ("f", "Pi u:a. p(u)"), ("s", "Sg u:a. p(u)"),
               ("g1", "a -> ~(a -> b)"), ("r", "~(a -> b) * c"))

# judgments whose derivations use every typing rule, in check and in
# infer shape, with binders that clash with the context and some that
# do not
AUDIT_JUDGMENTS = (
    ("y", "~~a"),
    ("\\v:a. v", "a -> a"),
    ("\\y:a. y", "a -> ~~a"),
    ("\\v:a. f v", "Pi u:a. p(u)"),
    ("f0 y", "b"),
    ("f y", "p(y)"),
    ("<y, w>", "Sg u:a. p(u)"),
    ("<y, k>", "~(a -> b)"),
    ("<p1 x, p2 x>", "a * ~b"),
    ("<p1 q0, p2 q0>", "a * b"),
    ("<p1 s, p2 s>", "Sg u:a. p(u)"),
    ("inl y", "a + b"),
    ("inr k", "a + ~b"),
    ("case e of { inl u => inr u | inr v => inl v }", "~b + a"),
    ("case e of { inl y => inr y | inr k => inl k }", "~~(~b + a)"),
    ("split s as (v, h) => v", "a"),
    ("split s as (y, h) => <y, h>", "Sg u:a. p(u)"),
    ("(\\v:a. v : a -> a) y", "a"),
    ("(<y, w> : Sg u:a. p(u))", "Sg u:a. p(u)"),
    ("(\\v:a. f0 v) y", "b"),
    ("(\\y:a. f y) y", "p(y)"),
    ("(\\v:a. case e of { inl u => f0 u | inr n => f0 v }) y", "b"),
    ("(\\v:a. split s as (t, h) => f0 t) y", "b"),
    ("g1 y", "a * ~b"),
    ("p1 r", "a * ~b"),
)

AUDIT_TYPES = ("(a -> b) <~ (a * ~c)", "(Sg u:a. p(u)) + (Pi u:a. ~p(u))",
               "p(y)", "~~(Pi y:a. p(y) -> b)", "Sg z:a. b -> c")


def _audit_ctx():
    return ctx_with(*AUDIT_DECLS)


def _demo_derivations():
    """Derivations of the checks and inferences in the demo scripts."""
    out = []
    for rel in DEMOS:
        ctx, sig = EMPTY, Signature()
        for d in parse((REPO / rel).read_text()).directives:
            if isinstance(d, (s.AtomDecl, s.PredDecl, s.Assume)):
                ctx, _, _ = _execute(ctx, sig, d)
                continue
            try:
                if isinstance(d, s.CheckDirective):
                    out.append(check(ctx, d.term, d.type))
                elif isinstance(d, s.InferDirective):
                    out.append(check(ctx, d.term, infer(ctx, d.term)))
            except TypeTheoryError:
                pass
    return out


@pytest.fixture(scope="module")
def corpus():
    """Derivations from check on the audit judgments, the demo judgments
    and searched terms, from check_formation, and of the duality
    principle."""
    ctx = _audit_ctx()
    out = [check(ctx, parse_term(t), parse_type(ty))
           for t, ty in AUDIT_JUDGMENTS]
    out += _demo_derivations()
    rng = random.Random(8080)
    while len(out) < len(AUDIT_JUDGMENTS) + 40:
        hyps = _search_ctx(rng)
        goal = rand_type(rng, rng.randint(0, 3))
        t = bounded_inhabit(hyps, goal, 3)
        if t is not None:
            out.append(check(hyps, t, goal))
    out += [check_formation(ctx, parse_type(ty), U0) for ty in AUDIT_TYPES]
    big = declare_type_const(ctx, "big", (), U1)
    out.append(check_formation(big, parse_type("a -> big -> b"), U1))
    A = parse_type("(a -> b) * ~(Pi u:a. p(u))")
    out += [check_duality_principle(A, ctx), check_duality_principle(A)]
    return out


def _nodes(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _nodes(p, path + (i,))


def _put(d, path, node):
    """d with the node at path replaced."""
    if not path:
        return node
    premises = list(d.premises)
    premises[path[0]] = _put(premises[path[0]], path[1:], node)
    return replace(d, premises=tuple(premises))


GHOST, NOPE = Var("ghost"), Atom("nope")

# the rules whose first premise must be an inferred typing
INFERRED_FIRST = {"conv", "fun-elim", "pi-elim", "sum-elim", "sigma-elim",
                  *(f"{stem}-elim-{side}" for side in (1, 2)
                    for stem in ("prod", "cofun", "sigma"))}


def _corruptions(node, is_root):
    """Changes to one node that no sound derivation survives."""
    for rule in ["no-such-rule", *sorted(set(_RULES) - {node.rule})]:
        yield replace(node, rule=rule)
    ps = node.premises
    for i in range(len(ps)):
        yield replace(node, premises=ps[:i] + ps[i + 1:])
    for i, j in combinations(range(len(ps)), 2):
        if ps[i] != ps[j]:
            swapped = list(ps)
            swapped[i], swapped[j] = ps[j], ps[i]
            yield replace(node, premises=tuple(swapped))
    c = node.conclusion
    if isinstance(c, Typing):
        yield replace(node, conclusion=replace(c, term=GHOST))
        if isinstance(c.term, Lam):
            lam = replace(c.term, dom=NOPE)
            yield replace(node, conclusion=replace(c, term=lam))
    field = "left" if isinstance(c, TypeEq) else "type"
    yield replace(node, conclusion=replace(c, **{field: NOPE}))
    if ps or not is_root:
        # a node with no premises may well hold in a larger context
        ctx = EMPTY if c.ctx is None else c.ctx
        bigger = ctx.extended(TermDecl("ghost", a))
        yield replace(node, conclusion=replace(c, ctx=bigger))
    for i, p in enumerate(ps):
        for q in _premise_corruptions(node, i, p):
            yield replace(node, premises=ps[:i] + (q,) + ps[i + 1:])


def _premise_corruptions(node, i, p):
    """Premise i of node replaced by a derivation that holds on its own
    but is not the one node's rule asks for."""
    c, pc = node.conclusion, p.conclusion
    if isinstance(pc, Formation):
        # the type formed in the other universe
        try:
            yield check_formation(pc.ctx, pc.type, U1 if pc.universe is U0
                                  else U0)
        except TypeTheoryError:
            pass
    if isinstance(pc, Typing):
        # another term of the same type
        yield check(pc.ctx, Ann(pc.term, pc.type), pc.type)
        if node.rule == "conv" and not type_equal(None, pc.type, c.type):
            # the inferred type given up for the goal it converts to
            yield replace(p, conclusion=replace(pc, type=c.type))
        if i == 0 and node.rule in INFERRED_FIRST \
                and not isinstance(pc.term, Ann):
            # a checked typing where an inferred one is needed
            yield check(pc.ctx, pc.term, pc.type)
    if not isinstance(pc, (Typing, Formation)):
        return
    outer = c.ctx.entries
    opened = pc.ctx.entries[len(outer):]
    for j, decl in enumerate(opened):
        # a bound variable declared at another type
        entries = list(pc.ctx.entries)
        entries[len(outer) + j] = TermDecl(decl.name, NOPE)
        yield _rectx(p, len(pc.ctx.entries), tuple(entries))
    if len(opened) == 1:
        # the bound variable named after a declared one it shadows
        v, = opened
        names = all_names(pc.term if isinstance(pc, Typing) else pc.type)
        for e in outer:
            if not isinstance(e, TermDecl) or e.name in names:
                continue
            ctx = c.ctx.extended(TermDecl(e.name, v.type))
            ren = {v.name: Var(e.name)}
            try:
                if isinstance(pc, Typing):
                    yield check(ctx, subst(pc.term, ren), subst(pc.type, ren))
                else:
                    yield check_formation(ctx, subst(pc.type, ren), U0)
            except TypeTheoryError:
                continue
            break


def _rectx(d, n, entries):
    """d with the first n entries of every context replaced by entries."""
    c = d.conclusion
    ctx = Context(entries + c.ctx.entries[n:])
    return Derivation(d.rule, replace(c, ctx=ctx),
                      tuple(_rectx(p, n, entries) for p in d.premises))


class TestRecheck:
    def test_corpus_rechecks_and_uses_every_rule(self, corpus):
        used = set()
        for d in corpus:
            assert recheck(d)
            used.update(n.rule for _, n in _nodes(d))
        # term-equal is for TermEq judgments, which no producer emits
        assert used == set(_RULES) - {"term-equal"}

    @pytest.mark.parametrize("size", (10, 200))
    def test_premise_freshness_at_both_index_sizes(self, size):
        # a small node context and a large one, each holding the index
        # its parent handed over
        ctx, i = ctx_with(("s", "Sg u:a. p(u)")), 0
        while len(ctx.entries) < size:
            parent, ctx = ctx, declare_term(ctx, f"v{i}", a)
            i += 1
        assert "_by_name" not in parent.__dict__
        lam = check(ctx, parse_term("\\x:a. x"), parse_type("a -> a"))
        split = check(ctx, parse_term("split s as (t, h) => t"), a)
        assert recheck(lam) and recheck(split)

        def with_premise_ctx(d, k, *decls):
            pc = d.premises[k].conclusion
            bad = replace(pc, ctx=Context(ctx.entries + decls))
            premises = list(d.premises)
            premises[k] = replace(d.premises[k], conclusion=bad)
            return replace(d, premises=tuple(premises))

        bad = [with_premise_ctx(lam, 0, TermDecl(name, a))
               for name in ("s", f"v{i - 1}", "a")]
        bad.append(with_premise_ctx(split, 1, TermDecl("t", a),
                                    TermDecl("t", parse_type("p(t)"))))
        for d in bad:
            with pytest.raises(InvalidDerivation,
                               match="declares no fresh variable"):
                recheck(d)

    def test_renamed_rule_is_rejected(self):
        d = check(std_ctx(), parse_term("\\v:a. v"), parse_type("a -> a"))
        assert d.rule == "fun-intro"
        for rule in ("pi-intro", "no-such-rule"):
            with pytest.raises(InvalidDerivation):
                recheck(replace(d, rule=rule))

    def test_every_corruption_is_rejected(self, corpus):
        tried = 0
        for d in corpus:
            for path, node in _nodes(d):
                for bad in _corruptions(node, not path):
                    tried += 1
                    with pytest.raises(InvalidDerivation):
                        recheck(_put(d, path, bad))
        assert tried > 10000

    def test_accepted_mutants_are_accepted_by_check(self, corpus):
        # soundness: whatever recheck lets through, check accepts too
        rng = random.Random(4321)
        pool = [n for d in corpus for _, n in _nodes(d)]
        typings = [n.conclusion for n in pool
                   if isinstance(n.conclusion, Typing)]
        accepted = 0
        for _ in range(3000):
            d = rng.choice(corpus)
            path, node = rng.choice(list(_nodes(d)))
            mutant = _put(d, path, _mutate(node, rng, pool, typings))
            try:
                recheck(mutant)
            except TypeTheoryError:
                continue
            accepted += mutant != d
            c = mutant.conclusion
            if isinstance(c, Typing):
                check(c.ctx, c.term, c.type)
            elif isinstance(c, Formation):
                check_formation(c.ctx, c.type, c.universe)
            else:
                assert type_equal(None, c.left, c.right)
        assert accepted > 100

    def test_goal_must_be_formed(self):
        # check takes its goal as formed, so it accepts this lambda,
        # whose binder captures the goal's unbound v
        ctx = ctx_with(("k", "Pi u:a. p(u)"))
        t = parse_term("\\v:a. k v")
        d = check(ctx, t, parse_type("a -> p(v)"))
        with pytest.raises(InvalidDerivation, match="unbound variable: v"):
            recheck(d)
        assert recheck(check(ctx, t, parse_type("Pi v:a. p(v)")))

    def test_u1_is_closed_only_under_arrow(self):
        d = check_formation(std_ctx(), Fun(a, b), U1)
        assert recheck(d)
        prod = Derivation("prod-form", Formation(d.conclusion.ctx,
                                                 Prod(a, b), U1), d.premises)
        with pytest.raises(IllFormedType):
            check_formation(std_ctx(), Prod(a, b), U1)
        with pytest.raises(InvalidDerivation):
            recheck(prod)

    def test_duality_principle_is_about_the_dual(self):
        d = check_duality_principle(parse_type("a -> ~b"))
        e1, e2 = d.premises
        right = Opp(Opp(d.conclusion.right))   # an equal type, not ~dual
        e2 = Derivation("onf", TypeEq(None, right, e2.conclusion.right))
        assert recheck(e2)
        with pytest.raises(InvalidDerivation):
            recheck(Derivation("duality-principle",
                               TypeEq(None, d.conclusion.left, right),
                               (e1, e2)))

    def test_term_equality_node(self):
        ctx = ctx_with(("x", "~(a->b)"), ("z", "~(a->b)"))
        t, A = parse_term("<p1 x, p2 x>"), parse_type("~(a->b)")
        assert recheck(Derivation("term-equal", TermEq(ctx, t, Var("x"), A)))
        with pytest.raises(InvalidDerivation):
            recheck(Derivation("term-equal", TermEq(ctx, t, Var("z"), A)))

    def test_term_equality_node_needs_a_formed_type(self):
        # term_equal takes its type as formed, as check does, so the node
        # is rejected although both sides are the same term
        ctx = declare_type_const(EMPTY, "a")
        t, A = parse_term("\\y:zzz. y"), parse_type("zzz -> zzz")
        with pytest.raises(IllFormedType, match="unbound type constant"):
            check_formation(ctx, A, U0)
        with pytest.raises(InvalidDerivation,
                           match="unbound type constant: zzz"):
            recheck(Derivation("term-equal", TermEq(ctx, t, t, A), ()))
        with pytest.raises(InvalidDerivation, match="TermEq"):
            recheck(Derivation("term-equal", TermEq(None, t, t, A), ()))

    def test_every_failure_is_an_invalid_derivation(self):
        # nodes whose own check raises another error: the terms of a
        # term equality do not have its type, and a type equality or a
        # duality principle is about a term, not a type
        ctx = ctx_with(("x", "a"))
        x = Var("x")
        e = Derivation("onf", TypeEq(None, a, a))
        for d, why in (
                (Derivation("term-equal", TermEq(ctx, x, x, b)),
                 "rule term-equal: term x has type a, expected b"),
                (Derivation("onf", TypeEq(None, a, x)),
                 "rule onf: not a type"),
                (Derivation("duality-principle", TypeEq(None, x, a), (e, e)),
                 "rule duality-principle: not a type")):
            with pytest.raises(InvalidDerivation, match=why):
                recheck(d)

    @pytest.mark.parametrize("d, why", [
        # a type whose family argument is not a term
        (Derivation("onf", TypeEq(None, Atom("a", ("junk",)), a)),
         "rule onf: not a term: 'junk'"),
        (Derivation(["onf"], TypeEq(None, a, a)), r"unknown rule \['onf'\]"),
        (Derivation("onf", TypeEq(None, a, a), None),
         "rule onf: its premises are not a tuple"),
        (Derivation("onf", TypeEq(None, a, b)),
         "rule onf: type equality a = b does not hold"),
        (Derivation("atom-form", Formation(None, Atom("z"), U0)),
         "rule atom-form: z is not a declared type constant fully applied"),
        (Derivation("atom-form", Formation(std_ctx(), Atom("a", (Var("x"),)),
                                           U0), (Derivation("var", None),)),
         r"rule atom-form: a\(x\) is not a declared type constant fully "
         "applied"),
    ], ids=["term_argument_not_a_term", "rule_not_a_str",
            "premises_not_a_tuple", "onf_types_differ", "atom_undeclared",
            "atom_wrongly_applied"])
    def test_malformed_node_is_an_invalid_derivation(self, d, why):
        with pytest.raises(InvalidDerivation, match=why):
            recheck(d)

    def test_recheck_derives_nothing_again(self, corpus, monkeypatch):
        # the one judgment recheck derives is the formation of the root's
        # type, which no node of the tree states, and it builds no
        # derivation of it; while it runs, the kernel may check the type's
        # family arguments
        formed, inside = [], []

        def guarded(name, orig):
            def call(*args):
                if not inside:
                    raise AssertionError(f"recheck re-derived a judgment "
                                         f"through {name}")
                return orig(*args)
            return call

        def root_formation(ctx, A, u):
            if not inside:
                formed.append((ctx, A, u))
            inside.append(True)
            try:
                return formation(ctx, A, u)
            finally:
                inside.pop()

        formation = kernel.ensure_formed
        for name in ("check", "_check", "_infer", "open_binders",
                     "term_equal", "check_formation"):
            monkeypatch.setattr(kernel, name,
                                guarded(name, getattr(kernel, name)))
        monkeypatch.setattr(kernel, "ensure_formed", root_formation)
        for d in corpus:
            formed.clear()
            assert recheck(d)
            c = d.conclusion
            assert formed == ([(c.ctx, c.type, U0)]
                              if isinstance(c, Typing) else [])


class TestRecheckInference:
    """Hand-built derivations whose nodes each hold in check mode, but
    that put a checked typing where the kernel must infer one."""

    F = parse_type("a -> ~(a -> b)")
    LAM = parse_term("\\v:a. <y, k>")   # its body is a bare pair

    def _applied(self, fn_d):
        """fn_d's term applied to y, concluded by conversion."""
        ctx, fn = fn_d.conclusion.ctx, fn_d.conclusion.term
        t, T = App(fn, Var("y")), onf(self.F).cod
        d = Derivation("fun-elim", Typing(ctx, t, T),
                       (fn_d, check(ctx, Var("y"), a)))
        with pytest.raises(TypeTheoryError):
            check(ctx, t, T)
        return Derivation("conv", Typing(ctx, t, T), (d,))

    def test_checked_lambda_is_not_applied(self):
        d = self._applied(check(_audit_ctx(), self.LAM, self.F))
        with pytest.raises(InvalidDerivation):
            recheck(d)

    def test_checked_branch_of_an_inferred_case(self):
        ctx = _audit_ctx()
        t = Case(Var("e"), "u", self.LAM, "n", self.LAM)
        branches = [check(ctx.extended(TermDecl(v, ty)), self.LAM, self.F)
                    for v, ty in (("u", a), ("n", Opp(b)))]
        scrut_d = kernel._infer(ctx, Var("e"), kernel._node)[1]
        case_d = Derivation("sum-elim", Typing(ctx, t, onf(self.F)),
                            (scrut_d, *branches))
        with pytest.raises(InvalidDerivation):
            recheck(self._applied(case_d))

    def test_inferred_type_of_split_mentions_no_bound_variable(self):
        ctx = _audit_ctx()
        body = parse_term("(<t, h> : a * p(t))")
        t = Proj1(Split(Var("s"), "t", "h", body))
        with pytest.raises(NonInferableTerm):
            check(ctx, t, a)
        inner = ctx.extended(TermDecl("t", a)).extended(
            TermDecl("h", parse_type("p(t)")))
        split_d = Derivation("sigma-elim", Typing(ctx, t.arg, onf(body.type)),
                             (kernel._infer(ctx, Var("s"), kernel._node)[1],
                              kernel._infer(inner, body, kernel._node)[1]))
        d = Derivation("conv", Typing(ctx, t, a), (
            Derivation("prod-elim-1", Typing(ctx, t, a), (split_d,)),))
        with pytest.raises(InvalidDerivation):
            recheck(d)

    def test_inferred_annotation_has_its_own_type(self):
        ctx = _audit_ctx()
        t = parse_term("(x : ~(a -> b))")
        d = kernel._infer(ctx, t, kernel._node)[1]
        assert recheck(d)
        equivalent_d = replace(d, conclusion=replace(
            d.conclusion, type=parse_type("a * ~b")))
        assert recheck(equivalent_d)   # checked, an equivalent type is fine
        proj = Proj2(t)
        for ann_d, stem in ((d, "cofun"), (equivalent_d, "prod")):
            proj_d = Derivation(f"{stem}-elim-2", Typing(ctx, proj, Opp(b)),
                                (ann_d,))
            root = Derivation("conv", Typing(ctx, proj, Opp(b)), (proj_d,))
            if ann_d is d:
                assert recheck(root)
            else:
                with pytest.raises(InvalidDerivation):
                    recheck(root)


def _mutate(node, rng, pool, typings):
    """A random change to one node; it may or may not stay sound."""
    c, ps = node.conclusion, node.premises
    kind = rng.randrange(7)
    if kind == 0:
        return replace(node, rule=rng.choice(sorted(_RULES)))
    if kind == 1 and ps:
        i = rng.randrange(len(ps))
        return replace(node, premises=ps[:i] + ps[i + 1:])
    if kind == 2 and ps:
        premises = list(ps)
        premises[rng.randrange(len(ps))] = rng.choice(pool)
        return replace(node, premises=tuple(premises))
    if kind == 3 and isinstance(c, Typing):
        return replace(node, conclusion=replace(
            c, term=rng.choice(typings).term))
    if kind == 4 and isinstance(c, (Typing, Formation)):
        other = rng.choice(typings).type
        return replace(node, conclusion=replace(c, type=other))
    if kind == 5 and isinstance(c, (Typing, Formation)):
        return replace(node, conclusion=replace(
            c, type=unnormalize(rng, c.type, 1)))
    if kind == 6 and isinstance(c, (Typing, Formation)):
        return replace(node, conclusion=replace(
            c, ctx=rng.choice(typings).ctx))
    return replace(node, premises=ps[::-1])


def _lambda_chain(n, var):
    """\\x0:a. ... \\x{n-1}:a. x0 : a -> ... -> a, binder i named var(i);
    built with loops, not recursion."""
    t, T = Var(var(0)), a
    for i in reversed(range(n)):
        t, T = Lam(var(i), a, t), Fun(a, T)
    return t, T


@pytest.mark.parametrize("n, var", [(800, "x{}".format),
                                    (300, lambda i: "x")])
def test_deep_derivation_rechecks(n, var):
    # one stack entry per node, no Python frame; the binders named x all
    # shadow each other, so check renames every one of them
    ctx = declare_type_const(EMPTY, "a")
    t, T = _lambda_chain(n, var)
    assert recheck(check(ctx, t, T))


def _counted(monkeypatch, name):
    """Count the calls of syntax.<name>; its own recursion goes through
    the module's global name, so it is counted too."""
    calls = [0]
    orig = getattr(syntax, name)

    def call(*args):
        calls[0] += 1
        return orig(*args)
    monkeypatch.setattr(syntax, name, call)
    return calls


def test_shadowing_chain_costs_linear_work(monkeypatch):
    # every binder of \x:a. ... \x:a. x clashes with the one above it,
    # so check renames each; it collects the names of each scope, and
    # recheck compares each lambda with its renamed body, in work that
    # grows with the chain, not with its square
    ctx = declare_type_const(EMPTY, "a")
    with monkeypatch.context() as m:
        names = _counted(m, "all_names")
        syntax.all_names(_lambda_chain(50, lambda i: "x")[0])
    assert names[0] == 101     # the count is of nodes visited, not calls
    counts = []
    for n in (200, 400):
        t, T = _lambda_chain(n, lambda i: "x")
        with monkeypatch.context() as m:
            names = _counted(m, "all_names")
            d = check(ctx, t, T)
        with monkeypatch.context() as m:
            alpha = _counted(m, "_alpha")
            assert recheck(d)
        counts.append((names[0], alpha[0]))
    (names1, alpha1), (names2, alpha2) = counts
    assert names2 <= 2.1 * names1 and alpha2 <= 2.1 * alpha1, counts


def _same_up_to_renaming(d, e, n, m):
    """True iff d and e apply the same rules node by node, and each node
    of e concludes what d's does once the names its binders declared
    (its context's entries past the first m) are renamed to those of d's
    (past the first n)."""
    todo = [(d, e)]
    while todo:
        d, e = todo.pop()
        if d.rule != e.rule or len(d.premises) != len(e.premises):
            return False
        cd, ce = d.conclusion, e.conclusion
        mine, theirs = cd.ctx.entries[n:], ce.ctx.entries[m:]
        if [x.type for x in mine] != [y.type for y in theirs]:
            return False
        ren = {y.name: Var(x.name) for x, y in zip(mine, theirs)}
        if (subst(ce.term, ren), subst(ce.type, ren)) != (cd.term, cd.type):
            return False
        todo += zip(d.premises, e.premises)
    return True


@pytest.mark.parametrize("goal", [Var("x"), Lam("x", a, Var("x")), "a"])
@pytest.mark.parametrize("term", ["\\x:a. x", "y", "<y, y>"])
def test_a_goal_that_is_not_a_type_is_rejected(goal, term):
    ctx, t = ctx_with(("y", "a")), parse_term(term)
    for fn, args in ((check, (ctx, t, goal)), (ensure_typed, (ctx, t, goal)),
                     (term_equal, (ctx, t, t, goal)),
                     (infer, (ctx, Ann(t, goal)))):
        with pytest.raises(IllFormedType, match="not a type"):
            fn(*args)


def test_untaken_binders_are_opened_as_they_stand(monkeypatch):
    # no binder of \x0:a. ... \x199:a. x0 is in scope where it stands,
    # so check renames none and reads each codomain off its arrow; each
    # annotation is its own object, as a parsed term's would be
    ctx = declare_type_const(EMPTY, "a")
    t, T = Var("x0"), a
    for i in reversed(range(200)):
        t, T = Lam(f"x{i}", Atom("a"), t), Fun(a, T)
    opened, built = [], []
    real, init = kernel.open_binders, Var.__init__
    with monkeypatch.context() as m:
        m.setattr(kernel, "open_binders",
                  lambda *args: opened.append(args) or real(*args))
        m.setattr(Var, "__init__",
                  lambda self, *args: built.append(args) or init(self, *args))
        d = check(ctx, t, T)
    assert opened == [] and built == []
    with monkeypatch.context() as m:
        alpha = _counted(m, "_alpha")
        assert recheck(d)
    # one walk per lambda, of its annotation against the arrow's domain;
    # every other comparison is of an object with itself (7 a node before)
    assert alpha[0] <= 200, alpha
    # where every binder's name is taken, each is renamed, to the same
    # derivation up to the renaming
    clash = ctx
    for i in range(200):
        clash = declare_term(clash, f"x{i}", a)
    e = check(clash, t, T)
    assert recheck(e)
    assert e.premises[0].conclusion.ctx.entries[-1].name != "x0"
    assert _same_up_to_renaming(d, e, 1, 201)
