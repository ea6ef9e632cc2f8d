"""Formula translation, negation normal form, strong equivalence."""

import random

import pytest

import opptypes.logic as logic
import opptypes.runner as runner
import opptypes.script as s
from opptypes import (And, Atom, CoFun, CoImpl, Context, Exists, Forall,
                      Impl, Neg, Opp, Or, Pi, Pred, Prod, Script, Signature,
                      SortError, TypeTheoryError, Var, check_context,
                      check_formation, formula_nnf, parse, parse_formula, run,
                      strong_equiv_check, translate, type_equal, U0)
from opptypes.logic import translation_context
from opptypes.printer import context_str, type_str
from opptypes.runner import _execute

import translate_oracle
from generators import STD_SIG, rand_formula, rand_script
from signature_oracle import signature_of

P, Q = Pred("P"), Pred("Q")


def _formula_type(f):
    return translate(STD_SIG, f)[1]


class TestTranslate:
    def test_negated_conjunction(self):
        _, ty = translate(STD_SIG, Neg(And(P, Q)))
        assert ty == Opp(Prod(Atom("P"), Atom("Q")))

    def test_universal(self):
        ctx, ty = translate(STD_SIG, parse_formula("all x:s. R(x)"))
        assert ty == Pi("x", Atom("s"), Atom("R", (Var("x"),)))
        check_context(ctx)
        check_formation(ctx, ty, U0)

    def test_coimplication(self):
        _, ty = translate(STD_SIG, parse_formula("Q <~ P"))
        assert ty == CoFun(Atom("Q"), Atom("P"))

    def test_free_variables_declared(self):
        ctx, ty = translate(STD_SIG, parse_formula("R(y)"))
        check_formation(ctx, ty, U0)
        assert ctx.lookup_term("y") == Atom("s")

    def test_sort_errors(self):
        with pytest.raises(SortError):
            translate(STD_SIG, Pred("Nope"))
        with pytest.raises(SortError):
            translate(STD_SIG, Pred("R", ("x", "y")))
        with pytest.raises(SortError):
            translate(STD_SIG, Forall("x", "t", P))
        with pytest.raises(SortError):
            # same variable at two sorts (R forces sort s on x either side)
            translate(Signature({"s", "t"}, {"R": ("s",), "S2": ("t",)}),
                      And(Pred("R", ("x",)), Pred("S2", ("x",))))


class TestNnf:
    def test_de_morgan(self):
        assert formula_nnf(parse_formula("~(P & Q)")) == Or(Neg(P), Neg(Q))

    def test_negated_exists(self):
        got = formula_nnf(parse_formula("~ex x:s. R(x)"))
        assert got == Forall("x", "s", Neg(Pred("R", ("x",))))

    def test_double_negation(self):
        assert formula_nnf(parse_formula("~~P")) == P

    def test_negated_implication_contraposes(self):
        got = formula_nnf(parse_formula("~(P => Q)"))
        assert got == CoImpl(Neg(Q), Neg(P))

    def test_negated_coimplication(self):
        got = formula_nnf(parse_formula("~(Q <~ P)"))
        assert got == Impl(Neg(P), Neg(Q))

    def test_idempotent_generated(self):
        rng = random.Random(5150)
        for _ in range(300):
            f = rand_formula(rng, rng.randint(0, 5))
            n = formula_nnf(f)
            assert formula_nnf(n) == n

    def test_preserves_translation_up_to_equality(self):
        rng = random.Random(61)
        for _ in range(300):
            f = rand_formula(rng, rng.randint(0, 5))
            n = formula_nnf(f)
            ctx = translation_context(STD_SIG, f, n)
            assert type_equal(ctx, _formula_type(f), _formula_type(n))
            assert type_equal(ctx, _formula_type(Neg(f)),
                              _formula_type(Neg(n)))


class TestStrongEquiv:
    def test_de_morgan_pairs(self):
        cases = [
            ("~(P & Q)", "~P | ~Q"),
            ("~(P | Q)", "~P & ~Q"),
            ("~all x:s. R(x)", "ex x:s. ~R(x)"),
            ("~ex x:s. R(x)", "all x:s. ~R(x)"),
            ("~~P", "P"),
            ("~(P => Q)", "~Q <~ ~P"),
            ("~(Q <~ P)", "~P => ~Q"),
        ]
        for lhs, rhs in cases:
            assert strong_equiv_check(STD_SIG, parse_formula(lhs),
                                      parse_formula(rhs)), lhs

    def test_negated_implication_is_not_conjunction(self):
        f = parse_formula("~(P => Q)")
        g = parse_formula("P & ~Q")
        assert not strong_equiv_check(STD_SIG, f, g)
        # specifically the negated pair is what fails
        ctx = translation_context(STD_SIG, f, g)
        assert not type_equal(ctx, _formula_type(Neg(f)),
                              _formula_type(Neg(g)))

    def test_conjunction_idempotence_rejected(self):
        assert not strong_equiv_check(STD_SIG, And(P, P), P)

    def test_trivial(self):
        assert strong_equiv_check(STD_SIG, P, P)

    def test_nnf_is_strongly_equivalent_generated(self):
        rng = random.Random(8080)
        for _ in range(200):
            f = rand_formula(rng, rng.randint(0, 4))
            assert strong_equiv_check(STD_SIG, f, formula_nnf(f))

    def test_equal_translations_have_equal_opposites(self):
        # why strong_equiv_check compares the translations alone
        rng = random.Random(1604)
        equal = 0
        for _ in range(2000):
            f = rand_formula(rng, rng.randint(0, 4))
            g = rng.choice((formula_nnf(f), Neg(Neg(f)),
                            rand_formula(rng, rng.randint(0, 4))))
            ctx, A = translate(STD_SIG, f)
            B = translate(STD_SIG, g)[1]
            if type_equal(ctx, A, B):
                equal += 1
                assert type_equal(ctx, Opp(A), Opp(B)), (f, g)
        assert equal > 500


# Names for signatures and formulas that are often ill sorted: a sort
# named x1 (the first telescope variable), a predicate and a sort left
# undeclared, variables that several sorts share.
SORT_POOL = ("s", "t", "x1", "a")
PRED_POOL = ("P", "Q", "R", "T", "a", "U")
VAR_POOL = ("u", "v", "x1", "w")


def _rand_signature(rng):
    sorts = rng.sample(SORT_POOL, rng.randint(1, len(SORT_POOL)))
    preds = {name: tuple(rng.choice(sorts) for _ in range(rng.randint(0, 2)))
             for name in rng.sample(PRED_POOL[:-1], rng.randint(1, 5))}
    return Signature(sorts, preds)


def _rand_any_formula(rng, sig, depth):
    """A formula over sig that is mostly, but not always, well sorted."""
    roll = rng.random()
    if roll < 0.02:
        return rng.choice((Atom("P"), "P", None, logic.Formula()))
    if depth <= 0 or roll < 0.3:
        name = rng.choice(PRED_POOL if rng.random() < 0.1
                          else sorted(sig.predicates))
        arity = sig.predicates.get(name, ())
        n = len(arity) if rng.random() < 0.85 else rng.randint(0, 3)
        return Pred(name, tuple(rng.choice(VAR_POOL) for _ in range(n)))
    cls = rng.choice((Neg, Neg, And, Or, Impl, CoImpl, Forall, Exists))
    if cls is Neg:
        return Neg(_rand_any_formula(rng, sig, depth - 1))
    if cls is Forall or cls is Exists:
        sorts = sorted(sig.sorts) if rng.random() < 0.9 else ["z"]
        return cls(rng.choice(VAR_POOL), rng.choice(sorts),
                   _rand_any_formula(rng, sig, depth - 1))
    return cls(_rand_any_formula(rng, sig, depth - 1),
               _rand_any_formula(rng, sig, depth - 1))


def _outcome(fn, *args, show=context_str):
    """What fn returns, sorts in their order and each context (by show)
    and type also printed, or the error it raises, by class and text."""
    try:
        value = fn(*args)
    except TypeTheoryError as e:
        return type(e).__name__, str(e)
    if isinstance(value, dict):
        return "ok", list(value.items())
    if isinstance(value, Context):
        value = value, None
    if isinstance(value, tuple):
        ctx, ty = value
        return ("ok", ctx.entries, show(ctx), ty,
                None if ty is None else type_str(ty))
    return "ok", value


ERROR_KINDS = ("undeclared predicate", "expects", "used at sorts",
               "undeclared sort", "not a formula")


class TestTranslateOracle:
    """check_sorts, translate, translation_context and strong_equiv_check
    give what the separate walks of translate_oracle give."""

    def _compare(self, sig, f, g):
        """Compare the four on f and g; return what strong_equiv_check
        gives, its verdict or the kind of error."""
        for name, args in (("check_sorts", (f,)), ("translate", (f,)),
                           ("translation_context", (f, g)),
                           ("strong_equiv_check", (f, g))):
            got = _outcome(getattr(logic, name), sig, *args)
            want = _outcome(getattr(translate_oracle, name), sig, *args)
            assert got == want, (name, sig, args)
        status, value = got
        if status != "SortError":
            return value if status == "ok" else status
        return next(kind for kind in ERROR_KINDS if kind in value)

    def test_well_sorted_formulas(self):
        rng = random.Random(2204)
        verdicts = set()
        for _ in range(600):
            f = rand_formula(rng, rng.randint(0, 5))
            g = rng.choice((formula_nnf(f), Neg(Neg(f)),
                            rand_formula(rng, rng.randint(0, 3))))
            verdicts.add(self._compare(STD_SIG, f, g))
        assert verdicts == {True, False}

    def test_malformed_formulas(self):
        rng = random.Random(3882)
        seen = set()
        for _ in range(2400):
            sig = _rand_signature(rng)
            f = _rand_any_formula(rng, sig, rng.randint(0, 4))
            g = rng.choice((f, Neg(Neg(f)),
                            _rand_any_formula(rng, sig, rng.randint(0, 3))))
            seen.add(self._compare(sig, f, g))
        # a name that is a sort and a predicate of arity 1 or 2 is declared
        # last as the predicate, so a quantifier over it is ill formed
        assert seen == {True, False, "IllFormedType", *ERROR_KINDS}

    def test_hand_picked_cases(self):
        sig = Signature({"s", "x1"}, {"P": (), "Q": (), "R": ("s",),
                                      "S": ("x1", "s")})
        R, S = (lambda v: Pred("R", (v,))), (lambda *v: Pred("S", v))
        cases = [
            (Pred("U"), Pred("P")),                     # undeclared
            (Pred("R"), Pred("P")),                     # wrong arity
            (Forall("u", "z", R("u")), Pred("P")),      # undeclared sort
            (And(R("u"), S("u", "v")), Pred("P")),      # two sorts in one
            (R("u"), S("u", "v")),                      # two sorts across
            (And(R("u"), Forall("u", "x1", S("u", "v"))), R("v")),
            (Impl(Pred("P"), Atom("P")), Pred("P")),    # not a formula
            (Exists("x1", "x1", S("x1", "x2")), R("x2")),
            (Neg(Forall("u", "s", R("u"))), Exists("u", "s", Neg(R("u")))),
            (Neg(Impl(P, Q)), And(P, Neg(Q))),  # a false verdict
        ]
        for f, g in cases:
            self._compare(sig, f, g)
            self._compare(sig, g, f)


# Names and argument types for scripts heavy in declarations: repeated
# names fail as duplicates, and argument types that are no declared sort
# (undeclared, compound, or a family applied to a term) leave a pred out
# of the signature.
DECL_NAMES = ("a", "b", "c", "p", "q", "r", "w", "x", "x1", "x2")
ARG_TYPES = ("a", "b", "c", "zz", "a -> a", "~a", "a * b", "p(x)", "p(x1)",
             "q(x, x)", "Pi v:a. p(v)")
FORMULAS = ("a", "~(a & b)", "(a => c) <~ b", "all v:a. p(v)",
            "ex v:a. ~p(v) | q(v, v)", "all v:b. q(v, v)", "r", "w(x)",
            "x1 & p(y)")


def _rand_decl_script(rng):
    lines = []
    for _ in range(rng.randint(1, 16)):
        kind, name = rng.random(), rng.choice(DECL_NAMES)
        if kind < 0.3:
            lines.append(f"atom {name};")
        elif kind < 0.6:
            args = ", ".join(rng.choice(ARG_TYPES)
                             for _ in range(rng.randint(1, 3)))
            lines.append(f"pred {name}({args});")
        elif kind < 0.75:
            ty = rng.choice(("a", "b", "p(x)", "a -> a"))
            lines.append(f"assume {name} : {ty};")
        else:
            kw = rng.choice(("translate", "nnf"))
            lines.append(f"{kw} {rng.choice(FORMULAS)};")
    return parse("\n".join(lines))


class TestRunnerSignature:
    def _run_checked(self, monkeypatch, sc):
        """run sc, comparing the signature the run keeps with the oracle's
        reading of the context after every directive."""
        calls = []

        def checked(ctx, sig, d):
            after = ctx
            try:
                after, payload, status = _execute(ctx, sig, d)
                return after, payload, status
            finally:
                calls.append(d)
                oracle = signature_of(after)
                assert sig == oracle, (d, sig, oracle)

        monkeypatch.setattr(runner, "_execute", checked)
        report = run(sc)
        assert len(calls) == len(sc.directives)
        return report

    def test_kept_signature_matches_the_oracle(self, monkeypatch):
        rng = random.Random(909)
        statuses = set()
        for _ in range(300):
            report = self._run_checked(monkeypatch, _rand_decl_script(rng))
            statuses.update((e.directive, e.status) for e in report.entries)
        for _ in range(100):
            self._run_checked(monkeypatch, rand_script(rng))
        # the scripts reached failing and succeeding declarations and reads
        for kw in ("atom", "pred", "translate", "nnf"):
            assert {(kw, "ok"), (kw, "error")} <= statuses, kw

    def test_declarations_that_are_not_predicates(self, monkeypatch):
        report = self._run_checked(monkeypatch, parse(
            "atom a; atom x1; assume x : a; pred p(a); pred w(a -> a);"
            "pred r(p(x)); pred v(a, a -> a); pred q(a, x1); atom a;"
            "pred p(a); pred z(a(x)); translate all u:a. ex y:x1. q(u, y);"
            "nnf ~w; nnf ~r(x);"))
        assert [e.status for e in report.entries] == (
            ["ok"] * 8 + ["error"] * 3 + ["ok", "error", "error"])
        assert report.entries[11].payload == (
            "a : U0, x1 : U0, a : U0, p(x1:a) : U0, q(x1:a, x2:x1) : U0, "
            "x1 : U0 |- Pi u:a. Sg y:x1. q(u, y)")

    def test_pred_without_arguments_is_a_sort(self, monkeypatch):
        # the parser gives no such pred, but a script built directly can
        report = self._run_checked(monkeypatch, Script((
            s.PredDecl("o", ()), s.PredDecl("f", (Atom("o"),)),
            s.TranslateDirective(parse_formula("all u:o. f(u) => o")))))
        assert report.ok

    def test_add_predicate_rejects_an_undeclared_sort(self):
        sig = Signature({"s"})
        sig.add_predicate("R", ("s",))
        with pytest.raises(SortError):
            sig.add_predicate("T", ("s", "t"))
        sig.sorts.add("t")
        sig.add_predicate("T", ("s", "t"))
        assert sig == Signature({"s", "t"}, {"R": ("s",), "T": ("s", "t")})

    def test_signature_context_declares_each_name_once(self, monkeypatch):
        made = []
        real = logic.TypeConstDecl

        def counting(*args, **kwargs):
            made.append(args[:1])
            return real(*args, **kwargs)

        monkeypatch.setattr(logic, "TypeConstDecl", counting)
        k = 12
        reads = " ".join(["translate all v:s. R(v) & t;"] * k)
        report = run(parse(f"atom s; atom t; pred R(s); {reads}"
                           f"pred S(s, t); {reads} nnf ~S(u, v);"))
        assert report.ok
        # (s, ()), (t, ()), (R, (s,)) and (S, (s, t)): a zero-arity name
        # is a sort and a predicate under one key
        assert len(made) == 4


# Names whose order is not their order of declaration: upper case sorts
# first, digits and _ after letters, a sort named x1.
GROWTH_NAMES = ("b", "B", "a", "a1", "a_", "Z", "x1", "c", "aa", "q")


class TestSignatureGrowth:
    """A signature grown, shrunk and rewritten in place between its
    translations translates as translate_oracle does, printed entry by
    entry, whatever the order of the changes."""

    def _assert_as_oracle(self, sig, f, g):
        for name, args in (("translate", (f,)),
                           ("translation_context", (f, g))):
            got = _outcome(getattr(logic, name), sig, *args)
            want = _outcome(getattr(translate_oracle, name), sig, *args,
                            show=translate_oracle.context_str)
            assert got == want, (name, sig, args)
        return got[0]

    def _change(self, rng, sig):
        """One change to sig in place: a sort or a predicate added, an
        arity replaced through add_predicate or the dict, or a sort
        removed."""
        roll, name = rng.random(), rng.choice(GROWTH_NAMES)
        sorts = sorted(sig.sorts)
        if roll < 0.3 or not sorts:
            sig.sorts.add(name)
        elif roll < 0.75:
            sig.add_predicate(name, tuple(rng.choice(sorts)
                                          for _ in range(rng.randint(0, 2))))
        elif roll < 0.9 and sig.predicates:
            name = rng.choice(sorted(sig.predicates))
            sig.predicates[name] = tuple(rng.choice(sorts)
                                         for _ in range(rng.randint(0, 2)))
        else:
            sig.sorts.discard(rng.choice(sorts))

    def test_interleaved_changes_and_translations(self):
        rng = random.Random(5150)
        outcomes = set()
        for _ in range(150):
            sig = Signature()
            for _ in range(rng.randint(1, 30)):
                for _ in range(rng.choice((0, 1, 1, 2, 5))):
                    self._change(rng, sig)
                if sig.sorts and sig.predicates:
                    f = _rand_any_formula(rng, sig, rng.randint(0, 3))
                    g = _rand_any_formula(rng, sig, rng.randint(0, 2))
                    outcomes.add(self._assert_as_oracle(sig, f, g))
        assert {"ok", "SortError"} <= outcomes

    def test_same_names_in_two_orders_give_the_same_bytes(self):
        rng = random.Random(77)
        for _ in range(100):
            sorts = rng.sample(GROWTH_NAMES, rng.randint(1, 6))
            preds = {name: tuple(rng.choice(sorts)
                                 for _ in range(rng.randint(0, 2)))
                     for name in rng.sample(GROWTH_NAMES, rng.randint(1, 6))}
            f = _rand_any_formula(rng, Signature(sorts, preds), 3)
            payloads = set()
            for _ in range(3):
                sig = Signature()
                steps = [("sort", s) for s in sorts]
                steps += [("pred", p) for p in preds]
                rng.shuffle(steps)
                # a predicate after its sorts; a translation in between
                steps.sort(key=lambda step: step[0] == "pred")
                for kind, name in steps:
                    if kind == "sort":
                        sig.sorts.add(name)
                    else:
                        sig.add_predicate(name, preds[name])
                    if rng.random() < 0.3:
                        translation_context(sig)
                got = _outcome(translate, sig, f)
                payloads.add(got[1:3] if got[0] == "ok" else got)
            assert len(payloads) == 1

    def test_a_free_variable_named_like_a_sort(self):
        # the known translate defect: the context declares a three times,
        # which check_context rejects, and the front keeps that byte for byte
        sig = Signature({"a"}, {"a": (), "q": ("a",)})
        ctx, ty = translate(sig, Pred("q", ("a",)))
        assert f"{context_str(ctx)} |- {type_str(ty)}" == (
            "a : U0, a : U0, q(x1:a) : U0, a : a |- q(a)")
        with pytest.raises(TypeTheoryError, match="duplicate declaration"):
            check_context(ctx)
        assert self._assert_as_oracle(sig, Pred("q", ("a",)),
                                      Pred("a")) == "ok"
