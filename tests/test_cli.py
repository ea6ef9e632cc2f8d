"""Concrete syntax, the script runner, and the command-line entry point."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import opptypes.script as s
from opptypes import (Ann, App, Atom, Fun, Inl, Lam, Opp, ParseError, Pi,
                      Proj1, Sigma, Sum, Var, bounded_inhabit, declare_term,
                      parse, parse_term, parse_type, run, script_str,
                      term_str, type_str, DepthCapExceeded)
from opptypes.runner import DEEP_INPUT, report_json, report_text

from generators import (rand_script, rand_term, rand_type, std_ctx,
                        with_term_args)

REPO = Path(__file__).resolve().parents[1]
# term_str of _pinned_terms(); regenerate with
# `PYTHONPATH=src:tests python tests/test_cli.py`, and only when the printed
# form of terms is meant to change
TERMS = REPO / "tests" / "golden" / "terms.json"


def _pinned_terms(n=1200, seed=20261018):
    rng = random.Random(seed)
    return [rand_term(rng, rng.randint(0, 5)) for _ in range(n)]


class TestParseExamples:
    def test_opposite_function(self):
        assert parse_type("~(a -> b)") == Opp(Fun(Atom("a"), Atom("b")))

    def test_dependent_pi(self):
        got = parse_type("Pi x:a. ~b(x)")
        assert got == Pi("x", Atom("a"), Opp(Atom("b", (Var("x"),))))

    def test_mixed_arrows_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_type("a -> b <~ c")
        assert "mixed arrows" in str(err.value)

    def test_precedence(self):
        assert parse_type("~a * b + c") == parse_type("((~a) * b) + c")
        assert parse_type("a -> b -> c") == parse_type("a -> (b -> c)")

    def test_tight_parens_distinguish_family_args(self):
        assert parse_type("p(x)") == Atom("p", (Var("x"),))
        # with a space the parenthesis starts a new type, not arguments
        with pytest.raises(ParseError):
            parse_type("p (x)")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("atom a;\ncheck x :: a;")
        assert err.value.line == 2
        assert err.value.col >= 10

    def test_reserved_words_rejected_as_identifiers(self):
        with pytest.raises(ParseError):
            parse_type("case")
        with pytest.raises(ParseError):
            parse("assume of : a;")

    def test_binder_after_term_arguments(self):
        # a type atom's term arguments, however they end, leave the
        # operator after them free to take a binder
        u = Atom("p", (Var("u"),))
        for arg, tree in (("f x", App(Var("f"), Var("x"))),
                          ("p1 x", Proj1(Var("x"))),
                          ("inl x", Inl(Var("x")))):
            left = Atom("p", (tree,))
            arrow = Fun(left, Pi("u", Atom("a"), u))
            text = f"p({arg}) -> Pi u:a. p(u)"
            assert parse_type(text) == arrow
            assert type_str(arrow) == text
            assert parse_type(f"p({arg}) + Sg u:a. p(u)") == Sum(
                left, Sigma("u", Atom("a"), u))
            assert parse_term(f"\\y:{text}. y") == Lam("y", arrow, Var("y"))
            assert parse_term(f"(y : {text})") == Ann(Var("y"), arrow)

    def test_terms(self):
        t = parse_term("\\x:a. <p1 x, p2 (f x)>")
        assert term_str(t) == "\\x:a. <p1 x, p2 (f x)>"

    def test_comments_and_spans(self):
        sc = parse("-- leading comment\natom a; atom b;\n")
        assert sc.directives[0].span.line == 2
        assert sc.directives[1].span.col > 1


class TestRoundTrip:
    def test_generated_scripts(self):
        rng = random.Random(20240810)
        for _ in range(300):
            sc = rand_script(rng)
            assert parse(script_str(sc)) == sc

    def test_generated_terms(self):
        rng = random.Random(11)
        for _ in range(300):
            t = rand_term(rng, rng.randint(0, 4))
            assert parse_term(term_str(t)) == t
        # the printed form, spacing included, is pinned too
        pinned = json.loads(TERMS.read_text(encoding="utf-8"))
        trees = _pinned_terms()
        assert len(pinned) == len(trees) >= 1000
        for t, text in zip(trees, pinned):
            assert term_str(t) == text
            assert parse_term(text) == t

    def test_generated_term_arguments(self):
        rng = random.Random(12)
        for _ in range(300):
            ty = with_term_args(rng, rand_type(rng, rng.randint(1, 4)))
            assert parse_type(type_str(ty)) == ty
            t = with_term_args(rng, rand_term(rng, rng.randint(1, 4)))
            assert parse_term(term_str(t)) == t

    def test_directive_examples(self):
        src = ('atom a; pred p(a); assume x : ~(a->b);\n'
               'check <p1 x, p2 x> : a * ~b;\n'
               'equal ~~a a; expand a + b basis sg_sum;\n'
               'translate ~(P & Q); nnf ~all x:s. P(x);\n'
               'inhabit a depth 3;')
        sc = parse(src)
        assert parse(script_str(sc)) == sc


class TestRun:
    def test_golden_script(self):
        report = run(parse(
            "atom a; atom b; assume x : ~(a->b);"
            "check <p1 x, p2 x> : a * ~b;"))
        assert report.ok
        assert [e.status for e in report.entries] == ["ok"] * 4

    def test_equal_directive(self):
        report = run(parse("atom a; equal ~~a a;"))
        assert report.ok

    def test_equal_failure_is_error_entry(self):
        report = run(parse("atom a; atom b; equal a b; atom c;"))
        assert not report.ok
        statuses = [e.status for e in report.entries]
        assert statuses == ["ok", "ok", "error", "ok"]  # keeps going

    def test_paraconsistency_script(self):
        report = run(parse(
            "atom a; atom b; assume x:a; assume y:~a; inhabit b depth 5;"))
        assert report.ok
        assert "no inhabitant" in report.entries[-1].payload

    def test_error_payload_names_the_error(self):
        report = run(parse("check x : a;"))
        assert report.entries[0].status == "error"
        assert "IllFormedType" in report.entries[0].payload

    def test_duplicate_declaration_reported(self):
        report = run(parse("atom a; atom a;"))
        assert [e.status for e in report.entries] == ["ok", "error"]

    def test_telescope_variables_skip_declared_names(self):
        # regression: a declared x1 made every later pred fail
        report = run(parse("atom a; atom x1; atom x3; pred p(a);"
                           "pred q(a, a, a); assume y : a;"
                           "assume h : q(y, y, y); check h : q(y, y, y);"))
        assert [e.status for e in report.entries] == ["ok"] * 8
        assert report.entries[4].payload == "pred q(a, a, a) : U0"

    def test_deterministic(self):
        src = ("atom a; atom b; pred p(a); assume x : ~(a->b);\n"
               "infer p1 x; onf ~(Pi v:a. p(v)); dual a * b;\n"
               "expand b <~ a basis pi_sum; inhabit a -> a depth 3;\n"
               "translate all x:s. R(x); nnf ~(P | Q);")
        r1, r2 = run(parse(src)), run(parse(src))
        assert report_json(r1) == report_json(r2)
        assert report_text(r1) == report_text(r2)


def _json_reference(report):
    """report_json as json.dumps writes it."""
    items = []
    for e in report.entries:
        span = None
        if e.span is not None:
            span = {"line": e.span.line, "col": e.span.col,
                    "end_line": e.span.end_line, "end_col": e.span.end_col}
        items.append({"status": e.status, "directive": e.directive,
                      "payload": e.payload, "span": span})
    return json.dumps(items, indent=2) + "\n"


class TestReportJson:
    def _assert_as_json_dumps(self, entries):
        report = s.Report(tuple(entries))
        assert report_json(report) == _json_reference(report)

    def test_empty_and_spanless_reports(self):
        assert report_json(s.Report(())) == "[]\n"
        span = s.Span(1, 1, 1, 8)
        self._assert_as_json_dumps([])
        self._assert_as_json_dumps(
            [s.ReportEntry("ok", "atom", "atom a : U0", None)])
        self._assert_as_json_dumps(
            [s.ReportEntry("ok", "atom", "atom a : U0", span),
             s.ReportEntry("error", "check", "x", None),
             s.ReportEntry("ok", "infer", "y : a", s.Span(2, 3, 4, 15))])

    def test_strings_are_escaped_as_json_dumps_does(self):
        payloads = ['say "hi"', "back\\slash \\u0041", "line\nbreak\ttab\r",
                    "".join(map(chr, range(32))), "\x7f/", "é ∀ → ¬ 𝔸",
                    "lone \ud800 and \udfff surrogates", ""]
        for text in payloads:
            self._assert_as_json_dumps(
                [s.ReportEntry(text, text, text, s.Span(1, 2, 3, 4)),
                 s.ReportEntry("ok", "nnf", text, None)])

    def test_generated_reports(self):
        rng = random.Random(4711)
        for _ in range(300):
            # printed and parsed again, so that the directives carry spans
            report = run(parse(script_str(rand_script(rng))))
            assert report_json(report) == _json_reference(report)


class TestBoundedInhabit:
    def test_assumption(self):
        ctx = declare_term(std_ctx(), "x", Atom("a"))
        assert bounded_inhabit(ctx, Atom("a"), 1) == Var("x")

    def test_identity(self):
        got = bounded_inhabit(std_ctx(), parse_type("a -> a"), 2)
        assert term_str(got) == "\\x:a. x"

    def test_exhausted(self):
        ctx = declare_term(declare_term(std_ctx(), "x", Atom("a")),
                           "y", parse_type("~a"))
        assert bounded_inhabit(ctx, Atom("b"), 6) is None
        assert bounded_inhabit(ctx, Atom("b"), 8) is None

    def test_depth_cap(self):
        with pytest.raises(DepthCapExceeded):
            bounded_inhabit(std_ctx(), Atom("a"), 9)

    def test_found_terms_recheck(self):
        from opptypes import check
        rng = random.Random(3)
        for _ in range(80):
            ctx = std_ctx()
            for i in range(rng.randint(1, 2)):
                ctx = declare_term(ctx, f"h{i}", rand_type(rng, 2))
            goal = rand_type(rng, rng.randint(0, 3))
            t = bounded_inhabit(ctx, goal, 4)
            if t is not None:
                check(ctx, t, goal)


GOLDEN_SRC = """\
-- golden checks
atom a;
atom b;
assume x : ~(a->b);
check <p1 x, p2 x> : a * ~b;
check x : a * ~b;
equal ~~a a;
inhabit a -> a depth 2;
"""


def _cli(*args, stdin=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "opptypes", *args],
        input=stdin, capture_output=True, text=True, cwd=REPO,
        env=None if env is None else {**os.environ, **env})


class TestCommandLine:
    def test_check_ok_and_exit_zero(self, tmp_path):
        f = tmp_path / "golden.ptt"
        f.write_text(GOLDEN_SRC, encoding="utf-8")
        proc = _cli("check", str(f))
        assert proc.returncode == 0, proc.stderr
        assert "no inhabitant" not in proc.stdout

    def test_check_failure_exit_one(self, tmp_path):
        f = tmp_path / "bad.ptt"
        f.write_text("atom a; atom b; assume x:a; check x : b;",
                     encoding="utf-8")
        proc = _cli("check", str(f))
        assert proc.returncode == 1
        assert "error" in proc.stdout

    def test_syntax_error_exit_two(self, tmp_path):
        f = tmp_path / "syn.ptt"
        # a missing semicolon, and an integer too long for int()
        for text in ("atom a", "atom a; inhabit a depth " + "1" * 5000 + ";"):
            f.write_text(text, encoding="utf-8")
            proc = _cli("check", str(f))
            assert proc.returncode == 2
            assert proc.stderr.startswith("syntax error")
            assert proc.stderr.count("\n") == 1, proc.stderr[:300]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="PYTHONINTMAXSTRDIGITS is read from 3.11 on")
    def test_integer_longer_than_the_interpreter_limit(self, tmp_path):
        # the interpreter's int(str) limit, set below the parser's 4300
        # digits, bounds a literal too
        f = tmp_path / "long.ptt"
        f.write_text("atom a; inhabit a depth " + "1" * 1000 + ";",
                     encoding="utf-8")
        proc = _cli("check", str(f), env={"PYTHONINTMAXSTRDIGITS": "640"})
        assert proc.returncode == 2
        assert proc.stderr.startswith("syntax error")
        assert "1000 digits is longer than 640" in proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr[:300]

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_script_is_a_usage_error(self, tmp_path, kind):
        f = tmp_path / "script.ptt"
        if kind == "directory":
            f.mkdir()
        elif kind == "not_utf8":
            f.write_bytes("atom \xe9;".encode("latin-1"))
        proc = _cli("check", str(f))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read {f}: ")
        assert proc.stderr.count("\n") == 1

    def test_stdin(self):
        proc = _cli("check", "-", stdin="atom a; equal ~~a a;")
        assert proc.returncode == 0

    def test_json_is_byte_identical_and_valid(self, tmp_path):
        import jsonschema
        f = tmp_path / "golden.ptt"
        f.write_text(GOLDEN_SRC, encoding="utf-8")
        out1 = _cli("check", str(f), "--json")
        out2 = _cli("check", str(f), "--json")
        assert out1.returncode == 0
        assert out1.stdout == out2.stdout
        schema = json.loads(
            (REPO / "docs" / "report_schema.json").read_text())
        payload = json.loads(out1.stdout)
        jsonschema.validate(payload, schema)
        assert [e["directive"] for e in payload] == [
            "atom", "atom", "assume", "check", "check", "equal", "inhabit"]

    def test_oneshot_onf(self):
        proc = _cli("onf", "~(a -> b)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "~b <~ ~a"

    def test_oneshot_dual(self):
        proc = _cli("dual", "a * b")
        assert proc.stdout.strip() == "~a + ~b"

    def test_oneshot_equal(self):
        assert _cli("equal", "~(a*b)", "~a + ~b").returncode == 0
        assert _cli("equal", "a", "b").returncode == 1

    def test_oneshot_equal_stdin(self):
        proc = _cli("equal", stdin="~(a*b)\n~a + ~b\n")
        assert proc.returncode == 0

    def test_oneshot_equal_needs_two_operands(self):
        # on the command line, or one per non-blank line of stdin
        for operands in (["a"], ["a", "b", "c"]):
            for proc in (_cli("equal", *operands),
                         _cli("equal", stdin="\n\n".join(operands) + "\n")):
                assert proc.returncode == 2
                assert proc.stdout == ""
                assert proc.stderr == (f"error: expected 2 operands, "
                                       f"got {len(operands)}\n")

    @pytest.mark.parametrize("command, wanted", [("onf", "1 operand"),
                                                 ("equal", "2 operands")],
                             ids=["onf", "equal"])
    def test_oneshot_empty_stdin_is_a_usage_error(self, command, wanted):
        proc = _cli(command, stdin=" \n\n")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: expected {wanted}, got 0\n"

    def test_oneshot_operand_on_stdin_may_span_lines(self):
        proc = _cli("onf", stdin="~(a\n -> b)\n")
        assert (proc.returncode, proc.stdout) == (0, "~b <~ ~a\n")

    def test_oneshot_nnf(self):
        proc = _cli("nnf", "~(P => Q)")
        assert proc.stdout.strip() == "~Q <~ ~P"

    def test_oneshot_syntax_error(self):
        assert _cli("onf", "a -> b <~ c").returncode == 2

    def test_usage_error(self):
        assert _cli("frobnicate").returncode == 2


# Reports pinned byte for byte: the expected text and JSON of each script
# live next to it in tests/golden/.
GOLDEN = {"golden": REPO / "scripts" / "golden.ptt",
          "paraconsistency": REPO / "scripts" / "paraconsistency.ptt",
          "renaming": REPO / "tests" / "golden" / "renaming.ptt",
          "algebra": REPO / "tests" / "golden" / "algebra.ptt",
          "errors": REPO / "tests" / "golden" / "errors.ptt"}


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_is_byte_identical(self, name):
        report = run(parse(GOLDEN[name].read_text(encoding="utf-8")))
        pinned = REPO / "tests" / "golden"
        assert report_text(report) == (pinned / f"{name}.txt").read_text(
            encoding="utf-8")
        assert report_json(report) == (pinned / f"{name}.json").read_text(
            encoding="utf-8")

    def test_cli_prints_the_pinned_json(self):
        proc = _cli("check", str(GOLDEN["renaming"]), "--json")
        assert proc.returncode == 1
        assert proc.stdout == (REPO / "tests" / "golden" / "renaming.json"
                               ).read_text(encoding="utf-8")

    def test_fresh_names(self):
        pinned = (REPO / "tests" / "golden" / "renaming.txt").read_text(
            encoding="utf-8")
        assert "infer: \\x:a. f x : Pi x1:a. p(x1)\n" in pinned
        assert ("check: TypeMismatch: term v1 has type p(v), expected a\n"
                in pinned)


def _deep_projection(depth):
    t = Var("x")
    for _ in range(depth):
        t = Proj1(t)
    return t


class TestDeepInput:
    def test_run_records_the_error_and_keeps_going(self):
        sc = s.Script((s.AtomDecl("a"),
                       s.InferDirective(_deep_projection(3000)),
                       s.AtomDecl("b")))
        report = run(sc)
        assert [e.status for e in report.entries] == ["ok", "error", "ok"]
        assert report.entries[1].payload == DEEP_INPUT

    def test_parser_reads_a_deep_tower(self):
        sc = parse("atom a; onf " + "~" * 3000 + "a;")
        ty, depth = sc.directives[1].type, 0
        while isinstance(ty, Opp):  # == on the tower would recurse
            ty, depth = ty.inner, depth + 1
        assert (ty, depth) == (Atom("a"), 3000)

    def test_check_normalizes_a_deep_tower(self):
        proc = _cli("check", "-", stdin="atom a; onf " + "~" * 3001 + "a;")
        assert proc.returncode == 0
        assert proc.stdout == ("ok    [1:1] atom: atom a : U0\n"
                               "ok    [1:9] onf: ~a\n")

    def test_check_reports_deep_input_and_exits_one(self):
        proc = _cli("check", "-", stdin="atom a; infer " + "p1 " * 3000 + "x;")
        assert proc.returncode == 1
        assert proc.stdout == ("ok    [1:1] atom: atom a : U0\n"
                               f"error [1:9] infer: {DEEP_INPUT}\n")

    def test_oneshot_prints_one_line_and_exits_one(self):
        proc = _cli("dual", "~" * 3000 + "a")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {DEEP_INPUT}\n"

    def test_a_term_that_reduces_forever_is_not_deep_input(self):
        # two levels deep, but its normalization never ends: it runs out
        # of fuel, not of stack
        proc = _cli("onf", "p((\\x:a. x x) (\\x:a. x x))")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: NormalizationOverflow: term "
                               "normalization exceeded 100000 steps\n")


if __name__ == "__main__":
    TERMS.write_text("[\n" + ",\n".join(
        json.dumps(term_str(t)) for t in _pinned_terms()) + "\n]\n",
        encoding="utf-8")
