"""The concrete syntax: pinned parse errors, the fixity table, deep nesting.

tests/golden/parse_errors.json pins the exact error, position and expected
set of malformed types, formulas, terms and scripts.  Regenerate it with
`PYTHONPATH=src:tests python tests/test_parser.py`, and only when an error
message is meant to change.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

from dataclasses import fields
from string import Formatter
from typing import Tuple, get_type_hints

from opptypes import (Ann, App, Atom, Basis, Case, Formula, Inl, Lam, Pair,
                      ParseError, Pi, Pred, Proj1, Split, TermExpr, TypeExpr,
                      Forall, Var, parse, parse_formula, parse_term,
                      parse_type, script_str)
from opptypes import logic, script, syntax
from opptypes.parser import RESERVED

from generators import rand_concrete

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "golden" / "parse_errors.json"
PARSERS = {"type": parse_type, "formula": parse_formula, "term": parse_term,
           "script": parse}
DEEP = 3000


def _error(production, text):
    try:
        PARSERS[production](text)
    except ParseError as e:
        return str(e)
    return None


def test_parse_errors_are_pinned():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(corpus) >= 1000
    assert {production for production, _, _ in corpus} == set(PARSERS)
    wrong = [(text, error, _error(production, text))
             for production, text, error in corpus
             if _error(production, text) != error]
    assert wrong == []


def test_fixity_table_covers_every_operator_class():
    types = set(TypeExpr.__subclasses__()) - {Atom}
    assert set(syntax.FIXITY) == types
    assert set(logic.FIXITY) == set(Formula.__subclasses__()) - {Pred}
    # a connective sits at the level of the constructor translating it
    for cls, (_, level) in logic.FIXITY.items():
        con = logic.CONNECTIVES.get(cls, syntax.Opp)
        assert level == syntax.FIXITY[con][1], cls
    for table in (syntax.FIXITY, logic.FIXITY):
        symbols = [sym for sym, _ in table.values()]
        assert len(set(symbols)) == len(symbols)
    # one entry for each term class but Var, whose template names each
    # field once, in field order
    assert set(syntax.TERM_FIXITY) == set(TermExpr.__subclasses__()) - {Var}
    for cls, (_, template) in syntax.TERM_FIXITY.items():
        named = [name for _, name, _, _ in Formatter().parse(template)
                 if name is not None]
        assert named == [f.name for f in fields(cls)], cls
    # a field's annotation decides what the parser reads there: an
    # identifier, or an operand of one of the three sorts
    for cls in (*syntax.FIXITY, *logic.FIXITY, *syntax.TERM_FIXITY):
        for hint in get_type_hints(cls).values():
            assert hint in (str, TypeExpr, Formula, TermExpr), cls


def test_directive_table_covers_every_directive_class():
    others = {script.Span, script.Script, script.ReportEntry, script.Report}
    directives = {cls for cls in vars(script).values()
                  if isinstance(cls, type)
                  and cls.__module__ == script.__name__} - others
    assert set(script.DIRECTIVES) == directives
    keywords = list(script.DIRECTIVE_KEYWORDS.values())
    assert len(set(keywords)) == len(keywords)
    # a keyword, then each field but the span once, in field order, and ';'
    slots = (str, TypeExpr, TermExpr, Formula, Tuple[TypeExpr, ...], Basis,
             int)
    for cls, template in script.DIRECTIVES.items():
        keyword = script.DIRECTIVE_KEYWORDS[cls]
        assert template.startswith(keyword + " ") and keyword.isalpha()
        assert template.endswith(";"), cls
        named = [name for _, name, _, _ in Formatter().parse(template)
                 if name is not None]
        assert named == [f.name for f in fields(cls)
                         if f.name != "span"], cls
        hints = get_type_hints(cls)
        assert all(hints[name] in slots for name in named), cls
    assert RESERVED == {
        "Pi", "Sg", "all", "as", "assume", "atom", "basis", "case", "check",
        "depth", "dual", "equal", "ex", "expand", "infer", "inhabit", "inl",
        "inr", "nnf", "of", "onf", "p1", "p2", "pred", "split", "translate"}


def test_script_language_is_listed_once_per_keyword():
    # README's "Script language" block has one directive per keyword, and
    # the report schema's directive enum lists the same keywords
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Script language")[1].split("```")[1]
    keywords = [script.DIRECTIVE_KEYWORDS[type(d)]
                for d in parse(block.removeprefix("text")).directives]
    assert sorted(keywords) == sorted(script.DIRECTIVE_KEYWORDS.values())
    schema = json.loads((REPO / "docs" / "report_schema.json").read_text(
        encoding="utf-8"))
    enum = schema["items"]["properties"]["directive"]["enum"]
    assert enum == list(script.DIRECTIVE_KEYWORDS.values())


def test_slot_kinds_round_trip():
    # what rand_script never builds: compound and several predicate
    # argument types, every basis, and depths of one to three digits
    src = ("atom a;\natom b;\natom c;\npred r(a, b -> c, ~a * b);\n"
           "expand a basis pi_prod;\nexpand a basis pi_sum;\n"
           "expand a basis sg_prod;\nexpand a basis sg_sum;\n"
           "inhabit a depth 0;\ninhabit a depth 7;\ninhabit a depth 123;\n")
    sc = parse(src)
    assert script_str(sc) == src
    pred, *rest = sc.directives[3:]
    assert len(pred.arg_types) == 3
    assert [d.basis for d in rest[:4]] == list(Basis)
    assert [d.depth for d in rest[4:]] == [0, 7, 123]


def test_integer_slot_errors_name_the_token():
    assert _error("script", "atom a; inhabit a depth") == (
        "1:24: unexpected end of input (expected integer)")
    assert _error("script", "inhabit a depth x;") == (
        "1:17: found 'x' (expected integer)")
    # a literal longer than Python's default int(str) limit, its leading
    # zeros counted too, is an error at the literal, not a ValueError
    for digits in ("1" * 5000, "0" * 5000 + "3"):
        assert _error("script", f"atom a; inhabit a depth {digits};") == (
            f"1:25: integer literal of {len(digits)} digits is longer "
            "than 4300")


def test_operand_and_basis_slots_list_what_may_start_there():
    # an operand slot expects an identifier or any token opening a form of
    # its sort; in terms, a binder only where any term may stand
    assert _error("script", "equal a") == (
        "1:8: unexpected end of input "
        "(expected '(' or '~' or Pi or Sg or identifier)")
    assert _error("formula", "P & )") == (
        "1:5: found ')' (expected '(' or '~' or all or ex or identifier)")
    assert _error("term", "\\x:a. )") == (
        "1:7: found ')' (expected '(' or '<' or '\\\\' or case or "
        "identifier or inl or inr or p1 or p2 or split)")
    assert _error("term", "f (p1 \\x:a. x)") == (
        "1:7: found '\\\\' (expected '(' or '<' or case or identifier or "
        "inl or inr or p1 or p2)")
    # a basis slot lists the four basis names, whatever stands there
    for text, found in (("expand a basis 3;", "found '3'"),
                        ("expand a basis foo;", "unknown basis 'foo'")):
        assert _error("script", text) == (
            f"1:16: {found} (expected pi_prod or pi_sum or sg_prod or "
            f"sg_sum)")


def _unwrap(tree, cls, field):
    """Depth of a chain of cls nodes through field, and what ends it; read
    with a loop, because == on a deep chain would recurse.  field is a
    field name, or a function from a node to the next."""
    step = field if callable(field) else lambda node: getattr(node, field)
    depth = 0
    while isinstance(tree, cls):
        tree, depth = step(tree), depth + 1
    return depth, tree


def _nest(opening, closing):
    """x inside DEEP pairs of the strings opening(i) and closing(i)."""
    return ("".join(map(opening, range(DEEP))) + "x"
            + "".join(map(closing, reversed(range(DEEP)))))


class TestDeepNesting:
    def test_type_parentheses(self):
        assert parse_type("(" * DEEP + "a" + ")" * DEEP) == Atom("a")

    def test_formula_parentheses(self):
        assert parse_formula("(" * DEEP + "P" + ")" * DEEP) == Pred("P")

    def test_pi_chain(self):
        chain = parse_type("Pi x:(a). " * DEEP + "p(x)")
        assert _unwrap(chain, Pi, "body") == (DEEP, parse_type("p(x)"))

    def test_forall_chain(self):
        chain = parse_formula("all x:s. " * DEEP + "R(x)")
        assert _unwrap(chain, Forall, "body") == (DEEP, Pred("R", ("x",)))

    def test_term_parentheses(self):
        assert parse_term("(" * DEEP + "x" + ")" * DEEP) == Var("x")

    def test_pairs(self):
        pairs = parse_term(_nest(lambda i: "<x, ", lambda i: ">"))
        assert _unwrap(pairs, Pair, "snd") == (DEEP, Var("x"))
        assert pairs.fst == Var("x")

    def test_lambda_chain(self):
        chain = parse_term("\\x:a. " * DEEP + "x")
        assert _unwrap(chain, Lam, "body") == (DEEP, Var("x"))
        assert chain.dom == Atom("a")

    def test_split_chain(self):
        chain = parse_term("split s as (u, v) => " * DEEP + "x")
        assert _unwrap(chain, Split, "body") == (DEEP, Var("x"))
        assert (chain.scrut, chain.var1, chain.var2) == (Var("s"), "u", "v")

    def test_case_nested_in_both_branches(self):
        # the even levels nest in the right branch, the odd in the left
        tree = parse_term(_nest(
            lambda i: ("case x of { inl u => " if i % 2 else
                       "case x of { inl u => u | inr v => "),
            lambda i: " | inr v => v }" if i % 2 else " }"))
        depth, end = _unwrap(tree, Case, lambda c: (
            c.lbranch if isinstance(c.rbranch, Var) else c.rbranch))
        assert (depth, end) == (DEEP, Var("x"))

    def test_prefixes_mixed_with_application(self):
        # p1 inl (f (p1 inl (f ... x)))
        tree = parse_term(_nest(lambda i: "p1 inl (f ", lambda i: ")"))
        depth, end = _unwrap(tree, Proj1, lambda p: p.arg.arg.arg)
        assert (depth, end) == (DEEP, Var("x"))
        assert isinstance(tree.arg, Inl) and tree.arg.arg.fn == Var("f")
        # prefixes bind tighter: p1 inl ... p1 inl f x is an application
        tree = parse_term("p1 inl " * DEEP + "f x")
        assert isinstance(tree, App) and tree.arg == Var("x")
        assert _unwrap(tree.fn, (Proj1, Inl), "arg") == (2 * DEEP, Var("f"))

    def test_sorts_alternate(self):
        # (x : p((x : p(... x ...)))): term, type, term, ...
        tree = parse_term(_nest(lambda i: "(x : p(", lambda i: "))"))
        depth, end = _unwrap(tree, Ann, lambda a: a.type.args[0])
        assert (depth, end) == (DEEP, Var("x"))
        assert tree.term == Var("x") and tree.type.name == "p"

    def test_check_reads_deep_parentheses(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opptypes", "check", "-"],
            input="atom a; onf " + "(" * DEEP + "a" + ")" * DEEP + ";",
            capture_output=True, text=True, cwd=REPO)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("ok    [1:1] atom: atom a : U0\n"
                               "ok    [1:9] onf: a\n")

    def test_check_reads_parenthesized_terms(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opptypes", "check", "-"],
            input="atom a; assume x : a; infer " + "(" * 300 + "x"
                  + ")" * 300 + ";",
            capture_output=True, text=True, cwd=REPO)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("ok    [1:1] atom: atom a : U0\n"
                               "ok    [1:9] assume: assumed x : a\n"
                               "ok    [1:23] infer: x : a\n")


def _record(n=1500, seed=20261018):
    rng, corpus = random.Random(seed), {}
    while len(corpus) < n:
        production, text = rand_concrete(rng)
        error = _error(production, text)
        if error is not None:
            corpus.setdefault((production, text), error)
    lines = [json.dumps([p, t, e]) for (p, t), e in corpus.items()]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
