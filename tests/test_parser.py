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

from opptypes import (Atom, Formula, ParseError, Pi, Pred, TypeExpr, Forall,
                      parse, parse_formula, parse_term, parse_type)
from opptypes import logic, syntax

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


def _unwrap(tree, cls, field):
    """Depth of a chain of cls nodes through field, and what ends it; read
    with a loop, because == on a deep chain would recurse."""
    depth = 0
    while isinstance(tree, cls):
        tree, depth = getattr(tree, field), depth + 1
    return depth, tree


class TestDeepNesting:
    # terms still nest through Python frames, about 247 parentheses deep
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

    def test_check_reads_deep_parentheses(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opptypes", "check", "-"],
            input="atom a; onf " + "(" * DEEP + "a" + ")" * DEEP + ";",
            capture_output=True, text=True, cwd=REPO)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("ok    [1:1] atom: atom a : U0\n"
                               "ok    [1:9] onf: a\n")


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
