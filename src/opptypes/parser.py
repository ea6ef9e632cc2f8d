"""Recursive-descent parser for the concrete syntax.

Grammar sketch (identifiers are [a-zA-Z][a-zA-Z0-9_]*, `--` starts a line
comment, directives end with `;`):

    type    ::= sum (('->' | '<~') type)?          -- right assoc, no mixing
    sum     ::= prod ('+' prod)*
    prod    ::= prefix ('*' prefix)*
    prefix  ::= '~' prefix | binder | tatom
    binder  ::= ('Pi' | 'Sg') ident ':' type '.' type
    tatom   ::= ident | ident '(' term {',' term} ')' | '(' type ')'

    term    ::= '\\' ident ':' type '.' term
              | 'split' appterm 'as' '(' ident ',' ident ')' '=>' term
              | appterm
    appterm ::= preterm preterm*                   -- application, left assoc
    preterm ::= ('p1'|'p2'|'inl'|'inr') preterm | tatomterm
    tatomterm ::= ident | '<' term ',' term '>'
              | 'case' appterm 'of' '{' 'inl' ident '=>' term
                                       '|' 'inr' ident '=>' term '}'
              | '(' term ':' type ')' | '(' term ')'

    formula ::= orf (('=>' | '<~') formula)?       -- right assoc, no mixing
    orf     ::= andf ('|' andf)*
    andf    ::= negf ('&' negf)*
    negf    ::= '~' negf | ('all'|'ex') ident ':' ident '.' formula | fatom
    fatom   ::= ident | ident '(' ident {',' ident} ')' | '(' formula ')'

Prefix `~` binds tightest; `*` binds tighter than `+`; the arrows are
right-associative at equal precedence and may not be mixed without
parentheses; binders extend as far right as possible.  An argument list
attaches to an identifier only when the `(` is adjacent (no space), which
is what keeps `equal a (b)` unambiguous.  A run of prefix operators is
read with a loop, not by recursion, so deep towers of `~` parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from . import logic, script, syntax
from .duality import BASIS_NAMES
from .errors import ParseError

RESERVED = frozenset("""
    Pi Sg p1 p2 inl inr case of split as all ex
    atom pred assume check infer dual onf equal expand translate nnf
    inhabit depth basis
""".split())

_PREFIX_TERMS = {"p1": syntax.Proj1, "p2": syntax.Proj2,
                 "inl": syntax.Inl, "inr": syntax.Inr}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<word>[a-zA-Z][a-zA-Z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<sym>->|<~|=>|[()<>,:;.*+~\\{}|&])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str      # "word" | "int" | "sym" | "eof"
    value: str
    line: int
    col: int
    start: int     # absolute offsets, for adjacency checks
    end: int


def tokenize(text: str) -> List[Token]:
    tokens = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - bol + 1)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            bol = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(Token(kind, m.group(), line, pos - bol + 1,
                                pos, m.end()))
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - bol + 1,
                        len(text), len(text)))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.value == sym:
            return self.advance()
        self.fail(f"found {tok.value!r}" if tok.kind != "eof"
                  else "unexpected end of input", expected=(repr(sym),))

    def expect_word(self, word: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind == "word" and (word is None or tok.value == word):
            return self.advance()
        want = word if word is not None else "identifier"
        self.fail(f"found {tok.value!r}" if tok.kind != "eof"
                  else "unexpected end of input", expected=(want,))

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind == "word" and tok.value not in RESERVED:
            return self.advance().value
        if tok.kind == "word":
            self.fail(f"{tok.value!r} is a reserved word",
                      expected=("identifier",))
        self.fail(f"found {tok.value!r}" if tok.kind != "eof"
                  else "unexpected end of input", expected=("identifier",))

    def at_sym(self, *syms: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value in syms

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.value in words

    # -- types -------------------------------------------------------------

    def type_(self) -> syntax.TypeExpr:
        first = self.sum_()
        if not self.at_sym("->", "<~"):
            return first
        op = self.advance().value
        operands = [first]
        while True:
            operands.append(self.sum_())
            if self.at_sym("->", "<~"):
                nxt = self.peek().value
                if nxt != op:
                    self.fail("mixed arrows need parentheses")
                self.advance()
            else:
                break
        result = operands[-1]
        for left in reversed(operands[:-1]):
            if op == "->":
                result = syntax.Fun(left, result)
            else:
                result = syntax.CoFun(left, result)
        return result

    def sum_(self) -> syntax.TypeExpr:
        t = self.prod_()
        while self.at_sym("+"):
            self.advance()
            t = syntax.Sum(t, self.prod_())
        return t

    def prod_(self) -> syntax.TypeExpr:
        t = self.type_prefix()
        while self.at_sym("*"):
            self.advance()
            t = syntax.Prod(t, self.type_prefix())
        return t

    def type_prefix(self) -> syntax.TypeExpr:
        opps = 0
        while self.at_sym("~"):
            self.advance()
            opps += 1
        if self.at_word("Pi", "Sg"):
            kw = self.advance().value
            var = self.expect_ident()
            self.expect_sym(":")
            gen = self.type_()
            self.expect_sym(".")
            body = self.type_()
            cls = syntax.Pi if kw == "Pi" else syntax.Sigma
            t = cls(var, gen, body)
        else:
            t = self.type_atom()
        for _ in range(opps):
            t = syntax.Opp(t)
        return t

    def type_atom(self) -> syntax.TypeExpr:
        if self.at_sym("("):
            self.advance()
            t = self.type_()
            self.expect_sym(")")
            return t
        tok = self.peek()
        name = self.expect_ident()
        nxt = self.peek()
        if (nxt.kind == "sym" and nxt.value == "("
                and nxt.start == tok.end):
            self.advance()
            args = [self.term_()]
            while self.at_sym(","):
                self.advance()
                args.append(self.term_())
            self.expect_sym(")")
            return syntax.Atom(name, tuple(args))
        return syntax.Atom(name)

    # -- terms ---------------------------------------------------------------

    def term_(self) -> syntax.TermExpr:
        if self.at_sym("\\"):
            self.advance()
            var = self.expect_ident()
            self.expect_sym(":")
            dom = self.type_()
            self.expect_sym(".")
            return syntax.Lam(var, dom, self.term_())
        if self.at_word("split"):
            self.advance()
            scrut = self.appterm()
            self.expect_word("as")
            self.expect_sym("(")
            v1 = self.expect_ident()
            self.expect_sym(",")
            v2 = self.expect_ident()
            self.expect_sym(")")
            self.expect_sym("=>")
            return syntax.Split(scrut, v1, v2, self.term_())
        return self.appterm()

    def _starts_preterm(self) -> bool:
        tok = self.peek()
        if tok.kind == "word":
            return tok.value not in RESERVED or tok.value in (
                "p1", "p2", "inl", "inr", "case")
        return tok.kind == "sym" and tok.value in ("(", "<")

    def appterm(self) -> syntax.TermExpr:
        t = self.preterm()
        while self._starts_preterm():
            t = syntax.App(t, self.preterm())
        return t

    def preterm(self) -> syntax.TermExpr:
        prefixes = []
        while self.at_word(*_PREFIX_TERMS):
            prefixes.append(_PREFIX_TERMS[self.advance().value])
        t = self.term_atom()
        for cls in reversed(prefixes):
            t = cls(t)
        return t

    def term_atom(self) -> syntax.TermExpr:
        if self.at_sym("("):
            self.advance()
            t = self.term_()
            if self.at_sym(":"):
                self.advance()
                ty = self.type_()
                self.expect_sym(")")
                return syntax.Ann(t, ty)
            self.expect_sym(")")
            return t
        if self.at_sym("<"):
            self.advance()
            fst = self.term_()
            self.expect_sym(",")
            snd = self.term_()
            self.expect_sym(">")
            return syntax.Pair(fst, snd)
        if self.at_word("case"):
            self.advance()
            scrut = self.appterm()
            self.expect_word("of")
            self.expect_sym("{")
            self.expect_word("inl")
            lvar = self.expect_ident()
            self.expect_sym("=>")
            lbranch = self.term_()
            self.expect_sym("|")
            self.expect_word("inr")
            rvar = self.expect_ident()
            self.expect_sym("=>")
            rbranch = self.term_()
            self.expect_sym("}")
            return syntax.Case(scrut, lvar, lbranch, rvar, rbranch)
        return syntax.Var(self.expect_ident())

    # -- formulas ------------------------------------------------------------

    def formula_(self) -> logic.Formula:
        first = self.orf()
        if not self.at_sym("=>", "<~"):
            return first
        op = self.advance().value
        operands = [first]
        while True:
            operands.append(self.orf())
            if self.at_sym("=>", "<~"):
                if self.peek().value != op:
                    self.fail("mixed arrows need parentheses")
                self.advance()
            else:
                break
        result = operands[-1]
        for left in reversed(operands[:-1]):
            if op == "=>":
                result = logic.Impl(left, result)
            else:
                result = logic.CoImpl(left, result)
        return result

    def orf(self) -> logic.Formula:
        f = self.andf()
        while self.at_sym("|"):
            self.advance()
            f = logic.Or(f, self.andf())
        return f

    def andf(self) -> logic.Formula:
        f = self.negf()
        while self.at_sym("&"):
            self.advance()
            f = logic.And(f, self.negf())
        return f

    def negf(self) -> logic.Formula:
        negs = 0
        while self.at_sym("~"):
            self.advance()
            negs += 1
        if self.at_word("all", "ex"):
            kw = self.advance().value
            var = self.expect_ident()
            self.expect_sym(":")
            sort = self.expect_ident()
            self.expect_sym(".")
            body = self.formula_()
            cls = logic.Forall if kw == "all" else logic.Exists
            f = cls(var, sort, body)
        else:
            f = self.formula_atom()
        for _ in range(negs):
            f = logic.Neg(f)
        return f

    def formula_atom(self) -> logic.Formula:
        if self.at_sym("("):
            self.advance()
            f = self.formula_()
            self.expect_sym(")")
            return f
        tok = self.peek()
        name = self.expect_ident()
        nxt = self.peek()
        if (nxt.kind == "sym" and nxt.value == "("
                and nxt.start == tok.end):
            self.advance()
            args = [self.expect_ident()]
            while self.at_sym(","):
                self.advance()
                args.append(self.expect_ident())
            self.expect_sym(")")
            return logic.Pred(name, tuple(args))
        return logic.Pred(name)

    # -- directives ----------------------------------------------------------

    def script_(self) -> script.Script:
        directives = []
        while self.peek().kind != "eof":
            directives.append(self.directive())
        return script.Script(tuple(directives))

    def directive(self):
        start = self.peek()
        if start.kind != "word":
            self.fail(f"found {start.value!r}" if start.kind != "eof"
                      else "unexpected end of input",
                      expected=("directive keyword",))
        kw = start.value

        if kw == "atom":
            self.advance()
            name = self.expect_ident()
            d = script.AtomDecl(name, span=None)
        elif kw == "pred":
            self.advance()
            name = self.expect_ident()
            self.expect_sym("(")
            args = [self.type_()]
            while self.at_sym(","):
                self.advance()
                args.append(self.type_())
            self.expect_sym(")")
            d = script.PredDecl(name, tuple(args), span=None)
        elif kw == "assume":
            self.advance()
            var = self.expect_ident()
            self.expect_sym(":")
            d = script.Assume(var, self.type_(), span=None)
        elif kw == "check":
            self.advance()
            term = self.term_()
            self.expect_sym(":")
            d = script.CheckDirective(term, self.type_(), span=None)
        elif kw == "infer":
            self.advance()
            d = script.InferDirective(self.term_(), span=None)
        elif kw == "dual":
            self.advance()
            d = script.DualDirective(self.type_(), span=None)
        elif kw == "onf":
            self.advance()
            d = script.OnfDirective(self.type_(), span=None)
        elif kw == "equal":
            self.advance()
            left = self.type_()
            d = script.EqualDirective(left, self.type_(), span=None)
        elif kw == "expand":
            self.advance()
            ty = self.type_()
            self.expect_word("basis")
            btok = self.peek()
            bname = self.expect_word().value
            if bname not in BASIS_NAMES:
                raise ParseError(f"unknown basis {bname!r}",
                                 btok.line, btok.col,
                                 expected=tuple(sorted(BASIS_NAMES)))
            d = script.ExpandDirective(ty, BASIS_NAMES[bname], span=None)
        elif kw == "translate":
            self.advance()
            d = script.TranslateDirective(self.formula_(), span=None)
        elif kw == "nnf":
            self.advance()
            d = script.NnfDirective(self.formula_(), span=None)
        elif kw == "inhabit":
            self.advance()
            ty = self.type_()
            self.expect_word("depth")
            tok = self.peek()
            if tok.kind != "int":
                self.fail(f"found {tok.value!r}", expected=("integer",))
            depth = int(self.advance().value)
            d = script.InhabitDirective(ty, depth, span=None)
        else:
            self.fail(f"unknown directive {kw!r}",
                      expected=tuple(sorted(script.DIRECTIVE_KEYWORDS.values())))

        end = self.expect_sym(";")
        span = script.Span(start.line, start.col, end.line, end.col)
        return type(d)(*_payload_fields(d), span=span)


def _payload_fields(d):
    from dataclasses import fields
    return tuple(getattr(d, f.name) for f in fields(d) if f.name != "span")


def parse(text: str) -> script.Script:
    """Parse a whole script."""
    return Parser(text).script_()


def _parse_entire(text: str, production: str):
    p = Parser(text)
    result = getattr(p, production)()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input starting at {tok.value!r}",
                         tok.line, tok.col)
    return result


def parse_type(text: str) -> syntax.TypeExpr:
    return _parse_entire(text, "type_")


def parse_term(text: str) -> syntax.TermExpr:
    return _parse_entire(text, "term_")


def parse_formula(text: str) -> logic.Formula:
    return _parse_entire(text, "formula_")
