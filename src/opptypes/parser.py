"""Parser for the concrete syntax.

Grammar sketch (identifiers are [a-zA-Z][a-zA-Z0-9_]*, `--` starts a line
comment, directives end with `;`):

    type    ::= type ('->' | '<~' | '+' | '*') type | '~' type
              | ('Pi' | 'Sg') ident ':' type '.' type
              | ident | ident '(' term {',' term} ')' | '(' type ')'

    term    ::= '\\' ident ':' type '.' term
              | 'split' appterm 'as' '(' ident ',' ident ')' '=>' term
              | appterm
    appterm ::= preterm preterm*                   -- application, left assoc
    preterm ::= ('p1'|'p2'|'inl'|'inr') preterm | tatomterm
    tatomterm ::= ident | '<' term ',' term '>'
              | 'case' appterm 'of' '{' 'inl' ident '=>' term
                                       '|' 'inr' ident '=>' term '}'
              | '(' term ':' type ')' | '(' term ')'

    formula ::= formula ('=>' | '<~' | '|' | '&') formula | '~' formula
              | ('all' | 'ex') ident ':' ident '.' formula
              | ident | ident '(' ident {',' ident} ')' | '(' formula ')'

Types and formulas take precedence and associativity from the fixity
tables syntax.FIXITY and logic.FIXITY, which the printer reads too.
Prefix `~` binds tightest; `*` (`&`) binds tighter than `+` (`|`); the
arrows are right-associative at the lowest infix level and may not be
mixed without parentheses; binders extend as far right as possible.  One
precedence loop reads both on an explicit stack, so parentheses, binders
and `~` nest without using Python frames.  Terms are read by recursive
descent.  An argument list attaches to an identifier only when the `(` is
adjacent (no space), which is what keeps `equal a (b)` unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from . import logic, script, syntax
from .duality import BASIS_NAMES
from .errors import ParseError
from .syntax import ARROW, BINDER, PREFIX

RESERVED = frozenset("""
    Pi Sg p1 p2 inl inr case of split as all ex
    atom pred assume check infer dual onf equal expand translate nnf
    inhabit depth basis
""".split())

_DIRECTIVES = {kw: cls for cls, kw in script.DIRECTIVE_KEYWORDS.items()}

# the level of a bracket on the precedence stack, below every operator
_OPEN = -1


def _operators(fixity):
    """A fixity table as the parser reads it: infix symbol -> (class,
    level), the prefix as (symbol, class), binder keyword -> class."""
    infix, binders = {}, {}
    for cls, (sym, level) in fixity.items():
        if level == BINDER:
            binders[sym] = cls
        elif level == PREFIX:
            prefix = (sym, cls)
        else:
            infix[sym] = (cls, level)
    return infix, prefix, binders


_TYPE_OPS = _operators(syntax.FIXITY)
_FORMULA_OPS = _operators(logic.FIXITY)

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

    # -- types and formulas ---------------------------------------------------

    def type_(self) -> syntax.TypeExpr:
        return self._expr(_TYPE_OPS, syntax.Atom, self.term_,
                          self._type_domain)

    def formula_(self) -> logic.Formula:
        return self._expr(_FORMULA_OPS, logic.Pred, self.expect_ident,
                          self._sort_domain)

    def _expr(self, ops, atom, arg, domain):
        """One type or formula, read by precedence on an explicit stack.

        ops is the parser's view of a fixity table (see _operators); atom
        is the class of an operand that is no operator application, an
        identifier with arguments read by arg; domain reads the part of a
        binder from after its ':' up to its body.  The stack holds
        (level, cls, args) entries: an infix operator with its left
        operand, a prefix, or a binder with its variable and domain, each
        waiting for the operand that completes cls(*args, operand).  A '('
        or a type binder's ':' is a bracket entry at level _OPEN, with the
        symbol that closes it and, for a binder, its class and variable.
        Nesting thus costs stack entries, not Python frames.
        """
        infix, prefix, binders = ops
        tokens, stack = self.tokens, []
        while True:
            # an operand: prefixes, parentheses and binders, then an atom
            while True:
                tok = tokens[self.i]
                if tok.kind == "word" and tok.value in binders:
                    self.i += 1
                    var = self.expect_ident()
                    self.expect_sym(":")
                    domain(stack, binders[tok.value], var)
                    continue
                if tok.kind != "sym":
                    break
                if tok.value == prefix[0]:
                    stack.append((PREFIX, prefix[1], ()))
                elif tok.value == "(":
                    stack.append((_OPEN, ")", None))
                else:
                    break
                self.i += 1
            x = self._applied(atom, arg)
            # the operators after it
            while True:
                tok = tokens[self.i]
                op = infix.get(tok.value) if tok.kind == "sym" else None
                if op is not None:
                    cls, level = op
                    # tighter operators, and an equal one that associates
                    # to the left, take x as their last operand
                    while stack and (stack[-1][0] > level
                                     or stack[-1][0] == level != ARROW):
                        _, con, args = stack.pop()
                        x = con(*args, x)
                    if (level == ARROW and stack and stack[-1][0] == ARROW
                            and stack[-1][1] is not cls):
                        self.fail("mixed arrows need parentheses")
                    stack.append((level, cls, (x,)))
                    self.i += 1
                    break
                # anything else closes every binder up to the innermost
                # bracket, or ends the expression
                while stack and stack[-1][0] >= BINDER:
                    _, con, args = stack.pop()
                    x = con(*args, x)
                if not stack:
                    return x
                _, closer, binder = stack.pop()
                self.expect_sym(closer)
                if binder is not None:
                    stack.append((BINDER, binder[0], (binder[1], x)))
                    break

    def _type_domain(self, stack, cls, var):
        stack.append((_OPEN, ".", (cls, var)))

    def _sort_domain(self, stack, cls, var):
        sort = self.expect_ident()
        self.expect_sym(".")
        stack.append((BINDER, cls, (var, sort)))

    def _applied(self, cls, arg):
        """An identifier, with arguments when '(' follows it unspaced."""
        tok = self.peek()
        name = self.expect_ident()
        nxt = self.peek()
        if not (nxt.kind == "sym" and nxt.value == "("
                and nxt.start == tok.end):
            return cls(name)
        self.advance()
        return cls(name, self._list(arg))

    def _list(self, item) -> tuple:
        """item {',' item} ')'."""
        items = [item()]
        while self.at_sym(","):
            self.advance()
            items.append(item())
        self.expect_sym(")")
        return tuple(items)

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
        cls = _DIRECTIVES.get(kw)
        if cls is None:
            self.fail(f"unknown directive {kw!r}",
                      expected=tuple(sorted(_DIRECTIVES)))
        self.advance()

        if kw == "atom":
            fields = (self.expect_ident(),)
        elif kw == "pred":
            name = self.expect_ident()
            self.expect_sym("(")
            fields = (name, self._list(self.type_))
        elif kw in ("assume", "check"):
            subject = self.expect_ident() if kw == "assume" else self.term_()
            self.expect_sym(":")
            fields = (subject, self.type_())
        elif kw == "infer":
            fields = (self.term_(),)
        elif kw in ("dual", "onf"):
            fields = (self.type_(),)
        elif kw == "equal":
            fields = (self.type_(), self.type_())
        elif kw == "expand":
            ty = self.type_()
            self.expect_word("basis")
            btok = self.peek()
            bname = self.expect_word().value
            if bname not in BASIS_NAMES:
                raise ParseError(f"unknown basis {bname!r}",
                                 btok.line, btok.col,
                                 expected=tuple(sorted(BASIS_NAMES)))
            fields = (ty, BASIS_NAMES[bname])
        elif kw in ("translate", "nnf"):
            fields = (self.formula_(),)
        else:
            ty = self.type_()
            self.expect_word("depth")
            tok = self.peek()
            if tok.kind != "int":
                self.fail(f"found {tok.value!r}", expected=("integer",))
            fields = (ty, int(self.advance().value))

        end = self.expect_sym(";")
        return cls(*fields, span=script.Span(start.line, start.col,
                                              end.line, end.col))


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
