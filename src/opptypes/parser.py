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

The fixity tables syntax.FIXITY, logic.FIXITY and syntax.TERM_FIXITY
state this grammar, and the printer reads them too.  Prefix `~` binds
tightest; `*` (`&`) binds tighter than `+` (`|`); the arrows are
right-associative at the lowest infix level and may not be mixed without
parentheses; binders extend as far right as possible.  In terms, the
prefixes bind tighter than application, and a binder only starts a term,
so `f \\x:a. x` is no application.  One precedence loop reads all three
sorts on one explicit stack, so nesting of any kind, across sorts too,
uses no Python frames.  An argument list attaches to an identifier only
when the `(` is adjacent (no space), which keeps `equal a (b)` unambiguous.

Directives are read from their templates in script.DIRECTIVES, which the
printer writes too: a keyword, literal tokens and fields up to `;`, each
field read by its annotation (an identifier, a type, term or formula, a
comma list of types, a basis name or an integer).

A script is scanned by one re.split, which gives each token's text and
the blanks and comments before it (Tokens); line and column are worked
out only for a directive's span and for an error.  Token texts are read
at one index, Parser.i: expect steps over a literal token, a word or a
symbol, which their text alone tells apart; expect_ident reads an
identifier, and fail raises every ParseError.  No read passes eof, whose
empty text matches no literal, identifier, infix symbol or opening
token.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from string import Formatter
from typing import NamedTuple, Optional, Tuple, get_type_hints

from . import logic, script, syntax
from .duality import BASIS_NAMES, Basis
from .errors import ParseError
from .syntax import ARROW, ATOM, BINDER, PREFIX

# the level of a bracket on the precedence stack, below every operator
_OPEN = -1

# one match per token, with the blanks, newlines and comments before it;
# split gives each match's text between matches (always empty), blanks,
# token and, for a character no token starts with, that character.  \Z
# makes the end of the text the eof token.  A maximal run of blanks is
# followed by a token, the end or a bad character, so no match backtracks
# and a bad character costs no search
_SPLIT = re.compile(r"""
    ( [ \t\r\n]* (?: --[^\n]* [ \t\r\n]* )* )
    (?: ( [a-zA-Z][a-zA-Z0-9_]* | [0-9]+ | -> | <~ | => | [()<>,:;.*+~\\{}|&]
        | \Z )
      | (.) )
""", re.VERBOSE).split


class Token(NamedTuple):
    kind: str      # "word" | "int" | "sym" | "eof"
    value: str
    line: int
    col: int
    start: int     # absolute offsets, for adjacency checks
    end: int


class Tokens(Sequence):
    """The tokens of a text, from one split of it.  values[i] is the text
    of token i, empty for eof, and parts[3 * i + 1] the blanks and
    comments before it; a word's text is an identifier, an integer's
    digits.  Lines and columns are measured only where asked for, and a
    Token is built only when indexed."""

    def __init__(self, text: str):
        parts = _SPLIT(text)
        bad = parts[3::4]
        del parts[3::4]
        if parts[-5:-4] == [""]:        # eof was matched twice
            del parts[-3:]
        self.parts, self.values = parts, parts[2::3]
        # where positions last read to: part, offset, line, line start
        self._at = 0, 0, 1, 0
        if any(bad):
            c = next(filter(None, bad))
            raise ParseError(f"unexpected character {c!r}",
                             *self.positions(bad.index(c)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Token:
        value = self.values[i]
        line, col = self.positions(i % len(self.values))
        start = self._at[1]             # the offset positions read to
        kind = ("eof" if not value else "word" if value.isidentifier() else
                "int" if value.isdigit() else "sym")
        return Token(kind, value, line, col, start, start + len(value))

    def positions(self, *indices: int) -> list:
        """The line and column of each token of indices, in one list.
        Asked in increasing order, as the parser asks, each part of the
        text is read once."""
        at, offset, line, bol = self._at
        out = []
        for i in indices:
            k = 3 * i + 2
            if k < at:
                at, offset, line, bol = 0, 0, 1, 0
            chunk = "".join(self.parts[at:k])
            nl = chunk.rfind("\n")
            if nl >= 0:
                line += chunk.count("\n")
                bol = offset + nl + 1
            at, offset = k, offset + len(chunk)
            out += line, offset - bol + 1
        self._at = at, offset, line, bol
        return out


def tokenize(text: str) -> Tokens:
    return Tokens(text)


class _Form(NamedTuple):
    """A prefix, binder or bracketed form, or parentheses (cls None).  Its
    steps follow its opening token: a literal token's text, None for an
    identifier, or (sort, level) for an operand; each read fills a field."""
    cls: Optional[type]
    level: int
    steps: tuple


class _Sort(NamedTuple):
    """The grammar of one sort, as _expr reads it."""
    infix: dict                 # symbol -> (class, level)
    forms: dict                 # opening token -> its alternative _Forms
    atom: type                  # the class of an identifier with arguments
    apply: Optional[_Form]      # juxtaposition, whose steps are two operands
    starts: tuple               # by level, what may start an operand there


# marks the bracket entry of a type atom's argument list
_ARGS = object()

# the longest integer literal read, Python's default limit on int(str)
# from 3.11 on, or the interpreter's own limit where it is set lower (0
# is no limit); a longer one is a ParseError on every version
_MAX_DIGITS = 4300


def _max_digits() -> int:
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return min(limit, _MAX_DIGITS) if limit else _MAX_DIGITS


def _shown(text: str) -> str:
    """A literal token as an expected set names it: a word as itself, a
    symbol quoted."""
    return text if text[0].isalpha() else repr(text)


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.values = self.tokens.values
        self.i = 0

    def fail(self, message: Optional[str] = None, expected=()):
        """Raise a ParseError at the token at hand, by default naming it."""
        value = self.values[self.i]
        if message is None:
            message = (f"found {value!r}" if value
                       else "unexpected end of input")
        raise ParseError(message, *self.tokens.positions(self.i), expected)

    def expect(self, text: str) -> None:
        """Step over the literal token text, a word or a symbol."""
        if self.values[self.i] != text:
            self.fail(expected=(_shown(text),))
        self.i += 1

    def expect_ident(self, expected=("identifier",)) -> str:
        value = self.values[self.i]
        if value.isidentifier() and value not in RESERVED:
            self.i += 1
            return value
        self.fail(f"{value!r} is a reserved word"
                  if value.isidentifier() else None, expected)

    # -- expressions ---------------------------------------------------------

    def _expr(self, sort):
        """One type, formula or term, read by precedence on an explicit
        stack.  An operator entry (level, cls, args) is an infix operator
        with its left operand, or a prefix or binder with its other fields,
        waiting for the operand x that completes cls(*args, x).  An operand
        that more text follows (inside '(' or '<', a binder's domain, a
        type atom's arguments) has a bracket entry at level _OPEN below it:
        the sort to resume, the form's alternatives, its fields so far and
        the step to go on with.  The operand's sort may differ, so nesting
        of any kind, across sorts too, costs entries, not Python frames.
        A form may open an operand only at a level it reaches (floor): in
        terms, a binder only where any term may stand.  (Every operand of
        a type or formula may be at any level.)
        """
        values, stack = self.values, []
        x, floor = None, BINDER
        while True:
            value = values[self.i]
            if x is None:
                # an operand: a form that its first token opens, or an atom
                forms = sort.forms.get(value)
                if forms is not None and forms[0].level >= floor:
                    self.i += 1
                    x, sort, floor = self._form(stack, sort, forms, [], 0)
                else:
                    x = self._atom(stack, sort, floor)
                    if x is None:           # a type atom's term arguments
                        sort, floor = _TERM, BINDER
                continue
            op = sort.infix.get(value)
            # an infix operator's right operand may be at any level
            width, floor = 1, BINDER
            if op is None and sort.apply is not None:
                # juxtaposition, when the token starts an operand there
                at = sort.apply.steps[-1][1]
                forms = sort.forms.get(value)
                if (forms[0].level >= at if forms is not None else
                        value.isidentifier() and value not in RESERVED):
                    op, width, floor = sort.apply[:2], 0, at
            if op is not None:
                cls, level = op
                # tighter operators, and an equal one that associates to
                # the left, take x as their last operand
                while stack and (stack[-1][0] > level
                                 or stack[-1][0] == level != ARROW):
                    _, con, args = stack.pop()
                    x = con(*args, x)
                if (level == ARROW and stack and stack[-1][0] == ARROW
                        and stack[-1][1] is not cls):
                    self.fail("mixed arrows need parentheses")
                stack.append((level, cls, (x,)))
                self.i += width
                x = None
                continue
            # anything else closes every operator up to the innermost
            # bracket, or ends the expression
            while stack and stack[-1][0] >= BINDER:
                _, con, args = stack.pop()
                x = con(*args, x)
            if not stack:
                return x
            _, sort, forms, fields, pos = stack.pop()
            fields.append(x)
            if forms is not _ARGS:
                x, sort, floor = self._form(stack, sort, forms, fields, pos)
            elif value == ",":
                self.i += 1
                stack.append((_OPEN, sort, _ARGS, fields, 0))
                x, sort, floor = None, _TERM, BINDER
            else:
                self.expect(")")
                x = syntax.Atom(fields[0], tuple(fields[1:]))

    def _form(self, stack, sort, forms, fields, pos):
        """Read a form of sort from its step pos on, up to an operand,
        whose waiting entry is pushed.  forms are alternatives alike up to
        pos; at a literal, the first with the token at hand is read, else
        the last.  Returns the node, or None when an operand is next, and
        the sort and level to read at."""
        form = forms[-1]
        if len(forms) > 1 and type(form.steps[pos]) is str:
            value = self.values[self.i]
            form = next((f for f in forms if f.steps[pos] == value), form)
            forms = (form,)
        steps = form.steps
        while pos < len(steps):
            step = steps[pos]
            pos += 1
            if step is None:
                fields.append(self.expect_ident())
            elif type(step) is str:
                self.expect(step)
            else:
                stack.append((_OPEN, sort, forms, fields, pos)
                             if pos < len(steps) else
                             (form.level, form.cls, tuple(fields)))
                return None, _SORTS[step[0]], step[1]
        return (form.cls(*fields) if form.cls else fields[0]), sort, BINDER

    def _atom(self, stack, sort, floor):
        """An identifier, with arguments when '(' follows it unspaced: a
        predicate's are identifiers, and a type atom's are terms, which
        are read on the stack (None is returned then).  Where there is
        none, an operand of sort at level floor was expected."""
        name = self.expect_ident(sort.starts[floor])
        i = self.i
        # arguments are a '(' with no blanks or comments before it
        if (sort is _TERM or self.values[i] != "("
                or self.tokens.parts[3 * i + 1]):
            return sort.atom(name)
        self.i += 1
        if sort is _FORMULA:
            args = self._list(self.expect_ident)
            self.expect(")")
            return sort.atom(name, args)
        stack.append((_OPEN, sort, _ARGS, [name], 0))
        return None

    def _list(self, item) -> tuple:
        """item {',' item}."""
        items = [item()]
        while self.values[self.i] == ",":
            self.i += 1
            items.append(item())
        return tuple(items)

    def basis_(self) -> Basis:
        value = self.values[self.i]
        if value not in BASIS_NAMES:
            self.fail(f"unknown basis {value!r}"
                      if value.isidentifier() else None, BASIS_NAMES)
        self.i += 1
        return BASIS_NAMES[value]

    def integer_(self) -> int:
        value = self.values[self.i]
        if not value.isdigit():
            self.fail(expected=("integer",))
        limit = _max_digits()
        if len(value) > limit:
            self.fail(f"integer literal of {len(value)} digits is "
                      f"longer than {limit}")
        self.i += 1
        return int(value)

    # -- directives ----------------------------------------------------------

    def directive(self):
        """One directive, read by its template in script.DIRECTIVES."""
        start = self.i
        keyword = self.values[start]
        if not keyword.isidentifier():
            self.fail(expected=("directive keyword",))
        form = _DIRECTIVES.get(keyword)
        if form is None:
            self.fail(f"unknown directive {keyword!r}",
                      expected=tuple(sorted(_DIRECTIVES)))
        cls, steps = form
        fields = []
        for step in steps:          # the first reads the keyword
            if type(step) is str:
                end = self.i
                self.expect(step)
            else:
                fields.append(step(self))
        return cls(*fields,
                   span=script.Span(*self.tokens.positions(start, end)))


def _steps(cls, template, bounded=False):
    """A template's steps: its text as tokens, and each field, by its
    annotation, as an identifier (None) or a slot (the annotation, level).
    Only when bounded does a spec bound a slot's level."""
    kinds = get_type_hints(cls)
    steps = []
    for text, name, spec, _ in Formatter().parse(template):
        steps += tokenize(text).values[:-1]
        if name is not None:
            kind = kinds[name]
            steps.append(None if kind is str else
                         (kind, int(spec if spec and bounded else BINDER)))
    return tuple(steps)


def _grammar(sort, atom, fixity, terms):
    """The grammar of a sort, given by its class, from its tables: the
    infix constructors of fixity go to the precedence loop, and each form
    (syntax.templates, syntax.TERM_FIXITY) becomes steps, whose slots are
    operands of a sort.  Only in terms does a spec bound an operand's
    level."""
    infix = {sym: (cls, level) for cls, (sym, level) in fixity.items()
             if level not in (BINDER, PREFIX)}
    forms, apply = {"(": []}, None
    for cls, (level, template) in {**syntax.templates(fixity),
                                   **terms}.items():
        steps = _steps(cls, template, sort is syntax.TermExpr)
        if type(steps[0]) is tuple:
            apply = _Form(cls, level, steps)
        else:
            forms.setdefault(steps[0], []).append(
                _Form(cls, level, steps[1:]))
    forms["("].append(_Form(None, ATOM, ((sort, BINDER), ")")))
    # an identifier, or a token that opens a form reaching the level
    starts = tuple(("identifier", *(
        _shown(t) for t, alts in forms.items() if alts[0].level >= floor))
        for floor in range(ATOM + 1))
    return _Sort(infix, {k: tuple(v) for k, v in forms.items()}, atom, apply,
                 starts)


_SORTS = {cls: _grammar(cls, *tables) for cls, tables in (
    (syntax.TypeExpr, (syntax.Atom, syntax.FIXITY, {})),
    (logic.Formula, (logic.Pred, logic.FIXITY, {})),
    (syntax.TermExpr, (syntax.Var, {}, syntax.TERM_FIXITY)))}
_TYPE, _FORMULA, _TERM = _SORTS.values()

# what a directive reads at a field, by its annotation
_SLOTS = {str: Parser.expect_ident, Basis: Parser.basis_, int: Parser.integer_,
          Tuple[syntax.TypeExpr, ...]:
              lambda p: p._list(lambda: p._expr(_TYPE)),
          **{cls: lambda p, sort=sort: p._expr(sort)
             for cls, sort in _SORTS.items()}}
# each directive's keyword, with its class and steps: a literal token's
# text, or the reader of a field
_DIRECTIVES = {kw: (cls, tuple(
    step if type(step) is str else _SLOTS[step[0] if step else str]
    for step in _steps(cls, script.DIRECTIVES[cls])))
    for cls, kw in script.DIRECTIVE_KEYWORDS.items()}

# the words of the sorts' forms and of the directives, which name nothing
RESERVED = frozenset(
    word for steps in (
        *((opening, *form.steps) for sort in _SORTS.values()
          for opening, alts in sort.forms.items() for form in alts),
        *(steps for _, steps in _DIRECTIVES.values()))
    for word in steps if type(word) is str and word[0].isalpha())


def parse(text: str) -> script.Script:
    """Parse a whole script."""
    p = Parser(text)
    directives = []
    while p.values[p.i]:
        directives.append(p.directive())
    return script.Script(tuple(directives))


def _parse_entire(text: str, sort: _Sort):
    p = Parser(text)
    result = p._expr(sort)
    if p.values[p.i]:
        raise ParseError(f"trailing input starting at {p.values[p.i]!r}",
                         *p.tokens.positions(p.i))
    return result


def parse_type(text: str) -> syntax.TypeExpr:
    return _parse_entire(text, _TYPE)


def parse_term(text: str) -> syntax.TermExpr:
    return _parse_entire(text, _TERM)


def parse_formula(text: str) -> logic.Formula:
    return _parse_entire(text, _FORMULA)
