"""Pretty-printing back to the concrete syntax.

Output reparses to an alpha-equal tree: parentheses are inserted exactly
where the grammar demands them (mixed arrows, left operands of arrows,
lambdas in application position, and so on).  Types, formulas and terms
are printed by one routine from the fixity tables syntax.FIXITY,
logic.FIXITY and syntax.TERM_FIXITY, and directives from the templates
of script.DIRECTIVES; the parser reads the same tables.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from string import Formatter
from typing import Tuple, get_type_hints

from . import logic, script, syntax
from .duality import BASIS_NAMES, Basis
from .kernel import TermDecl
from .syntax import ARROW, BINDER, Atom, Var

# each prefix, binder and term class's level and template, as (text,
# field, level) pieces; the last piece may lack the field
_FORMS = {cls: (level, [(text, name and attrgetter(name), int(spec or 0))
                        for text, name, spec, _ in Formatter().parse(tpl)])
          for cls, (level, tpl) in {**syntax.templates(syntax.FIXITY),
                                    **syntax.templates(logic.FIXITY),
                                    **syntax.TERM_FIXITY}.items()}
_FIXITY = {**syntax.FIXITY, **logic.FIXITY}
_ARROWS = {cls for cls, (_, level) in _FIXITY.items() if level == ARROW}
# each infix class's symbol, level and two operands
_INFIX = {cls: (sym, level, attrgetter(*(f.name for f in fields(cls))))
          for cls, (sym, level) in _FIXITY.items() if cls not in _FORMS}


def type_str(e, prec: int = 0) -> str:
    """A type, formula or term in concrete syntax, parenthesized when its
    level is below prec."""
    cls = type(e)
    if cls is Var:
        return e.name
    if cls is Atom or cls is logic.Pred:
        if not e.args:
            return e.name
        args = e.args if cls is logic.Pred else map(type_str, e.args)
        return e.name + "(" + ", ".join(args) + ")"
    form = _FORMS.get(cls)
    if form is not None:
        level, pieces = form
        s = ""
        for text, get, at in pieces:
            s += text
            if get is not None:
                field = get(e)
                s += field if type(field) is str else type_str(field, at)
        return "(" + s + ")" if level < prec else s
    infix = _INFIX.get(cls)
    if infix is None:
        raise TypeError(f"not a type, formula or term: {e!r}")
    sym, level, operands = infix
    left, right = operands(e)
    if level == ARROW:
        # right-associative, and the other arrow needs parentheses
        s = type_str(left, ARROW + 1)
        r = type_str(right, BINDER)
        if type(right) is not cls and type(right) in _ARROWS:
            r = "(" + r + ")"
    else:
        s, r = type_str(left, level), type_str(right, level + 1)
    s += f" {sym} {r}"
    return "(" + s + ")" if level < prec else s


formula_str = type_str


def term_str(t, prec: int = 0) -> str:
    """A term in concrete syntax; see type_str, which prints every sort."""
    return type_str(t, prec)


_BASIS_KEYWORDS = {basis: kw for kw, basis in BASIS_NAMES.items()}
# how a directive's field prints, by its annotation; any other by type_str
_SLOTS = {str: str, int: str, Basis: _BASIS_KEYWORDS.__getitem__,
          Tuple[syntax.TypeExpr, ...]: lambda ts: ", ".join(map(type_str, ts))}
# each directive class's template, as (text, field, printer) pieces
_DIRECTIVES = {cls: [(text, name and attrgetter(name),
                      name and _SLOTS.get(get_type_hints(cls)[name], type_str))
                     for text, name, _, _ in Formatter().parse(template)]
               for cls, template in script.DIRECTIVES.items()}


def directive_str(d) -> str:
    return "".join(text + (show(get(d)) if get else "")
                   for text, get, show in _DIRECTIVES[type(d)])


def script_str(sc) -> str:
    return "\n".join(directive_str(d) for d in sc.directives) + "\n"


def decl_str(e) -> str:
    """A context entry in concrete syntax."""
    if isinstance(e, TermDecl):
        return f"{e.name} : {type_str(e.type)}"
    if e.telescope:
        tel = ", ".join(f"{v}:{type_str(s)}" for v, s in e.telescope)
        return f"{e.name}({tel}) : {e.universe!s}"
    return f"{e.name} : {e.universe!s}"


def context_str(ctx) -> str:
    """A context in concrete syntax; the entries whose printed text the
    context keeps (see Context.printed_prefix) are not printed again."""
    n, text = ctx.printed_prefix
    rest = map(decl_str, ctx.entries[n:])
    return ", ".join((text, *rest) if n else rest)
