"""Pretty-printing back to the concrete syntax.

Output reparses to an alpha-equal tree: parentheses are inserted exactly
where the grammar demands them (mixed arrows, left operands of arrows,
lambdas in application position, and so on).  Types and formulas are
printed by one routine from the fixity tables syntax.FIXITY and
logic.FIXITY, which the parser reads too.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter

from . import logic, syntax
from .syntax import (ARROW, BINDER, PREFIX, Ann, App, Atom, Case, Inl, Inr,
                     Lam, Pair, Proj1, Proj2, Split, Var)

_FIXITY = {**syntax.FIXITY, **logic.FIXITY}
_ARROWS = {cls for cls, (_, level) in _FIXITY.items() if level == ARROW}
# each operator class's fields in order: the operand of a prefix, the two
# operands of an infix, or a binder's variable, domain and body
_FIELDS = {cls: attrgetter(*(f.name for f in fields(cls))) for cls in _FIXITY}


def type_str(e, prec: int = 0) -> str:
    """A type or a formula in concrete syntax, parenthesized when its
    level is below prec."""
    cls = type(e)
    if cls is Atom or cls is logic.Pred:
        if not e.args:
            return e.name
        args = e.args if cls is logic.Pred else map(term_str, e.args)
        return e.name + "(" + ", ".join(args) + ")"
    fix = _FIXITY.get(cls)
    if fix is None:
        raise TypeError(f"not a type or formula: {e!r}")
    sym, level = fix
    if level == PREFIX:
        s = sym + type_str(_FIELDS[cls](e), PREFIX)
    elif level == BINDER:
        var, dom, body = _FIELDS[cls](e)
        if not isinstance(dom, str):
            # a binder between ':' and '.' gets parentheses for the
            # reader's sake; the parser does not need them
            dom = type_str(dom, ARROW)
        s = f"{sym} {var}:{dom}. {type_str(body, BINDER)}"
    else:
        left, right = _FIELDS[cls](e)
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


def _parens(s: str, level: int, prec: int) -> str:
    return "(" + s + ")" if level < prec else s


# term precedence levels
_E_OPEN, _E_APP, _E_PREFIX, _E_ATOM = 0, 1, 2, 3


def term_str(t, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lam):
        s = f"\\{t.var}:{type_str(t.dom)}. {term_str(t.body, _E_OPEN)}"
        return _parens(s, _E_OPEN, prec)
    if isinstance(t, App):
        s = term_str(t.fn, _E_APP) + " " + term_str(t.arg, _E_PREFIX)
        return _parens(s, _E_APP, prec)
    if isinstance(t, Pair):
        return f"<{term_str(t.fst)}, {term_str(t.snd)}>"
    if isinstance(t, (Proj1, Proj2, Inl, Inr)):
        kw = {Proj1: "p1", Proj2: "p2", Inl: "inl", Inr: "inr"}[type(t)]
        s = kw + " " + term_str(t.arg, _E_PREFIX)
        return _parens(s, _E_PREFIX, prec)
    if isinstance(t, Case):
        return (f"case {term_str(t.scrut, _E_APP)} of "
                f"{{ inl {t.lvar} => {term_str(t.lbranch)} "
                f"| inr {t.rvar} => {term_str(t.rbranch)} }}")
    if isinstance(t, Split):
        s = (f"split {term_str(t.scrut, _E_APP)} as "
             f"({t.var1}, {t.var2}) => {term_str(t.body, _E_OPEN)}")
        return _parens(s, _E_OPEN, prec)
    if isinstance(t, Ann):
        return f"({term_str(t.term)} : {type_str(t.type)})"
    raise TypeError(f"not a term: {t!r}")


def directive_str(d) -> str:
    from . import script as s
    basis_names = {v: k for k, v in _basis_names().items()}
    if isinstance(d, s.AtomDecl):
        return f"atom {d.name};"
    if isinstance(d, s.PredDecl):
        args = ", ".join(type_str(a) for a in d.arg_types)
        return f"pred {d.name}({args});"
    if isinstance(d, s.Assume):
        return f"assume {d.var} : {type_str(d.type)};"
    if isinstance(d, s.CheckDirective):
        return f"check {term_str(d.term)} : {type_str(d.type)};"
    if isinstance(d, s.InferDirective):
        return f"infer {term_str(d.term)};"
    if isinstance(d, s.DualDirective):
        return f"dual {type_str(d.type)};"
    if isinstance(d, s.OnfDirective):
        return f"onf {type_str(d.type)};"
    if isinstance(d, s.EqualDirective):
        return f"equal {type_str(d.left)} {type_str(d.right)};"
    if isinstance(d, s.ExpandDirective):
        return f"expand {type_str(d.type)} basis {basis_names[d.basis]};"
    if isinstance(d, s.TranslateDirective):
        return f"translate {formula_str(d.formula)};"
    if isinstance(d, s.NnfDirective):
        return f"nnf {formula_str(d.formula)};"
    if isinstance(d, s.InhabitDirective):
        return f"inhabit {type_str(d.type)} depth {d.depth};"
    raise TypeError(f"not a directive: {d!r}")


def _basis_names():
    from .duality import BASIS_NAMES
    return BASIS_NAMES


def script_str(sc) -> str:
    return "\n".join(directive_str(d) for d in sc.directives) + "\n"


def context_str(ctx) -> str:
    from .kernel import TermDecl
    parts = []
    for e in ctx.entries:
        if isinstance(e, TermDecl):
            parts.append(f"{e.name} : {type_str(e.type)}")
        else:
            if e.telescope:
                tel = ", ".join(f"{v}:{type_str(s)}" for v, s in e.telescope)
                parts.append(f"{e.name}({tel}) : {e.universe}")
            else:
                parts.append(f"{e.name} : {e.universe}")
    return ", ".join(parts)
