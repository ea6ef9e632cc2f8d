"""Directive and report datatypes for the batch interface.

A script is an ordered list of directives; running one produces exactly
one report entry per directive, in order.  Source spans are carried for
diagnostics but excluded from equality so that print/parse round trips
compare clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .duality import Basis
from .logic import Formula
from .syntax import TermExpr, TypeExpr


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    end_line: int
    end_col: int


def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AtomDecl:
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class PredDecl:
    name: str
    arg_types: Tuple[TypeExpr, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Assume:
    var: str
    type: TypeExpr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class CheckDirective:
    term: TermExpr
    type: TypeExpr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class InferDirective:
    term: TermExpr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class DualDirective:
    type: TypeExpr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class OnfDirective:
    type: TypeExpr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class EqualDirective:
    left: TypeExpr
    right: TypeExpr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class ExpandDirective:
    type: TypeExpr
    basis: Basis
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class TranslateDirective:
    formula: Formula
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class NnfDirective:
    formula: Formula
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class InhabitDirective:
    type: TypeExpr
    depth: int
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Script:
    directives: tuple = ()


# The concrete syntax of each directive, stated once: its keyword is the
# first word, and each field but the span stands where it is named, read
# and printed by its annotation.  The parser and the printer read these.
DIRECTIVES = {
    AtomDecl: "atom {name};",
    PredDecl: "pred {name}({arg_types});",
    Assume: "assume {var} : {type};",
    CheckDirective: "check {term} : {type};",
    InferDirective: "infer {term};",
    DualDirective: "dual {type};",
    OnfDirective: "onf {type};",
    EqualDirective: "equal {left} {right};",
    ExpandDirective: "expand {type} basis {basis};",
    TranslateDirective: "translate {formula};",
    NnfDirective: "nnf {formula};",
    InhabitDirective: "inhabit {type} depth {depth};",
}
DIRECTIVE_KEYWORDS = {cls: tpl.split()[0] for cls, tpl in DIRECTIVES.items()}


@dataclass(frozen=True)
class ReportEntry:
    status: str            # "ok" | "error"
    directive: str         # directive keyword
    payload: str
    span: Optional[Span]


@dataclass(frozen=True)
class Report:
    entries: Tuple[ReportEntry, ...] = ()

    @property
    def ok(self) -> bool:
        return all(e.status == "ok" for e in self.entries)
