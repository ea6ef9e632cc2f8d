"""Proof checker and type algebra for a paraconsistent type theory with
opposite and co-function types.

Importing the package loads its core: the errors, the syntax, the type
algebra (duality), the kernel and the search.  The front end (logic,
parser, printer, runner and script) loads on first use of one of its
names, as `opptypes.parse` or `from opptypes import parse`.
"""

from importlib import import_module as _import

from .duality import (Basis, dual, expand_in_basis, is_onf, onf,
                      uses_only_basis)
from .errors import (DepthCapExceeded, IllFormedContext, IllFormedType,
                     InternalInvariantViolation, InvalidDerivation,
                     NonInferableTerm, NormalizationOverflow, ParseError,
                     SortError, TypeMismatch, TypeTheoryError,
                     UnboundVariable)
from .kernel import (Context, Derivation, EMPTY, Formation, TermDecl,
                     TypeConstDecl, TypeEq, Typing, U0, U1, Universe, check,
                     check_context, check_duality_principle, check_formation,
                     declare_term, declare_type_const, ensure_formed,
                     ensure_typed, equivalent, infer, recheck, term_equal,
                     type_equal)
from .search import bounded_inhabit, iter_inhabitants
from .syntax import (Ann, App, Atom, Case, CoFun, Fun, Inl, Inr, Lam, Opp,
                     Pair, Pi, Prod, Proj1, Proj2, Sigma, Split, Sum,
                     TermExpr, TypeExpr, Var, alpha_eq, free_vars,
                     normalize_term, subst, subst_term, subst_type)

__version__ = "0.1.0"

# the front end's modules and the names the package exports from each
_FRONT_END = {
    "logic": ("And", "CoImpl", "Exists", "Forall", "Formula", "Impl", "Neg",
              "Or", "Pred", "Signature", "check_sorts", "formula_nnf",
              "strong_equiv_check", "translate"),
    "parser": ("parse", "parse_formula", "parse_term", "parse_type"),
    "printer": ("formula_str", "script_str", "term_str", "type_str"),
    "runner": ("report_json", "report_text", "run"),
    "script": ("Report", "ReportEntry", "Script"),
}
_HOME = {name: module for module, names in _FRONT_END.items()
         for name in names}

# the core's names, the front end's, and the submodules, which a star
# import has always bound
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | _HOME.keys() | _FRONT_END.keys())


def __getattr__(name):
    """A front-end name or module, imported now and bound in the package,
    so that later reads find it as they find the core's."""
    if name in _FRONT_END:
        return _import(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | __all__)
