"""Proof checker and type algebra for a paraconsistent type theory with
opposite and co-function types."""

from .duality import (Basis, dual, expand_in_basis, is_onf, onf,
                      uses_only_basis)
from .errors import (DepthCapExceeded, IllFormedContext, IllFormedType,
                     InternalInvariantViolation, InvalidDerivation,
                     NonInferableTerm, NormalizationOverflow, ParseError,
                     SortError, TypeMismatch, TypeTheoryError,
                     UnboundVariable)
from .kernel import (Context, Derivation, EMPTY, Formation, TermDecl, TermEq,
                     TypeConstDecl, TypeEq, Typing, U0, U1, Universe, check,
                     check_context, check_duality_principle, check_formation,
                     declare_term, declare_type_const, ensure_formed,
                     ensure_typed, equivalent, infer, recheck, term_equal,
                     type_equal)
from .logic import (And, CoImpl, Exists, Forall, Formula, Impl, Neg, Or,
                    Pred, Signature, check_sorts, formula_nnf,
                    strong_equiv_check, translate)
from .parser import parse, parse_formula, parse_term, parse_type
from .printer import formula_str, script_str, term_str, type_str
from .runner import report_json, report_text, run
from .script import Report, ReportEntry, Script
from .search import bounded_inhabit, iter_inhabitants
from .syntax import (Ann, App, Atom, Case, CoFun, Fun, Inl, Inr, Lam, Opp,
                     Pair, Pi, Prod, Proj1, Proj2, Sigma, Split, Sum,
                     TermExpr, TypeExpr, Var, alpha_eq, free_vars,
                     normalize_term, subst, subst_term, subst_type)

__version__ = "0.1.0"
