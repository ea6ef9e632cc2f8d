"""Shared generators: seeded-random builders for bulk suites and
hypothesis strategies for property tests.

Generated types are well formed in the standard test context (atoms a, b,
c and a family p over a); dependent bodies may only apply p to variables
bound at sort a, which the generators track through env.
"""

from __future__ import annotations

import random
from dataclasses import fields, is_dataclass, replace

import hypothesis.strategies as st

from opptypes import (And, Ann, App, Atom, Case, CoFun, CoImpl, Exists,
                      Forall, Fun, Impl, Inl, Inr, Lam, Neg, Opp, Or, Pair,
                      Pi, Pred, Prod, Proj1, Proj2, Sigma, Signature, Split,
                      Sum, Var, declare_type_const, EMPTY)

SORT = "a"


def std_ctx():
    ctx = EMPTY
    for name in ("a", "b", "c"):
        ctx = declare_type_const(ctx, name)
    ctx = declare_type_const(ctx, "p", (("z0", Atom("a")),))
    return ctx


# ---------------------------------------------------------------------------
# Seeded random builders
# ---------------------------------------------------------------------------

_LEAF_NAMES = ("a", "b", "c")


def rand_leaf(rng: random.Random, env):
    if env and rng.random() < 0.4:
        return Atom("p", (Var(rng.choice(env)),))
    return Atom(rng.choice(_LEAF_NAMES))


def rand_type(rng: random.Random, depth: int, env=()):
    """A well-formed type of tree depth at most depth."""
    if depth <= 0:
        return rand_leaf(rng, env)
    kind = rng.choice(
        ("leaf", "opp", "fun", "cofun", "prod", "sum", "pi", "sigma", "opp"))
    if kind == "leaf":
        return rand_leaf(rng, env)
    if kind == "opp":
        return Opp(rand_type(rng, depth - 1, env))
    if kind == "fun":
        return Fun(rand_type(rng, depth - 1, env),
                   rand_type(rng, depth - 1, env))
    if kind == "cofun":
        return CoFun(rand_type(rng, depth - 1, env),
                     rand_type(rng, depth - 1, env))
    if kind == "prod":
        return Prod(rand_type(rng, depth - 1, env),
                    rand_type(rng, depth - 1, env))
    if kind == "sum":
        return Sum(rand_type(rng, depth - 1, env),
                   rand_type(rng, depth - 1, env))
    gen = rand_type(rng, depth - 1, env)
    var = f"v{len(env) + 1}"
    inner_env = env + (var,) if gen == Atom(SORT) else env
    body = rand_type(rng, depth - 1, inner_env)
    cls = Pi if kind == "pi" else Sigma
    return cls(var, gen, body)


def rand_dependent_body(rng: random.Random, depth: int, var: str):
    """A type that genuinely mentions var through the family p."""
    side = rand_type(rng, depth - 1, (var,))
    use = Atom("p", (Var(var),))
    if rng.random() < 0.5:
        return Prod(use, side) if rng.random() < 0.5 else Sum(use, side)
    return Fun(side, use)


_UNNORM_WRAPPERS = "double_opp cofun fun prod sum pi sigma eta_fun eta_cofun"


def unnormalize(rng: random.Random, A, steps: int):
    """Apply inverse normal-form rewrites: the result is a different tree
    with the same opposite normal form as A."""
    for _ in range(steps):
        A = _unnorm_once(rng, A)
    return A


def _unnorm_once(rng: random.Random, A):
    choices = ["double_opp"]
    if isinstance(A, CoFun):
        choices += ["as_opp_fun", "as_sigma"]
    if isinstance(A, Fun):
        choices += ["as_opp_cofun", "as_pi"]
    if isinstance(A, Prod):
        choices.append("as_opp_sum")
    if isinstance(A, Sum):
        choices.append("as_opp_prod")
    if isinstance(A, Pi):
        choices.append("as_opp_sigma")
    if isinstance(A, Sigma):
        choices.append("as_opp_pi")
    if rng.random() < 0.5 and not isinstance(A, Atom):
        return _unnorm_children(rng, A)
    kind = rng.choice(choices)
    if kind == "double_opp":
        return Opp(Opp(A))
    if kind == "as_opp_fun":
        return Opp(Fun(Opp(A.dom), Opp(A.cod)))
    if kind == "as_sigma":
        return Sigma("u9", Opp(A.dom), A.cod)
    if kind == "as_opp_cofun":
        return Opp(CoFun(Opp(A.cod), Opp(A.dom)))
    if kind == "as_pi":
        return Pi("u9", A.dom, A.cod)
    if kind == "as_opp_sum":
        return Opp(Sum(Opp(A.left), Opp(A.right)))
    if kind == "as_opp_prod":
        return Opp(Prod(Opp(A.left), Opp(A.right)))
    if kind == "as_opp_sigma":
        return Opp(Sigma(A.var, A.gen, Opp(A.body)))
    if kind == "as_opp_pi":
        return Opp(Pi(A.var, A.gen, Opp(A.body)))
    raise AssertionError(kind)


def _unnorm_children(rng: random.Random, A):
    if isinstance(A, Fun):
        return Fun(_unnorm_once(rng, A.dom), _unnorm_once(rng, A.cod))
    if isinstance(A, CoFun):
        return CoFun(_unnorm_once(rng, A.cod), _unnorm_once(rng, A.dom))
    if isinstance(A, Prod):
        return Prod(_unnorm_once(rng, A.left), _unnorm_once(rng, A.right))
    if isinstance(A, Sum):
        return Sum(_unnorm_once(rng, A.left), _unnorm_once(rng, A.right))
    if isinstance(A, (Pi, Sigma)):
        return type(A)(A.var, _unnorm_once(rng, A.gen),
                       _unnorm_once(rng, A.body))
    if isinstance(A, Opp):
        return Opp(_unnorm_once(rng, A.inner))
    return A


_TERM_POOL = ("x", "y", "z", "w", "f", "g")


def rand_term(rng: random.Random, depth: int):
    """Arbitrary terms for parser round-trips; not necessarily typeable."""
    if depth <= 0:
        return Var(rng.choice(_TERM_POOL))
    kind = rng.choice(("var", "lam", "app", "pair", "proj", "inj",
                       "case", "split", "ann"))
    if kind == "var":
        return Var(rng.choice(_TERM_POOL))
    if kind == "lam":
        return Lam(rng.choice(_TERM_POOL), rand_type(rng, 2),
                   rand_term(rng, depth - 1))
    if kind == "app":
        return App(rand_term(rng, depth - 1), rand_term(rng, depth - 1))
    if kind == "pair":
        return Pair(rand_term(rng, depth - 1), rand_term(rng, depth - 1))
    if kind == "proj":
        cls = rng.choice((Proj1, Proj2))
        return cls(rand_term(rng, depth - 1))
    if kind == "inj":
        cls = rng.choice((Inl, Inr))
        return cls(rand_term(rng, depth - 1))
    if kind == "case":
        return Case(rand_term(rng, depth - 1),
                    rng.choice(_TERM_POOL), rand_term(rng, depth - 1),
                    rng.choice(_TERM_POOL), rand_term(rng, depth - 1))
    if kind == "split":
        return Split(rand_term(rng, depth - 1), "u", "v",
                     rand_term(rng, depth - 1))
    return Ann(rand_term(rng, depth - 1), rand_type(rng, 2))


def with_term_args(rng: random.Random, e):
    """e with random terms as the arguments of about half its type atoms,
    in types and in the types inside terms alike.  For parser round trips
    only: the result is not well formed."""
    if isinstance(e, Atom):
        if rng.random() < 0.5:
            return e
        return Atom(e.name, tuple(rand_term(rng, rng.randint(0, 2))
                                  for _ in range(rng.randint(1, 2))))
    if not is_dataclass(e):
        return e
    return replace(e, **{f.name: with_term_args(rng, getattr(e, f.name))
                         for f in fields(e)})


def rand_script(rng: random.Random):
    """A syntactically well-formed script for print/parse round-trips."""
    from opptypes.duality import Basis
    from opptypes import script as s
    directives = [s.AtomDecl("a"), s.AtomDecl("b"), s.AtomDecl("c"),
                  s.PredDecl("p", (Atom("a"),))]
    for _ in range(rng.randint(1, 10)):
        kind = rng.randint(0, 9)
        ty = rand_type(rng, rng.randint(0, 4))
        if kind == 0:
            directives.append(s.Assume(f"h{rng.randint(0, 99)}", ty))
        elif kind == 1:
            directives.append(
                s.CheckDirective(rand_term(rng, rng.randint(0, 3)), ty))
        elif kind == 2:
            directives.append(
                s.InferDirective(rand_term(rng, rng.randint(0, 3))))
        elif kind == 3:
            directives.append(s.DualDirective(ty))
        elif kind == 4:
            directives.append(s.OnfDirective(ty))
        elif kind == 5:
            directives.append(
                s.EqualDirective(ty, rand_type(rng, rng.randint(0, 4))))
        elif kind == 6:
            directives.append(
                s.ExpandDirective(ty, rng.choice(list(Basis))))
        elif kind == 7:
            directives.append(
                s.TranslateDirective(rand_formula(rng, rng.randint(0, 4))))
        elif kind == 8:
            directives.append(
                s.NnfDirective(rand_formula(rng, rng.randint(0, 4))))
        else:
            directives.append(s.InhabitDirective(ty, rng.randint(1, 6)))
    from opptypes import Script
    return Script(tuple(directives))


STD_SIG = Signature(sorts={"s"},
                    predicates={"P": (), "Q": (), "R": ("s",)})


def rand_formula(rng: random.Random, depth: int, env=()):
    """A well-sorted closed formula over STD_SIG."""
    if depth <= 0:
        if env and rng.random() < 0.4:
            return Pred("R", (rng.choice(env),))
        return Pred(rng.choice(("P", "Q")))
    kind = rng.choice(("leaf", "neg", "neg", "and", "or", "impl", "coimpl",
                       "forall", "exists"))
    if kind == "leaf":
        return rand_formula(rng, 0, env)
    if kind == "neg":
        return Neg(rand_formula(rng, depth - 1, env))
    if kind in ("and", "or", "impl", "coimpl"):
        cls = {"and": And, "or": Or, "impl": Impl, "coimpl": CoImpl}[kind]
        return cls(rand_formula(rng, depth - 1, env),
                   rand_formula(rng, depth - 1, env))
    var = f"w{len(env) + 1}"
    cls = Forall if kind == "forall" else Exists
    return cls(var, "s", rand_formula(rng, depth - 1, env + (var,)))


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def types(draw, max_depth: int = 4, env=()):
    if max_depth <= 0:
        return _draw_leaf(draw, env)
    kind = draw(st.sampled_from(
        ("leaf", "opp", "fun", "cofun", "prod", "sum", "pi", "sigma")))
    if kind == "leaf":
        return _draw_leaf(draw, env)
    if kind == "opp":
        return Opp(draw(types(max_depth=max_depth - 1, env=env)))
    if kind in ("fun", "cofun", "prod", "sum"):
        left = draw(types(max_depth=max_depth - 1, env=env))
        right = draw(types(max_depth=max_depth - 1, env=env))
        cls = {"fun": Fun, "cofun": CoFun, "prod": Prod, "sum": Sum}[kind]
        return cls(left, right)
    gen = draw(types(max_depth=max_depth - 1, env=env))
    var = f"v{len(env) + 1}"
    inner_env = env + (var,) if gen == Atom(SORT) else env
    body = draw(types(max_depth=max_depth - 1, env=inner_env))
    return (Pi if kind == "pi" else Sigma)(var, gen, body)


def _draw_leaf(draw, env):
    if env and draw(st.booleans()):
        return Atom("p", (Var(draw(st.sampled_from(env))),))
    return Atom(draw(st.sampled_from(_LEAF_NAMES)))


_TERM_VARS = ("x", "y", "z", "w")


@st.composite
def terms(draw, max_depth: int = 3):
    """Untyped terms, for the binding and substitution properties."""
    if max_depth <= 0:
        return Var(draw(st.sampled_from(_TERM_VARS)))
    kind = draw(st.sampled_from(
        ("var", "lam", "app", "pair", "proj1", "proj2", "inl", "inr",
         "case", "split", "ann")))
    sub = terms(max_depth=max_depth - 1)
    if kind == "var":
        return Var(draw(st.sampled_from(_TERM_VARS)))
    if kind == "lam":
        return Lam(draw(st.sampled_from(_TERM_VARS)),
                   draw(types(max_depth=1)), draw(sub))
    if kind == "app":
        return App(draw(sub), draw(sub))
    if kind == "pair":
        return Pair(draw(sub), draw(sub))
    if kind in ("proj1", "proj2", "inl", "inr"):
        cls = {"proj1": Proj1, "proj2": Proj2,
               "inl": Inl, "inr": Inr}[kind]
        return cls(draw(sub))
    if kind == "case":
        return Case(draw(sub),
                    draw(st.sampled_from(_TERM_VARS)), draw(sub),
                    draw(st.sampled_from(_TERM_VARS)), draw(sub))
    if kind == "split":
        return Split(draw(sub),
                     draw(st.sampled_from(_TERM_VARS)),
                     draw(st.sampled_from(_TERM_VARS)), draw(sub))
    return Ann(draw(sub), draw(types(max_depth=1)))


# ---------------------------------------------------------------------------
# Malformed concrete syntax
# ---------------------------------------------------------------------------

_NOISE = ("(", ")", ":", ".", ",", ";", "->", "<~", "=>", "*", "+", "&", "|",
          "~", "<", ">", "{", "}", "\\", "Pi", "Sg", "all", "ex", "case", "of",
          "inl", "split", "as", "basis", "depth", "atom", "check", "x", "a",
          "p", "7", "$")

# hand-written starting points for the error paths random trees rarely reach
_SEEDS = (
    ("type", "Pi x:a. b"), ("type", "Sg y:~a -> b. p(y) + c"),
    ("type", "p(x, \\y:a. y)"), ("type", "(a <~ b) <~ c"),
    ("type", "a -> b -> (c <~ a)"), ("type", "~Pi x:Pi y:a. b. c * a"),
    ("formula", "all x:s. ex y:s. R(x) => ~R(y)"),
    ("formula", "(P => Q) <~ R(x, y)"), ("formula", "P => (Q <~ R) => P"),
    ("term", "case f x of { inl u => u | inr v => (v : a) }"),
    ("term", "split z as (u, v) => <v, u>"),
    ("script", "atom a; expand a + ~a basis sg_prod; inhabit a depth 3;"),
    ("script", "expand a basis pi_sum; nnf ~(P & Q);"),
    ("script", "pred p(a, b); assume h : Pi x:a. p(x); check h : a;"),
)


def mutate(rng: random.Random, text: str) -> str:
    """text broken at one random token: the token dropped, doubled, swapped
    with the next one, replaced or preceded by a noise token, or the text
    cut off after it.  Edits keep the layout around them, so an argument
    list stays adjacent to its identifier or not.  Text that does not
    tokenize is returned as it is."""
    from opptypes import ParseError
    from opptypes.parser import tokenize
    try:
        toks = tokenize(text)
    except ParseError:
        return text
    i = rng.randrange(len(toks))
    s, e = toks[i].start, toks[i].end
    nxt = toks[min(i + 1, len(toks) - 1)]
    ns, ne = nxt.start, nxt.end
    noise = rng.choice(_NOISE) + rng.choice(("", " "))
    kind = rng.randrange(6)
    if kind == 0:
        return text[:s] + text[e:]
    if kind == 1:
        return text[:e] + text[s:]
    if kind == 2 and ns >= e:
        return text[:s] + text[ns:ne] + text[e:ns] + text[s:e] + text[ne:]
    if kind == 3:
        return text[:s] + noise + text[e:]
    if kind == 4:
        return text[:s] + noise + text[s:]
    return text[:e]


def rand_concrete(rng: random.Random):
    """(production, text): the printed form of a random type, formula,
    term or short script, or one of the hand-written seeds, mutated zero
    to two times; most results do not parse."""
    from opptypes import Script, formula_str, script_str, term_str, type_str
    kind = rng.randrange(5)
    if kind == 0:
        production, text = "type", type_str(rand_type(rng, rng.randint(0, 3)))
    elif kind == 1:
        production, text = "formula", formula_str(
            rand_formula(rng, rng.randint(0, 3)))
    elif kind == 2:
        production, text = "term", term_str(rand_term(rng, rng.randint(0, 2)))
    elif kind == 3:
        ds = rand_script(rng).directives
        picked = sorted(rng.sample(range(len(ds)), 2))
        production, text = "script", script_str(
            Script(tuple(ds[i] for i in picked)))
    else:
        production, text = rng.choice(_SEEDS)
    for _ in range(rng.choice((0, 1, 1, 2))):
        text = mutate(rng, text)
    return production, text
