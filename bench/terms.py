"""The benchmark's own model of types, terms and formulas.

Expected verdicts and payloads are computed here, from how each input was
built, without calling the package under test.  Trees are plain tuples:

    types     ('a', name, args)  ('fun', dom, cod)  ('cofun', cod, dom)
              ('prod', l, r)  ('sum', l, r)  ('pi', v, gen, body)
              ('sg', v, gen, body)  ('opp', inner)
    terms     ('var', x)  ('lam', x, dom, body)  ('app', f, a)
              ('pair', s, t)  ('p1', t)  ('p2', t)  ('inl', t)  ('inr', t)
              ('case', s, x, l, y, r)  ('split', s, x, y, body)
              ('ann', t, type)
    formulas  ('pred', name, args)  ('impl', l, r)  ('coimpl', l, r)
              ('and', l, r)  ('or', l, r)  ('neg', f)
              ('all', v, sort, f)  ('ex', v, sort, f)

The printers follow the concrete syntax documented in the package's parser
(minimal parentheses), so a payload can be predicted byte for byte.  The
normal form is computed by rewriting one redex at a time to a fixpoint, the
same method as the test suite's rewrite oracle, so it shares no code with
the normalizer it checks.
"""

from __future__ import annotations


def atom(name, *args):
    return ('a', name, tuple(args))


def var(x):
    return ('var', x)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_T_ARROW, _T_SUM, _T_PROD, _T_PREFIX = 1, 2, 3, 4
_E_OPEN, _E_APP, _E_PREFIX = 0, 1, 2
_F_ARROW, _F_OR, _F_AND, _F_NEG = 1, 2, 3, 4


def _paren(s, level, prec):
    return "(" + s + ")" if level < prec else s


def type_text(T, prec=0):
    k = T[0]
    if k == 'a':
        if not T[2]:
            return T[1]
        return T[1] + "(" + ", ".join(term_text(t) for t in T[2]) + ")"
    if k == 'opp':
        return _paren("~" + type_text(T[1], _T_PREFIX), _T_PREFIX, prec)
    if k == 'fun':
        rhs = type_text(T[2], _T_ARROW)
        if T[2][0] == 'cofun':
            rhs = "(" + rhs + ")"
        return _paren(type_text(T[1], _T_SUM) + " -> " + rhs, _T_ARROW, prec)
    if k == 'cofun':
        rhs = type_text(T[2], _T_ARROW)
        if T[2][0] == 'fun':
            rhs = "(" + rhs + ")"
        return _paren(type_text(T[1], _T_SUM) + " <~ " + rhs, _T_ARROW, prec)
    if k == 'sum':
        s = type_text(T[1], _T_SUM) + " + " + type_text(T[2], _T_SUM + 1)
        return _paren(s, _T_SUM, prec)
    if k == 'prod':
        s = type_text(T[1], _T_PROD) + " * " + type_text(T[2], _T_PROD + 1)
        return _paren(s, _T_PROD, prec)
    if k in ('pi', 'sg'):
        gen = type_text(T[2], _T_ARROW)
        if T[2][0] in ('pi', 'sg'):
            gen = "(" + gen + ")"
        kw = "Pi" if k == 'pi' else "Sg"
        s = f"{kw} {T[1]}:{gen}. {type_text(T[3], _T_ARROW)}"
        return _paren(s, _T_ARROW, prec)
    raise ValueError(f"not a type: {T!r}")


def term_text(t, prec=0):
    k = t[0]
    if k == 'var':
        return t[1]
    if k == 'lam':
        s = f"\\{t[1]}:{type_text(t[2])}. {term_text(t[3], _E_OPEN)}"
        return _paren(s, _E_OPEN, prec)
    if k == 'app':
        s = term_text(t[1], _E_APP) + " " + term_text(t[2], _E_PREFIX)
        return _paren(s, _E_APP, prec)
    if k == 'pair':
        return f"<{term_text(t[1])}, {term_text(t[2])}>"
    if k in ('p1', 'p2', 'inl', 'inr'):
        return _paren(k + " " + term_text(t[1], _E_PREFIX), _E_PREFIX, prec)
    if k == 'case':
        return (f"case {term_text(t[1], _E_APP)} of "
                f"{{ inl {t[2]} => {term_text(t[3])} "
                f"| inr {t[4]} => {term_text(t[5])} }}")
    if k == 'split':
        s = (f"split {term_text(t[1], _E_APP)} as ({t[2]}, {t[3]}) => "
             f"{term_text(t[4], _E_OPEN)}")
        return _paren(s, _E_OPEN, prec)
    if k == 'ann':
        return f"({term_text(t[1])} : {type_text(t[2])})"
    raise ValueError(f"not a term: {t!r}")


def formula_text(f, prec=0):
    k = f[0]
    if k == 'pred':
        return f[1] if not f[2] else f[1] + "(" + ", ".join(f[2]) + ")"
    if k in ('impl', 'coimpl'):
        other = 'coimpl' if k == 'impl' else 'impl'
        rhs = formula_text(f[2], _F_ARROW)
        if f[2][0] == other:
            rhs = "(" + rhs + ")"
        op = " => " if k == 'impl' else " <~ "
        return _paren(formula_text(f[1], _F_OR) + op + rhs, _F_ARROW, prec)
    if k == 'or':
        s = formula_text(f[1], _F_OR) + " | " + formula_text(f[2], _F_OR + 1)
        return _paren(s, _F_OR, prec)
    if k == 'and':
        s = formula_text(f[1], _F_AND) + " & " + formula_text(f[2], _F_AND + 1)
        return _paren(s, _F_AND, prec)
    if k == 'neg':
        return _paren("~" + formula_text(f[1], _F_NEG), _F_NEG, prec)
    if k in ('all', 'ex'):
        s = f"{k} {f[1]}:{f[2]}. {formula_text(f[3], _F_ARROW)}"
        return _paren(s, _F_ARROW, prec)
    raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

def free_vars(e):
    """Free term variables of a type or term (atom names are constants)."""
    k = e[0]
    if k == 'a':
        return frozenset().union(*(free_vars(t) for t in e[2]))
    if k == 'var':
        return frozenset((e[1],))
    if k in ('pi', 'sg', 'lam'):
        return free_vars(e[2]) | (free_vars(e[3]) - {e[1]})
    if k == 'case':
        return (free_vars(e[1]) | (free_vars(e[3]) - {e[2]})
                | (free_vars(e[5]) - {e[4]}))
    if k == 'split':
        return free_vars(e[1]) | (free_vars(e[4]) - {e[2], e[3]})
    return frozenset().union(*(free_vars(c) for c in e[1:]))


# ---------------------------------------------------------------------------
# Opposite normal form by rewriting to a fixpoint
# ---------------------------------------------------------------------------

def _rule_at_root(T):
    k = T[0]
    if k == 'opp':
        i = T[1]
        ik = i[0]
        if ik == 'fun':
            return ('cofun', ('opp', i[2]), ('opp', i[1]))
        if ik == 'cofun':
            return ('fun', ('opp', i[2]), ('opp', i[1]))
        if ik == 'prod':
            return ('sum', ('opp', i[1]), ('opp', i[2]))
        if ik == 'sum':
            return ('prod', ('opp', i[1]), ('opp', i[2]))
        if ik == 'pi':
            return ('sg', i[1], i[2], ('opp', i[3]))
        if ik == 'sg':
            return ('pi', i[1], i[2], ('opp', i[3]))
        if ik == 'opp':
            return i[1]
    if k == 'pi' and T[1] not in free_vars(T[3]):
        return ('fun', T[2], T[3])
    if k == 'sg' and T[1] not in free_vars(T[3]):
        return ('cofun', T[3], ('opp', T[2]))
    return None


def _type_children(T):
    k = T[0]
    if k in ('pi', 'sg'):
        return 2, T[2:]
    if k == 'a':
        return 1, ()
    return 1, T[1:]


def _step(T):
    """One rewrite at an innermost redex, or None when T is normal."""
    start, kids = _type_children(T)
    for i, child in enumerate(kids):
        stepped = _step(child)
        if stepped is not None:
            return T[:start + i] + (stepped,) + T[start + i + 1:]
    return _rule_at_root(T)


def onf(T):
    """Opposite normal form of a type whose atom arguments are normal."""
    while True:
        nxt = _step(T)
        if nxt is None:
            return T
        T = nxt


def onf_neg(T):
    return onf(('opp', T))


# ---------------------------------------------------------------------------
# Other type operations, from their defining equations
# ---------------------------------------------------------------------------

def dual(T):
    k = T[0]
    if k == 'a':
        return ('opp', T)
    if k == 'fun':
        return ('cofun', dual(T[2]), dual(T[1]))
    if k == 'cofun':
        return ('fun', dual(T[2]), dual(T[1]))
    if k == 'prod':
        return ('sum', dual(T[1]), dual(T[2]))
    if k == 'sum':
        return ('prod', dual(T[1]), dual(T[2]))
    if k == 'pi':
        return ('sg', T[1], T[2], dual(T[3]))
    if k == 'sg':
        return ('pi', T[1], T[2], dual(T[3]))
    return ('opp', dual(T[1]))


BASES = {"pi_prod": ('pi', 'prod'), "pi_sum": ('pi', 'sum'),
         "sg_prod": ('sg', 'prod'), "sg_sum": ('sg', 'sum')}


def _all_names(e, out):
    k = e[0]
    if k == 'a':
        out.add(e[1])
        for t in e[2]:
            _all_names(t, out)
        return out
    if k == 'var':
        out.add(e[1])
        return out
    for c in e[1:]:
        if isinstance(c, str):
            out.add(c)
        else:
            _all_names(c, out)
    return out


def expand(T, basis):
    """Rewrite T into the basis constructors plus ~; fresh binders are
    x1, x2, ... skipping every name that occurs in T."""
    binder, pair = BASES[basis]
    avoid = _all_names(T, set())
    counter = [0]

    def fresh():
        while True:
            counter[0] += 1
            cand = f"x{counter[0]}"
            if cand not in avoid:
                avoid.add(cand)
                return cand

    def go(A):
        k = A[0]
        if k == 'a':
            return A
        if k == 'opp':
            return ('opp', go(A[1]))
        if k == 'fun':
            return go(('pi', fresh(), A[1], A[2]))
        if k == 'cofun':
            return go(('sg', fresh(), ('opp', A[2]), A[1]))
        if k in ('prod', 'sum'):
            left, right = go(A[1]), go(A[2])
            if k == pair:
                return (k, left, right)
            other = 'sum' if k == 'prod' else 'prod'
            return ('opp', (other, ('opp', left), ('opp', right)))
        gen, body = go(A[2]), go(A[3])
        if k == binder:
            return (k, A[1], gen, body)
        other = 'sg' if k == 'pi' else 'pi'
        return ('opp', (other, A[1], gen, ('opp', body)))

    return go(T)


def uses_only(T, basis):
    binder, pair = BASES[basis]
    k = T[0]
    if k == 'a':
        return True
    if k == 'opp':
        return uses_only(T[1], basis)
    if k in ('prod', 'sum'):
        return k == pair and uses_only(T[1], basis) and uses_only(T[2], basis)
    if k in ('pi', 'sg'):
        return (k == binder and uses_only(T[2], basis)
                and uses_only(T[3], basis))
    return False


def alpha_key(T, env=None, depth=0):
    """A binder-free key: equal keys iff the types are alpha-equivalent."""
    env = env or {}
    k = T[0]
    if k == 'var':
        return ('var', env.get(T[1], T[1]))
    if k == 'a':
        return ('a', T[1], tuple(alpha_key(t, env, depth) for t in T[2]))
    if k in ('pi', 'sg'):
        inner = dict(env)
        inner[T[1]] = depth
        return (k, alpha_key(T[2], env, depth),
                alpha_key(T[3], inner, depth + 1))
    return (k,) + tuple(alpha_key(c, env, depth) for c in T[1:])


def type_eq(A, B):
    """Definitional equality: alpha-equal opposite normal forms."""
    return alpha_key(onf(A)) == alpha_key(onf(B))


def nnf(f):
    k = f[0]
    if k == 'pred':
        return f
    if k in ('impl', 'coimpl', 'and', 'or'):
        return (k, nnf(f[1]), nnf(f[2]))
    if k in ('all', 'ex'):
        return (k, f[1], f[2], nnf(f[3]))
    g = f[1]
    gk = g[0]
    if gk == 'pred':
        return f
    if gk == 'neg':
        return nnf(g[1])
    if gk == 'and':
        return ('or', nnf(('neg', g[1])), nnf(('neg', g[2])))
    if gk == 'or':
        return ('and', nnf(('neg', g[1])), nnf(('neg', g[2])))
    if gk == 'impl':
        return ('coimpl', nnf(('neg', g[2])), nnf(('neg', g[1])))
    if gk == 'coimpl':
        return ('impl', nnf(('neg', g[2])), nnf(('neg', g[1])))
    if gk == 'all':
        return ('ex', g[1], g[2], nnf(('neg', g[3])))
    return ('all', g[1], g[2], nnf(('neg', g[3])))


def formula_type(f):
    """Propositions-as-types reading of a formula."""
    k = f[0]
    if k == 'pred':
        return atom(f[1], *(var(v) for v in f[2]))
    if k == 'neg':
        return ('opp', formula_type(f[1]))
    if k in ('all', 'ex'):
        return ('pi' if k == 'all' else 'sg', f[1], atom(f[2]),
                formula_type(f[3]))
    kind = {'impl': 'fun', 'coimpl': 'cofun', 'and': 'prod', 'or': 'sum'}[k]
    return (kind, formula_type(f[1]), formula_type(f[2]))


# ---------------------------------------------------------------------------
# Two-valued semantics, for showing that a goal has no inhabitant
# ---------------------------------------------------------------------------

def holds(T, val):
    """Truth of T in a valuation of the literals (atoms and opposite atoms
    are independent) over a one-element domain.  Every typing rule is
    sound for this reading, so a goal false in a valuation that makes
    every hypothesis true has no inhabitant at any depth."""
    N = onf(T)
    return _holds(N, val)


def _holds(N, val):
    k = N[0]
    if k == 'a':
        return val[N[1]]
    if k == 'opp':
        return val['~' + N[1][1]]
    if k in ('fun', 'pi'):
        dom, cod = (N[1], N[2]) if k == 'fun' else (N[2], N[3])
        return (not _holds(dom, val)) or _holds(cod, val)
    if k == 'cofun':
        return _holds(N[1], val) and _holds(onf_neg(N[2]), val)
    if k == 'sg':
        return _holds(N[2], val) and _holds(N[3], val)
    if k == 'prod':
        return _holds(N[1], val) and _holds(N[2], val)
    return _holds(N[1], val) or _holds(N[2], val)


# ---------------------------------------------------------------------------
# Conversion to the package's trees
# ---------------------------------------------------------------------------

def to_package(e, S):
    """Build the package tree for e; S is the opptypes.syntax module."""
    k = e[0]
    if k == 'a':
        return S.Atom(e[1], tuple(to_package(t, S) for t in e[2]))
    if k == 'var':
        return S.Var(e[1])
    if k == 'opp':
        return S.Opp(to_package(e[1], S))
    if k in ('pi', 'sg', 'lam'):
        cls = {'pi': S.Pi, 'sg': S.Sigma, 'lam': S.Lam}[k]
        return cls(e[1], to_package(e[2], S), to_package(e[3], S))
    if k == 'case':
        return S.Case(to_package(e[1], S), e[2], to_package(e[3], S),
                      e[4], to_package(e[5], S))
    if k == 'split':
        return S.Split(to_package(e[1], S), e[2], e[3], to_package(e[4], S))
    cls = {'fun': S.Fun, 'cofun': S.CoFun, 'prod': S.Prod, 'sum': S.Sum,
           'app': S.App, 'pair': S.Pair, 'p1': S.Proj1, 'p2': S.Proj2,
           'inl': S.Inl, 'inr': S.Inr, 'ann': S.Ann}[k]
    return cls(*(to_package(c, S) for c in e[1:]))
