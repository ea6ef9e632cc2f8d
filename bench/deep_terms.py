"""Workload deep_terms: deep judgments in a small context.

An item is one judgment: `check`, then `recheck` of its derivation, then
`term_equal` against a twin that is an eta expansion or an unreduced form
of the same term (or, for a few items, a different term of the same
type).  Terms are built as trees, never parsed: lambda/arrow chains,
pair/co-function nests and dependent Pi/Sg items with split and case, at
depths up to 200.  Time goes to check, recheck and term_equal and to
substitution, alpha-equality and normalization; the parser, the search
and context size play no part.

Binder names come from a small pool shared with the hypotheses, without
filtering, so shadowing and renaming are exercised.  Each round also
holds items whose verdict is a mismatch (a perturbed type), two hostile
items that raise RecursionError (3000 nested `~`, a 1000-deep lambda
chain), and ROADMAP's split-capture judgment in a capturing and a
non-capturing naming; the capturing one is wrongly rejected, a known
defect.
"""

from __future__ import annotations

import random

import terms as T

POOL = ("x", "y", "z", "w", "u", "v")
HOSTILE_NESTING = 3000
HOSTILE_LAMBDAS = 1000

A, B, C = T.atom("a"), T.atom("b"), T.atom("c")
P_Y, Q_Y = T.atom("p", T.var("y")), T.atom("q", T.var("y"))
SG_P = ('sg', "u", A, T.atom("p", T.var("u")))
SG_Q = ('sg', "t", A, T.atom("q", T.var("t")))

# name -> type of every hypothesis (see build_state)
HYPS = {
    "y": A,
    "w": P_Y,
    "z": Q_Y,
    "k": ('opp', B),
    "e": ('sum', A, ('opp', B)),
    "h": ('opp', ('fun', A, B)),
    "f": ('pi', "u", A, T.atom("p", T.var("u"))),
    "g": ('pi', "u", A, ('fun', T.atom("p", T.var("u")),
                          T.atom("q", T.var("u")))),
    "s": SG_P,
}

# (kind, depth, variant) of every item in a round; variant is the known
# outcome: 'eq' (twin equal), 'ne' (twin different), 'bad' (mismatch).
ROUND = (
    [("chain", d, v) for d, v in ((3, 'eq'), (4, 'bad'), (5, 'ne'),
                                  (6, 'eq'), (8, 'eq'), (10, 'bad'),
                                  (12, 'eq'), (16, 'ne'), (24, 'eq'),
                                  (32, 'eq'), (48, 'eq'), (64, 'eq'))]
    + [("nest", d, v) for d, v in ((3, 'eq'), (4, 'ne'), (6, 'bad'),
                                   (8, 'eq'), (12, 'eq'), (16, 'eq'),
                                   (24, 'ne'), (32, 'eq'), (48, 'eq'),
                                   (64, 'eq'))]
    + [("pi", d, v) for d, v in ((3, 'eq'), (6, 'bad'), (12, 'eq'),
                                 (24, 'eq'), (48, 'eq'))]
    + [("split", d, v) for d, v in ((2, 'eq'), (4, 'bad'), (8, 'eq'),
                                    (16, 'eq'), (32, 'eq'))]
    + [("case", d, v) for d, v in ((2, 'eq'), (4, 'bad'), (8, 'eq'),
                                   (16, 'eq'), (32, 'eq'))]
    # arrow chains cost the same in every round: the 16-deep block holds
    # the median and the 80-deep one, with the 48-deep items, the 90th
    # percentile, so neither falls in a gap between item classes; the
    # 4-deep ones even out the items below and above the 16-deep block,
    # so the median sits in its middle rather than at an edge
    + [("arrow", 4, 'eq')] * 6 + [("arrow", 16, 'eq')] * 20
    + [("arrow", 80, 'eq')] * 8
    + [("arrow", 200, 'eq'),
       ("capture", 1, 'eq'), ("capture_safe", 1, 'eq'),
       ("hostile_opp", HOSTILE_NESTING, 'eq'),
       ("hostile_lam", HOSTILE_LAMBDAS, 'eq')]
)

KNOWN_DEFECTS = {"capture": "split capture",
                 "hostile_opp": "RecursionError",
                 "hostile_lam": "RecursionError"}


class Item:
    """One judgment; trees are the package's own, built by build()."""

    def __init__(self, kind, depth, term, type_, twin, expected):
        self.kind = f"{kind}_{depth}"
        self.term, self.type, self.twin = term, type_, twin
        self.expected = expected
        self.known_defect = KNOWN_DEFECTS.get(kind)


# ---------------------------------------------------------------------------
# Leaf proofs: (type, term) pairs valid while their names are not shadowed
# ---------------------------------------------------------------------------

LEAVES = (
    (A, T.var("y")),
    (A, ('p1', T.var("h"))),
    (A, ('p1', T.var("s"))),
    (('opp', B), T.var("k")),
    (('opp', B), ('p2', T.var("h"))),
    (P_Y, T.var("w")),
    (P_Y, ('app', T.var("f"), T.var("y"))),
    (Q_Y, T.var("z")),
    (Q_Y, ('app', ('app', T.var("g"), T.var("y")), T.var("w"))),
    (('sum', A, ('opp', B)), T.var("e")),
    (('opp', ('fun', A, B)), T.var("h")),
    (('fun', P_Y, Q_Y), ('app', T.var("g"), T.var("y"))),
)

# domain types with an unnormalized (equal or equivalent) annotation
DOMAINS = (
    (A, ('opp', ('opp', A))),
    (B, ('opp', ('opp', B))),
    (('opp', B), ('opp', ('opp', ('opp', B)))),
    (('prod', A, ('opp', B)), ('opp', ('fun', A, B))),
    (('fun', A, B), ('opp', ('cofun', ('opp', B), ('opp', A)))),
    (P_Y, P_Y),
)


def _visible(scope, names):
    """True when every name still refers to its hypothesis."""
    return all(scope.get(n) == ("hyp", n) for n in names)


def _leaves(scope):
    return [(ty, t) for ty, t in LEAVES if _visible(scope, T.free_vars(t))]


def _identity_app(v, ty, t):
    """(\\v:ty. v) t, which beta-reduces to t."""
    return ('app', ('lam', v, ty, T.var(v)), t)


def _eta_twin(rng, ty, t, avoid, scope):
    """Eta expansion of t at a function-like or pair-like type, or None.
    An empty scope means no binder is open, so every name is visible."""
    if ty[0] == 'fun' and (not scope or _visible(scope, T.free_vars(ty[1]))):
        taken = set(avoid) | T.free_vars(t) | T.free_vars(ty)
        v = rng.choice([n for n in POOL if n not in taken])
        return ('lam', v, ty[1], ('app', t, T.var(v)))
    if ty == ('opp', ('fun', A, B)):
        return ('pair', ('p1', t), ('p2', t))
    return None


# ---------------------------------------------------------------------------
# Generators.  Each returns (term, type, twin, expected) in the tuple model;
# deep spines are built with loops, never with recursion.
# ---------------------------------------------------------------------------

def _chain(rng, depth, variant):
    scope = {n: ("hyp", n) for n in HYPS}
    types = {n: ty for n, ty in HYPS.items()}
    binders = []
    for i in range(depth):
        dom, ann = rng.choice([d for d in DOMAINS
                               if _visible(scope, T.free_vars(d[0]))])
        v = rng.choice(POOL)
        binders.append((v, dom, ann))
        scope[v] = ("bound", i)
        types[v] = dom
    visible = [n for n in scope]
    v = rng.choice(visible)
    body, result = T.var(v), types[v]
    twin_body = None
    if variant == 'ne':
        same = [n for n in visible if n != v and types[n] == result]
        if same:
            twin_body = T.var(rng.choice(same))
        else:
            variant = 'eq'
    if variant == 'eq':
        twin_body = _eta_twin(rng, result, body, {v}, scope)
        if twin_body is None or rng.random() < 0.5:
            if _visible(scope, T.free_vars(result)):
                twin_body = _identity_app(rng.choice(POOL), result, body)
            elif twin_body is None:
                twin_body = body
    if variant == 'bad':
        result, twin_body = C, body
    term, twin, ty = body, twin_body, result
    for v, dom, ann in reversed(binders):
        term, twin = ('lam', v, ann, term), ('lam', v, ann, twin)
        ty = ('fun', dom, ty)
    expected = ('reject',) if variant == 'bad' else ('accept', variant == 'eq')
    return term, ty, twin, expected


def _arrow(rng, depth, variant):
    """An arrow chain over a with binders x1, x2, ...; at depth 200 it is
    ROADMAP's point.  (Pool names would make every binder a rename, which
    costs several times more in recheck.)"""
    names = [f"x{i + 1}" for i in range(depth)]
    k = rng.randrange(depth)
    term = T.var(names[k])
    twin = _identity_app(rng.choice(POOL), A, term)
    ty = A
    for name in reversed(names):
        ann = A if rng.random() < 0.5 else ('opp', ('opp', A))
        term, twin = ('lam', name, ann, term), ('lam', name, ann, twin)
        ty = ('fun', A, ty)
    return term, ty, twin, ('accept', True)


def _unnormalize(ty):
    """An equal type with the outer constructor written through ~."""
    k = ty[0]
    if k == 'prod':
        return ('opp', ('sum', ('opp', ty[1]), ('opp', ty[2])))
    if k == 'sum':
        return ('opp', ('prod', ('opp', ty[1]), ('opp', ty[2])))
    if k == 'cofun':
        return ('opp', ('fun', ('opp', ty[2]), ('opp', ty[1])))
    return ty


REFUTED = ((B, T.var("k")), (('opp', A), T.var("y")),
           (('fun', A, B), T.var("h")))


def _nest(rng, depth, variant):
    leaves = _leaves({n: ("hyp", n) for n in HYPS})
    # layers[0] is the innermost leaf; each later layer wraps the nest so
    # far.  Pair layers carry a leaf proof, which is a slot that the twin
    # or the perturbation may alter.
    layers = [('leaf',) + rng.choice(leaves)]
    for _ in range(depth):
        k = rng.choice(('prod_l', 'prod_r', 'cofun', 'inl', 'inr'))
        if k == 'cofun':
            ref_ty, ref = rng.choice(REFUTED)
            layers.append((k, ref_ty, ref))
        else:
            layers.append((k,) + rng.choice(leaves))
    slots = [i for i, layer in enumerate(layers)
             if layer[0] in ('leaf', 'prod_l', 'prod_r', 'cofun')]
    pick = rng.choice(slots)
    expected = ('reject',) if variant == 'bad' else ('accept', True)

    def alter(lty, lt):
        """(type, twin) for the picked slot whose proof lt has type lty."""
        nonlocal expected
        if variant == 'bad':
            return C, lt
        if variant == 'ne':
            alts = [t2 for ty2, t2 in leaves if ty2 == lty and t2 != lt]
            if alts:
                expected = ('accept', False)
                return lty, rng.choice(alts)
        twin = _eta_twin(rng, lty, lt, set(), {})
        if twin is None or rng.random() < 0.5:
            twin = _identity_app(rng.choice(POOL), lty, lt)
        return lty, twin

    ty = t = tw = None
    for i, (k, lty, lt) in enumerate(layers):
        if k == 'cofun':
            # B <~ R is a pair of a refutation of R and a proof of B
            ltw = lt
            if i == pick:
                new_ty, ltw = alter(('opp', lty), lt)
                if new_ty == C:
                    lty = ('opp', C)
            ty = ('cofun', ty, lty)
            t, tw = ('pair', lt, t), ('pair', ltw, tw)
        elif k in ('leaf', 'prod_l', 'prod_r'):
            ltw = lt
            if i == pick:
                lty, ltw = alter(lty, lt)
            if k == 'leaf':
                ty, t, tw = lty, lt, ltw
            elif k == 'prod_l':
                ty = ('prod', lty, ty)
                t, tw = ('pair', lt, t), ('pair', ltw, tw)
            else:
                ty = ('prod', ty, lty)
                t, tw = ('pair', t, lt), ('pair', tw, ltw)
        elif k == 'inl':
            ty = ('sum', ty, lty)
            t, tw = ('inl', t), ('inl', tw)
        else:
            ty = ('sum', lty, ty)
            t, tw = ('inr', t), ('inr', tw)
        if i and rng.random() < 0.25:
            ty = _unnormalize(ty)
    return t, ty, tw, expected


def _pi(rng, depth, variant):
    scope = {n: ("hyp", n) for n in HYPS}
    binders = []
    for i in range(depth):
        v = rng.choice(POOL)
        ann = A if rng.random() < 0.5 else ('opp', ('opp', A))
        binders.append((v, ann))
        scope[v] = ("bound", i)
    sort_a = [n for n, s in scope.items()
              if (s[0] == "bound") or HYPS.get(n) == A]
    v = rng.choice(sort_a)
    shape = rng.choice(('f', 'g', 'sg'))
    if shape == 'f':
        body, ty = ('app', T.var("f"), T.var(v)), T.atom("p", T.var(v))
        bad = T.atom("q", T.var(v))
    elif shape == 'g':
        body = ('app', ('app', T.var("g"), T.var(v)),
                ('app', T.var("f"), T.var(v)))
        ty, bad = T.atom("q", T.var(v)), T.atom("p", T.var(v))
    else:
        t = rng.choice(POOL)
        body = ('pair', T.var(v), ('app', T.var("f"), T.var(v)))
        ty = ('sg', t, A, T.atom("p", T.var(t)))
        bad = ('sg', t, A, T.atom("q", T.var(t)))
    twin = _identity_app(rng.choice(POOL), ('opp', ('opp', A)), T.var(v))
    twin_body = _replace_var_arg(body, v, twin)
    if variant == 'bad':
        ty = bad
    term, tw = body, twin_body
    for name, ann in reversed(binders):
        term = ('lam', name, ann, term)
        tw = ('lam', name, ann, tw)
        ty = ('pi', name, A, ty)
    expected = ('reject',) if variant == 'bad' else ('accept', True)
    return term, ty, tw, expected


def _replace_var_arg(body, v, replacement):
    """body with the argument occurrences of v replaced (f v -> f r)."""
    if body[0] == 'app':
        fn, arg = body[1], body[2]
        return ('app', _replace_var_arg(fn, v, replacement),
                replacement if arg == T.var(v) else
                _replace_var_arg(arg, v, replacement))
    if body[0] == 'pair':
        return ('pair', body[1], _replace_var_arg(body[2], v, replacement))
    return body


def _split(rng, depth, variant):
    scope = {n: ("hyp", n) for n in HYPS}
    pairs = []
    layers = []
    for i in range(depth):
        v1, v2 = rng.choice(POOL), rng.choice(POOL)
        layers.append((v1, v2))
        scope[v1] = ("bound", 2 * i)
        scope[v2] = ("bound", 2 * i + 1)
        if v1 != v2:
            pairs.append((v1, v2, 2 * i))
    live = [(x, y) for x, y, uid in pairs
            if scope[x] == ("bound", uid) and scope[y] == ("bound", uid + 1)]
    if live:
        x, w = rng.choice(live)
        body = ('pair', T.var(x),
                ('app', ('app', T.var("g"), T.var(x)), T.var(w)))
    elif _visible(scope, ("y", "z")):
        body = ('pair', T.var("y"), T.var("z"))
    else:
        ps = ('p1', T.var("s"))
        body = ('pair', ps,
                ('app', ('app', T.var("g"), ps), ('p2', T.var("s"))))
    goal = SG_Q if variant != 'bad' else ('sg', "t", A,
                                          T.atom("p", T.var("t")))
    term = body
    for v1, v2 in reversed(layers):
        term = ('split', T.var("s"), v1, v2, term)
    twin = _identity_app(rng.choice(POOL), SG_Q, term)
    expected = ('reject',) if variant == 'bad' else ('accept', True)
    return term, goal, twin, expected


def _case(rng, depth, variant):
    layers = [(rng.choice(POOL), rng.choice(POOL)) for _ in range(depth)]
    goal = ('sum', ('opp', B), A)
    # innermost left branch: the nearest left binder, which has type a
    term = ('inr', T.var(layers[-1][0]))
    for lv, rv in reversed(layers):
        term = ('case', T.var("e"), lv, term, rv, ('inl', T.var(rv)))
    ident = ('ann', ('case', T.var("e"), "u", ('inl', T.var("u")),
                     "v", ('inr', T.var("v"))), HYPS["e"])
    twin = ('case', ident) + term[2:]
    if variant == 'bad':
        goal = ('sum', ('opp', B), C)
    expected = ('reject',) if variant == 'bad' else ('accept', True)
    return term, goal, twin, expected


def _capture(rng, capturing):
    """ROADMAP's judgment z : q(split <y, w> as (v1, v2) => v1); its type
    is q(y).  When v2 is y, substituting v1 first captures it."""
    if capturing:
        v1, v2 = rng.choice([n for n in POOL if n != "y"]), "y"
    else:
        v1, v2 = rng.sample([n for n in POOL if n != "y"], 2)
    pair = ('ann', ('pair', T.var("y"), T.var("w")), SG_P)
    ty = T.atom("q", ('split', pair, v1, v2, T.var(v1)))
    twin = _identity_app(rng.choice(POOL), Q_Y, T.var("z"))
    return T.var("z"), ty, twin, ('accept', True)


GENERATORS = {"arrow": _arrow, "chain": _chain, "nest": _nest, "pi": _pi,
              "split": _split, "case": _case}


def _hostile(kind, S):
    """Deep trees built bottom-up, since they are too deep to recurse on."""
    if kind == "hostile_opp":
        ty = S.Atom("a")
        for _ in range(HOSTILE_NESTING):
            ty = S.Opp(ty)
        return S.Var("y"), ty
    ty, term = S.Atom("a"), S.Var("x")
    for _ in range(HOSTILE_LAMBDAS):
        ty = S.Fun(S.Atom("a"), ty)
        term = S.Lam("x", S.Atom("a"), term)
    return term, ty


def build(kind, depth, variant, rng, S):
    if kind.startswith("hostile"):
        term, ty = _hostile(kind, S)
        item = Item(kind, depth, term, ty, term, ('accept', True))
        item.fingerprint = hash(kind)
        return item
    if kind in ("capture", "capture_safe"):
        term, ty, twin, expected = _capture(rng, kind == "capture")
    else:
        term, ty, twin, expected = GENERATORS[kind](rng, depth, variant)
    conv = T.to_package
    item = Item(kind, depth, conv(term, S), conv(ty, S), conv(twin, S),
                expected)
    item.fingerprint = hash((term, ty, twin))
    return item


def make_round(seed, index):
    from opptypes import syntax as S
    rng = random.Random(f"deep_terms/{seed}/{index}")
    specs = list(ROUND)
    rng.shuffle(specs)
    return [build(kind, depth, variant, rng, S)
            for kind, depth, variant in specs]


def probe_item(seed):
    from opptypes import syntax as S
    rng = random.Random(f"deep_terms/{seed}/probe")
    return build("chain", 4, 'eq', rng, S)


# -- the program under test ---------------------------------------------------

def build_state(opptypes):
    S = opptypes
    a = S.Atom("a")
    ctx = S.declare_type_const(S.EMPTY, "a")
    ctx = S.declare_type_const(ctx, "b")
    ctx = S.declare_type_const(ctx, "c")
    ctx = S.declare_type_const(ctx, "p", (("x1", a),))
    ctx = S.declare_type_const(ctx, "q", (("x1", a),))
    for name, ty in HYPS.items():
        ctx = S.declare_term(ctx, name, T.to_package(ty, S))
    return S, ctx


def run_item(state, item):
    """check, recheck, term_equal; a TypeTheoryError from check is the
    verdict 'reject'."""
    K, ctx = state
    try:
        d = K.check(ctx, item.term, item.type)
    except K.TypeTheoryError as e:
        return ('reject', type(e).__name__)
    ok = K.recheck(d)
    return ('accept', ok, K.term_equal(ctx, item.term, item.twin, item.type))


def check_verdict(item, verdict, state):
    want = item.expected
    if want[0] == 'reject':
        if verdict == ('reject', 'TypeMismatch'):
            return None
        return f"expected a TypeMismatch, got {verdict}"
    if verdict == ('accept', True, want[1]):
        return None
    return f"expected accept with twin equal={want[1]}, got {verdict}"
