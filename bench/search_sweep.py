"""Workload search_sweep: bounded inhabitation over a fixed hypothesis set.

An item is one `bounded_inhabit` call.  The hypotheses hold a function, a
co-function, a sum, refutations and the family p; among them are the
paper's x : a and y : ~a.  Goals are of two sorts:

* inhabited goals, whose witness the generator builds together with the
  goal, searched at the depth the witness needs or one more (the search
  must return a term, and that term must pass check and recheck);
* uninhabited goals at depths 5 to 8, each false in a two-valued
  valuation that makes every hypothesis true, so no depth can inhabit
  them; the paper's non-collapse goal b (from a and ~a) is one of them.

Time goes to the search, to onf of hypothesis types and to equivalence
tests; a decision procedure or normalizing the hypotheses once per context
would show here and nowhere else.  Each round also holds one hostile goal
with 3000 nested `~`, which raises RecursionError, a known defect.
"""

from __future__ import annotations

import random

import terms as T

A, B, C, D = (T.atom(n) for n in "abcd")
HOSTILE_NESTING = 3000

HYPS = {
    "x": A,
    "y": ('opp', A),
    "f": ('fun', C, D),
    "g": ('cofun', D, C),
    "s": ('sum', C, D),
    "r": ('opp', D),
    "k": ('pi', "u", C, T.atom("p", T.var("u"))),
}

# False goals that each cost about the same at depth 6; once per round they
# hold the median, so it does not fall in a gap between item classes.
MIDDLE_FALSE = (
    ('prod', B, A), ('prod', B, D), ('prod', ('opp', B), A),
    ('prod', ('opp', B), D), ('prod', B, ('opp', A)),
    ('prod', ('opp', B), ('opp', D)), ('prod', B, ('opp', D)),
    ('prod', ('opp', B), ('opp', A)),
    ('cofun', A, ('opp', ('opp', B))), ('cofun', A, ('opp', B)),
    ('cofun', D, ('opp', B)), ('cofun', D, ('opp', ('opp', B))),
    ('cofun', ('opp', A), ('opp', B)),
    ('cofun', ('opp', D), ('opp', ('opp', B))),
    ('fun', A, B), ('fun', D, ('opp', B)), ('fun', ('opp', A), B),
    ('fun', ('opp', D), ('opp', B)), ('fun', A, ('opp', B)), ('fun', D, B),
)

# (kind, n) of every item in a round: for inhabited goals n is the witness
# size and the search depth is what the witness needs plus SLACK; for the
# others n is the search depth.
ROUND = (
    [("inhabited", n) for n in (1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5)]
    + [("uninhabited", d) for d in (5, 5, 5, 6, 6, 6, 7, 7, 7)]
    + [("deep_false", 8)] * 7
    + [("middle_false", 6)] * len(MIDDLE_FALSE)
    + [("non_collapse", d) for d in (5, 6, 7, 8)]
    + [("hostile", 1)]
)
SLACK = (0, 1)        # extra search depth beyond what a witness needs
INHABITED_CAP = 7     # deeper searches for inhabited goals vary too much

KNOWN_DEFECTS = {"hostile": "RecursionError"}


class Item:
    def __init__(self, kind, goal, depth, inhabited):
        self.kind = f"{kind}_{depth}"
        self.goal, self.depth, self.inhabited = goal, depth, inhabited
        self.known_defect = KNOWN_DEFECTS.get(kind)
        self.fingerprint = hash((kind, goal, depth))


# ---------------------------------------------------------------------------
# Inhabited goals: a witness built with its type
# ---------------------------------------------------------------------------

# proofs available in every scope: (type, term, search depth it needs)
BASE = (
    (A, T.var("x"), 1),
    (('opp', A), T.var("y"), 1),
    (('opp', D), T.var("r"), 1),
    (('opp', C), ('p1', T.var("g")), 2),
    (D, ('p2', T.var("g")), 2),
)


def _witness(rng, size, env):
    """(type, term, need): need is the least search depth that reaches the
    term: one per introduction, and along a spine one per elimination,
    with the i-th argument searched i levels lower."""
    if size <= 0:
        choices = list(BASE) + [(ty, T.var(v), 1) for v, ty in env]
        return rng.choice(choices)
    k = rng.choice(('pair', 'cofun', 'inl', 'inr', 'lam', 'app', 'kapp'))
    if k in ('pair', 'cofun'):
        ty1, t1, n1 = _witness(rng, size - 1, env)
        ty2, t2, n2 = _witness(rng, size - 1, env)
        # the cofun intro pairs a refutation of R with a proof of B; a
        # proof t1 of ty1 refutes R = ~ty1
        ty = (('prod', ty1, ty2) if k == 'pair'
              else ('cofun', ty2, ('opp', ty1)))
        return ty, ('pair', t1, t2), 1 + max(n1, n2)
    if k in ('inl', 'inr'):
        ty1, t1, n1 = _witness(rng, size - 1, env)
        other = rng.choice((A, B, C, ('opp', B)))
        ty = ('sum', ty1, other) if k == 'inl' else ('sum', other, ty1)
        return ty, (k, t1), 1 + n1
    if k == 'lam':
        dom = rng.choice((B, C, ('opp', B)))
        v = f"z{len(env)}"
        ty1, t1, n1 = _witness(rng, size - 1, env + ((v, dom),))
        ty = (('pi', v, dom, ty1) if v in T.free_vars(ty1)
              else ('fun', dom, ty1))
        return ty, ('lam', v, dom, t1), 1 + n1
    cs = [v for v, ty in env if ty == C]
    if not cs:
        return _witness(rng, size - 1, env)
    v = rng.choice(cs)
    if k == 'app':
        # f v : d, a spine of one elimination whose argument needs depth 1
        return D, ('app', T.var("f"), T.var(v)), 2
    return T.atom("p", T.var(v)), ('app', T.var("k"), T.var(v)), 2


def _inhabited(rng, size):
    ty, _, need = _witness(rng, size, ())
    depth = min(INHABITED_CAP, need + rng.choice(SLACK))
    return Item("inhabited", ty, depth, True)


# ---------------------------------------------------------------------------
# Uninhabited goals: false in a valuation that satisfies every hypothesis
# ---------------------------------------------------------------------------

LITERALS = (A, ('opp', A), B, ('opp', B), C, ('opp', C), D, ('opp', D))
SG_P = ('sg', "u", C, T.atom("p", T.var("u")))

# A valuation in which every hypothesis holds (checked at import): a, ~a,
# d, ~c and ~d are true, every other literal is false.
MODEL = {"a": True, "~a": True, "b": False, "~b": False, "c": False,
         "~c": True, "d": True, "~d": True, "p": False, "~p": False}
FALSE_LEAVES = (B, ('opp', B), C, SG_P)
TRUE_LEAVES = (A, ('opp', A), D, ('opp', C), ('opp', D))


def _random_type(rng, size):
    if size <= 0:
        return rng.choice(LITERALS)
    k = rng.choice(('fun', 'cofun', 'prod', 'sum', 'opp'))
    if k == 'opp':
        return ('opp', _random_type(rng, size - 1))
    return (k, _random_type(rng, size - 1), _random_type(rng, size - 1))


def _false_type(rng, size):
    """A type false in MODEL whose first component to be searched is
    itself false, so the search fails without enumerating inhabitants of
    an earlier component."""
    if size <= 0:
        return rng.choice(FALSE_LEAVES)
    k = rng.choice(('prod', 'cofun', 'sum', 'fun', 'dual'))
    if k == 'prod':
        return ('prod', _false_type(rng, size - 1),
                _random_type(rng, size - 1))
    if k == 'cofun':
        # X <~ R is searched as a refutation of R first; ~~F is F
        return ('cofun', _random_type(rng, size - 1),
                ('opp', _false_type(rng, size - 1)))
    if k == 'sum':
        return ('sum', _false_type(rng, size - 1), _false_type(rng, size - 1))
    if k == 'fun':
        return ('fun', rng.choice(TRUE_LEAVES), _false_type(rng, size - 1))
    # F written as ~(dual F), an equal type
    return ('opp', T.dual(_false_type(rng, size - 1)))


def _uninhabited(rng, depth):
    # the search cost grows about tenfold per level, so deeper goals are
    # kept small
    size = {5: 2, 6: 2}.get(depth, 0)
    goal = _false_type(rng, rng.randint(0, size))
    if T.holds(goal, MODEL):
        raise AssertionError(f"goal {goal!r} holds in the model")
    return Item("uninhabited", goal, depth, False)


if not all(T.holds(ty, MODEL) for ty in HYPS.values()):
    raise AssertionError("MODEL does not satisfy the hypotheses")


def make_round(seed, index):
    from opptypes import syntax as S
    rng = random.Random(f"search_sweep/{seed}/{index}")
    specs = list(ROUND)
    rng.shuffle(specs)
    # The costliest items are the same in every round: at the search cap,
    # c and Sg u:c. p(u) (about twice the rest), then ~b, b * x, ~b * x,
    # b + ~b and a -> b, which with the non-collapse goal b hold the 90th
    # percentile.
    deep_goals = iter((('opp', B), C, SG_P, ('prod', B, rng.choice((A, D))),
                       ('prod', ('opp', B), rng.choice((A, D))),
                       ('sum', B, ('opp', B)), ('fun', A, B)))
    middle_goals = iter(MIDDLE_FALSE)
    items = []
    for kind, depth in specs:
        if kind == "inhabited":
            item = _inhabited(rng, depth)
        elif kind == "uninhabited":
            item = _uninhabited(rng, depth)
        elif kind == "deep_false":
            item = Item("uninhabited", next(deep_goals), depth, False)
        elif kind == "middle_false":
            item = Item("uninhabited", next(middle_goals), depth, False)
        elif kind == "non_collapse":
            item = Item("non_collapse", B, depth, False)
        else:
            item = Item("hostile", None, depth, True)
        item.goal_tree = (_hostile_goal(S) if item.goal is None
                          else T.to_package(item.goal, S))
        items.append(item)
    return items


def _hostile_goal(S):
    """~~...~a with an even count, equal to a; built bottom-up, since it is
    too deep to recurse on."""
    ty = S.Atom("a")
    for _ in range(HOSTILE_NESTING):
        ty = S.Opp(ty)
    return ty


def probe_item(seed):
    from opptypes import syntax as S
    item = _inhabited(random.Random(f"search_sweep/{seed}/probe"), 2)
    item.goal_tree = T.to_package(item.goal, S)
    return item


# -- the program under test ---------------------------------------------------

def build_state(opptypes):
    S = opptypes
    ctx = S.EMPTY
    for name in "abcd":
        ctx = S.declare_type_const(ctx, name)
    ctx = S.declare_type_const(ctx, "p", (("x1", S.Atom("c")),))
    for name, ty in HYPS.items():
        ctx = S.declare_term(ctx, name, T.to_package(ty, S))
    return S, ctx


def run_item(state, item):
    S, ctx = state
    return S.bounded_inhabit(ctx, item.goal_tree, item.depth)


def check_verdict(item, verdict, state):
    """The verdict is the term found, or None."""
    if verdict is None:
        return "no inhabitant found" if item.inhabited else None
    if not item.inhabited:
        return f"found {verdict} for a goal false in a model of the context"
    S, ctx = state
    try:
        if not S.recheck(S.check(ctx, verdict, item.goal_tree)):
            return f"derivation of {verdict} does not recheck"
    except S.TypeTheoryError as e:
        return f"returned {verdict}, which does not check: {e}"
    return None
