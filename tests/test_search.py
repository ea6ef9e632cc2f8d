"""The inhabitation searcher against the plain enumerator in search_oracle.

The searcher keeps on each context its hypotheses, normalized and indexed,
and skips enumerations its index or an earlier empty run proves empty.
These tests hold it to the plain enumeration: the same first term,
the same sequence of terms, results that only grow with depth, terms that
check and recheck, and answers that do not depend on earlier calls.
"""

import copy
import pickle
import random
from itertools import islice

import pytest

import opptypes.search as search
import search_oracle
from opptypes import (EMPTY, Atom, Fun, Sum, TermExpr, TypeExpr,
                      bounded_inhabit, check, declare_term,
                      declare_type_const, onf, parse_type, recheck)
from opptypes.kernel import Context
from opptypes.search import iter_inhabitants

from generators import rand_type, std_ctx
from search_oracle import first_inhabitant, oracle_inhabitants

# the context of the search_sweep benchmark workload: among its hypotheses
# are the paper's x : a and y : ~a
SWEEP_CONSTS = ("a", "b", "c", "d")
SWEEP_HYPS = (("x", "a"), ("y", "~a"), ("f", "c -> d"), ("g", "d <~ c"),
              ("s", "c + d"), ("r", "~d"), ("k", "Pi u:c. p(u)"))
SWEEP_GOALS = ("a", "~a", "b", "~b", "d", "b * a", "b + ~b", "a -> b",
               "a * b + ~c", "~d * a", "Pi u:c. p(u) + d", "Sg u:c. p(u)",
               "Pi u:c. p(u)", "~(c -> d)", "~(a * ~a)", "a -> ~a -> b")

def _sweep_ctx(hyps=SWEEP_HYPS):
    ctx = EMPTY
    for name in SWEEP_CONSTS:
        ctx = declare_type_const(ctx, name)
    ctx = declare_type_const(ctx, "p", (("x1", Atom("c")),))
    for name, ty in hyps:
        ctx = declare_term(ctx, name, parse_type(ty))
    return ctx


def _sweep_goals():
    return [parse_type(g) for g in SWEEP_GOALS]


def _generated_cases(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        ctx = std_ctx()
        for i in range(rng.randint(1, 3)):
            ctx = declare_term(ctx, f"h{i}",
                               rand_type(rng, rng.randint(0, 3)))
        yield ctx, rand_type(rng, rng.randint(0, 3)), rng.randint(1, 6)


def _sum_cases(seed, n):
    """Generated contexts with two to four hypotheses, two or more of them
    Sums, each with a goal: where case splits search the same goal again
    under different bound hypotheses."""
    rng = random.Random(seed)
    while n:
        hyps = [rand_type(rng, rng.randint(0, 3))
                for _ in range(rng.randint(2, 4))]
        goal = rand_type(rng, rng.randint(0, 2))
        if sum(isinstance(onf(h), Sum) for h in hyps) < 2:
            continue
        ctx = std_ctx()
        for i, h in enumerate(hyps):
            ctx = declare_term(ctx, f"h{i}", h)
        n -= 1
        yield ctx, onf(goal)


def test_first_term_matches_oracle_on_generated_goals():
    found = 0
    for ctx, goal, depth in _generated_cases(5150, 120):
        got = bounded_inhabit(ctx, goal, depth)
        assert got == first_inhabitant(ctx, goal, depth)
        found += got is not None
    assert 20 < found < 120


def test_first_term_matches_oracle_on_sweep_goals():
    ctx = _sweep_ctx()
    for goal in _sweep_goals():
        for depth in range(1, 7):
            assert (bounded_inhabit(ctx, goal, depth)
                    == first_inhabitant(ctx, goal, depth)), (goal, depth)


def test_enumeration_matches_oracle_at_small_depths():
    cases = list(_generated_cases(6160, 60))
    ctx = _sweep_ctx()
    cases += [(ctx, goal, 4) for goal in _sweep_goals()]
    for ctx, goal, depth in cases:
        nf = onf(goal)
        for d in range(1, min(depth, 4) + 1):
            assert (list(iter_inhabitants(ctx, nf, d))
                    == list(oracle_inhabitants(ctx, nf, d)))


def test_results_grow_with_depth_and_check():
    cases = list(_generated_cases(7170, 40))
    ctx = _sweep_ctx()
    cases += [(ctx, goal, 4) for goal in _sweep_goals()]
    for ctx, goal, _ in cases:
        nf = onf(goal)
        previous = []
        for d in range(1, 5):
            terms = list(iter_inhabitants(ctx, nf, d))
            assert set(previous) <= set(terms), (goal, d)
            for t in terms:
                assert recheck(check(ctx, t, goal))
            previous = terms


def test_answers_do_not_depend_on_call_order():
    # what the first search keeps on a context serves every later one, in
    # either order, as a fresh context (a pickled twin) for each goal would
    (c1, g1, d1), (c2, g2, d2) = list(_generated_cases(8180, 2))
    sweep = _sweep_ctx()
    runs = [(c1, g1, d1), (c2, g2, d2)] + [(sweep, g, 6)
                                         for g in _sweep_goals()]
    forward = [bounded_inhabit(*run) for run in runs]
    backward = [bounded_inhabit(*run) for run in reversed(runs)]
    alone = [bounded_inhabit(pickle.loads(pickle.dumps(ctx)), goal, depth)
             for ctx, goal, depth in runs]
    assert forward == backward[::-1] == alone


def test_enumeration_matches_oracle_under_sum_hypotheses():
    inhabited = 0
    for ctx, goal in _sum_cases(5, 12):
        terms = list(islice(iter_inhabitants(ctx, goal, 7), 200))
        assert terms == list(islice(oracle_inhabitants(ctx, goal, 7), 200))
        inhabited += bool(terms)
    assert 0 < inhabited < 12


@pytest.mark.parametrize("goal", ["b", "b + ~b", "Sg u:c. p(u)"])
def test_empty_subproblems_are_pruned(goal, monkeypatch):
    # the index and the early stop leave at most a third of the plain
    # enumeration's nodes on a goal with no inhabitant
    ctx, goal = _sweep_ctx(), onf(parse_type(goal))
    searched = _count_calls(monkeypatch, search, "iter_inhabitants")
    plain = _count_calls(monkeypatch, search_oracle, "oracle_inhabitants")
    assert next(search.iter_inhabitants(ctx, goal, 6), None) is None
    assert next(search_oracle.oracle_inhabitants(ctx, goal, 6), None) is None
    assert len(plain) >= 3 * len(searched), (len(plain), len(searched))


def test_non_collapse_at_the_cap_prunes_unreachable_heads(monkeypatch):
    ctx, goal = _sweep_ctx(), onf(parse_type("b"))
    searched = _count_calls(monkeypatch, search, "iter_inhabitants")
    assert next(search.iter_inhabitants(ctx, goal, 8), None) is None
    assert len(searched) <= 50, len(searched)


# f, g and h build ever more terms of a with depth
TREES = (("f", "a -> a -> a"), ("g", "a -> a -> a"), ("h", "a -> a -> a"),
         ("x", "a"))

# one small context per arm of the reach test, and two where an empty half
# ends the enumeration of the other: hypotheses, goal, and whether the
# goal has an inhabitant at depth 5
PRUNED_CASES = {
    "sum_in_codomain": ((("x", "a"), ("f", "a -> b + b")), "b", True),
    "sum_in_pair": ((("x", "a"), ("f", "a -> c * (b + b)")), "b", True),
    "cofun_second": ((("x", "a"), ("f", "a -> (b <~ c)")), "b", True),
    "cofun_first": ((("x", "a"), ("f", "a -> (b <~ c)")), "~c", True),
    "family": ((("k", "Pi u:c. p(u)"), ("z", "c")), "p(z)", True),
    "family_in_codomain": ((("x", "a"), ("k", "a -> Pi u:c. p(u)"),
                            ("z", "c")), "p(z)", True),
    # a Sum is a wildcard: a case split keeps a dependent pair open
    "sum_keeps_pair_open": ((("z", "c"), ("s", "p(z) + p(z)")),
                            "Sg u:c. p(u)", True),
    # p is reached only through the hypothesis the lambda binds
    "bound_reaches_pair": ((("z", "c"),), "(Pi u:c. p(u)) -> Sg u:c. p(u)",
                           True),
    # p is reached only through the second half of a Sg hypothesis
    "sigma_second": ((("x", "a"), ("q", "Sg u:c. (a -> p(u))")),
                     "Sg u:c. p(u)", True),
    # the pair's ~p is reached only through a co-function's first half
    "cofun_first_in_pair": ((("z", "c"), ("x", "a"),
                             ("f", "a -> (b <~ p(z))")), "Sg u:c. ~p(u)",
                            True),
    "polarity_other": ((("x", "a"), ("f", "a -> ~b")), "b", False),
    "polarity_same": ((("x", "a"), ("f", "a -> ~b")), "~b", True),
    "empty_second": (TREES, "a * b", False),
    "empty_argument": (TREES + (("k", "a -> b -> b"),), "b", False),
    # the terms bind w2 and x2: fresh names skip the context's names and
    # those bound higher on the branch
    "fresh_names": ((("x", "a"), ("x1", "a"), ("w", "b"), ("w1", "a + b")),
                    "a -> b + a", True),
}


@pytest.mark.parametrize("case", sorted(PRUNED_CASES))
def test_pruned_enumeration_matches_oracle(case):
    hyps, goal, inhabited = PRUNED_CASES[case]
    ctx, goal = _sweep_ctx(hyps), onf(parse_type(goal))
    for depth in range(1, 6):
        assert (list(iter_inhabitants(ctx, goal, depth))
                == list(oracle_inhabitants(ctx, goal, depth))), depth
    assert (bounded_inhabit(ctx, goal, 5) is not None) == inhabited


@pytest.mark.parametrize("case, at_6, at_8", [("empty_second", 20, 51),
                                              ("empty_argument", 28, 78)])
def test_an_empty_half_ends_the_other(case, at_6, at_8, monkeypatch):
    # b has no inhabitant, so neither has the pair's second half nor k's
    # second argument, for any of the many terms of a before them
    hyps, goal, _ = PRUNED_CASES[case]
    ctx, goal = _sweep_ctx(hyps), onf(parse_type(goal))
    searched = _count_calls(monkeypatch, search, "iter_inhabitants")
    for depth, most in ((6, at_6), (8, at_8)):
        searched.clear()
        assert next(search.iter_inhabitants(ctx, goal, depth), None) is None
        assert len(searched) <= most, (depth, len(searched))


def _defect_ctx():
    ctx = declare_type_const(declare_type_const(EMPTY, "a"), "p",
                             (("x1", Atom("a")),))
    for name, ty in TREES:
        ctx = declare_term(ctx, name, parse_type(ty))
    return ctx


def test_a_dependent_pair_with_an_unreachable_half_ends(monkeypatch):
    # no hypothesis spine ends in p, so Sg u:a. p(u) is empty whatever
    # term of a comes first; without the index the search enumerated
    # them all, with 1074 iter_inhabitants calls at depth 6 and 54561 at
    # depth 7, and had not answered after 300 s at depth 8
    ctx, goal = _defect_ctx(), onf(parse_type("Sg u:a. p(u)"))
    searched = _count_calls(monkeypatch, search, "iter_inhabitants")
    for depth in (6, 8):
        searched.clear()
        assert next(search.iter_inhabitants(ctx, goal, depth), None) is None
        assert len(searched) == 1, (depth, len(searched))
    assert bounded_inhabit(ctx, goal, 8) is None


def test_the_index_starts_fewer_eliminations(monkeypatch):
    # every term of every sweep goal at depth 6; without the index the
    # search made 957 iter_inhabitants and 6701 _eliminate calls, 1524
    # _eliminate calls while it projected into every half, and 957 and
    # 1359 while a leaf started an _eliminate per hypothesis and an
    # introduction whose parts were searched at depth 0, and 940 and 1063
    # while a case was started at depth 1, whose branches got depth 0;
    # 766 and 1063 while a memo of empty subproblems skipped a repeated
    # (bound hypotheses, goal) search at no greater depth
    ctx, goals = _sweep_ctx(), [onf(g) for g in _sweep_goals()]
    expected = [t for goal in goals for t in oracle_inhabitants(ctx, goal, 6)]
    searched = _count_calls(monkeypatch, search, "iter_inhabitants")
    eliminated = _count_calls(monkeypatch, search, "_eliminate")
    found = [t for goal in goals
             for t in search.iter_inhabitants(ctx, goal, 6)]
    assert found == expected and len(found) == 340
    assert len(searched) == 805, len(searched)
    assert len(eliminated) == 1095, len(eliminated)


def test_a_warm_search_hashes_no_node(monkeypatch):
    # the search keys nothing on types or terms: once the first round has
    # kept the hypotheses and each type's _spine, a second round over the
    # sweep goals hashes no node (a memo keyed on the bound hypotheses and
    # the goal hashed 1079)
    ctx, goals = _sweep_ctx(), _sweep_goals()
    first = [bounded_inhabit(ctx, goal, 6) for goal in goals]
    hashed = []
    for cls in TypeExpr.__subclasses__() + TermExpr.__subclasses__():
        monkeypatch.setattr(cls, "__hash__", lambda self, real=cls.__hash__:
                            hashed.append(self) or real(self))
    second = [bounded_inhabit(ctx, goal, 6) for goal in goals]
    assert len(hashed) == 0
    assert second == first


def test_a_second_search_reads_the_kept_hypotheses(monkeypatch):
    # the first search over a context normalizes and indexes its
    # hypotheses; a later one normalizes only its goal and works out the
    # spines only of the hypotheses it binds
    ctx = _sweep_ctx()
    seen = {"onf": [], "_spine": []}
    for name, args in seen.items():
        real = getattr(search, name)
        monkeypatch.setattr(search, name, lambda T, real=real, args=args:
                            args.append(T) or real(T))
    assert str(bounded_inhabit(ctx, parse_type("~d * a"), 2)) == "<r, x>"
    assert len(seen["onf"]) == 1 + len(SWEEP_HYPS)
    assert len(seen["_spine"]) == len(SWEEP_HYPS)
    hyps = {id(T) for _, T, _ in ctx.kept(search._Hypotheses).hyps}
    for args in seen.values():
        args.clear()
    goal = parse_type("a -> ~a -> b")
    assert bounded_inhabit(ctx, goal, 6) is None
    assert seen["onf"] == [goal]
    assert seen["_spine"] and not hyps & set(map(id, seen["_spine"]))


def test_twins_of_a_searched_context_keep_only_the_fields():
    ctx = _sweep_ctx()
    bounded_inhabit(ctx, parse_type("Sg u:c. p(u)"), 4)
    assert {"_by_name", "_kept"} <= set(ctx.__dict__)
    for twin in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert twin == ctx
        assert "_by_name" not in twin.__dict__
        assert "_kept" not in twin.__dict__
        assert (bounded_inhabit(twin, parse_type("Sg u:c. p(u)"), 4)
                == bounded_inhabit(ctx, parse_type("Sg u:c. p(u)"), 4))


def test_an_extended_context_has_its_own_hypotheses():
    ctx, goal = _sweep_ctx(), parse_type("b * a")
    assert bounded_inhabit(ctx, goal, 4) is None
    wider = declare_term(ctx, "z", parse_type("b"))
    assert (wider.kept(search._Hypotheses)
            is not ctx.kept(search._Hypotheses))
    assert str(bounded_inhabit(wider, goal, 2)) == "<z, x>"
    assert bounded_inhabit(wider, goal, 4) == first_inhabitant(wider, goal, 4)
    assert bounded_inhabit(ctx, goal, 4) is None


def test_the_search_extends_no_context(monkeypatch):
    # the search reads its caller's context and keeps the hypotheses it
    # binds on its own, and bounded_inhabit's formation check binds in
    # the context's index
    wide = EMPTY
    for i in range(2000):
        wide = declare_type_const(wide, f"a{i}")
    for name, ty in (("x", "a0"), ("w", "a1"), ("s", "a0 + a1"),
                     ("f", "a0 -> a1 -> a2")):
        wide = declare_term(wide, name, parse_type(ty))
    cases = [(_sweep_ctx(), goal) for goal in _sweep_goals()]
    cases += [(wide, parse_type(goal)) for goal in
              ("a0 -> a0 -> a2", "a1 -> a0 -> a2 + a0", "a0 -> a2", "~a2")]
    expected = [(first_inhabitant(ctx, goal, 6),
                 list(islice(oracle_inhabitants(ctx, onf(goal), 6), 200)))
                for ctx, goal in cases]

    def no_extension(self, entry):
        raise AssertionError(f"a context was extended by {entry.name}")

    monkeypatch.setattr(Context, "extended", no_extension)
    got = [(bounded_inhabit(ctx, goal, 6),
            list(islice(iter_inhabitants(ctx, onf(goal), 6), 200)))
           for ctx, goal in cases]
    assert got == expected


def test_reach_walk_is_stack_safe():
    # the chain is walked as a context hypothesis and as one the search
    # binds; each walk of it must take no frame a level (a recursive one
    # overflowed at 498)
    chain = Atom("d")
    for _ in range(500):
        chain = Fun(Atom("c"), chain)
    ctx = declare_term(_sweep_ctx(), "h", chain)
    assert bounded_inhabit(ctx, Atom("b"), 8) is None
    assert bounded_inhabit(_sweep_ctx(), Fun(chain, Atom("b")), 8) is None


def test_a_type_keeps_its_spine_as_a_node_keeps_its_hash():
    # what _spine finds stays on the node, like _hash; pickling and
    # copying drop it, and it is worked out again on demand
    ctx = _sweep_ctx()
    k, p = onf(ctx.lookup_term("k")), ("p", True)
    bounded_inhabit(ctx, parse_type("Sg u:c. p(u)"), 3)
    assert k._spine == (Fun, {Fun, p}, ((p, {p}, ()),))
    for twin in (pickle.loads(pickle.dumps(k)), copy.deepcopy(k)):
        assert twin == k and twin._spine is None


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name, recursive ones included."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls
