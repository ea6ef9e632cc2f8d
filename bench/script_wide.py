"""Workload script_wide: whole proof scripts, from text to JSON report.

An item is one generated script taken through parse, run and report_json,
which is what one `opptypes check --json` call does.  Contexts are
log-spread from 50 to 1600 atom/pred/assume declarations, and judgments of
every kind (check, infer, equal, onf, dual, expand, translate, nnf) are
interleaved with the declarations, so context writes sit beside lookups.
Time goes to the parser, the printer, the runner and context lookups;
judgments stay shallow.  Every script names its atoms and hypotheses with
its own tag, so nothing learnt on one script can be reused on the next.

Each round also holds one hostile script, a directive with 3000 nested
`~`; it aborts the whole run with RecursionError, a known defect.
"""

from __future__ import annotations

import json
import random

import terms as T

# Declarations per script, one round.  The repeated sizes put the median
# inside the 400 class and the 90th percentile inside the 1600 class, so
# neither falls in a gap between sizes.
SIZES = (50, 71, 100, 141, 200, 283, 400, 400, 400, 566, 800, 1131, 1600,
         1600, 1600)
HOSTILE_NESTING = 3000
JUDGMENTS_PER_DECL = 0.25
BASES = tuple(sorted(T.BASES))
KINDS = ("check", "check", "infer", "equal", "onf", "dual", "expand",
         "translate", "nnf")


class Item:
    def __init__(self, kind, text, expected, known_defect=None):
        self.kind = kind
        self.text = text
        self.expected = expected          # the exact report_json output
        self.known_defect = known_defect

    @property
    def fingerprint(self):
        return hash(self.text)

    @property
    def expected_exit(self):
        entries = json.loads(self.expected)
        return 0 if all(e["status"] == "ok" for e in entries) else 1


class _Script:
    """Accumulates directive lines and the report entries they must give."""

    def __init__(self):
        self.lines = []
        self.entries = []

    def add(self, line, directive, payload, status="ok"):
        self.lines.append(line)
        n = len(self.lines)
        span = {"line": n, "col": 1, "end_line": n, "end_col": len(line)}
        self.entries.append({"status": status, "directive": directive,
                             "payload": payload, "span": span})

    def item(self, kind, known_defect=None):
        text = "\n".join(self.lines) + "\n"
        expected = json.dumps(self.entries, indent=2) + "\n"
        return Item(kind, text, expected, known_defect)


class _Generator:
    def __init__(self, rng, n_decls):
        self.rng = rng
        self.n = n_decls
        self.tag = "".join(rng.choice("abcdefghijkmnpqrstuvwxyz0123456789")
                           for _ in range(5))
        self.sc = _Script()
        self.sorts = []          # atom names, in declaration order
        self.preds = {}          # pred name -> sort
        self.hyps = []           # (name, type)
        self.by_sort = {}        # sort -> hypotheses of exactly that atom type
        self.kinds = []          # judgment kinds still to come in this cycle

    # -- declarations ----------------------------------------------------

    def declare_atom(self):
        name = f"s{self.tag}_{len(self.sorts)}"
        self.sorts.append(name)
        self.sc.add(f"atom {name};", "atom", f"atom {name} : U0")

    def declare_pred(self):
        name = f"p{self.tag}_{len(self.preds)}"
        sort = self.rng.choice(self.sorts)
        self.preds[name] = sort
        self.sc.add(f"pred {name}({sort});", "pred",
                    f"pred {name}({sort}) : U0")

    def declare_hyp(self):
        ty = self.hyp_type()
        name = f"h{self.tag}_{len(self.hyps)}"
        self.hyps.append((name, ty))
        if ty[0] == 'a' and not ty[2]:
            self.by_sort.setdefault(ty[1], []).append(name)
        text = T.type_text(ty)
        self.sc.add(f"assume {name} : {text};", "assume",
                    f"assumed {name} : {text}")

    def atom_(self):
        return T.atom(self.rng.choice(self.sorts))

    def small_type(self, depth=2):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            A = self.atom_()
            return ('opp', A) if rng.random() < 0.3 else A
        k = rng.choice(('fun', 'cofun', 'prod', 'sum', 'opp', 'pi', 'sg'))
        if k == 'opp':
            return ('opp', self.small_type(depth - 1))
        if k in ('pi', 'sg') and self.preds:
            pred = rng.choice(sorted(self.preds))
            body = T.atom(pred, T.var("u"))
            if rng.random() < 0.5:
                body = ('fun' if k == 'pi' else 'prod', self.small_type(0),
                        body)
            return (k, "u", T.atom(self.preds[pred]), body)
        if k in ('pi', 'sg'):
            k = 'prod'
        return (k, self.small_type(depth - 1), self.small_type(depth - 1))

    def hyp_type(self):
        rng = self.rng
        r = rng.random()
        X, Y = self.atom_(), self.atom_()
        if r < 0.3:
            return X
        if r < 0.4:
            return ('opp', X)
        if r < 0.5:
            return ('fun', X, Y)
        if r < 0.6:
            return ('opp', ('fun', X, Y))
        if r < 0.7:
            return ('opp', ('prod', X, Y))
        if r < 0.8:
            return ('prod', X, Y)
        if r < 0.9 and self.preds:
            pred = rng.choice(sorted(self.preds))
            wits = self.by_sort.get(self.preds[pred])
            if wits:
                return T.atom(pred, T.var(rng.choice(wits)))
        return ('sum', X, Y)

    # -- judgments -------------------------------------------------------

    def judgment(self):
        """The next judgment; each script cycles through every kind in an
        order of its own, so scripts of one size cost about the same."""
        if not self.kinds:
            self.kinds = list(KINDS)
            self.rng.shuffle(self.kinds)
        getattr(self, "j_" + self.kinds.pop())()

    def pick_hyp(self, shape):
        cands = [(n, t) for n, t in self.hyps if t[0] == shape]
        return self.rng.choice(cands) if cands else None

    def j_check(self):
        rng = self.rng
        options = []
        h = self.pick_hyp('opp')
        if h and h[1][1][0] in ('fun', 'prod'):
            inner = h[1][1]
            if inner[0] == 'fun':
                options.append((T.var(h[0]),
                                ('prod', inner[1], ('opp', inner[2]))))
                p = ('pair', ('p1', T.var(h[0])), ('p2', T.var(h[0])))
                options.append((p, ('prod', inner[1], ('opp', inner[2]))))
            else:
                options.append((T.var(h[0]),
                                ('sum', ('opp', inner[1]), ('opp', inner[2]))))
        f = self.pick_hyp('fun')
        if f and self.by_sort.get(f[1][1][1]):
            arg = rng.choice(self.by_sort[f[1][1][1]])
            options.append((('app', T.var(f[0]), T.var(arg)),
                            ('opp', ('opp', f[1][2]))))
        a1, a2 = self.atom_(), self.atom_()
        w1, w2 = self.by_sort.get(a1[1]), self.by_sort.get(a2[1])
        if w1 and w2:
            pair = ('pair', T.var(rng.choice(w1)), T.var(rng.choice(w2)))
            options.append((pair, ('opp', ('sum', ('opp', a1), ('opp', a2)))))
        dep = self.pick_hyp('a')
        if dep and dep[1][2]:
            pred, (arg,) = dep[1][1], dep[1][2]
            options.append((('pair', arg, T.var(dep[0])),
                            ('sg', "u", T.atom(self.preds[pred]),
                             T.atom(pred, T.var("u")))))
        X = self.atom_()
        options.append((('lam', "v", ('opp', ('opp', X)), T.var("v")),
                        ('fun', X, X)))
        term, ty = rng.choice(options)
        tt, ty_t = T.term_text(term), T.type_text(ty)
        self.sc.add(f"check {tt} : {ty_t};", "check", f"{tt} : {ty_t}")

    def j_infer(self):
        rng = self.rng
        name, ty = rng.choice(self.hyps)
        term, result = T.var(name), T.onf(ty)
        if ty[0] == 'opp' and ty[1][0] == 'fun' and rng.random() < 0.5:
            term, result = ('p1', term), ty[1][1]
        elif ty[0] == 'fun' and self.by_sort.get(ty[1][1]):
            term, result = (('app', term,
                             T.var(rng.choice(self.by_sort[ty[1][1]]))),
                            ty[2])
        tt = T.term_text(term)
        self.sc.add(f"infer {tt};", "infer", f"{tt} : {T.type_text(result)}")

    def j_equal(self):
        L = self.small_type()
        R = T.onf(L) if self.rng.random() < 0.5 else self.small_type()
        lt, rt = T.type_text(L), T.type_text(R)
        if T.type_eq(L, R):
            self.sc.add(f"equal {lt} {rt};", "equal", f"{lt} = {rt}")
        else:
            payload = (f"not equal: {T.type_text(T.onf(L))} "
                       f"vs {T.type_text(T.onf(R))}")
            self.sc.add(f"equal {lt} {rt};", "equal", payload, "error")

    def j_onf(self):
        A = self.small_type(3)
        self.sc.add(f"onf {T.type_text(A)};", "onf", T.type_text(T.onf(A)))

    def j_dual(self):
        A = self.small_type(3)
        self.sc.add(f"dual {T.type_text(A)};", "dual", T.type_text(T.dual(A)))

    def j_expand(self):
        A = self.small_type(3)
        basis = self.rng.choice(BASES)
        E = T.expand(A, basis)
        if not (T.uses_only(E, basis) and T.type_eq(A, E)):
            raise AssertionError(f"expansion oracle disagrees on {A!r}")
        self.sc.add(f"expand {T.type_text(A)} basis {basis};", "expand",
                    T.type_text(E))

    def formula(self, depth, bound):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            if self.preds and rng.random() < 0.6:
                pred = rng.choice(sorted(self.preds))
                sort = self.preds[pred]
                names = [v for v, s in bound if s == sort]
                arg = rng.choice(names) if names else f"v{sort[1:]}"
                return ('pred', pred, (arg,))
            return ('pred', rng.choice(self.sorts), ())
        k = rng.choice(('impl', 'coimpl', 'and', 'or', 'neg', 'all', 'ex'))
        if k == 'neg':
            return ('neg', self.formula(depth - 1, bound))
        if k in ('all', 'ex'):
            sort = rng.choice(self.sorts)
            v = f"u{len(bound)}"
            return (k, v, sort, self.formula(depth - 1, bound + ((v, sort),)))
        return (k, self.formula(depth - 1, bound),
                self.formula(depth - 1, bound))

    def j_translate(self):
        F = self.formula(3, ())
        parts = [f"{s} : U0" for s in sorted(self.sorts)]
        for name in sorted(set(self.sorts) | set(self.preds)):
            if name in self.preds:
                parts.append(f"{name}(x1:{self.preds[name]}) : U0")
            else:
                parts.append(f"{name} : U0")
        parts += [f"{v} : {s}" for v, s in _free_occurrences(F, self.preds)]
        payload = (", ".join(parts) + " |- "
                   + T.type_text(T.formula_type(F)))
        self.sc.add(f"translate {T.formula_text(F)};", "translate", payload)

    def j_nnf(self):
        F = self.formula(3, ())
        self.sc.add(f"nnf {T.formula_text(F)};", "nnf",
                    T.formula_text(T.nnf(F)))

    # -- whole script ----------------------------------------------------

    def script(self, every_kind=False):
        rng = self.rng
        for _ in range(4):
            self.declare_atom()
        self.declare_hyp()
        decls = 5
        budget = 0.0
        while decls < self.n:
            r = rng.random()
            if r < 0.25:
                self.declare_atom()
            elif r < 0.375:
                self.declare_pred()
            else:
                self.declare_hyp()
            decls += 1
            budget += JUDGMENTS_PER_DECL
            while budget >= 1:
                budget -= 1
                self.judgment()
        if every_kind:
            for kind in sorted(set(KINDS)):
                getattr(self, "j_" + kind)()
        return self.sc


def _free_occurrences(F, preds):
    """Free variables of F with their sorts, in order of first occurrence."""
    out = []

    def walk(g, bound):
        k = g[0]
        if k == 'pred':
            for v in g[2]:
                if v not in bound and all(v != o for o, _ in out):
                    out.append((v, preds[g[1]]))
        elif k == 'neg':
            walk(g[1], bound)
        elif k in ('all', 'ex'):
            walk(g[3], bound | {g[1]})
        else:
            walk(g[1], bound)
            walk(g[2], bound)

    walk(F, frozenset())
    return out


def make_script(rng, n_decls, every_kind=False):
    sc = _Generator(rng, n_decls).script(every_kind)
    return sc.item(f"script_{n_decls}")


def _hostile(rng):
    gen = _Generator(rng, SIZES[0])
    sc = gen.script()
    sort = gen.sorts[0]
    sc.add(f"onf {'~' * HOSTILE_NESTING}{sort};", "onf", sort)
    return sc.item("deep_nesting", known_defect="RecursionError")


def make_round(seed, index):
    """Round `index` of the item stream: every size once, plus one hostile
    script, in an order drawn from the seed."""
    rng = random.Random(f"script_wide/{seed}/{index}")
    items = [make_script(rng, n) for n in SIZES]
    items.append(_hostile(rng))
    rng.shuffle(items)
    return items


def probe_item(seed):
    """A smallest-size script with every judgment kind; also the script
    of the CLI agreement check."""
    return make_script(random.Random(f"script_wide/{seed}/probe"), SIZES[0],
                       every_kind=True)


# -- the program under test ---------------------------------------------------

def build_state(opptypes):
    import opptypes.cli  # noqa: F401  (one `opptypes check` call pays this)
    return opptypes


def run_item(state, item):
    return state.report_json(state.run(state.parse(item.text)))


def check_verdict(item, verdict, state):
    if verdict == item.expected:
        return None
    got, want = json.loads(verdict), json.loads(item.expected)
    if len(got) != len(want):
        return f"{len(got)} report entries, expected {len(want)}"
    for g, w in zip(got, want):
        if g != w:
            return f"entry {w['span']['line']}: got {g}, expected {w}"
    return "report differs in layout"
