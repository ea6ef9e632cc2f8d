"""Span recorder wrapped around the package's layer functions from outside.

Each traced function is replaced, wherever an `opptypes` module or the
Context class holds it, by a wrapper that counts every call and records a
span (layer, start, end, parent span, item id) for every call that does
not come straight from the same layer: a layer's own recursion stays
inside one span, so self time is its span time minus that of its child
spans.  Times are the thread's CPU time, as in run.py.  Spans are kept in
flat arrays and written out once, at the end.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import thread_time

# (layer, module, attribute); Context attributes are methods or properties
TRACED = (
    ("parser.tokenize", "opptypes.parser", "tokenize"),
    ("parser.parse", "opptypes.parser", "parse"),
    ("printer.type_str", "opptypes.printer", "type_str"),
    ("printer.term_str", "opptypes.printer", "term_str"),
    ("runner.run", "opptypes.runner", "run"),
    ("runner.report_json", "opptypes.runner", "report_json"),
    ("kernel.declare", "opptypes.kernel", "declare_term"),
    ("kernel.declare", "opptypes.kernel", "declare_type_const"),
    ("kernel.context_lookup", "Context", "lookup_term"),
    ("kernel.context_lookup", "Context", "lookup_const"),
    ("kernel.context_lookup", "Context", "names"),
    ("kernel.check_formation", "opptypes.kernel", "check_formation"),
    ("kernel.type_equal", "opptypes.kernel", "type_equal"),
    ("kernel.check", "opptypes.kernel", "check"),
    ("kernel.recheck", "opptypes.kernel", "recheck"),
    ("kernel.term_equal", "opptypes.kernel", "term_equal"),
    ("duality.onf", "opptypes.duality", "onf"),
    ("duality.dual", "opptypes.duality", "dual"),
    ("duality.expand_in_basis", "opptypes.duality", "expand_in_basis"),
    ("syntax.alpha_eq", "opptypes.syntax", "alpha_eq"),
    ("syntax.subst", "opptypes.syntax", "subst_term"),
    ("syntax.subst", "opptypes.syntax", "subst_type"),
    ("syntax.normalize_term", "opptypes.syntax", "normalize_term"),
    ("logic.translate", "opptypes.logic", "translate"),
    ("logic.formula_nnf", "opptypes.logic", "formula_nnf"),
    ("search.bounded_inhabit", "opptypes.search", "bounded_inhabit"),
)

# generator functions: the work happens while the caller iterates, so
# only their calls are counted
COUNTED = (
    ("search.iter_inhabitants", "opptypes.search", "iter_inhabitants"),
)


class Tracer:
    def __init__(self):
        self.layers = []
        self.index = {}
        self.calls = []
        self.self_s = []
        self.counts = {"parser.tokens": 0, "kernel.derivation_nodes": 0}
        self.item = -1
        self.stack = []          # [layer id, span id, time in children]
        self.span_layer = array('i')
        self.span_item = array('i')
        self.span_parent = array('i')
        self.span_start = array('d')
        self.span_end = array('d')
        self._undo = []

    def layer_id(self, name):
        if name not in self.index:
            self.index[name] = len(self.layers)
            self.layers.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.index[name]

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        lid = self.layer_id(name)
        after = {"parser.tokenize": self._count_tokens,
                 "kernel.check": self._count_derivation}.get(name)
        calls, self_s, stack = self.calls, self.self_s, self.stack
        layer_of = self.span_layer

        def traced(*args, **kwargs):
            calls[lid] += 1
            if stack and stack[-1][0] == lid:
                return fn(*args, **kwargs)
            depth = len(stack)
            parent = stack[-1][1] if stack else -1
            sid = len(layer_of)
            layer_of.append(lid)
            self.span_item.append(self.item)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [lid, sid, 0.0]
            stack.append(frame)
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = thread_time()
                # a RecursionError may have skipped inner pops
                del stack[depth:]
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                self_s[lid] += (t1 - t0) - frame[2]
                if stack:
                    stack[-1][2] += t1 - t0
            if after is not None:
                after(result, parent)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        lid = self.layer_id(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[lid] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_tokens(self, tokens, parent):
        self.counts["parser.tokens"] += len(tokens)

    def _count_derivation(self, derivation, parent):
        """Size of each derivation a caller outside the kernel asked for."""
        if parent >= 0 and self.layers[self.span_layer[parent]].startswith(
                "kernel."):
            return
        todo, n = [derivation], 0
        while todo:
            d = todo.pop()
            n += 1
            todo.extend(d.premises)
        self.counts["kernel.derivation_nodes"] += n

    # -- installation ----------------------------------------------------

    def install(self):
        from opptypes.kernel import Context
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "opptypes" or name.startswith("opptypes.")]
        for specs, make in ((TRACED, self._span_wrapper),
                            (COUNTED, self._count_wrapper)):
            for name, owner, attr in specs:
                if owner == "Context":
                    orig = Context.__dict__[attr]
                    if isinstance(orig, property):
                        new = property(make(name, orig.fget))
                    else:
                        new = make(name, orig)
                    self._rebind(Context, attr, orig, new)
                    continue
                orig = getattr(sys.modules[owner], attr)
                new = make(name, orig)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._rebind(m, key, orig, new)

    def _rebind(self, holder, key, orig, new):
        setattr(holder, key, new)
        self._undo.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def layer(self, name):
        lid = self.index.get(name)
        if lid is None:
            return 0, 0.0
        return self.calls[lid], self.self_s[lid]

    def count_signature(self):
        """Everything that must repeat exactly on a rerun of the same items."""
        out = dict(self.counts)
        for name, n in zip(self.layers, self.calls):
            out[name + ".calls"] = n
        return out

    def write_spans(self, path):
        start, end = self.span_start, self.span_end
        t0 = min(start) if start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tlayer\titem\tparent\tstart_us\tend_us\n")
            for i in range(len(start)):
                fh.write(f"{i}\t{self.layers[self.span_layer[i]]}\t"
                         f"{self.span_item[i]}\t{self.span_parent[i]}\t"
                         f"{(start[i] - t0) * 1e6:.1f}\t"
                         f"{(end[i] - t0) * 1e6:.1f}\n")
