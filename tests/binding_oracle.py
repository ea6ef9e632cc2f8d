"""Free variables and name collection as plain walks, kept as a reference.

It is how syntax.py read a tree before each node kept its free_vars and
all_names sets: both walked the whole tree on every call, through the
scope table, and neither kept anything on a node.  Tests compare the
kept sets against these walks on generated types and terms, on trees
that share subtrees, and before and after substitution.
"""

from __future__ import annotations

from opptypes.syntax import _PLANS, Atom, Var


def free_vars(e) -> frozenset:
    """Free term variables of a type or term; atom names are not terms."""
    cls = type(e)
    if cls is Var:
        return frozenset((e.name,))
    out = frozenset()
    if cls is Atom:
        for a in e.args:
            out |= free_vars(a)
        return out
    get, one, plan = _PLANS[cls]
    if one:
        return free_vars(get(e))
    vals = get(e)
    for i, binders in plan:
        fv = free_vars(vals[i])
        if binders:
            fv = fv.difference(map(vals.__getitem__, binders))
        out |= fv
    return out


def all_names(e) -> frozenset:
    """Every identifier occurring in e: variables, binders, atom names."""
    out = set()
    _collect_names(e, out)
    return frozenset(out)


def _collect_names(e, out: set) -> None:
    cls = type(e)
    if cls is Var:
        out.add(e.name)
        return
    if cls is Atom:
        out.add(e.name)
        for a in e.args:
            _collect_names(a, out)
        return
    get, one, plan = _PLANS[cls]
    if one:
        _collect_names(get(e), out)
        return
    vals = get(e)
    for i, binders in plan:
        if binders:
            out.update(map(vals.__getitem__, binders))
        _collect_names(vals[i], out)
