"""The runner's signature rebuilt from a context, kept as a reference.

It is how the runner found the signature of translate and nnf before it
kept one beside its context: every call reads all the declared constants
again.  Tests compare the signature a run keeps against it after every
directive.
"""

from __future__ import annotations

from opptypes import Atom, Signature, TypeConstDecl, U0


def signature_of(ctx) -> Signature:
    """Signature view of the declared constants.

    Zero-arity constants double as sorts and as atomic propositions;
    constants whose telescope entries are plain sort atoms are predicates.
    """
    sorts = set()
    predicates = {}
    for e in ctx.entries:
        if not isinstance(e, TypeConstDecl) or e.universe is not U0:
            continue
        if not e.telescope:
            sorts.add(e.name)
            predicates[e.name] = ()
    for e in ctx.entries:
        if not isinstance(e, TypeConstDecl) or not e.telescope:
            continue
        arg_sorts = []
        for _, ty in e.telescope:
            if isinstance(ty, Atom) and not ty.args and ty.name in sorts:
                arg_sorts.append(ty.name)
            else:
                break
        else:
            predicates[e.name] = tuple(arg_sorts)
    return Signature(sorts, predicates)
