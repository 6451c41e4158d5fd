"""Lambda-Pi with pairs and patterns, assembled on the signature-generic AST.

The tree nodes are the signature classes ``AppSig``, ``LamSig``, ``PiSig``,
``UniverseSig``, ``PairSig``, ``FirstSig`` and ``SecondSig``, generated with
the direct classes from the :mod:`scopefoil.naive` ones (:data:`CONSTRUCTORS`
records all three and each field's role).  They keep the surface fields but
the pattern, so every field is a term or a
:class:`~scopefoil.generic.ScopedAST`, whose binder is a bare variable or a
wildcard/pair pattern.  Substitution, scope checking, the canonical encoding,
the conversions and the congruence part of normalization are derived from
the fields, with no code written per constructor; the congruence part is
compiled once per class from one template, tests at the parent whether a
child needs weak-head reduction, and returns a node whose children all come
back as the same objects as it is.  Weak-head reduction is the one
:func:`scopefoil.terms.weak_head` writes for both scope-safe trees.

The ``as_*`` views return a node's fields, or ``None`` on mismatch.
"""

from __future__ import annotations

from . import terms
from .fuel import Fuel
from .generic import (
    AST,
    PATTERN,
    SCOPED,
    Compiled,
    ScopedAST,
    children,
    compile_walk,
    constructor,
    substitute,
)
from .names import Name, NameBinder, Scope, Var, enter, identity_subst, set_mask
from .patterns import PatternVar, pattern_mask, with_pattern
from .terms import BY_DIRECT, CONSTRUCTORS, HEADS


# The signature classes, generated in :mod:`scopefoil.terms` with the direct ones.
PairSig, FirstSig, SecondSig, AppSig, LamSig, PiSig, UniverseSig = (
    con.free for con in CONSTRUCTORS
)

# A lambda-Pi term is a ``Var`` or an instance of a signature class.
Term = AST


# --------------------------------------------------------------------------
# views
# --------------------------------------------------------------------------


def as_app(term: Term) -> tuple[Term, Term] | None:
    return (term.fun, term.arg) if type(term) is AppSig else None


def as_lam(term: Term) -> tuple[NameBinder, Term] | None:
    return (term.body.binder, term.body.body) if type(term) is LamSig else None


def as_pair(term: Term) -> tuple[Term, Term] | None:
    return (term.left, term.right) if type(term) is PairSig else None


def as_first(term: Term) -> Term | None:
    return term.term if type(term) is FirstSig else None


def as_second(term: Term) -> Term | None:
    return term.term if type(term) is SecondSig else None


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


_whnf = terms.weak_head(AppSig, LamSig, PairSig, FirstSig, SecondSig, globals(), "substitute")


def whnf_free(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Weak head normal form via the generic substitution."""
    return _whnf(scope, term, Fuel(fuel))


def _nf(scope: Scope, term: Term, fuel: Fuel) -> Term:
    """After whnf, normalize every child in the congruence walk of the
    node's class (:data:`_CONGRUENCE`)."""
    term = _whnf(scope, term, fuel)
    return term if type(term) is Var else _NFS[type(term)](scope, term, fuel)


# The congruence walk of one signature class, after whnf: each child is
# normalized in field order, a scoped child's binder entered from ``scope``
# and its body renamed only on a collision.  Whether a child needs whnf is
# tested here, at the parent: only a projection, or an application whose
# head is not a variable, is put in whnf (unless it is a head,
# :data:`~scopefoil.terms.HEADS`), any other node is sent straight to its
# class's walk, and a variable is left as it is, with no call.  A node
# whose children all come back as the same objects is returned as it is.
# The block between ``# each field`` and ``# end`` is repeated for each
# field (:func:`~scopefoil.generic.compile_walk`); the walk reads this
# module's names, ``_whnf``, ``substitute`` and the rest, as its globals.
_CONGRUENCE = """\
def _nf(scope, term, fuel):
    changed = False
    # each field
    c$i = term.$field
    kind = type(c$i)
    if kind is ScopedAST:
        binder, body = c$i.binder, c$i.body
        if type(binder) is NameBinder:
            binder2, scope2 = enter(scope, binder)
            if binder2 is not binder:
                body = substitute(scope2, {binder.raw: Var(Name(binder2.raw))}, body)
        else:
            binder2, rename, scope2 = with_pattern(scope, binder, identity_subst())
            if rename:  # some binder was renamed
                body = substitute(scope2, rename, body)
        kind = type(body)
        if kind is AppSig and type(body.fun) is not Var or kind is FirstSig or kind is SecondSig:
            body = _whnf(scope2, body, fuel)
            kind = type(body)
        if kind is not Var:
            body = _NFS[kind](scope2, body, fuel)
        if binder2 is not binder or body is not c$i.body:
            c$i = ScopedAST(binder2, body)
            changed = True
    elif kind is not Var:
        child = c$i
        if not $head and (
            kind is AppSig and type(child.fun) is not Var or kind is FirstSig or kind is SecondSig
        ):
            child = _whnf(scope, child, fuel)
            kind = type(child)
        if kind is not Var:
            child = _NFS[kind](scope, child, fuel)
        if child is not c$i:
            c$i = child
            changed = True
    # end
    return cls($args) if changed else term
"""

_HEADS = {con.free: HEADS[con.naive] for con in CONSTRUCTORS if con.naive in HEADS}
_NFS = Compiled(
    lambda cls: compile_walk(
        cls, _CONGRUENCE, globals(), head=_HEADS.get(cls, ""), cls=cls
    )
)


def nf_free(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Full normal-order normalization via the generic substitution."""
    return _nf(scope, term, Fuel(fuel))


# --------------------------------------------------------------------------
# the constructor correspondence, and the conversions derived from it
# --------------------------------------------------------------------------

BY_NAIVE = {con.naive: con for con in CONSTRUCTORS}
BY_FREE = {con.free: con for con in CONSTRUCTORS}


def direct_to_free(term: terms.Term) -> Term:
    """The generic form: a single-variable pattern becomes a bare binder.
    Every node built records its free-name mask."""
    if type(term) is Var:
        return term
    con = constructor(BY_DIRECT, term)
    new = []
    mask = 0
    for role, field in zip(con.roles, children(term)):
        if role is PATTERN:
            binder = field.binder if type(field) is PatternVar else field
            bound = pattern_mask(binder)
        elif role is SCOPED:
            body = direct_to_free(field)
            fv = 1 << body.name.raw if type(body) is Var else body.fv
            mask |= fv - (fv & bound)
            new.append(ScopedAST(binder, body))
        else:
            child = direct_to_free(field)
            mask |= 1 << child.name.raw if type(child) is Var else child.fv
            new.append(child)
    node = con.free(*new)
    set_mask(node, mask)
    return node


def free_to_direct(term: Term) -> terms.Term:
    """The direct form: a bare binder becomes a single-variable pattern.
    Every node built records its free-name mask."""
    if type(term) is Var:
        return term
    con = constructor(BY_FREE, term)
    new = []
    mask = 0
    for field in children(term):
        if type(field) is ScopedAST:
            binder = field.binder
            body = free_to_direct(field.body)
            fv = 1 << body.name.raw if type(body) is Var else body.fv
            mask |= fv - (fv & pattern_mask(binder))
            new.append(body)
        else:
            child = free_to_direct(field)
            mask |= 1 << child.name.raw if type(child) is Var else child.fv
            new.append(child)
    if con.pattern is not None:
        pattern = PatternVar(binder) if type(binder) is NameBinder else binder
        new.insert(con.pattern, pattern)
    node = con.direct(*new)
    set_mask(node, mask)
    return node
