"""Lambda-Pi with pairs and patterns, assembled on the signature-generic AST.

The signature classes below are the tree nodes: application, lambda, Pi and
the universe, plus pairs with projections.  Every field is a term or a
:class:`~scopefoil.generic.ScopedAST`, whose binder is a bare variable or a
wildcard/pair pattern, so substitution, scope checking, the congruence part
of normalization and the canonical encoding are derived from the fields,
with no code per constructor.  So are the conversions: each surface class
of :mod:`scopefoil.naive` names its direct and signature classes (``Lam``,
``terms.Lam``, ``LamSig``), and its field types say which field is the
pattern and which bodies lie under it (:data:`CONSTRUCTORS`).

``mk_lam`` builds a single-binder lambda; the ``as_*`` views return a node's
fields, or ``None`` on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args, get_type_hints

from . import naive, terms
from .fuel import Fuel
from .generic import AST, ScopedAST, children, substitute
from .names import (
    NameBinder,
    Node,
    Scope,
    Var,
    add_rename,
    extend_scope,
    identity_subst,
    masked,
    name_of,
    set_mask,
    with_refreshed,
)
from .patterns import PatternVar, beta_bindings, pattern_mask, with_pattern


# --------------------------------------------------------------------------
# signature classes
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AppSig(Node):
    fun: AST
    arg: AST


@dataclass(frozen=True, slots=True)
class LamSig(Node):
    scoped: ScopedAST


@dataclass(frozen=True, slots=True)
class PiSig(Node):
    domain: AST
    codomain: ScopedAST


@dataclass(frozen=True, slots=True)
class UniverseSig(Node):
    pass


@dataclass(frozen=True, slots=True)
class PairSig(Node):
    left: AST
    right: AST


@dataclass(frozen=True, slots=True)
class FirstSig(Node):
    term: AST


@dataclass(frozen=True, slots=True)
class SecondSig(Node):
    term: AST


# A lambda-Pi term is a ``Var`` or an instance of a signature class.
Term = AST


# --------------------------------------------------------------------------
# binder constructors and views
# --------------------------------------------------------------------------


def mk_lam(binder: NameBinder, body: Term) -> Term:
    return LamSig(ScopedAST(binder, body))


def as_app(term: Term) -> tuple[Term, Term] | None:
    return (term.fun, term.arg) if type(term) is AppSig else None


def as_lam(term: Term) -> tuple[NameBinder, Term] | None:
    return (term.scoped.binder, term.scoped.body) if type(term) is LamSig else None


def as_pair(term: Term) -> tuple[Term, Term] | None:
    return (term.left, term.right) if type(term) is PairSig else None


def as_first(term: Term) -> Term | None:
    return term.term if type(term) is FirstSig else None


def as_second(term: Term) -> Term | None:
    return term.term if type(term) is SecondSig else None


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


_FIRST, _SECOND = masked(FirstSig), masked(SecondSig)


def _whnf(scope: Scope, term: Term, fuel: Fuel) -> Term:
    match term:
        case FirstSig(t) | SecondSig(t):
            t2 = _whnf(scope, t, fuel)
            if type(t2) is not PairSig:
                return term if t2 is t else type(term)(t2)
            fuel.spend()
            component = t2.left if type(term) is FirstSig else t2.right
            return _whnf(scope, component, fuel)
        case AppSig(fun, arg):
            fun2 = _whnf(scope, fun, fuel)
            if type(fun2) is LamSig:
                fuel.spend()
                binder, body = fun2.scoped.binder, fun2.scoped.body
                subst = beta_bindings(identity_subst(), binder, arg, _FIRST, _SECOND)
                return _whnf(scope, substitute(scope, subst, body), fuel)
            return term if fun2 is fun else AppSig(fun2, arg)
        case _:
            return term


def whnf_free(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Weak head normal form via the generic substitution."""
    return _whnf(scope, term, Fuel(fuel))


def _nf(scope: Scope, term: Term, fuel: Fuel) -> Term:
    """After whnf, normalize every child; a scoped child's binder is
    refreshed against ``scope`` and its body renamed only on a collision."""
    term = _whnf(scope, term, fuel)
    if type(term) is Var:
        return term
    new = []
    for child in children(term):
        if type(child) is ScopedAST:
            binder, body = child.binder, child.body
            if type(binder) is NameBinder:
                binder2 = with_refreshed(scope, name_of(binder))
                scope2 = extend_scope(binder2, scope)
                rename = None
                if binder2.raw != binder.raw:
                    rename = add_rename(identity_subst(), binder, name_of(binder2))
            else:
                binder2, rename, scope2 = with_pattern(scope, binder, identity_subst())
            if rename:  # some binder was renamed
                body = substitute(scope2, rename, body)
            new.append(ScopedAST(binder2, _nf(scope2, body, fuel)))
        else:
            new.append(_nf(scope, child, fuel))
    return type(term)(*new)


def nf_free(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Full normal-order normalization via the generic substitution."""
    return _nf(scope, term, Fuel(fuel))


# --------------------------------------------------------------------------
# the constructor correspondence, and the conversions derived from it
# --------------------------------------------------------------------------

# The roles a surface field can play: the node's binding pattern, a body in
# the pattern's scope, or a term in the node's own scope.
PATTERN, SCOPED, TERM = "pattern", "scoped", "term"


@dataclass(frozen=True, slots=True)
class Constructor:
    """One constructor in its surface, direct and generic classes: the role
    of each surface (and direct) field, and the position of the pattern,
    which precedes the bodies under it.  The generic class drops the
    pattern field; each scoped field's :class:`ScopedAST` holds its binder.
    """

    naive: type
    direct: type
    free: type
    roles: tuple[str, ...]
    pattern: int | None


def _derive(cls: type) -> Constructor:
    hints = get_type_hints(cls)
    roles = tuple(
        PATTERN if hints[field] == naive.Pattern
        else SCOPED if hints[field] is naive.ScopedTerm
        else TERM
        for field in cls.__match_args__
    )
    pattern = roles.index(PATTERN) if PATTERN in roles else None
    name = cls.__name__
    return Constructor(
        cls, getattr(terms, name), globals()[name + "Sig"], roles, pattern
    )


# Every constructor but ``Var``, which the direct and generic forms share.
CONSTRUCTORS = tuple(
    _derive(cls) for cls in get_args(naive.Term) if cls is not naive.Var
)
BY_NAIVE = {con.naive: con for con in CONSTRUCTORS}
BY_DIRECT = {con.direct: con for con in CONSTRUCTORS}
BY_FREE = {con.free: con for con in CONSTRUCTORS}


def constructor(table: dict[type, Constructor], term: object) -> Constructor:
    con = table.get(type(term))
    if con is None:
        raise TypeError(f"not a term: {term!r}")
    return con


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
            child = ScopedAST(binder, body)
            fv = (1 << body.name.raw if type(body) is Var else body.fv) & ~bound
            set_mask(child, fv)
            mask |= fv
            new.append(child)
        else:
            child = direct_to_free(field)
            mask |= 1 << child.name.raw if type(child) is Var else child.fv
            new.append(child)
    node = con.free(*new)
    set_mask(node, mask)
    return node


def free_to_direct(term: Term) -> terms.Term:
    """The direct form: a bare binder becomes a single-variable pattern."""
    if type(term) is Var:
        return term
    con = constructor(BY_FREE, term)
    new = []
    for field in children(term):
        if type(field) is ScopedAST:
            binder = field.binder
            new.append(free_to_direct(field.body))
        else:
            new.append(free_to_direct(field))
    if con.pattern is not None:
        pattern = PatternVar(binder) if type(binder) is NameBinder else binder
        new.insert(con.pattern, pattern)
    return con.direct(*new)
