"""Lambda-Pi with pairs, assembled on the signature-generic AST.

The signature classes below are the tree nodes: application, single-binder
lambda, Pi and the universe, plus pairs with projections.  Every field is a
term or a :class:`~scopefoil.generic.ScopedAST`, so substitution, scope
checking, the congruence part of normalization and the canonical encoding
are derived from the fields, with no code per constructor.  Binding
constructs here bind exactly one variable; the direct representation's
richer patterns convert only when they are single variables
(:class:`UnsupportedPatternError` otherwise).

``mk_lam``/``mk_pi`` build the scoped child; the ``as_*`` views return a
node's fields, or ``None`` on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import terms
from .fuel import Fuel
from .generic import AST, ScopedAST, children, substitute
from .names import (
    NameBinder,
    Scope,
    Var,
    add_rename,
    add_subst,
    extend_scope,
    identity_subst,
    name_of,
    with_refreshed,
)
from .patterns import PatternVar


class UnsupportedPatternError(Exception):
    """The single-binder representation cannot express this pattern."""


# --------------------------------------------------------------------------
# signature classes
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AppSig:
    fun: AST
    arg: AST


@dataclass(frozen=True, slots=True)
class LamSig:
    scoped: ScopedAST


@dataclass(frozen=True, slots=True)
class PiSig:
    domain: AST
    codomain: ScopedAST


@dataclass(frozen=True, slots=True)
class UniverseSig:
    pass


@dataclass(frozen=True, slots=True)
class PairSig:
    left: AST
    right: AST


@dataclass(frozen=True, slots=True)
class FirstSig:
    term: AST


@dataclass(frozen=True, slots=True)
class SecondSig:
    term: AST


# Every node class of the language; a lambda-Pi term is a ``Var`` or an
# instance of one of them.
SIGNATURE = (AppSig, LamSig, PiSig, UniverseSig, PairSig, FirstSig, SecondSig)
Term = AST


# --------------------------------------------------------------------------
# binder constructors and views
# --------------------------------------------------------------------------


def mk_lam(binder: NameBinder, body: Term) -> Term:
    return LamSig(ScopedAST(binder, body))


def mk_pi(binder: NameBinder, domain: Term, codomain: Term) -> Term:
    return PiSig(domain, ScopedAST(binder, codomain))


def as_app(term: Term) -> tuple[Term, Term] | None:
    return (term.fun, term.arg) if type(term) is AppSig else None


def as_lam(term: Term) -> tuple[NameBinder, Term] | None:
    return (term.scoped.binder, term.scoped.body) if type(term) is LamSig else None


def as_pi(term: Term) -> tuple[NameBinder, Term, Term] | None:
    if type(term) is not PiSig:
        return None
    return term.codomain.binder, term.domain, term.codomain.body


def is_universe(term: Term) -> bool:
    return type(term) is UniverseSig


def as_pair(term: Term) -> tuple[Term, Term] | None:
    return (term.left, term.right) if type(term) is PairSig else None


def as_first(term: Term) -> Term | None:
    return term.term if type(term) is FirstSig else None


def as_second(term: Term) -> Term | None:
    return term.term if type(term) is SecondSig else None


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


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
                subst = add_subst(identity_subst(), fun2.scoped.binder, arg)
                return _whnf(scope, substitute(scope, subst, fun2.scoped.body), fuel)
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
            binder2 = with_refreshed(scope, name_of(binder))
            scope2 = extend_scope(binder2, scope)
            if binder2.raw != binder.raw:
                rename = add_rename(identity_subst(), binder, name_of(binder2))
                body = substitute(scope2, rename, body)
            new.append(ScopedAST(binder2, _nf(scope2, body, fuel)))
        else:
            new.append(_nf(scope, child, fuel))
    return type(term)(*new)


def nf_free(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Full normal-order normalization via the generic substitution."""
    return _nf(scope, term, Fuel(fuel))


# --------------------------------------------------------------------------
# conversions to and from the direct representation
# --------------------------------------------------------------------------


def _single_binder(pattern) -> NameBinder:  # type: ignore[no-untyped-def]
    match pattern:
        case PatternVar(binder):
            return binder
    raise UnsupportedPatternError(
        "only single-variable patterns convert to the single-binder form "
        f"(got a {type(pattern).__name__} binder)"
    )


def direct_to_free(term: terms.Term) -> Term:
    match term:
        case Var():
            return term
        case terms.Pair(left, right):
            return PairSig(direct_to_free(left), direct_to_free(right))
        case terms.First(t):
            return FirstSig(direct_to_free(t))
        case terms.Second(t):
            return SecondSig(direct_to_free(t))
        case terms.App(fun, arg):
            return AppSig(direct_to_free(fun), direct_to_free(arg))
        case terms.Lam(pattern, body):
            return mk_lam(_single_binder(pattern), direct_to_free(body))
        case terms.Pi(pattern, domain, codomain):
            return mk_pi(
                _single_binder(pattern),
                direct_to_free(domain),
                direct_to_free(codomain),
            )
        case terms.Universe():
            return UniverseSig()
    raise TypeError(f"not a term: {term!r}")


def free_to_direct(term: Term) -> terms.Term:
    match term:
        case Var():
            return term
        case AppSig(fun, arg):
            return terms.App(free_to_direct(fun), free_to_direct(arg))
        case LamSig(ScopedAST(binder, body)):
            return terms.Lam(PatternVar(binder), free_to_direct(body))
        case PiSig(domain, ScopedAST(binder, codomain)):
            return terms.Pi(
                PatternVar(binder),
                free_to_direct(domain),
                free_to_direct(codomain),
            )
        case UniverseSig():
            return terms.Universe()
        case PairSig(left, right):
            return terms.Pair(free_to_direct(left), free_to_direct(right))
        case FirstSig(t):
            return terms.First(free_to_direct(t))
        case SecondSig(t):
            return terms.Second(free_to_direct(t))
    raise TypeError(f"not a term: {term!r}")
