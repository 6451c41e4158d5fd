"""Dependently-typed lambda calculus with pairs, direct scope-indexed form.

Every construct carries its binders as :mod:`scopefoil.patterns` patterns
directly in the node (``Lam``/``Pi``), and variables are the shared
:class:`scopefoil.names.Var` node.  Substitution is the rapier-style single
pass: binders are reused unless they collide with the ambient scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .fuel import Fuel
from .names import (
    Name,
    Scope,
    ScopeViolationError,
    Subst,
    Var,
    identity_subst,
    lookup_subst,
)
from .patterns import Pattern, beta_bindings, check_pattern_scope, with_pattern


@dataclass(frozen=True, slots=True)
class Pair:
    left: "Term"
    right: "Term"


@dataclass(frozen=True, slots=True)
class First:
    term: "Term"


@dataclass(frozen=True, slots=True)
class Second:
    term: "Term"


@dataclass(frozen=True, slots=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Lam:
    pattern: Pattern
    body: "Term"


@dataclass(frozen=True, slots=True)
class Pi:
    pattern: Pattern
    domain: "Term"
    codomain: "Term"


@dataclass(frozen=True, slots=True)
class Universe:
    pass


Term = Union[Var, Pair, First, Second, App, Lam, Pi, Universe]


def subst_direct(scope: Scope, subst: Subst, term: Term) -> Term:
    """Apply ``subst`` to ``term`` under ``scope`` in one capture-avoiding pass."""
    match term:
        case Var(name):
            return lookup_subst(subst, name)
        case Pair(left, right):
            return Pair(subst_direct(scope, subst, left), subst_direct(scope, subst, right))
        case First(t):
            return First(subst_direct(scope, subst, t))
        case Second(t):
            return Second(subst_direct(scope, subst, t))
        case App(fun, arg):
            return App(subst_direct(scope, subst, fun), subst_direct(scope, subst, arg))
        case Lam(pattern, body):
            pattern2, subst2, scope2 = with_pattern(scope, pattern, subst)
            return Lam(pattern2, subst_direct(scope2, subst2, body))
        case Pi(pattern, domain, codomain):
            pattern2, subst2, scope2 = with_pattern(scope, pattern, subst)
            return Pi(
                pattern2,
                subst_direct(scope, subst, domain),
                subst_direct(scope2, subst2, codomain),
            )
        case Universe():
            return term
    raise TypeError(f"not a term: {term!r}")


def _whnf(scope: Scope, term: Term, fuel: Fuel) -> Term:
    match term:
        case First(t):
            t2 = _whnf(scope, t, fuel)
            if type(t2) is Pair:
                fuel.spend()
                return _whnf(scope, t2.left, fuel)
            return term if t2 is t else First(t2)
        case Second(t):
            t2 = _whnf(scope, t, fuel)
            if type(t2) is Pair:
                fuel.spend()
                return _whnf(scope, t2.right, fuel)
            return term if t2 is t else Second(t2)
        case App(fun, arg):
            fun2 = _whnf(scope, fun, fuel)
            if type(fun2) is Lam:
                fuel.spend()
                bindings = beta_bindings(identity_subst(), fun2.pattern, arg, First, Second)
                return _whnf(scope, subst_direct(scope, bindings, fun2.body), fuel)
            return term if fun2 is fun else App(fun2, arg)
        case _:
            return term


def whnf_direct(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Weak head normal form: the head is never a beta or projection redex."""
    return _whnf(scope, term, Fuel(fuel))


def _nf(scope: Scope, term: Term, fuel: Fuel) -> Term:
    term = _whnf(scope, term, fuel)
    match term:
        case Var() | Universe():
            return term
        case Pair(left, right):
            return Pair(_nf(scope, left, fuel), _nf(scope, right, fuel))
        case First(t):
            return First(_nf(scope, t, fuel))
        case Second(t):
            return Second(_nf(scope, t, fuel))
        case App(fun, arg):
            return App(_nf(scope, fun, fuel), _nf(scope, arg, fuel))
        case Lam(pattern, body):
            pattern2, subst2, scope2 = with_pattern(scope, pattern, identity_subst())
            if subst2:  # some binder was renamed
                body = subst_direct(scope2, subst2, body)
            return Lam(pattern2, _nf(scope2, body, fuel))
        case Pi(pattern, domain, codomain):
            pattern2, subst2, scope2 = with_pattern(scope, pattern, identity_subst())
            if subst2:  # some binder was renamed
                codomain = subst_direct(scope2, subst2, codomain)
            return Pi(pattern2, _nf(scope, domain, fuel), _nf(scope2, codomain, fuel))
    raise TypeError(f"not a term: {term!r}")


def nf_direct(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Full normal-order normalization (reduce the head, then the subterms)."""
    return _nf(scope, term, Fuel(fuel))


def check_scope_direct(term: Term, scope: Scope) -> None:
    """Debug checker: every free name must be a member of ``scope``.

    Binders may shadow outer names (substitution outputs legitimately do),
    but binders within a single pattern must be pairwise distinct.
    """
    match term:
        case Var(Name(raw)):
            if raw not in scope:
                raise ScopeViolationError(f"name #{raw} is not in {scope!r}")
        case Pair(left, right):
            check_scope_direct(left, scope)
            check_scope_direct(right, scope)
        case First(t) | Second(t):
            check_scope_direct(t, scope)
        case App(fun, arg):
            check_scope_direct(fun, scope)
            check_scope_direct(arg, scope)
        case Lam(pattern, body):
            check_scope_direct(body, check_pattern_scope(pattern, scope))
        case Pi(pattern, domain, codomain):
            check_scope_direct(domain, scope)
            check_scope_direct(codomain, check_pattern_scope(pattern, scope))
        case Universe():
            pass
        case _:
            raise TypeError(f"not a term: {term!r}")
