"""Dependently-typed lambda calculus with pairs, direct scope-indexed form.

Every construct carries its binders as :mod:`scopefoil.patterns` patterns
directly in the node (``Lam``/``Pi``), and variables are the shared
:class:`scopefoil.names.Var` node.  The node classes ``Pair``, ``First``,
``Second``, ``App``, ``Lam``, ``Pi`` and ``Universe`` are generated from the
:mod:`scopefoil.naive` ones, with the same fields in the same order.

Substitution is the rapier-style single pass: binders are reused unless they
collide with the ambient scope, and a subtree whose recorded free-name mask
(:class:`scopefoil.names.Node`) misses the substitution's domain is returned
as it is.
"""

from __future__ import annotations

from typing import Union, get_args

from . import naive
from .fuel import Fuel
from .generic import derive
from .names import (
    Name,
    Scope,
    ScopeViolationError,
    Subst,
    Var,
    check_mask,
    free_mask,
    identity_subst,
    masked,
    set_mask,
)
from .patterns import (
    beta_bindings,
    check_pattern_scope,
    pattern_mask,
    with_pattern,
)


# One record per compound surface constructor, in ``naive.Term`` order; the
# generic classes are bound by :mod:`scopefoil.lambda_pi`.
CONSTRUCTORS = tuple(
    derive(cls, __name__, f"{__package__}.lambda_pi")
    for cls in get_args(naive.Term) if cls is not naive.Var
)
Pair, First, Second, App, Lam, Pi, Universe = (con.direct for con in CONSTRUCTORS)

Term = Union[Var, Pair, First, Second, App, Lam, Pi, Universe]


def subst_direct(scope: Scope, subst: Subst, term: Term) -> Term:
    """Apply ``subst`` to ``term`` under ``scope`` in one capture-avoiding pass.

    A variable outside the domain, and a node whose recorded free-name mask
    misses every key of ``subst``, come back as they are; every node built
    here records its mask.
    """
    if type(term) is Var:
        return subst.get(term.name.raw, term)
    dom = 0
    for raw in subst:
        dom |= 1 << raw
    fv = getattr(term, "fv", -1)
    if fv >= 0 and not fv & dom:
        return term
    match term:
        case Pair(left, right):
            left = subst_direct(scope, subst, left)
            right = subst_direct(scope, subst, right)
            node, fv = Pair(left, right), free_mask(left) | free_mask(right)
        case First(t):
            t = subst_direct(scope, subst, t)
            node, fv = First(t), free_mask(t)
        case Second(t):
            t = subst_direct(scope, subst, t)
            node, fv = Second(t), free_mask(t)
        case App(fun, arg):
            fun = subst_direct(scope, subst, fun)
            arg = subst_direct(scope, subst, arg)
            node, fv = App(fun, arg), free_mask(fun) | free_mask(arg)
        case Lam(pattern, body):
            pattern2, subst2, scope2 = with_pattern(scope, pattern, subst)
            body = subst_direct(scope2, subst2, body)
            node, fv = Lam(pattern2, body), free_mask(body) & ~pattern_mask(pattern2)
        case Pi(pattern, domain, codomain):
            pattern2, subst2, scope2 = with_pattern(scope, pattern, subst)
            domain = subst_direct(scope, subst, domain)
            codomain = subst_direct(scope2, subst2, codomain)
            node = Pi(pattern2, domain, codomain)
            fv = free_mask(domain) | free_mask(codomain) & ~pattern_mask(pattern2)
        case Universe():
            return term
        case _:
            raise TypeError(f"not a term: {term!r}")
    set_mask(node, fv)
    return node


_FIRST, _SECOND = masked(First), masked(Second)


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
                bindings = beta_bindings(
                    identity_subst(), fun2.pattern, arg, _FIRST, _SECOND
                )
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


def check_scope_direct(term: Term, scope: Scope) -> int:
    """Debug checker: every free name must be a member of ``scope``, and
    every recorded free-name mask must be exact.  Returns the free-name mask.

    Binders may shadow outer names (substitution outputs legitimately do),
    but binders within a single pattern must be pairwise distinct.
    """
    match term:
        case Var(Name(raw)):
            if raw not in scope:
                raise ScopeViolationError(f"name #{raw} is not in {scope!r}")
            return 1 << raw
        case Pair(left, right):
            free = check_scope_direct(left, scope) | check_scope_direct(right, scope)
        case First(t) | Second(t):
            free = check_scope_direct(t, scope)
        case App(fun, arg):
            free = check_scope_direct(fun, scope) | check_scope_direct(arg, scope)
        case Lam(pattern, body):
            free = check_scope_direct(body, check_pattern_scope(pattern, scope))
            free &= ~pattern_mask(pattern)
        case Pi(pattern, domain, codomain):
            free = check_scope_direct(domain, scope)
            inner = check_scope_direct(codomain, check_pattern_scope(pattern, scope))
            free |= inner & ~pattern_mask(pattern)
        case Universe():
            free = 0
        case _:
            raise TypeError(f"not a term: {term!r}")
    check_mask(term, free)
    return free
