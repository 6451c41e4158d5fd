"""Dependently-typed lambda calculus with pairs, direct scope-indexed form.

Every construct carries its binders as :mod:`scopefoil.patterns` patterns
directly in the node (``Lam``/``Pi``), and variables are the shared
:class:`scopefoil.names.Var` node.  The node classes ``Pair``, ``First``,
``Second``, ``App``, ``Lam``, ``Pi`` and ``Universe`` are generated from the
:mod:`scopefoil.naive` ones, with the same fields in the same order.

Substitution is the rapier-style single pass: binders are reused unless they
collide with the ambient scope, and a subtree whose recorded free-name mask
(:class:`scopefoil.names.Node`) misses the substitution's domain is returned
as it is.  Substitution and normalization enter a single-variable pattern
inline with :func:`scopefoil.names.enter` and dispatch with ``type`` tests,
most frequent case first; normalization returns a node whose subterms all
come back as the same objects as it is, so a normal term is not copied.
Weak-head reduction is written once, by :func:`weak_head`, for this tree and
the generic one of :mod:`scopefoil.lambda_pi`; neither normalizer reduces the
head of a stuck spine twice, so the spine costs time linear in its length.
"""

from __future__ import annotations

from types import FunctionType
from typing import Callable, Union, get_args

from . import naive
from .fuel import Fuel
from .generic import PATTERN, SCOPED, ScopedAST, children, constructor, derive
from .names import (
    Name,
    NameBinder,
    Scope,
    ScopeViolationError,
    Subst,
    Var,
    add_subst,
    check_mask,
    enter,
    free_mask,
    identity_subst,
    masked,
    set_mask,
)
from .patterns import (
    PatternVar, beta_bindings, check_pattern_scope, pattern_mask, with_pattern
)


# One record per compound surface constructor, in ``naive.Term`` order; the
# generic classes are bound by :mod:`scopefoil.lambda_pi`.
CONSTRUCTORS = tuple(
    derive(cls, __name__, f"{__package__}.lambda_pi")
    for cls in get_args(naive.Term) if cls is not naive.Var
)
Pair, First, Second, App, Lam, Pi, Universe = (con.direct for con in CONSTRUCTORS)
BY_DIRECT = {con.direct: con for con in CONSTRUCTORS}

Term = Union[Var, Pair, First, Second, App, Lam, Pi, Universe]


def subst_direct(scope: Scope, subst: Subst, term: Term) -> Term:
    """Apply ``subst`` to ``term`` under ``scope`` in one capture-avoiding pass.

    A variable outside the domain, and a node whose recorded free-name mask
    misses every key of ``subst``, come back as they are; every node built
    here records its mask.  A single-variable pattern is entered inline, any
    other goes through :func:`with_pattern`.
    """
    if type(term) is Var:
        return subst.get(term.name.raw, term)
    dom = 0
    for raw in subst:
        dom |= 1 << raw
    fv = getattr(term, "fv", -1)
    if fv >= 0 and not fv & dom:
        return term
    kind = type(term)
    if kind is App:
        fun = subst_direct(scope, subst, term.fun)
        arg = subst_direct(scope, subst, term.arg)
        node, fv = App(fun, arg), free_mask(fun) | free_mask(arg)
    elif kind is Lam or kind is Pi:
        pattern = term.pattern
        if type(pattern) is PatternVar:
            binder = pattern.binder
            binder2, scope2 = enter(scope, binder)
            raw2 = binder2.raw
            if binder2 is binder and raw2 not in subst:
                subst2 = subst  # a reused binder maps to itself
            else:
                subst2 = add_subst(subst, binder, Var(Name(raw2)))
                if binder2 is not binder:
                    pattern = PatternVar(binder2)
            bound = 1 << raw2
        else:
            pattern, subst2, scope2 = with_pattern(scope, pattern, subst)
            bound = pattern_mask(pattern)
        if kind is Lam:
            body = subst_direct(scope2, subst2, term.body)
            fv = free_mask(body)
            node, fv = Lam(pattern, body), fv - (fv & bound)
        else:
            domain = subst_direct(scope, subst, term.domain)
            codomain = subst_direct(scope2, subst2, term.codomain)
            node = Pi(pattern, domain, codomain)
            fv = free_mask(codomain)
            fv = free_mask(domain) | fv - (fv & bound)
    elif kind is First or kind is Second:
        t = subst_direct(scope, subst, term.term)
        node, fv = kind(t), free_mask(t)
    elif kind is Pair:
        left = subst_direct(scope, subst, term.left)
        right = subst_direct(scope, subst, term.right)
        node, fv = Pair(left, right), free_mask(left) | free_mask(right)
    elif kind is Universe:
        return term
    else:
        raise TypeError(f"not a term: {term!r}")
    set_mask(node, fv)
    return node


# The eliminators and their heads, the fields they take apart.  A head of a
# whnf is one too, so it is normalized with no reduction: a stuck spine costs
# time linear in its length.
HEADS = {naive.App: "fun", naive.First: "term", naive.Second: "term"}


def weak_head(App, Lam, Pair, First, Second, namespace: dict, substitution: str) -> Callable:
    """The normal-order weak-head reduction of the tree with these classes:
    :func:`_reduce`, its names bound to them in its globals (which are read as
    fast as a module's), and its substitution ``namespace[substitution]``,
    read at each beta as a global of that module would be."""
    tree = dict(globals(), App=App, Lam=Lam, Pair=Pair, First=First, Second=Second)
    tree.update(namespace=namespace, substitution=substitution)
    tree["project"] = masked(First), masked(Second)
    whnf = tree["_whnf"] = FunctionType(_reduce.__code__, tree)
    return whnf


def _reduce(scope: Scope, term, fuel: Fuel):
    # Run only as the copies ``weak_head`` makes.  A generic lambda's body is
    # a ``ScopedAST``; a direct one's binder is its pattern.  A pair pattern
    # binds its parts to masked projections of the argument.  A beta, or the
    # projection of a pair, spends one unit of fuel; a whnf comes back as is.
    kind = type(term)
    if kind is App:
        fun = term.fun
        fun2 = _whnf(scope, fun, fuel)
        if type(fun2) is Lam:
            fuel.spend()
            body = fun2.body
            if type(body) is ScopedAST:
                binder, body = body.binder, body.body
            else:
                binder = fun2.pattern
                if type(binder) is PatternVar:
                    binder = binder.binder
            if type(binder) is NameBinder:
                bindings = {binder.raw: term.arg}
            else:
                bindings = beta_bindings(identity_subst(), binder, term.arg, *project)
            return _whnf(scope, namespace[substitution](scope, bindings, body), fuel)
        return term if fun2 is fun else App(fun2, term.arg)
    if kind is First or kind is Second:
        t = term.term
        t2 = _whnf(scope, t, fuel)
        if type(t2) is not Pair:
            return term if t2 is t else kind(t2)
        fuel.spend()
        return _whnf(scope, t2.left if kind is First else t2.right, fuel)
    return term


_whnf = weak_head(App, Lam, Pair, First, Second, globals(), "subst_direct")


def whnf_direct(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Weak head normal form: the head is never a beta or projection redex."""
    return _whnf(scope, term, Fuel(fuel))


def _nf_whnf(scope: Scope, term: Term, fuel: Fuel) -> Term:
    """Normalize ``term``, a whnf, putting each child but a head (:data:`HEADS`)
    in whnf first.  A node whose subterms all come back as the same objects
    is returned as it is."""
    kind = type(term)
    if kind is App:
        fun, arg = term.fun, term.arg
        fun2 = _nf_whnf(scope, fun, fuel)
        arg2 = _nf_whnf(scope, _whnf(scope, arg, fuel), fuel)
        return term if fun2 is fun and arg2 is arg else App(fun2, arg2)
    if kind is Lam or kind is Pi:
        pattern = term.pattern
        if type(pattern) is PatternVar:
            binder = pattern.binder
            binder2, scope2 = enter(scope, binder)
            if binder2 is binder:
                rename = None
            else:
                pattern = PatternVar(binder2)
                rename = {binder.raw: Var(Name(binder2.raw))}
        else:
            pattern, rename, scope2 = with_pattern(scope, pattern, identity_subst())
        if kind is Pi:
            domain = _nf_whnf(scope, _whnf(scope, term.domain, fuel), fuel)
        body = before = term.body if kind is Lam else term.codomain
        if rename:  # some binder was renamed
            body = subst_direct(scope2, rename, body)
        body = _nf_whnf(scope2, _whnf(scope2, body, fuel), fuel)
        if kind is Lam:
            return term if pattern is term.pattern and body is before else Lam(pattern, body)
        if pattern is term.pattern and domain is term.domain and body is before:
            return term
        return Pi(pattern, domain, body)
    if kind is Var or kind is Universe:
        return term
    if kind is First or kind is Second:
        t = term.term
        t2 = _nf_whnf(scope, t, fuel)
        return term if t2 is t else kind(t2)
    if kind is Pair:
        left, right = term.left, term.right
        left2 = _nf_whnf(scope, _whnf(scope, left, fuel), fuel)
        right2 = _nf_whnf(scope, _whnf(scope, right, fuel), fuel)
        return term if left2 is left and right2 is right else Pair(left2, right2)
    raise TypeError(f"not a term: {term!r}")


def nf_direct(scope: Scope, term: Term, fuel: int | None = None) -> Term:
    """Full normal-order normalization (reduce the head, then the subterms)."""
    fuel = Fuel(fuel)
    return _nf_whnf(scope, _whnf(scope, term, fuel), fuel)


def check_scope_direct(term: Term, scope: Scope) -> int:
    """Scope checker: every free name must be a member of ``scope``, and
    every recorded free-name mask must be exact.  Returns the free-name mask.

    The walk follows the field roles of :data:`CONSTRUCTORS`: a pattern's
    scoped fields are checked under it, every other field in the node's own
    scope.  Binders may shadow outer names (substitution outputs legitimately
    do), but binders within a single pattern must be pairwise distinct.
    """
    if type(term) is Var:
        raw = term.name.raw
        if raw not in scope:
            raise ScopeViolationError(f"name #{raw} is not in {scope!r}")
        return 1 << raw
    free = 0
    for role, field in zip(constructor(BY_DIRECT, term).roles, children(term)):
        if role is PATTERN:
            inner, bound = check_pattern_scope(field, scope), pattern_mask(field)
        elif role is SCOPED:
            fv = check_scope_direct(field, inner)
            free |= fv - (fv & bound)
        else:
            free |= check_scope_direct(field, scope)
    check_mask(term, free)
    return free
