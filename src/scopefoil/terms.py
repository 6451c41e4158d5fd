"""Dependently-typed lambda calculus with pairs, direct scope-indexed form.

Every construct carries its binders as :mod:`scopefoil.patterns` patterns
directly in the node (``Lam``/``Pi``), and variables are the shared
:class:`scopefoil.names.Var` node.  The node classes ``Pair``, ``First``,
``Second``, ``App``, ``Lam``, ``Pi`` and ``Universe`` are generated from the
:mod:`scopefoil.naive` ones, with the same fields in the same order.

Substitution is the rapier-style single pass: binders are reused unless they
collide with the ambient scope, and a subtree whose recorded free-name mask
(:class:`scopefoil.names.Node`) misses the substitution's domain is returned
as it is.  The domain's mask is built once per call of :func:`subst_direct`
and carried down the walk, with the bit of each renamed binder added; each
child is handled at its parent, so a variable is looked up and a subtree
the mask lets pass is kept without a call.  Substitution and normalization
enter a single-variable pattern inline with :func:`scopefoil.names.enter`
and dispatch with ``type`` tests, most frequent case first; normalization
leaves a variable child where it is, and returns a node whose subterms all
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
from .generic import PATTERN, SCOPED, ScopedAST, _domain, children, constructor, derive
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
    here records its mask.  The mask of the domain is built once, here, and
    carried down the walk, :func:`_subst_direct`, which handles each child
    at its parent: a variable is looked up in place, a node whose mask
    misses the domain is kept, and only a node to rebuild is walked into.
    A single-variable pattern is entered inline, and a renamed binder adds
    its bit to the mask; any other pattern goes through
    :func:`with_pattern`, and the mask is built again from its substitution.
    """
    if type(term) is Var:
        return subst.get(term.name.raw, term)
    dom = _domain(subst)
    fv = getattr(term, "fv", -1)
    if fv >= 0 and not fv & dom:
        return term
    return _subst_direct(scope, subst, dom, term)


def _subst_direct(scope: Scope, subst: Subst, dom: int, term: Term) -> Term:
    # ``subst_direct`` after its shortcut, with ``dom`` the mask of
    # ``subst``'s keys.  Every child is handled by the same block, written
    # out once per field: look a variable up, keep a node whose mask misses
    # ``dom``, walk into any other, and read the child's mask.
    kind = type(term)
    if kind is App:
        fun, arg = term.fun, term.arg
        if type(fun) is Var:
            fun = subst.get(fun.name.raw, fun)
            fv = 1 << fun.name.raw if type(fun) is Var else getattr(fun, "fv", -1)
        else:
            fv = getattr(fun, "fv", -1)
            if fv < 0 or fv & dom:
                fun = _subst_direct(scope, subst, dom, fun)
                fv = getattr(fun, "fv", -1)
        if type(arg) is Var:
            arg = subst.get(arg.name.raw, arg)
            av = 1 << arg.name.raw if type(arg) is Var else getattr(arg, "fv", -1)
        else:
            av = getattr(arg, "fv", -1)
            if av < 0 or av & dom:
                arg = _subst_direct(scope, subst, dom, arg)
                av = getattr(arg, "fv", -1)
        node, fv = App(fun, arg), fv | av
    elif kind is Lam or kind is Pi:
        pattern = term.pattern
        if type(pattern) is PatternVar:
            binder = pattern.binder
            binder2, scope2 = enter(scope, binder)
            raw2 = binder2.raw
            if binder2 is binder and raw2 not in subst:
                subst2, dom2 = subst, dom  # a reused binder maps to itself
            else:
                subst2 = add_subst(subst, binder, Var(Name(raw2)))
                dom2 = dom | 1 << binder.raw
                if binder2 is not binder:
                    pattern = PatternVar(binder2)
            bound = 1 << raw2
        else:
            pattern, subst2, scope2 = with_pattern(scope, pattern, subst)
            dom2 = _domain(subst2)
            bound = pattern_mask(pattern)
        body = term.body if kind is Lam else term.codomain
        if type(body) is Var:
            body = subst2.get(body.name.raw, body)
            fv = 1 << body.name.raw if type(body) is Var else getattr(body, "fv", -1)
        else:
            fv = getattr(body, "fv", -1)
            if fv < 0 or fv & dom2:
                body = _subst_direct(scope2, subst2, dom2, body)
                fv = getattr(body, "fv", -1)
        fv -= fv & bound
        if kind is Lam:
            node = Lam(pattern, body)
        else:
            ty = term.domain
            if type(ty) is Var:
                ty = subst.get(ty.name.raw, ty)
                dv = 1 << ty.name.raw if type(ty) is Var else getattr(ty, "fv", -1)
            else:
                dv = getattr(ty, "fv", -1)
                if dv < 0 or dv & dom:
                    ty = _subst_direct(scope, subst, dom, ty)
                    dv = getattr(ty, "fv", -1)
            node, fv = Pi(pattern, ty, body), dv | fv
    elif kind is First or kind is Second:
        t = term.term
        if type(t) is Var:
            t = subst.get(t.name.raw, t)
            fv = 1 << t.name.raw if type(t) is Var else getattr(t, "fv", -1)
        else:
            fv = getattr(t, "fv", -1)
            if fv < 0 or fv & dom:
                t = _subst_direct(scope, subst, dom, t)
                fv = getattr(t, "fv", -1)
        node = kind(t)
    elif kind is Pair:
        left, right = term.left, term.right
        if type(left) is Var:
            left = subst.get(left.name.raw, left)
            fv = 1 << left.name.raw if type(left) is Var else getattr(left, "fv", -1)
        else:
            fv = getattr(left, "fv", -1)
            if fv < 0 or fv & dom:
                left = _subst_direct(scope, subst, dom, left)
                fv = getattr(left, "fv", -1)
        if type(right) is Var:
            right = subst.get(right.name.raw, right)
            rv = 1 << right.name.raw if type(right) is Var else getattr(right, "fv", -1)
        else:
            rv = getattr(right, "fv", -1)
            if rv < 0 or rv & dom:
                right = _subst_direct(scope, subst, dom, right)
                rv = getattr(right, "fv", -1)
        node, fv = Pair(left, right), fv | rv
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
    in whnf first; a variable child of an application or under a binder is
    left where it is, with no call.  A node whose subterms all come back as
    the same objects is returned as it is."""
    kind = type(term)
    if kind is App:
        fun, arg = term.fun, term.arg
        fun2 = fun if type(fun) is Var else _nf_whnf(scope, fun, fuel)
        arg2 = arg if type(arg) is Var else _nf_whnf(scope, _whnf(scope, arg, fuel), fuel)
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
        if type(body) is not Var:
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
