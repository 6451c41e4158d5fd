"""Normalization by evaluation with delayed substitution.

Terms evaluate to values in an environment (raw name -> thunk/value); a
binder's body is never traversed by a substitution — it is captured in a
closure together with its environment and only evaluated when the closure
is applied.  Quotation reads normal forms back, applying closures to fresh
neutral variables under an extended scope: each binder is entered with
:func:`scopefoil.names.enter`, so a binder that does not collide keeps its
name.  A chain of binders, a lambda or Pi whose body is syntactically
another, is quoted in one loop that takes no frame per binder, so a nest
of any depth reads back within the stack.  Evaluation, application,
projection and quotation dispatch with ``type`` tests, most frequent case
first.

Arguments and pair components are delayed with memoized thunks, and a pair
pattern binds its variables to thunks of the argument's projections, so
evaluation demands exactly what normal order demands: terms whose arguments
fail to normalize (but are discarded) still converge, and results always
agree with the tree-substitution normalizers up to alpha.

Looking up a name the environment does not know yields a neutral value, so
open terms evaluate fine.  An elimination that cannot fire, such as
applying a pair or projecting a lambda, is neutral too: its head is the
value it could not take apart, so the term is left stuck, as the tree
engines leave it (Berger and Schwichtenberg; Abel).
"""

from __future__ import annotations

from .generic import ScopedAST
from .lambda_pi import (
    AppSig,
    FirstSig,
    LamSig,
    PairSig,
    PiSig,
    SecondSig,
    Term,
    UniverseSig,
)
from .naive import node_class
from .names import (
    Name,
    NameBinder,
    Scope,
    Var,
    enter,
    identity_subst,
)
from .patterns import Pattern, beta_bindings, names_of_pattern, with_pattern


class Thunk:
    """A delayed, memoized evaluation of ``term`` in ``env``."""

    __slots__ = ("term", "env", "value")

    def __init__(self, term: Term, env: "Env"):
        self.term = term
        self.env = env
        self.value: Value | None = None

    def force(self) -> "Value":
        v = self.value
        if v is None:
            v = eval_term(self.env, self.term)
            self.value = v
        return v


@node_class
class EApp:
    arg: Thunk


@node_class
class EFirst:
    pass


@node_class
class ESecond:
    pass


Elim = EApp | EFirst | ESecond


@node_class
class VNeutral:
    """A stuck elimination spine over a variable or over a value that an
    elimination cannot take apart (a lambda projected, a pair applied)."""

    head: Name | Value
    spine: tuple[Elim, ...]


@node_class
class VLam:
    env: "Env"
    binder: NameBinder | Pattern
    body: Term


@node_class
class VPi:
    env: "Env"
    domain: "Value"
    binder: NameBinder | Pattern
    codomain: Term


@node_class
class VPair:
    left: Thunk
    right: Thunk


@node_class
class VUniverse:
    pass


Value = VNeutral | VLam | VPi | VPair | VUniverse

# Environments are persistent linked cells ``(raw, value, rest)``, newest
# first, ending in ``None``; a value is a thunk or an already-forced value.
# Entering a binder conses one cell, so closures share their outer
# environment instead of copying it; lookup walks to the nearest binding,
# which is the innermost one, so shadowing works.
Env = tuple | None


def _lookup(env: Env, raw: int):  # type: ignore[no-untyped-def]
    while env is not None:
        if env[0] == raw:
            return env[1]
        env = env[2]
    return None


def _force(v) -> Value:  # type: ignore[no-untyped-def]
    return v.force() if type(v) is Thunk else v


# The thunk of ``first x`` / ``second x`` in the environment x -> arg: a
# pattern's parts bind to projections of the argument, forced only on demand.
_FIRST, _SECOND = FirstSig(Var(Name(0))), SecondSig(Var(Name(0)))


def _first(arg: Thunk) -> Thunk:
    return Thunk(_FIRST, (0, arg, None))


def _second(arg: Thunk) -> Thunk:
    return Thunk(_SECOND, (0, arg, None))


def apply_value(fun: Value, arg: Thunk) -> Value:
    kind = type(fun)
    if kind is VLam:
        binder, env = fun.binder, fun.env
        if type(binder) is NameBinder:
            return eval_term((binder.raw, arg, env), fun.body)
        bindings = beta_bindings(binder, arg, _first, _second)
        for raw, value in bindings.items():
            env = (raw, value, env)
        return eval_term(env, fun.body)
    if kind is VNeutral:
        return VNeutral(fun.head, fun.spine + (EApp(arg),))
    return VNeutral(fun, (EApp(arg),))


def _project(value: Value, which: int) -> Value:
    kind = type(value)
    if kind is VPair:
        return _force(value.left if which == 0 else value.right)
    elim = EFirst() if which == 0 else ESecond()
    if kind is VNeutral:
        return VNeutral(value.head, value.spine + (elim,))
    return VNeutral(value, (elim,))


def eval_term(env: Env, term: Term) -> Value:
    kind = type(term)
    if kind is Var:
        name = term.name
        hit = _lookup(env, name.raw)
        return VNeutral(name, ()) if hit is None else _force(hit)
    if kind is AppSig:
        return apply_value(eval_term(env, term.fun), Thunk(term.arg, env))
    if kind is LamSig:
        scoped = term.body
        return VLam(env, scoped.binder, scoped.body)
    if kind is FirstSig:
        return _project(eval_term(env, term.term), 0)
    if kind is SecondSig:
        return _project(eval_term(env, term.term), 1)
    if kind is PairSig:
        return VPair(Thunk(term.left, env), Thunk(term.right, env))
    if kind is PiSig:
        scoped = term.codomain
        return VPi(env, eval_term(env, term.domain), scoped.binder, scoped.body)
    if kind is UniverseSig:
        return VUniverse()
    raise TypeError(f"not a term: {term!r}")


def quote(scope: Scope, value: Value) -> Term:
    """Read a value back as a normal-form term under ``scope``."""
    kind = type(value)
    if kind is VNeutral:
        acc: Term = (
            Var(value.head) if type(value.head) is Name else quote(scope, value.head)
        )
        for elim in value.spine:
            elim_kind = type(elim)
            if elim_kind is EApp:
                acc = AppSig(acc, quote(scope, _force(elim.arg)))
            elif elim_kind is EFirst:
                acc = FirstSig(acc)
            else:
                acc = SecondSig(acc)
        return acc
    if kind is VLam:
        return _quote_binders(scope, value.env, None, value.binder, value.body)
    if kind is VPair:
        return PairSig(quote(scope, _force(value.left)), quote(scope, _force(value.right)))
    if kind is VPi:
        domain = quote(scope, value.domain)
        return _quote_binders(scope, value.env, domain, value.binder, value.codomain)
    if kind is VUniverse:
        return UniverseSig()
    raise TypeError(f"not a value: {value!r}")


def _quote_binders(
    scope: Scope, env: Env, domain: Term | None, binder: NameBinder | Pattern, body: Term
) -> Term:
    """Quote a closure, and the chain of binders its body opens, in one loop.

    ``domain`` is the closure's quoted Pi domain, or ``None`` for a lambda.
    Each binder is entered from the scope the one before it made, and each
    name it bound is bound in ``env`` to a neutral of its new name.  While the
    body is syntactically a lambda or a Pi, the loop goes on under it, doing
    what quoting the ``VLam`` or ``VPi`` that :func:`eval_term` would build
    does (a Pi's domain is evaluated and quoted under the binders so far),
    without building it.  Any other body is evaluated and quoted, and the
    chain of ``(binder, domain)`` cells is rebuilt around it from the inside
    out, so a nest of n binders takes one frame, not 2n.
    """
    chain = None
    while True:
        if type(binder) is NameBinder:
            binder2, scope = enter(scope, binder)
            env = (binder.raw, VNeutral(Name(binder2.raw), ()), env)
        else:
            binder2, _, scope = with_pattern(scope, binder, identity_subst())
            for old, new in zip(names_of_pattern(binder), names_of_pattern(binder2)):
                env = (old.raw, VNeutral(new, ()), env)
        chain = (binder2, domain, chain)
        kind = type(body)
        if kind is LamSig:
            domain = None
            scoped = body.body
        elif kind is PiSig:
            domain = quote(scope, eval_term(env, body.domain))
            scoped = body.codomain
        else:
            break
        binder, body = scoped.binder, scoped.body
    term = quote(scope, eval_term(env, body))
    while chain is not None:
        binder2, domain, chain = chain
        scoped = ScopedAST(binder2, term)
        term = LamSig(scoped) if domain is None else PiSig(domain, scoped)
    return term


def nf_nbe(scope: Scope, term: Term) -> Term:
    """Normal form by evaluate-then-quote; never substitutes into a tree."""
    return quote(scope, eval_term(None, term))
