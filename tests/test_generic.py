"""The signature-generic layer: the shared substitution and scope checking,
for the lambda-Pi signature and for one defined here."""

import random
from dataclasses import dataclass

import pytest

from scopefoil.generic import AST, ScopedAST, check_scope, sink_ast, substitute
from scopefoil.lambda_pi import AppSig, LamSig, PairSig, UniverseSig, mk_lam
from scopefoil.names import (
    Name,
    NameBinder,
    Scope,
    ScopeViolationError,
    Var,
    add_subst,
    debug_scopes_enabled,
    identity_subst,
    set_debug_scopes,
)
from scopefoil.patterns import PatternPair, PatternVar
from scopefoil.terms import Lam, check_scope_direct


@dataclass(frozen=True, slots=True)
class LetSig:
    """``let x = value in body``: a signature class known only to this file."""

    value: AST
    body: ScopedAST


def test_generic_operations_cover_a_signature_defined_elsewhere():
    """Substitution and scope checking are written once, for every
    signature: a constructor the package has never seen needs no code."""
    scope = Scope([0, 1])
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    # [x0 := x1] (let x1 = x0 in x0 x1): the binder collides with the live x1
    colliding = LetSig(
        Var(Name(0)), ScopedAST(NameBinder(1), AppSig(Var(Name(0)), Var(Name(1))))
    )
    assert substitute(scope, subst, colliding) == LetSig(
        Var(Name(1)), ScopedAST(NameBinder(2), AppSig(Var(Name(1)), Var(Name(2))))
    )
    # [x0 := x1] (let x7 = x0 in x0 x7): a binder that collides with nothing is reused
    free = LetSig(
        Var(Name(0)), ScopedAST(NameBinder(7), AppSig(Var(Name(0)), Var(Name(7))))
    )
    assert substitute(scope, subst, free) == LetSig(
        Var(Name(1)), ScopedAST(NameBinder(7), AppSig(Var(Name(1)), Var(Name(7))))
    )

    check_scope(free, Scope([0]))
    with pytest.raises(ScopeViolationError):
        check_scope(free, Scope())  # the value's x0 is free
    escaping = LetSig(UniverseSig(), ScopedAST(NameBinder(0), Var(Name(3))))
    with pytest.raises(ScopeViolationError):
        check_scope(escaping, Scope([0]))


@pytest.mark.parametrize("not_a_tree", [42, "x0", None, (Var(Name(0)),)])
def test_non_trees_are_type_errors(not_a_tree):
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    with pytest.raises(TypeError):
        substitute(Scope(), subst, not_a_tree)
    with pytest.raises(TypeError):
        check_scope(not_a_tree, Scope())
    with pytest.raises(TypeError):
        substitute(Scope(), subst, AppSig(Var(Name(0)), not_a_tree))
    with pytest.raises(TypeError):
        check_scope(AppSig(Var(Name(0)), not_a_tree), Scope([0]))


def test_substitute_replaces_free_variable():
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    assert substitute(scope, subst, Var(Name(0))) == UniverseSig()
    # untouched names map to themselves
    assert substitute(scope, subst, Var(Name(5))) == Var(Name(5))


def test_substitute_avoids_capture():
    """[x0 := x1] (lam x1 . x0 x1) must rename the inner binder."""
    inner = mk_lam(NameBinder(1), AppSig(Var(Name(0)), Var(Name(1))))
    scope = Scope().add(0).add(1)
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    out = substitute(scope, subst, inner)
    match out:
        case LamSig(ScopedAST(binder, body)):
            assert binder.raw == 2  # refreshed away from the live x1
            assert body == AppSig(Var(Name(1)), Var(Name(2)))
        case _:
            raise AssertionError(out)


def test_substitute_reuses_binder_when_safe():
    """A binder that collides with nothing live keeps its name."""
    inner = mk_lam(NameBinder(7), AppSig(Var(Name(0)), Var(Name(7))))
    scope = Scope().add(0).add(1)
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    out = substitute(scope, subst, inner)
    match out:
        case LamSig(ScopedAST(binder, body)):
            assert binder.raw == 7
            assert body == AppSig(Var(Name(1)), Var(Name(7)))
        case _:
            raise AssertionError(out)


def test_substitute_shadowed_binder_blocks_substitution():
    # [x0 := U] (lam x0 . x0) leaves the bound occurrence alone
    term = mk_lam(NameBinder(0), Var(Name(0)))
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    out = substitute(scope, subst, term)
    match out:
        case LamSig(ScopedAST(binder, body)):
            assert body == Var(Name(binder.raw))
        case _:
            raise AssertionError(out)


def test_substitute_pair_fragment_through_same_code_path():
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    term = PairSig(Var(Name(0)), Var(Name(0)))
    assert substitute(scope, subst, term) == PairSig(UniverseSig(), UniverseSig())


def test_check_scope():
    check_scope(Var(Name(0)), Scope().add(0))
    with pytest.raises(ScopeViolationError):
        check_scope(Var(Name(0)), Scope())
    term = mk_lam(NameBinder(0), Var(Name(0)))
    check_scope(term, Scope())  # closed
    escaping = mk_lam(NameBinder(0), Var(Name(1)))
    with pytest.raises(ScopeViolationError):
        check_scope(escaping, Scope())
    # a pattern binder scopes its body; binding one raw twice is rejected,
    # as the direct checker rejects it
    pair = PatternPair(PatternVar(NameBinder(0)), PatternVar(NameBinder(1)))
    check_scope(LamSig(ScopedAST(pair, AppSig(Var(Name(0)), Var(Name(1))))), Scope())
    twice = PatternPair(PatternVar(NameBinder(0)), PatternVar(NameBinder(0)))
    with pytest.raises(ScopeViolationError):
        check_scope(LamSig(ScopedAST(twice, Var(Name(0)))), Scope())
    with pytest.raises(ScopeViolationError):
        check_scope_direct(Lam(twice, Var(Name(0))), Scope())


def test_sink_ast_is_identity_and_checks_in_debug():
    term = mk_lam(NameBinder(0), Var(Name(0)))
    assert sink_ast(term) is term
    previous = debug_scopes_enabled()
    set_debug_scopes(True)
    try:
        assert sink_ast(term, Scope(), Scope().add(3)) is term
        leaky = Var(Name(5))
        with pytest.raises(ScopeViolationError):
            sink_ast(leaky, Scope(), Scope().add(3))
    finally:
        set_debug_scopes(previous)


def test_substitute_does_not_reach_under_shadowing_binder():
    # [#0 := U] (lam #0 . #0): the reused binder shadows the entry
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    term = mk_lam(NameBinder(0), Var(Name(0)))
    assert substitute(Scope(), subst, term) == term


def test_substitute_random_roundtrip_with_identity():
    """Identity substitution never changes structure, only (possibly) binders
    that collide with the ambient scope — and with fresh scopes it is exact."""
    rng = random.Random(77)
    for _ in range(100):
        depth = rng.randrange(1, 5)
        term = _random_ast(rng, depth, ())
        assert substitute(Scope(), identity_subst(), term) == term


def _random_ast(rng, depth, env):
    if depth <= 0 or (env and rng.random() < 0.3):
        if env:
            return Var(Name(rng.choice(env)))
        return UniverseSig()
    match rng.randrange(4):
        case 0:
            return AppSig(
                _random_ast(rng, depth - 1, env), _random_ast(rng, depth - 1, env)
            )
        case 1:
            raw = max(env, default=-1) + 1
            return mk_lam(NameBinder(raw), _random_ast(rng, depth - 1, env + (raw,)))
        case 2:
            return PairSig(
                _random_ast(rng, depth - 1, env), _random_ast(rng, depth - 1, env)
            )
        case _:
            return UniverseSig()
