"""The signature-generic layer: map_node laws, the shared substitution,
scope checking, and signature sums."""

import random

import pytest

from scopefoil.generic import (
    InL,
    InR,
    Node,
    ScopedAST,
    check_scope,
    map_node,
    sink_ast,
    substitute,
)
from scopefoil.lambda_pi import (
    AppSig,
    LamSig,
    PairSig,
    mk_app,
    mk_lam,
    mk_pair,
    mk_universe,
    mk_var,
)
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


def _id_scoped(scoped: ScopedAST) -> ScopedAST:
    return ScopedAST(scoped.binder, scoped.body)


def _id_term(t):
    return t


SAMPLE_SIGS = [
    AppSig(mk_var(Name(0)), mk_universe()),
    LamSig(ScopedAST(NameBinder(1), mk_var(Name(1)))),
    PairSig(mk_var(Name(0)), mk_var(Name(2))),
    InL(AppSig(mk_universe(), mk_universe())),
    InR(PairSig(mk_universe(), mk_var(Name(3)))),
]


def test_map_node_identity_law():
    for sig in SAMPLE_SIGS:
        assert map_node(sig, _id_scoped, _id_term) == sig


def test_map_node_composition_law():
    def f_term(t):
        return mk_pair(t, t)

    def g_term(t):
        return mk_app(t, mk_universe())

    def f_scoped(s):
        return ScopedAST(s.binder, f_term(s.body))

    def g_scoped(s):
        return ScopedAST(s.binder, g_term(s.body))

    for sig in SAMPLE_SIGS:
        composed = map_node(sig, lambda s: f_scoped(g_scoped(s)), lambda t: f_term(g_term(t)))
        staged = map_node(map_node(sig, g_scoped, g_term), f_scoped, f_term)
        assert composed == staged


def test_map_node_preserves_injection_side():
    sig = InL(AppSig(mk_universe(), mk_universe()))
    out = map_node(sig, _id_scoped, _id_term)
    assert isinstance(out, InL)
    out2 = map_node(InR(sig.node), _id_scoped, _id_term)
    assert isinstance(out2, InR)


def test_substitute_replaces_free_variable():
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), mk_universe())
    assert substitute(scope, subst, mk_var(Name(0))) == mk_universe()
    # untouched names map to themselves
    assert substitute(scope, subst, mk_var(Name(5))) == Var(Name(5))


def test_substitute_avoids_capture():
    """[x0 := x1] (lam x1 . x0 x1) must rename the inner binder."""
    inner = mk_lam(NameBinder(1), mk_app(mk_var(Name(0)), mk_var(Name(1))))
    scope = Scope().add(0).add(1)
    subst = add_subst(identity_subst(), NameBinder(0), mk_var(Name(1)))
    out = substitute(scope, subst, inner)
    match out:
        case Node(InL(LamSig(ScopedAST(binder, body)))):
            assert binder.raw == 2  # refreshed away from the live x1
            assert body == mk_app(mk_var(Name(1)), mk_var(Name(2)))
        case _:
            raise AssertionError(out)


def test_substitute_reuses_binder_when_safe():
    """A binder that collides with nothing live keeps its name."""
    inner = mk_lam(NameBinder(7), mk_app(mk_var(Name(0)), mk_var(Name(7))))
    scope = Scope().add(0).add(1)
    subst = add_subst(identity_subst(), NameBinder(0), mk_var(Name(1)))
    out = substitute(scope, subst, inner)
    match out:
        case Node(InL(LamSig(ScopedAST(binder, body)))):
            assert binder.raw == 7
            assert body == mk_app(mk_var(Name(1)), mk_var(Name(7)))
        case _:
            raise AssertionError(out)


def test_substitute_shadowed_binder_blocks_substitution():
    # [x0 := U] (lam x0 . x0) leaves the bound occurrence alone
    term = mk_lam(NameBinder(0), mk_var(Name(0)))
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), mk_universe())
    out = substitute(scope, subst, term)
    match out:
        case Node(InL(LamSig(ScopedAST(binder, body)))):
            assert body == Var(Name(binder.raw))
        case _:
            raise AssertionError(out)


def test_substitute_pair_fragment_through_same_code_path():
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), mk_universe())
    term = mk_pair(mk_var(Name(0)), mk_var(Name(0)))
    assert substitute(scope, subst, term) == mk_pair(mk_universe(), mk_universe())


def test_check_scope():
    check_scope(mk_var(Name(0)), Scope().add(0))
    with pytest.raises(ScopeViolationError):
        check_scope(mk_var(Name(0)), Scope())
    term = mk_lam(NameBinder(0), mk_var(Name(0)))
    check_scope(term, Scope())  # closed
    escaping = mk_lam(NameBinder(0), mk_var(Name(1)))
    with pytest.raises(ScopeViolationError):
        check_scope(escaping, Scope())


def test_sink_ast_is_identity_and_checks_in_debug():
    term = mk_lam(NameBinder(0), mk_var(Name(0)))
    assert sink_ast(term) is term
    previous = debug_scopes_enabled()
    set_debug_scopes(True)
    try:
        assert sink_ast(term, Scope(), Scope().add(3)) is term
        leaky = mk_var(Name(5))
        with pytest.raises(ScopeViolationError):
            sink_ast(leaky, Scope(), Scope().add(3))
    finally:
        set_debug_scopes(previous)


def test_substitute_does_not_reach_under_shadowing_binder():
    # [#0 := U] (lam #0 . #0): the reused binder shadows the entry
    subst = add_subst(identity_subst(), NameBinder(0), mk_universe())
    term = mk_lam(NameBinder(0), mk_var(Name(0)))
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
            return mk_var(Name(rng.choice(env)))
        return mk_universe()
    match rng.randrange(4):
        case 0:
            return mk_app(
                _random_ast(rng, depth - 1, env), _random_ast(rng, depth - 1, env)
            )
        case 1:
            raw = max(env, default=-1) + 1
            return mk_lam(NameBinder(raw), _random_ast(rng, depth - 1, env + (raw,)))
        case 2:
            return mk_pair(
                _random_ast(rng, depth - 1, env), _random_ast(rng, depth - 1, env)
            )
        case _:
            return mk_universe()
