"""Scopes, binders, freshness, and the reuse rule."""

import random
import sys

import pytest

from scopefoil import names
from scopefoil.bridge import to_foil_closed
from scopefoil.generic import substitute
from scopefoil.lambda_pi import direct_to_free, nf_free
from scopefoil.names import (
    Name,
    NameBinder,
    Scope,
    ScopeViolationError,
    Var,
    add_rename,
    add_subst,
    enter,
    fresh_raw_name,
    identity_subst,
    name_of,
    sink,
    with_refreshed,
)
from scopefoil.nbe import nf_nbe
from scopefoil.syntax import parse_term
from scopefoil.terms import nf_direct


def _apply(subst, raw):
    """What ``subst`` maps the variable ``raw`` to, through the substitution."""
    return substitute(Scope(), subst, Var(Name(raw)))


def test_empty_scope():
    scope = Scope()
    assert len(scope) == 0
    assert 0 not in scope
    assert fresh_raw_name(scope) == 0


def test_scope_bitmask_is_order_independent_and_unbounded():
    raws = [10_000, 3, 0, 517, 64]
    rng = random.Random(202)
    built = [Scope(raws), Scope(reversed(raws)), Scope(raws + raws)]
    for _ in range(5):
        order = rng.sample(raws, len(raws))
        scope = Scope()
        for raw in order:
            scope = scope.add(raw)
        built.append(scope)
    for scope in built:
        assert scope == built[0]
        assert hash(scope) == hash(built[0])
        assert len(scope) == len(raws)
        assert fresh_raw_name(scope) == 10_001
        assert frozenset(scope) == frozenset(raws)
        assert list(scope) == sorted(raws)
        assert all(raw in scope for raw in raws)
        assert not any(raw in scope for raw in (1, 2, 63, 65, 9_999, 10_001))
    assert Scope(raws) != Scope(raws[1:])
    assert repr(Scope([2, 0])) == "Scope({0, 2})"


def test_fresh_raw_name_is_max_plus_one():
    assert fresh_raw_name(Scope()) == 0
    scope = Scope().add(0).add(5).add(2)
    assert fresh_raw_name(scope) == 6
    assert fresh_raw_name(scope.add(6)) == 7


def test_fresh_raw_name_never_collides():
    rng = random.Random(101)
    for _ in range(200):
        scope = Scope()
        for raw in rng.sample(range(50), rng.randrange(10)):
            scope = scope.add(raw)
        assert fresh_raw_name(scope) not in scope


def _extend(binder, scope):
    """``scope`` extended with ``binder``, which must not be in it already."""
    assert binder.raw not in scope
    return scope.add(binder.raw)


def test_with_refreshed_reuses_when_free():
    """A name not in the target scope is kept as-is: zero renaming."""
    scope = Scope().add(0).add(1)
    binder = with_refreshed(scope, Name(7))
    assert binder.raw == 7
    assert name_of(binder) == Name(7)


def test_with_refreshed_renames_on_collision():
    scope = Scope().add(0).add(7)
    binder = with_refreshed(scope, Name(7))
    assert binder.raw == 8  # max + 1


def test_enter_returns_a_reused_binder_itself():
    binder = NameBinder(7)
    binder2, inner = enter(Scope([0, 1]), binder)
    assert binder2 is binder
    assert inner == Scope([0, 1, 7])


def test_enter_refreshes_a_colliding_binder_to_max_plus_one():
    binder2, inner = enter(Scope([0, 3, 7]), NameBinder(3))
    assert binder2.raw == 8
    assert 8 in inner
    assert inner == Scope([0, 3, 7, 8])


def test_enter_agrees_with_with_refreshed_and_extend_scope():
    for mask in range(64):
        scope = Scope(raw for raw in range(6) if mask >> raw & 1)
        for candidate in range(7):
            binder2, inner = enter(scope, NameBinder(candidate))
            assert binder2 == with_refreshed(scope, Name(candidate))
            assert inner == _extend(binder2, scope)


def test_with_refreshed_exhaustive_small():
    # every subset of {0..5} crossed with every candidate name in {0..5}
    for mask in range(64):
        members = [raw for raw in range(6) if mask >> raw & 1]
        scope = Scope()
        for raw in members:
            scope = scope.add(raw)
        for candidate in range(6):
            binder = with_refreshed(scope, Name(candidate))
            if candidate in scope:
                assert binder.raw == max(members) + 1
            else:
                assert binder.raw == candidate
            scope2 = _extend(binder, scope)
            assert binder.raw in scope2
            assert set(scope) | {binder.raw} == set(scope2)


def test_sink_is_identity():
    term = Var(Name(4))
    assert sink(term) is term
    small = Scope().add(4)
    big = small.add(9)
    assert sink(term, source=small, target=big) is term


def test_sink_checks_superset():
    small = Scope().add(4)
    big = small.add(9)
    sink(Var(Name(4)), source=small, target=big)
    with pytest.raises(ScopeViolationError):
        sink(Var(Name(4)), source=big, target=small)


def test_substitution_lookup_defaults_to_variable():
    subst = identity_subst()
    assert _apply(subst, 3) == Var(Name(3))
    var = Var(Name(3))
    assert substitute(Scope(), subst, var) is var


def test_add_subst_and_override():
    subst = add_subst(identity_subst(), NameBinder(1), Var(Name(9)))
    assert _apply(subst, 1) == Var(Name(9))
    assert _apply(subst, 2) == Var(Name(2))
    # re-binding the same raw name shadows the stale entry
    subst2 = add_subst(subst, NameBinder(1), Var(Name(4)))
    assert _apply(subst2, 1) == Var(Name(4))
    # the original is untouched
    assert _apply(subst, 1) == Var(Name(9))


def test_add_rename():
    subst = add_rename(identity_subst(), NameBinder(0), Name(5))
    assert _apply(subst, 0) == Var(Name(5))


def test_add_rename_of_reused_binder_shares_the_subst():
    subst = add_subst(identity_subst(), NameBinder(1), Var(Name(9)))
    assert add_rename(subst, NameBinder(4), Name(4)) is subst
    # a reused binder that shadows an entry must override it
    shadowed = add_rename(subst, NameBinder(1), Name(1))
    assert shadowed is not subst
    assert _apply(shadowed, 1) == Var(Name(1))
    assert _apply(subst, 1) == Var(Name(9))


def test_names_and_binders_are_hashable_values():
    assert Name(3) == Name(3)
    assert len({Name(1), Name(1), NameBinder(1)}) == 2
    with pytest.raises(AttributeError):
        Name(3).raw = 4  # frozen


# Each binder of this pair-pattern redex is numbered from raw 0 (a, b, c are
# 0, 1, 2 and x, y are 0), so in a scope of {0, 1, 2} three binders collide:
# c where the beta's substitution (or nbe's readback) passes it, then y and x
# where normalization reaches the two projected identities.  In the empty
# scope every binder is reused.
COLLIDING = "(lam (a, b) . lam c . (b, (a, c))) (lam x . x, lam y . y)"


@pytest.mark.parametrize("scope, refreshes", [(Scope(), 0), (Scope(range(3)), 3)])
def test_each_engine_refreshes_exactly_the_colliding_binders(monkeypatch, scope, refreshes):
    """The reuse-vs-refresh count: only a collision asks for a fresh name."""
    calls = []
    fresh = names.fresh_raw_name

    def counted(scope):
        calls.append(sys._getframe(1).f_code.co_name)
        return fresh(scope)

    monkeypatch.setattr(names, "fresh_raw_name", counted)
    direct = to_foil_closed(parse_term(COLLIDING))
    free = direct_to_free(direct)
    for normalize, term in ((nf_direct, direct), (nf_free, free), (nf_nbe, free)):
        calls.clear()
        normalize(scope, term)
        assert calls == ["with_refreshed"] * refreshes, normalize.__name__
