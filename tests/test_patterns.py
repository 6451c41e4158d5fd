"""Pattern binders: names, scope extension, refreshing."""

import random

from conftest import gen_foil_pattern

from scopefoil.generic import substitute
from scopefoil.names import (
    Name,
    NameBinder,
    Scope,
    Var,
    identity_subst,
)
from scopefoil.patterns import (
    PatternPair,
    PatternVar,
    PatternWildcard,
    names_of_pattern,
    with_pattern,
)


def _apply(subst, raw):
    """What ``subst`` maps the variable ``raw`` to, through the substitution."""
    return substitute(Scope(), subst, Var(Name(raw)))


def test_names_of_pattern_left_to_right():
    pattern = PatternPair(
        PatternPair(PatternVar(NameBinder(2)), PatternWildcard()),
        PatternVar(NameBinder(0)),
    )
    assert names_of_pattern(pattern) == [Name(2), Name(0)]


def test_with_pattern_no_collision_keeps_names():
    """Against a disjoint scope, every binder survives unchanged."""
    pattern = PatternPair(PatternVar(NameBinder(5)), PatternVar(NameBinder(6)))
    scope = Scope().add(0)
    pattern2, subst, scope2 = with_pattern(scope, pattern, identity_subst())
    assert pattern2 == pattern
    assert set(scope2) == {0, 5, 6}
    # renamings are identity entries
    assert _apply(subst, 5) == Var(Name(5))
    assert _apply(subst, 6) == Var(Name(6))


def test_with_pattern_renames_colliding_binder_only():
    pattern = PatternPair(PatternVar(NameBinder(0)), PatternVar(NameBinder(4)))
    scope = Scope().add(0).add(1)
    pattern2, subst, scope2 = with_pattern(scope, pattern, identity_subst())
    match pattern2:
        case PatternPair(PatternVar(left), PatternVar(right)):
            assert left.raw == 2  # 0 collided, refreshed to max+1
            assert right.raw == 4  # free, reused
        case _:
            raise AssertionError(pattern2)
    assert _apply(subst, 0) == Var(Name(2))
    assert set(scope2) == {0, 1, 2, 4}


def test_with_pattern_chains_left_to_right():
    # identical raw binders in both halves: the right one must see the left
    # one's extension and pick a different name
    pattern = PatternPair(PatternVar(NameBinder(0)), PatternVar(NameBinder(0)))
    scope = Scope().add(0)
    pattern2, subst, scope2 = with_pattern(scope, pattern, identity_subst())
    match pattern2:
        case PatternPair(PatternVar(left), PatternVar(right)):
            assert left.raw != right.raw
            assert left.raw not in (0,)
            assert right.raw not in (0, left.raw)
        case _:
            raise AssertionError(pattern2)
    assert len(scope2) == 3


def test_with_pattern_wildcard_passes_subst_through():
    subst = identity_subst()
    pattern2, subst2, scope2 = with_pattern(Scope(), PatternWildcard(), subst)
    assert pattern2 == PatternWildcard()
    assert subst2 is subst
    assert scope2 == Scope()


def test_with_pattern_random_invariants():
    """Refreshed binders are distinct, scope grows by exactly those names."""
    rng = random.Random(2024)
    for _ in range(150):
        pattern, _, _ = gen_foil_pattern(rng, rng.randrange(4))
        base = Scope()
        for raw in rng.sample(range(20), rng.randrange(6)):
            base = base.add(raw)
        pattern2, _, scope2 = with_pattern(base, pattern, identity_subst())
        before = names_of_pattern(pattern)
        after = names_of_pattern(pattern2)
        assert len(after) == len(before)
        raws = [n.raw for n in after]
        assert len(set(raws)) == len(raws)  # pairwise distinct
        for raw in raws:
            assert raw in scope2
        assert set(scope2) == set(base) | set(raws)
        # reuse rule, name by name: renamed only if taken at that point
        running = base
        for old, new in zip(before, after):
            if old.raw in running:
                assert new.raw not in running
            else:
                assert new.raw == old.raw
            running = running.add(new.raw)
