"""Conversions between raw named syntax and the scope-safe forms."""

import random

import pytest

from conftest import gen_naive_term

from scopefoil import naive
from scopefoil.bridge import (
    DuplicateBinderError,
    UnboundVariableError,
    default_ident,
    from_foil_pattern,
    from_foil_term,
    rename_from_env,
    to_foil_closed,
    to_foil_pattern,
    to_foil_term,
)
from scopefoil.names import Name, Scope
from scopefoil.oracles import alpha_eq
from scopefoil.patterns import (
    PatternPair,
    PatternVar,
    PatternWildcard,
    extend_scope_pattern,
)
from scopefoil.syntax import parse_term, pretty_term
from scopefoil.terms import check_scope_direct


def test_closed_term_roundtrip_is_alpha_equal():
    src = "lam f . lam x . f (f x)"
    direct = to_foil_closed(parse_term(src))
    back = from_foil_term(default_ident, direct)
    assert alpha_eq(back, parse_term(src))


def test_shadowing_resolves_to_innermost():
    # the body's x is the inner binder, so the result is the identity
    # applied only to the inner argument
    src = "lam x . lam x . x"
    back = from_foil_term(default_ident, to_foil_closed(parse_term(src)))
    assert alpha_eq(back, parse_term("lam a . lam b . b"))


def test_binder_scope_ends_with_its_body():
    # the outer x is back in force after the inner binder's body
    src = "lam x . (lam x . x) x"
    back = from_foil_term(default_ident, to_foil_closed(parse_term(src)))
    assert alpha_eq(back, parse_term("lam a . (lam b . b) a"))
    # sibling binders each see their own name, and the enclosing ones
    src = "lam z . ((lam x . x z) (lam y . y z), (lam x . x) z)"
    back = from_foil_term(default_ident, to_foil_closed(parse_term(src)))
    assert alpha_eq(back, parse_term(src))
    # a sibling's name does not leak out of its body
    with pytest.raises(UnboundVariableError):
        to_foil_closed(parse_term("((lam x . x), x)"))


def test_unbound_variable_raises_with_location():
    term = parse_term("lam x . y")
    with pytest.raises(UnboundVariableError) as err:
        to_foil_closed(term)
    assert "y" in str(err.value)
    assert err.value.ident.loc == (1, 9)


def test_free_variables_via_environment():
    env = {"y": Name(3)}
    term = to_foil_term(rename_from_env(env), Scope().add(3), parse_term("lam x . y"))
    check_scope_direct(term, Scope().add(3))
    back = from_foil_term(
        lambda raw: naive.VarIdent("y") if raw == 3 else default_ident(raw), term
    )
    assert alpha_eq(back, parse_term("lam x . y"))


def test_duplicate_binders_in_one_pattern_rejected():
    term = parse_term("lam (a, a) . a")
    with pytest.raises(DuplicateBinderError) as err:
        to_foil_closed(term)
    assert "a" in str(err.value)


def test_duplicate_binders_in_nested_pattern_rejected():
    term = parse_term("lam ((a, b), (c, a)) . b")
    with pytest.raises(DuplicateBinderError):
        to_foil_closed(term)


def test_pattern_conversion_shapes_and_env():
    pattern, env, body_scope = to_foil_pattern(
        Scope(), naive.PatternPair(naive.PatternVar(naive.VarIdent("a")), naive.PatternWildcard())
    )
    assert body_scope == extend_scope_pattern(pattern, Scope())
    match pattern:
        case PatternPair(PatternVar(binder), PatternWildcard()):
            assert env == {"a": Name(binder.raw)}
        case _:
            raise AssertionError(pattern)


def test_from_foil_pattern_names():
    pattern, _, _ = to_foil_pattern(
        Scope(),
        naive.PatternPair(
            naive.PatternVar(naive.VarIdent("a")), naive.PatternVar(naive.VarIdent("b"))
        ),
    )
    back = from_foil_pattern(default_ident, pattern)
    match back:
        case naive.PatternPair(naive.PatternVar(l), naive.PatternVar(r)):
            assert l.text != r.text
        case _:
            raise AssertionError(back)


def test_default_ident_scheme():
    assert default_ident(12) == naive.VarIdent("x12")


def test_pi_domain_scoped_outside_binder():
    # the A in the domain position must refer to the *outer* A
    src = "lam A . fun (A : A) -> A"
    direct = to_foil_closed(parse_term(src))
    back = from_foil_term(default_ident, direct)
    assert alpha_eq(back, parse_term("lam B . fun (A : B) -> A"))


def test_random_roundtrip_alpha_equal():
    """to-foil then from-foil preserves terms up to alpha across the whole
    grammar, patterns included."""
    rng = random.Random(31337)
    for _ in range(150):
        surface = gen_naive_term(rng, rng.randrange(1, 6))
        direct = to_foil_closed(surface)
        check_scope_direct(direct, Scope())
        back = from_foil_term(default_ident, direct)
        assert alpha_eq(back, surface), pretty_term(surface)
