"""The lambda-Pi instantiation of the generic layer.

Reduction expectations were computed with the independent named
normalizer and frozen as surface strings.
"""

import random

import pytest

from conftest import ALREADY_NORMAL, gen_naive_term

from scopefoil.bridge import default_ident, from_foil_term, to_foil_closed
from scopefoil.fuel import FuelExceededError
from scopefoil.generic import ScopedAST
from scopefoil.lambda_pi import (
    AppSig,
    FirstSig,
    LamSig,
    PairSig,
    SecondSig,
    UniverseSig,
    as_app,
    as_first,
    as_lam,
    as_pair,
    as_second,
    direct_to_free,
    free_to_direct,
    nf_free,
    whnf_free,
)
from scopefoil.names import Name, NameBinder, Scope, Var
from scopefoil.oracles import alpha_eq, nf_named
from scopefoil.patterns import PatternPair, PatternVar, PatternWildcard
from scopefoil.syntax import parse_term


def _nf_closed(src: str):
    term = direct_to_free(to_foil_closed(parse_term(src)))
    return from_foil_term(default_ident, free_to_direct(nf_free(Scope(), term)))


def test_views_invert_constructors():
    u = UniverseSig()
    x = Var(Name(0))
    assert as_app(AppSig(x, u)) == (x, u)
    assert as_lam(LamSig(ScopedAST(NameBinder(0), x))) == (NameBinder(0), x)
    assert as_pair(PairSig(x, u)) == (x, u)
    assert as_first(FirstSig(x)) == x
    assert as_second(SecondSig(x)) == x


def test_views_reject_wrong_shapes():
    u = UniverseSig()
    assert as_app(u) is None
    assert as_lam(u) is None
    assert as_pair(FirstSig(u)) is None
    assert as_first(SecondSig(u)) is None


def test_nf_beta():
    out = _nf_closed("(lam x . x x) (lam y . y)")
    assert alpha_eq(out, parse_term("lam y . y"))


def test_nf_reduces_under_binders():
    out = _nf_closed("lam f . (lam x . f x) U")
    assert alpha_eq(out, parse_term("lam f . f U"))


def test_nf_projections():
    out = _nf_closed("second (first ((U, lam x . x), U))")
    assert alpha_eq(out, parse_term("lam x . x"))


def test_nf_pi_domains_and_codomains():
    out = _nf_closed("fun (A : (lam t . t) U) -> (lam y . y) A")
    assert alpha_eq(out, parse_term("fun (A : U) -> A"))


def test_whnf_free_stops_at_weak_head():
    term = direct_to_free(to_foil_closed(parse_term("(lam x . (x, x)) ((lam y . y) U)")))
    head = from_foil_term(default_ident, free_to_direct(whnf_free(Scope(), term)))
    assert alpha_eq(head, parse_term("((lam y . y) U, (lam y . y) U)"))


def test_fuel_exhausts_on_omega():
    omega = direct_to_free(to_foil_closed(parse_term("(lam x . x x) (lam x . x x)")))
    with pytest.raises(FuelExceededError):
        nf_free(Scope(), omega, fuel=500)


def test_direct_free_roundtrip_on_single_binder_terms():
    rng = random.Random(404)
    for _ in range(60):
        direct = to_foil_closed(gen_naive_term(rng, rng.randrange(1, 5)))
        assert free_to_direct(direct_to_free(direct)) == direct


def test_direct_free_roundtrip_over_pattern_binders():
    a, b, wild = PatternVar(NameBinder(0)), PatternVar(NameBinder(1)), PatternWildcard()
    for src, binder in (
        ("lam x . x", NameBinder(0)),  # a single variable stays a bare binder
        ("lam _ . U", wild),
        ("lam (a, b) . (b, a)", PatternPair(a, b)),
        ("fun (((a, _), c) : U) -> c a", PatternPair(PatternPair(a, wild), b)),
    ):
        direct = to_foil_closed(parse_term(src))
        free = direct_to_free(direct)
        scoped = free.body if type(free) is LamSig else free.codomain
        assert scoped.binder == binder, src
        assert free_to_direct(free) == direct


def test_free_agrees_with_named_oracle_on_random_terms():
    rng = random.Random(98765)
    checked = 0
    while checked < 80:
        surface = gen_naive_term(rng, rng.randrange(1, 5))
        free = direct_to_free(to_foil_closed(surface))
        try:
            expected = nf_named(surface, fuel=20_000)
            got = nf_free(Scope(), free, fuel=20_000)
        except FuelExceededError:
            continue
        checked += 1
        back = from_foil_term(default_ident, free_to_direct(got))
        assert alpha_eq(back, expected), surface


@pytest.mark.parametrize("src", ALREADY_NORMAL, ids=("spine", "pair_pi", "nest"))
def test_nf_free_returns_a_normal_term_itself(src):
    term = direct_to_free(to_foil_closed(parse_term(src)))
    assert nf_free(Scope(), term) is term
