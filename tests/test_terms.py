"""The direct lambda-Pi terms: substitution, reduction, scope checking.

Expected normal forms below were computed with the independent named
normalizer (`scopefoil.oracles.nf_named`) and frozen as source strings.
"""

import pytest

from scopefoil.bridge import (
    default_ident,
    from_foil_term,
    rename_from_env,
    to_foil_closed,
    to_foil_term,
)
from scopefoil.fuel import FuelExceededError
from scopefoil.names import Name, NameBinder, Scope, ScopeViolationError, Var, add_subst, identity_subst
from scopefoil.oracles import alpha_eq
from scopefoil.patterns import PatternPair, PatternVar
from scopefoil.syntax import parse_term
from scopefoil.terms import (
    App,
    Lam,
    Pair,
    Universe,
    check_scope_direct,
    nf_direct,
    subst_direct,
    whnf_direct,
)
from scopefoil import naive

Q_ENV = {"q": Name(0)}
Q_SCOPE = Scope().add(0)


def _foil(src: str):
    return to_foil_term(rename_from_env(Q_ENV), Q_SCOPE, parse_term(src))


def _back(term) -> naive.Term:
    def ident(raw: int) -> naive.VarIdent:
        return naive.VarIdent("q") if raw == 0 else default_ident(raw)

    return from_foil_term(ident, term)


def _nf_eq(src: str, expected: str) -> None:
    result = _back(nf_direct(Q_SCOPE, _foil(src)))
    assert alpha_eq(result, parse_term(expected)), result


def test_beta_single_binder():
    _nf_eq("(lam x . x) q", "q")
    _nf_eq("(lam x . lam y . x) q", "lam y . q")


def test_beta_pair_pattern_swaps():
    # pattern components bind to lazy projections of the argument
    _nf_eq("(lam (a, b) . (b, a)) q", "(second q, first q)")


def test_beta_nested_pattern():
    _nf_eq(
        "(lam ((a, b), c) . (a, (b, c))) q",
        "(first (first q), (second (first q), second q))",
    )


def test_beta_wildcard_discards():
    _nf_eq("(lam _ . U) q", "U")


def test_beta_pattern_on_literal_pair_projects_fully():
    _nf_eq("(lam (a, b) . (b, a)) (first (U, U), q)", "(q, U)")


def test_capture_avoided_through_nested_binder():
    # substituting (lam z . y) for x under `lam y` must rename that y
    _nf_eq("(lam x . lam y . x) (lam z . q)", "lam y . lam z . q")
    term = parse_term("(lam x . lam y . x) (lam z . y)")
    env = {"y": Name(0)}
    scope = Scope().add(0)
    foil = to_foil_term(rename_from_env(env), scope, term)
    result = from_foil_term(
        lambda raw: naive.VarIdent("y") if raw == 0 else default_ident(raw),
        nf_direct(scope, foil),
    )
    assert alpha_eq(result, parse_term("lam w . lam z . y")), result


def test_whnf_stops_at_constructors():
    term = _foil("(lam x . (x, x)) ((lam w . w) q)")
    head = _back(whnf_direct(Q_SCOPE, term))
    assert alpha_eq(head, parse_term("((lam w . w) q, (lam w . w) q)"))
    full = _back(nf_direct(Q_SCOPE, term))
    assert alpha_eq(full, parse_term("(q, q)"))


def test_whnf_unwinds_projection_chain():
    _nf_eq("first (second (U, ((lam x . x) U, U)))", "U")


def test_whnf_leaves_inert_heads():
    term = _foil("q U")
    assert whnf_direct(Q_SCOPE, term) is term


def test_nf_is_idempotent():
    term = _foil("(lam f . lam x . f (f x)) (lam y . (y, q))")
    once = nf_direct(Q_SCOPE, term)
    twice = nf_direct(Q_SCOPE, once)
    assert once == twice


def test_fuel_exhausts_on_omega():
    omega = to_foil_closed(parse_term("(lam x . x x) (lam x . x x)"))
    with pytest.raises(FuelExceededError):
        nf_direct(Scope(), omega, fuel=1000)


def test_subst_direct_inserts_and_skips():
    # [x := U] (x, y)  under scope {x, y}
    scope = Scope().add(0).add(1)
    term = Pair(Var(Name(0)), Var(Name(1)))
    subst = add_subst(identity_subst(), NameBinder(0), Universe())
    assert subst_direct(scope, subst, term) == Pair(Universe(), Var(Name(1)))


def test_no_substitution_under_shadowing_binder():
    # [#0 := U] (lam #0 . #0): the reused binder shadows the entry
    subst = add_subst(identity_subst(), NameBinder(0), Universe())
    term = Lam(PatternVar(NameBinder(0)), Var(Name(0)))
    assert subst_direct(Scope(), subst, term) == term


def test_check_scope_accepts_and_rejects():
    scope = Scope().add(0)
    check_scope_direct(Var(Name(0)), scope)
    with pytest.raises(ScopeViolationError):
        check_scope_direct(Var(Name(1)), scope)
    body = App(Var(Name(0)), Var(Name(1)))
    check_scope_direct(Lam(PatternVar(NameBinder(1)), body), scope)
    with pytest.raises(ScopeViolationError):
        check_scope_direct(Lam(PatternVar(NameBinder(1)), body), Scope())


def test_check_scope_rejects_duplicate_pattern_binders():
    pattern = PatternPair(PatternVar(NameBinder(1)), PatternVar(NameBinder(1)))
    term = Lam(pattern, Universe())
    with pytest.raises(ScopeViolationError):
        check_scope_direct(term, Scope())
