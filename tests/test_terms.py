"""The direct lambda-Pi terms: substitution, reduction, scope checking.

Expected normal forms below were computed with the independent named
normalizer (`scopefoil.oracles.nf_named`) and frozen as source strings.
"""

import random
from dataclasses import FrozenInstanceError

import pytest

from conftest import ALREADY_NORMAL, gen_naive_term

from scopefoil import terms
from scopefoil.bench import church_fact, gen_random
from scopefoil.bridge import (
    default_ident,
    from_foil_term,
    rename_from_env,
    to_foil_closed,
    to_foil_term,
)
from scopefoil.fuel import FuelExceededError
from scopefoil.names import (
    Name,
    NameBinder,
    Scope,
    ScopeViolationError,
    Var,
    add_subst,
    free_mask,
    identity_subst,
    set_mask,
)
from scopefoil.oracles import alpha_eq
from scopefoil.patterns import PatternPair, PatternVar, names_of_pattern
from scopefoil.syntax import parse_term
from scopefoil.terms import (
    App,
    First,
    Lam,
    Pair,
    Pi,
    Second,
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
    # a Pi's domain is outside its pattern: the binder scopes only the codomain
    check_scope_direct(Pi(PatternVar(NameBinder(0)), Universe(), Var(Name(0))), Scope())
    with pytest.raises(ScopeViolationError):
        check_scope_direct(Pi(PatternVar(NameBinder(0)), Var(Name(0)), Universe()), Scope())


def test_check_scope_rejects_duplicate_pattern_binders():
    pattern = PatternPair(PatternVar(NameBinder(1)), PatternVar(NameBinder(1)))
    term = Lam(pattern, Universe())
    with pytest.raises(ScopeViolationError):
        check_scope_direct(term, Scope())


# ---------------------------------------------------------------------------
# free-name masks and the untouched-subtree shortcut
# ---------------------------------------------------------------------------

ENV = {"u": Name(0), "v": Name(1)}
ENV_SCOPE = Scope([0, 1])


def _direct(src: str):
    """A direct term over the free names u (#0) and v (#1)."""
    return to_foil_term(rename_from_env(ENV), ENV_SCOPE, parse_term(src))


def _parts(term) -> list:
    """The subterms of a node, each with the pattern that binds it (or None)."""
    match term:
        case Pair(left, right) | App(left, right):
            return [(left, None), (right, None)]
        case First(t) | Second(t):
            return [(t, None)]
        case Lam(pattern, body):
            return [(body, pattern)]
        case Pi(pattern, domain, codomain):
            return [(domain, None), (codomain, pattern)]
    return []


def _free_names(term) -> int:
    """The mask of the free names of a term, by a plain walk that never
    reads a recorded mask."""
    if type(term) is Var:
        return 1 << term.name.raw
    mask = 0
    for part, pattern in _parts(term):
        names = names_of_pattern(pattern) if pattern else []
        mask |= _free_names(part) & ~sum(1 << name.raw for name in names)
    return mask


def _subtrees(term):
    yield term
    for part, _ in _parts(term):
        yield from _subtrees(part)


def _masked_nodes(term) -> int:
    """How many nodes of ``term`` record a mask; each must equal a plain
    walk, and a negative one must cover it."""
    count = 0
    for sub in _subtrees(term):
        if type(sub) is Var:
            continue
        fv, free = free_mask(sub), _free_names(sub)
        if fv >= 0:
            assert fv == free, sub
            count += 1
        else:
            assert free & ~fv == 0, sub
    return count


def test_recorded_masks_equal_a_plain_free_name_walk(monkeypatch):
    """Every node ``to_foil_term`` builds records its mask, and so does
    every node ``subst_direct`` builds, during normalization and when it
    copies a normal form (which ``_nf`` rebuilt without masks)."""
    built = 0
    walk = terms.subst_direct

    def checked(scope, subst, term):
        nonlocal built
        out = walk(scope, subst, term)
        built += _masked_nodes(out)
        return out

    corpus = [gen_random(2000 + i, size) for i in range(8) for size in (15, 20)]
    rng = random.Random(909)
    corpus += [gen_naive_term(rng, rng.randrange(1, 6)) for _ in range(150)]
    for term in corpus:
        direct = to_foil_closed(term)
        subtrees = sum(1 for sub in _subtrees(direct) if type(sub) is not Var)
        assert _masked_nodes(direct) == subtrees
        monkeypatch.setattr(terms, "subst_direct", checked)
        try:
            normal = nf_direct(Scope(), direct, fuel=20_000)
        except FuelExceededError:
            continue
        finally:
            monkeypatch.undo()
        check_scope_direct(normal, Scope())
        _masked_nodes(normal)
        copy = subst_direct(Scope(), {0: Universe()}, normal)
        subtrees = sum(1 for sub in _subtrees(copy) if type(sub) is not Var)
        assert _masked_nodes(copy) == subtrees
        check_scope_direct(copy, Scope())
    assert built > 500


def test_a_renamed_pattern_binder_joins_the_domain():
    """A pattern binder refreshed against the scope is renamed in its body,
    so a body subtree that mentions only that binder is not skipped."""
    term = _direct("lam (a, b) . (u, first (a b))")  # a, b are #2, #3
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    out = subst_direct(Scope([0, 1, 2, 3]), subst, term)
    assert alpha_eq(out, _direct("lam (a, b) . (v, first (a b))"))
    check_scope_direct(out, Scope([0, 1, 2, 3]))


def test_untouched_subtrees_come_back_as_they_are():
    term = _direct("(lam x . x v) (u, v)")
    subst = add_subst(identity_subst(), NameBinder(0), _direct("U"))
    out = subst_direct(ENV_SCOPE, subst, term)
    assert out == App(term.fun, Pair(Universe(), Var(Name(1))))
    assert out.fun is term.fun  # u is not free in it
    assert out.arg.right is term.arg.right  # a variable outside the domain
    assert free_mask(out) == 0b10 and free_mask(out.arg) == 0b10
    elsewhere = add_subst(identity_subst(), NameBinder(7), Universe())
    assert subst_direct(ENV_SCOPE, elsewhere, term) is term
    assert subst_direct(ENV_SCOPE, identity_subst(), term) is term
    # a skipped subtree keeps a binder that collides with the scope
    closed = _direct("lam (x, _) . x")
    assert subst_direct(Scope([0, 1, 2]), subst, closed) is closed
    # a node built without a mask is walked, and its copy records one
    hand = Pi(PatternVar(NameBinder(5)), Var(Name(1)), Var(Name(5)))
    copy = subst_direct(ENV_SCOPE, subst, hand)
    assert copy == hand and copy is not hand
    assert free_mask(hand) == -1 and free_mask(copy) == 0b10


def test_masks_are_not_part_of_the_structure():
    masked = _direct("lam x . x")
    hand = Lam(PatternVar(NameBinder(2)), Var(Name(2)))
    assert free_mask(masked) == 0 and free_mask(hand) == -1
    assert masked == hand and hash(masked) == hash(hand)
    assert repr(masked) == repr(hand)
    assert Lam.__match_args__ == ("pattern", "body")
    assert Pi.__match_args__ == ("pattern", "domain", "codomain")
    with pytest.raises((FrozenInstanceError, TypeError)):
        masked.fv = 3


def test_check_scope_catches_a_stale_mask():
    term = _direct("lam x . fun (y : x) -> (x, u)")
    assert check_scope_direct(term, ENV_SCOPE) == 0b01
    set_mask(term.body, 0b01)  # the Pi has x free too
    with pytest.raises(ScopeViolationError):
        check_scope_direct(term, ENV_SCOPE)


def test_a_pair_pattern_beta_records_masks():
    """The projections a pair-pattern beta binds record the argument's
    mask, so the result, built over them, records a mask of 0 and not a
    negative one that the next substitution would have to walk in full."""
    src = "(lam (a, b) . lam z . (b, a)) (lam x . x, lam y . y)"
    out = whnf_direct(Scope(), to_foil_closed(parse_term(src)))
    assert free_mask(out) == 0
    subtrees = sum(1 for sub in _subtrees(out) if type(sub) is not Var)
    assert _masked_nodes(out) == subtrees
    check_scope_direct(out, Scope())
    pair = "(lam x . x, lam y . y)"
    assert alpha_eq(out, parse_term(f"lam z . (second {pair}, first {pair})"))


def test_factorial_6_substitutes_a_quarter_of_the_nodes(monkeypatch):
    """351,807 ``subst_direct`` calls without the shortcut."""
    calls = 0
    walk = terms.subst_direct

    def counted(scope, subst, term):
        nonlocal calls
        calls += 1
        return walk(scope, subst, term)

    monkeypatch.setattr(terms, "subst_direct", counted)
    nf_direct(Scope(), to_foil_closed(church_fact(6)))
    assert 0 < calls <= 351_807 // 4


@pytest.mark.parametrize("src", ALREADY_NORMAL, ids=("spine", "pair_pi", "nest"))
def test_nf_direct_returns_a_normal_term_itself(src):
    term = to_foil_closed(parse_term(src))
    assert nf_direct(Scope(), term) is term
