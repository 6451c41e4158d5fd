"""Normalization by evaluation: agreement, laziness, no tree substitution."""

import random

import pytest

from scopefoil import generic, lambda_pi
from scopefoil.bench import gen_random
from scopefoil.bridge import (
    default_ident,
    from_foil_term,
    rename_from_env,
    to_foil_closed,
    to_foil_term,
)
from scopefoil.lambda_pi import direct_to_free, free_to_direct, nf_free
from scopefoil.names import Name, NameBinder, Scope, Var
from scopefoil.nbe import Thunk, VNeutral, eval_term, nf_nbe, quote
from scopefoil.oracles import alpha_eq, nf_debruijn, to_debruijn
from scopefoil.syntax import parse_term

OMEGA = "(lam w . w w) (lam w . w w)"


def _free(src: str):
    return direct_to_free(to_foil_closed(parse_term(src)))


def _nbe(src: str):
    return from_foil_term(default_ident, free_to_direct(nf_nbe(Scope(), _free(src))))


def test_agrees_with_nf_free_on_basics():
    for src in (
        "(lam x . x) U",
        "(lam f . lam x . f (f x)) (lam y . y)",
        "lam f . (lam x . f x) U",
        "first ((lam x . x) U, U)",
        "second (U, lam x . x x)",
        "fun (A : (lam t . t) U) -> (lam y . y) A",
        "(lam x . x (lam y . y x)) (lam z . z)",
    ):
        free = _free(src)
        got = nf_nbe(Scope(), free)
        want = nf_free(Scope(), free)
        assert alpha_eq(got, want), src


def test_agrees_with_nf_free_on_random_corpus():
    for index in range(60):
        surface = gen_random(9000 + index, 12)
        free = direct_to_free(to_foil_closed(surface))
        assert alpha_eq(nf_nbe(Scope(), free), nf_free(Scope(), free)), index


def test_discarded_divergent_argument_converges():
    """Call-by-need: an argument that cannot normalize is fine if unused."""
    out = _nbe(f"(lam x . lam y . y) ({OMEGA})")
    assert alpha_eq(out, parse_term("lam y . y"))


def test_unforced_pair_component_converges():
    out = _nbe(f"first ((lam x . x) U, {OMEGA})")
    assert alpha_eq(out, parse_term("U"))


def test_thunks_memoize():
    term = _free("(lam x . x) U")
    thunk = Thunk(term, None)
    first = thunk.force()
    assert thunk.force() is first


def test_open_terms_evaluate_to_neutrals():
    scope = Scope().add(0)
    term = lambda_pi.AppSig(Var(Name(0)), lambda_pi.UniverseSig())
    out = nf_nbe(scope, term)
    assert out == term  # x0 U is already normal


def test_linked_environment_resolves_to_innermost_binding():
    # (lam x . lam x . x) a b  is  b: the inner x shadows the outer one
    env = {"a": Name(0), "b": Name(1)}
    scope = Scope([0, 1])
    term = direct_to_free(
        to_foil_term(rename_from_env(env), scope, parse_term("(lam x . lam x . x) a b"))
    )
    assert nf_nbe(scope, term) == Var(Name(1))


def test_quote_refreshes_against_scope():
    # the binder x0 collides with the ambient name 0 and must be renamed
    term = lambda_pi.LamSig(
        generic.ScopedAST(NameBinder(0), lambda_pi.AppSig(Var(Name(0)), Var(Name(0))))
    )
    scope = Scope().add(0)
    out = nf_nbe(scope, term)
    got = lambda_pi.as_lam(out)
    assert got is not None
    binder, _ = got
    assert binder.raw != 0


def test_ill_typed_eliminations_stay_stuck():
    """An elimination that cannot fire is a neutral headed by the value it
    could not take apart, quoted back as the stuck term nf_debruijn leaves."""
    for src in (
        "U U",
        "first (lam x . x)",
        "(U, U) U",
        "second (lam x . (x, U)) U",
        "lam f . first ((lam y . y, U) f) (f U)",
        "(lam p . first p) ((lam x . U), U) (lam z . z)",
    ):
        reference = nf_debruijn(to_debruijn(parse_term(src)))
        assert to_debruijn(_nbe(src)) == reference, src


def test_never_calls_tree_substitution(monkeypatch):
    """The whole evaluate/quote pipeline stays out of `substitute`."""

    def boom(*args, **kwargs):
        raise AssertionError("nbe must not substitute into trees")

    monkeypatch.setattr(generic, "substitute", boom)
    monkeypatch.setattr(lambda_pi, "substitute", boom)
    free = _free("(lam f . lam x . f (f x)) (lam y . (y, y))")
    out = nf_nbe(Scope(), free)
    assert alpha_eq(out, parse_term("lam x . ((x, x), (x, x))"))


def test_eval_then_quote_composes():
    rng = random.Random(606)
    for _ in range(30):
        surface = gen_random(rng.randrange(10_000), 10)
        free = direct_to_free(to_foil_closed(surface))
        value = eval_term(None, free)
        out = quote(Scope(), value)
        # quoting is stable: normalizing the quoted form changes nothing
        assert alpha_eq(nf_nbe(Scope(), out), out)


_X = Var(Name(0))


@pytest.mark.parametrize(
    "term, frame",
    [
        (lambda_pi.AppSig(_X, lambda_pi.UniverseSig()), Thunk),
        (lambda_pi.FirstSig(_X), lambda_pi.FirstSig),
        (lambda_pi.SecondSig(_X), lambda_pi.SecondSig),
    ],
    ids=["application", "first", "second"],
)
def test_a_stuck_frame_is_what_it_eliminates_with(term, frame):
    """A stuck application keeps its argument's thunk as the frame, and a
    stuck projection the projection's class; quote reads each back as the
    elimination it stands for."""
    value = eval_term(None, term)
    assert type(value) is VNeutral and value.head == Name(0)
    (elim,) = value.spine
    if frame is Thunk:
        assert type(elim) is Thunk and elim.term == term.arg
    else:
        assert elim is frame
    assert quote(Scope([0]), value) == term
