"""Binder nests and stuck spines thousands deep.

The three nest shapes are a redex normalized *under* a nest of lambdas or
of Pis, and a beta whose substitution passes *through* a nest of lambdas;
``under`` and ``through`` are the benchmark's ``deep`` workload.  Entering a
binder costs O(1) in every engine, which keeps a 2000-binder nest cheap,
and all five engines agree on them.  ``nbe`` quotes a chain of binders in
one loop, so a 20,000-binder chain of lambdas, Pis and pair patterns reads
back under a recursion limit of a few hundred frames.

The two spine shapes, a long application and a long projection chain over
a variable, are already normal.  The four tree normalizers reduce such a
spine's head once and then normalize only its arguments, so they are linear
in the spine's length; ``nbe`` works in head-plus-spine form throughout.
"""

import sys

import pytest

from scopefoil import lambda_pi, terms
from scopefoil.bench import DEFAULT_FUEL
from scopefoil.bridge import to_foil_closed
from scopefoil.generic import ScopedAST
from scopefoil.lambda_pi import LamSig, PiSig, direct_to_free, nf_free
from scopefoil.names import Name, NameBinder, Scope, Var
from scopefoil.nbe import nf_nbe
from scopefoil.oracles import alpha_eq, nf_debruijn, nf_named, to_debruijn
from scopefoil.patterns import PatternPair, PatternVar
from scopefoil.syntax import parse_term
from scopefoil.terms import nf_direct

DEPTH = 2000


def _nest(n: int) -> str:
    return " . ".join(f"lam x{i}" for i in range(1, n + 1))


def _pis(n: int) -> str:
    return " -> ".join(f"fun (x{i} : U)" for i in range(1, n + 1))


SHAPES = {
    "under": (
        f"{_nest(DEPTH)} . (lam y . y x7) x1500",
        f"{_nest(DEPTH)} . x1500 x7",
    ),
    "through": (
        f"(lam y . {_nest(DEPTH)} . y x1200) (lam z . z)",
        f"{_nest(DEPTH)} . x1200",
    ),
    "pi": (
        f"{_pis(DEPTH)} -> (lam y . y x1000) x7",
        f"{_pis(DEPTH)} -> x7 x1000",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_all_five_engines_agree_on_a_deep_nest(shape):
    source, expected = SHAPES[shape]
    surface = parse_term(source)
    direct = to_foil_closed(surface)
    free = direct_to_free(direct)
    results = {
        "named": nf_named(surface, DEFAULT_FUEL),
        "debruijn": nf_debruijn(to_debruijn(surface), DEFAULT_FUEL),
        "foil_direct": nf_direct(Scope(), direct, DEFAULT_FUEL),
        "free_foil": nf_free(Scope(), free, DEFAULT_FUEL),
        "nbe": nf_nbe(Scope(), free),
    }
    want = parse_term(expected)
    for engine, result in results.items():
        assert alpha_eq(result, want), engine


def test_nbe_quotes_a_binder_chain_without_a_frame_per_binder():
    """A chain of 20,000 binders, lambdas and Pis by turns with a pair
    pattern every 300, built as a tree in a loop, reads back under a
    recursion limit of 300 frames."""
    n = 20_000
    binders, raw = [], 0
    for i in range(n):
        if i % 300 == 150:
            pair = PatternPair(PatternVar(NameBinder(raw)), PatternVar(NameBinder(raw + 1)))
            binders.append(pair)
            raw += 2
        else:
            binders.append(NameBinder(raw))
            raw += 1
    # each Pi's domain is the last name the binder before it bound
    last = [b.right.binder.raw if type(b) is PatternPair else b.raw for b in binders]
    term = Var(Name(0))
    for i in reversed(range(n)):
        scoped = ScopedAST(binders[i], term)
        term = LamSig(scoped) if i % 2 == 0 else PiSig(Var(Name(last[i - 1])), scoped)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        out = nf_nbe(Scope(), term)
    finally:
        sys.setrecursionlimit(limit)
    for i in range(n):
        if i % 2 == 0:
            assert type(out) is LamSig, i
            scoped = out.body
        else:
            assert type(out) is PiSig and out.domain == Var(Name(last[i - 1])), i
            scoped = out.codomain
        assert scoped.binder is binders[i], i
        out = scoped.body
    assert out == Var(Name(0))


STUCK = {
    "application": lambda n: f"lam f . lam a . f{' a' * n}",
    "projection": lambda n: f"lam p . {'first (' * n}p{')' * n}",
}


@pytest.mark.parametrize("shape", sorted(STUCK))
def test_a_long_stuck_spine_is_its_own_normal_form(shape):
    surface = parse_term(STUCK[shape](DEPTH))
    assert nf_named(surface, DEFAULT_FUEL) == surface
    db = to_debruijn(surface)
    assert nf_debruijn(db, DEFAULT_FUEL) == db
    direct = to_foil_closed(surface)
    assert nf_direct(Scope(), direct, DEFAULT_FUEL) is direct
    free = direct_to_free(direct)
    assert nf_free(Scope(), free, DEFAULT_FUEL) is free
    assert alpha_eq(nf_nbe(Scope(), free), surface)


@pytest.mark.parametrize("shape", sorted(STUCK))
def test_a_stuck_spine_is_reduced_once(shape):
    """Normalizing a stuck spine of n eliminators calls the weak-head
    reducer of the scope-safe trees O(n) times, not once per prefix."""
    n = 500
    direct = to_foil_closed(parse_term(STUCK[shape](n)))
    free = direct_to_free(direct)
    reducer = terms._whnf.__code__
    assert lambda_pi._whnf.__code__ is reducer  # one reduction for both trees
    for normalize, term in ((nf_direct, direct), (nf_free, free)):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is reducer:
                calls += 1

        sys.setprofile(count)
        try:
            out = normalize(Scope(), term, DEFAULT_FUEL)
        finally:
            sys.setprofile(None)
        assert out is term
        assert calls <= 4 * n, (normalize.__name__, calls)
