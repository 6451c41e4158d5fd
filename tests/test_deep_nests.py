"""Binder nests and stuck spines thousands deep.

The three nest shapes are a redex normalized *under* a nest of lambdas or
of Pis, and a beta whose substitution passes *through* a nest of lambdas;
``under`` and ``through`` are the benchmark's ``deep`` workload.  Entering a
binder costs O(1) in every engine, which keeps a 2000-binder nest cheap,
and all five engines agree on them.  ``nf_direct`` and ``nf_named`` go
under a chain of binders in one loop, and ``nbe`` quotes one in one loop,
so a 20,000-binder chain of lambdas, Pis and pair and wildcard patterns
normalizes (or reads back) under a recursion limit of a few hundred frames;
the loop goes on through a body that only reduces to a binder, with the
same fuel.  Every engine normalizes the 60,000-binder nest
``lam x0 ... x59999 . x0`` under ``ensure_deep_recursion()``.

The two spine shapes, a long application and a long projection chain over
a variable, are already normal.  The four tree normalizers reduce such a
spine's head once and then normalize only its arguments, so they are linear
in the spine's length; ``nbe`` works in head-plus-spine form throughout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scopefoil
from scopefoil import lambda_pi, naive, oracles, terms
from scopefoil.bench import DEFAULT_FUEL
from scopefoil.bridge import to_foil_closed
from scopefoil.fuel import Fuel
from scopefoil.generic import ScopedAST
from scopefoil.lambda_pi import LamSig, PiSig, direct_to_free, nf_free
from scopefoil.names import Name, NameBinder, Scope, Var
from scopefoil.nbe import nf_nbe
from scopefoil.oracles import DBLam, alpha_eq, nf_debruijn, nf_named, to_debruijn
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


def _surface_chain(n: int) -> naive.Term:
    """``n`` binders, lambdas and Pis by turns, each Pi's domain the last
    name bound before it; a lambda with a pair pattern at 150 and a Pi with
    a wildcard at 251 of every 300; the innermost body is the first name
    bound."""
    patterns, last = [], []
    for i in range(n):
        if i % 300 == 150:
            pattern = naive.PatternPair(
                naive.PatternVar(naive.VarIdent(f"a{i}")), naive.PatternVar(naive.VarIdent(f"b{i}"))
            )
            name = f"b{i}"
        elif i % 300 == 251:
            pattern, name = naive.PatternWildcard(), last[-1]
        else:
            pattern, name = naive.PatternVar(naive.VarIdent(f"x{i}")), f"x{i}"
        patterns.append(pattern)
        last.append(name)
    term = naive.Var(naive.VarIdent("x0"))
    for i in reversed(range(n)):
        scoped = naive.ScopedTerm(term)
        if i % 2 == 0:
            term = naive.Lam(patterns[i], scoped)
        else:
            term = naive.Pi(patterns[i], naive.Var(naive.VarIdent(last[i - 1])), scoped)
    return term


def test_tree_normalizers_go_under_a_binder_chain_without_a_frame_per_binder():
    """A normal chain of 20,000 binders, built and converted at the suite's
    recursion limit, normalizes under a limit of 300 frames in ``nf_direct``
    and ``nf_named``, and comes back as the input itself."""
    n = 20_000
    surface = _surface_chain(n)
    direct = to_foil_closed(surface)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        outs = {"named": nf_named(surface), "foil_direct": nf_direct(Scope(), direct)}
    finally:
        sys.setrecursionlimit(limit)
    assert outs["named"] is surface and outs["foil_direct"] is direct
    for out, (Lam, Pi, pattern_var) in (
        (outs["named"], (naive.Lam, naive.Pi, naive.PatternVar)),
        (outs["foil_direct"], (terms.Lam, terms.Pi, PatternVar)),
    ):
        for i in range(n):
            assert type(out) is (Lam if i % 2 == 0 else Pi), i
            pattern = out.pattern
            assert (type(pattern) is pattern_var) == (i % 300 not in (150, 251)), i
            out = out.body if i % 2 == 0 else out.codomain
            if type(out) is naive.ScopedTerm:
                out = out.term
        assert type(out) in (naive.Var, Var)


# Chains that go on through a body that only reduces to a binder, with the
# number of contractions each takes: each engine here charges one unit of
# fuel per contraction.
REDEX_CHAINS = (
    ("lam a . (lam b . lam c . fun (d : b) -> c d) a", "lam a . lam c . fun (d : a) -> c d", 1),
    (
        "lam p . (lam (b, e) . lam c . fun ((d, _) : b) -> c d e) p",
        "lam p . lam c . fun ((d, _) : first p) -> c d (second p)",
        1,
    ),
    (
        "fun (a : U) -> (lam b . (lam e . lam c . fun (d : e) -> c b d) b) a",
        "fun (a : U) -> lam c . fun (d : a) -> c a d",
        2,
    ),
    (
        "lam a . fun (d : (lam x . x) a) -> (lam b . lam (c, _) . c b d) (first (a, U))",
        "lam a . fun (d : a) -> lam (c, _) . c a d",
        3,
    ),
)

# Closed terms allocate binders from raw 0, so their first binders collide
# with a scope of 3 names, and all of them with one of 6, and are refreshed
# where the chain enters them.
SCOPES = (Scope(), Scope(range(3)), Scope(range(6)))


@pytest.mark.parametrize("source, expected, betas", REDEX_CHAINS)
def test_a_chain_goes_on_through_a_redex(source, expected, betas):
    surface = parse_term(source)
    want = parse_term(expected)
    budget = 10
    fuel, memo = Fuel(budget), {}
    named = oracles._nf_whnf_named(oracles._whnf_named(surface, fuel, memo), fuel, memo)
    assert fuel.remaining == budget - betas
    assert alpha_eq(named, want)
    assert alpha_eq(nf_debruijn(to_debruijn(surface), DEFAULT_FUEL), want)
    direct = to_foil_closed(surface)
    free = direct_to_free(direct)
    for scope in SCOPES:
        fuel = Fuel(budget)
        out = terms._nf_whnf(scope, terms._whnf(scope, direct, fuel), fuel)
        assert fuel.remaining == budget - betas
        assert alpha_eq(out, want)
        assert alpha_eq(nf_free(scope, free, DEFAULT_FUEL), want)
        assert alpha_eq(nf_nbe(scope, free), want)


def test_every_engine_normalizes_the_60000_binder_nest():
    """``lam x0 ... x59999 . x0``, built in a loop, normalizes in all five
    engines at the suite's recursion limit (``ensure_deep_recursion``).
    Each result is checked by walking it in a loop: node ``==`` recurses."""
    n = 60_000
    surface = naive.Var(naive.VarIdent("x0"))
    for i in reversed(range(n)):
        surface = naive.Lam(naive.PatternVar(naive.VarIdent(f"x{i}")), naive.ScopedTerm(surface))
    direct = to_foil_closed(surface)
    free = direct_to_free(direct)
    first = direct.pattern.binder.raw
    runs = {
        "named": (lambda: nf_named(surface, DEFAULT_FUEL), naive.Lam, lambda t: t.body.term),
        "debruijn": (lambda: nf_debruijn(to_debruijn(surface), DEFAULT_FUEL), DBLam, lambda t: t.body),
        "foil_direct": (lambda: nf_direct(Scope(), direct, DEFAULT_FUEL), terms.Lam, lambda t: t.body),
        "free_foil": (lambda: nf_free(Scope(), free, DEFAULT_FUEL), LamSig, lambda t: t.body.body),
        "nbe": (lambda: nf_nbe(Scope(), free), LamSig, lambda t: t.body.body),
    }
    innermost = {
        "named": naive.Var(naive.VarIdent("x0")),
        "debruijn": oracles.BVar(n - 1),
        "foil_direct": Var(Name(first)),
        "free_foil": Var(Name(first)),
        "nbe": Var(Name(first)),
    }
    outs, too_deep = {}, []
    for engine, (run, Lam, body) in runs.items():
        try:
            outs[engine] = run(), Lam, body
        except RecursionError:  # kept out of the report: its traceback is 100,000 frames
            too_deep.append(engine)
    assert not too_deep, f"RecursionError in {too_deep}"
    for engine, (out, Lam, body) in outs.items():
        for i in range(n):
            assert type(out) is Lam, (engine, i)
            out = body(out)
        assert out == innermost[engine], engine


STUCK = {
    "application": lambda n: f"lam f . lam a . f{' a' * n}",
    "projection": lambda n: f"lam p . {'first (' * n}p{')' * n}",
}


@pytest.mark.parametrize("shape", sorted(STUCK))
def test_a_long_stuck_spine_is_its_own_normal_form(shape):
    surface = parse_term(STUCK[shape](DEPTH))
    assert nf_named(surface, DEFAULT_FUEL) is surface
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


def test_a_recursion_error_at_the_suite_limit_fails_in_time(tmp_path):
    """A test that recurses to the suite's recursion limit, with other
    locals in every frame, is reported as one failure well inside a minute:
    ``conftest.py`` cuts the traceback to its ends before pytest looks for
    the recursion in it, which takes time quadratic in its length."""
    (tmp_path / "test_recurses.py").write_text(
        "def down(n):\n"
        "    return down(n + 1) + n\n"
        "\n"
        "def test_recurses():\n"
        "    down(0)\n"
    )
    tests = Path(__file__).resolve().parent
    src = Path(scopefoil.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (tests, src)))}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "test_recurses.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert "1 failed" in done.stdout, done.stdout + done.stderr
    assert "RecursionError" in done.stdout
