"""Acceptance checks: eleven end-to-end properties, one test (and one
verbose-mode pass/fail line) each.

Every check also prints a `[NN] label PASS (time)` summary line — run with
``pytest -v -s tests/test_acceptance.py`` to see them — and enforces its
runtime budget, so a pathological slowdown fails loudly instead of rotting.

Numbers 01-11 are stable identifiers for these properties; the shared
random corpora are generated once and reused (01/02/07 feed 10).
"""

import csv
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

from scopefoil import naive
from scopefoil.bench import gen_church, gen_random, church_fact, church_mult, church_plus
from scopefoil.bridge import (
    default_ident,
    from_foil_term,
    rename_from_env,
    to_foil_closed,
    to_foil_term,
)
from scopefoil.encoding import encode_direct, encode_free
from scopefoil.fuel import FuelExceededError
from scopefoil.generic import check_scope, substitute
from scopefoil.lambda_pi import direct_to_free, free_to_direct, nf_free
from scopefoil.names import (
    Name,
    Scope,
    identity_subst,
    sink,
    with_refreshed,
)
from scopefoil.nbe import nf_nbe
from scopefoil.oracles import alpha_eq, nf_debruijn, nf_named, to_debruijn
from scopefoil.patterns import (
    PatternPair,
    PatternVar,
    PatternWildcard,
    names_of_pattern,
    with_pattern,
)
from scopefoil.syntax import parse_term, pretty_term
from scopefoil.terms import check_scope_direct, nf_direct, subst_direct

import random

from conftest import extend_scope_pattern, gen_foil_pattern, gen_naive_pattern, gen_naive_term


@contextmanager
def criterion(num: int, label: str, budget: float | None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed < budget
    shown = f"{elapsed:6.2f}s" + (f" / {budget:.0f}s" if budget is not None else "")
    print(f"[{num:02d}] {label:<58} {'PASS' if within else 'FAIL'} ({shown})")
    assert within, f"[{num:02d}] exceeded runtime budget: {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _random_corpus() -> tuple[naive.Term, ...]:
    """500 deterministic random closed terms, sizes 3..15."""
    return tuple(
        gen_random(1000 + i, 3 + i % 13) for i in range(500)
    )


@lru_cache(maxsize=1)
def _church_corpus() -> tuple[tuple[naive.Term, naive.Term], ...]:
    return (
        (church_plus(2, 2), gen_church(4)),
        (church_mult(3, 3), gen_church(9)),
        (church_fact(4), gen_church(24)),
    )


def _nf_all_five(term: naive.Term):
    """Normal forms from the five implementations, as canonical forms."""
    direct = to_foil_closed(term)
    free = direct_to_free(direct)
    scope = Scope()
    return {
        "named": to_debruijn(nf_named(term)),
        "debruijn": nf_debruijn(to_debruijn(term)),
        "foil_direct": to_debruijn(
            from_foil_term(default_ident, nf_direct(scope, direct))
        ),
        "free_foil": to_debruijn(
            from_foil_term(default_ident, free_to_direct(nf_free(scope, free)))
        ),
        "nbe": to_debruijn(
            from_foil_term(default_ident, free_to_direct(nf_nbe(scope, free)))
        ),
    }


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def test_01_capture_avoidance_in_all_five_implementations():
    with criterion(1, "capture avoidance, five implementations", 1.0):
        source = parse_term("(lam x . lam y . x) y")
        expected = parse_term("lam z . y")

        results = {
            "named": nf_named(source),
            "debruijn": nf_debruijn(to_debruijn(source)),
        }
        env = {"y": Name(0)}
        scope = Scope().add(0)
        direct = to_foil_term(rename_from_env(env), scope, source)
        free = direct_to_free(direct)

        def back(foil_direct_term):
            return from_foil_term(
                lambda raw: naive.VarIdent("y") if raw == 0 else default_ident(raw),
                foil_direct_term,
            )

        results["foil_direct"] = back(nf_direct(scope, direct))
        results["free_foil"] = back(free_to_direct(nf_free(scope, free)))
        results["nbe"] = back(free_to_direct(nf_nbe(scope, free)))

        for impl, got in results.items():
            assert alpha_eq(got, expected), (impl, got)


def test_02_differential_normalization_on_500_random_terms():
    with criterion(2, "differential normalization, 500 random terms", 120.0):
        mismatches = 0
        for term in _random_corpus():
            forms = _nf_all_five(term)
            reference = forms["debruijn"]
            if any(form != reference for form in forms.values()):
                mismatches += 1
        assert mismatches == 0


def test_03_sink_is_byte_identical_serialization():
    with criterion(3, "sink keeps serialization byte-identical", 10.0):
        rng = random.Random(333)
        checked = 0
        while checked < 200:
            term = gen_naive_term(rng, rng.randrange(1, 6))
            direct = to_foil_closed(term)
            source = Scope()
            target = source.add(100).add(101)
            before = encode_direct(direct)
            sunk = sink(direct, source=source, target=target)
            assert sunk is direct
            assert encode_direct(sunk) == before
            free = direct_to_free(direct)
            blob = encode_free(free)
            sunk_free = sink(free, source, target)
            assert sunk_free is free
            assert encode_free(sunk_free) == blob
            checked += 1


def test_04_refresh_reuse_law_exhaustive():
    with criterion(4, "refresh-reuse law, all 2048 cases", 1.0):
        cases = 0
        for mask in range(256):
            members = [raw for raw in range(8) if mask >> raw & 1]
            scope = Scope()
            for raw in members:
                scope = scope.add(raw)
            for n in range(8):
                binder = with_refreshed(scope, Name(n))
                if n in scope:
                    assert binder.raw == max(members) + 1
                else:
                    assert binder.raw == n
                assert binder.raw not in scope or n not in scope
                cases += 1
        assert cases == 2048


def test_05_identity_substitution_is_structural_identity():
    with criterion(5, "identity substitution is structural identity", 10.0):
        rng = random.Random(555)
        seen: set[str] = set()
        scope = Scope()
        subst = identity_subst()
        while len(seen) < 200:
            term = gen_naive_term(rng, rng.randrange(1, 6))
            direct = to_foil_closed(term)
            free = direct_to_free(direct)
            key = pretty_term(term)
            if key in seen:
                continue
            seen.add(key)
            assert subst_direct(scope, subst, direct) == direct
            assert substitute(scope, subst, free) == free


def _pattern_shape(pattern):
    match pattern:
        case PatternWildcard():
            return "_"
        case PatternVar(_):
            return "v"
        case PatternPair(left, right):
            return (_pattern_shape(left), _pattern_shape(right))


def test_06_pattern_laws():
    with criterion(6, "pattern laws over random depth<=4 patterns", 10.0):
        rng = random.Random(666)
        subst = identity_subst()
        for _ in range(400):
            pattern, _, _ = gen_foil_pattern(rng, rng.randrange(5))
            scope = Scope()
            for raw in rng.sample(range(16), rng.randrange(8)):
                scope = scope.add(raw)

            refreshed, _, scope2 = with_pattern(scope, pattern, subst)
            # shape preserved
            assert _pattern_shape(refreshed) == _pattern_shape(pattern)
            # scope extended by exactly the binder count
            binders = names_of_pattern(refreshed)
            assert len(scope2) == len(scope) + len(binders)
            assert set(scope2) == set(scope) | {n.raw for n in binders}
            # extend_scope_pattern agrees on the refreshed pattern
            assert extend_scope_pattern(refreshed, scope) == scope2

        # the wildcard leaves scope and substitution untouched (same objects)
        for _ in range(50):
            scope = Scope().add(rng.randrange(16))
            out_pattern, out_subst, out_scope = with_pattern(
                scope, PatternWildcard(), subst
            )
            assert out_pattern == PatternWildcard()
            assert out_subst is subst
            assert out_scope is scope


def test_07_church_arithmetic_in_all_implementations():
    with criterion(7, "church arithmetic (4, 9, 24), five implementations", 5.0):
        for term, expected in _church_corpus():
            want = to_debruijn(expected)
            for impl, got in _nf_all_five(term).items():
                assert got == want, impl


def test_08_round_trips():
    with criterion(8, "parse/pretty and foil round-trips", 30.0):
        rng = random.Random(888)
        for _ in range(500):
            term = gen_naive_term(rng, rng.randrange(1, 6))
            assert parse_term(pretty_term(term)) == term
        for _ in range(200):
            term = gen_naive_term(rng, rng.randrange(1, 6))
            back = from_foil_term(default_ident, to_foil_closed(term))
            assert alpha_eq(back, term)


def test_09_benchmark_harness_cli(tmp_path):
    with criterion(9, "benchmark harness end to end (CLI)", 300.0):
        out = tmp_path / "bench.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "scopefoil.cli",
                "bench",
                "--group", "nf",
                "--group", "random15",
                "--seed", "42",
                "--terms", "20",
                "--csv", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=290,
        )
        assert proc.returncode == 0, proc.stderr
        # the relative ordering is printed for inspection, never asserted
        assert "observed ordering" in proc.stdout

        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "impl", "term", "median_ns", "hash"]
        data = rows[1:]
        assert len(data) == 5 * (1 + 20)
        hashes: dict[tuple[str, str], set[str]] = {}
        for group, impl, term, median_ns, digest in data:
            assert group in ("nf", "random15")
            assert int(median_ns) > 0
            hashes.setdefault((group, term), set()).add(digest)
        assert all(len(v) == 1 for v in hashes.values())
        assert len(hashes) == 21


def test_10_nbe_agrees_with_free_foil_on_shared_corpus():
    with criterion(10, "nbe agrees with the generic normalizer", None):
        for term in _random_corpus():
            free = direct_to_free(to_foil_closed(term))
            scope = Scope()
            assert alpha_eq(nf_nbe(scope, free), nf_free(scope, free))
        for term, _ in _church_corpus():
            free = direct_to_free(to_foil_closed(term))
            scope = Scope()
            assert alpha_eq(nf_nbe(scope, free), nf_free(scope, free))


def _gen_full_grammar_term(rng: random.Random) -> naive.Term:
    """Alternately a random closed term, and a pattern redex under a pair
    binder whose variables stay neutral: ``lam (e0, e1) . (lam P . B) A``.

    Random terms alone rarely apply a pattern lambda to an argument whose
    projections matter; the redexes make pattern beta carry the check.
    """
    if rng.random() < 0.5:
        return gen_naive_term(rng, rng.randrange(1, 6))
    env = ("e0", "e1")
    used = set(env)
    pattern = gen_naive_pattern(rng, 2, used)
    inner = env + tuple(sorted(used - set(env)))
    body = gen_naive_term(rng, rng.randrange(1, 4), inner)
    arg = gen_naive_term(rng, rng.randrange(0, 3), env)
    if rng.random() < 0.5:
        arg = naive.Pair(arg, gen_naive_term(rng, rng.randrange(0, 3), env))
    redex = naive.App(naive.Lam(pattern, naive.ScopedTerm(body)), arg)
    e0, e1 = (naive.PatternVar(naive.VarIdent(x)) for x in env)
    return naive.Lam(naive.PatternPair(e0, e1), naive.ScopedTerm(redex))


def test_11_five_way_agreement_on_the_full_grammar():
    with criterion(11, "five-way agreement, 600 full-grammar terms, scope-checked", 10.0):
        rng = random.Random(1111)
        scope = Scope()
        checked = 0
        while checked < 600:
            term = _gen_full_grammar_term(rng)
            try:
                reference = nf_debruijn(to_debruijn(term), fuel=20_000)
            except FuelExceededError:
                continue  # the other engines spend no more fuel than this
            direct = to_foil_closed(term)
            free = direct_to_free(direct)
            forms = {
                "named": nf_named(term, fuel=20_000),
                "foil_direct": nf_direct(scope, direct, fuel=20_000),
                "free_foil": nf_free(scope, free, fuel=20_000),
                "nbe": nf_nbe(scope, free),
            }
            for impl, form in forms.items():
                assert alpha_eq(form, reference), (impl, pretty_term(term))
            check_scope_direct(forms["foil_direct"], scope)
            check_scope(forms["free_foil"], scope)
            check_scope(forms["nbe"], scope)
            checked += 1
