"""Shared helpers: seeded random term/pattern generators, and where a
profiler key puts a function.

Everything here is deterministic given the caller's ``random.Random``
instance; tests construct their own with fixed seeds so failures
reproduce exactly.
"""

from __future__ import annotations

import os
import random
from types import ModuleType

import pytest

from scopefoil import naive
from scopefoil.bench import ensure_deep_recursion
from scopefoil.bridge import to_foil_closed
from scopefoil.patterns import names_of_pattern

ensure_deep_recursion()

# The traceback entries a ``RecursionError`` keeps at each end for its report.
_RECURSION_ENDS = 30


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    """Cut a ``RecursionError``'s traceback to its first and last
    ``_RECURSION_ENDS`` entries before the report is built.

    To find where a traceback recurses, pytest compares the locals of each
    entry with those of every earlier entry at the same line, which takes
    time quadratic in the depth: a test failing at the suite's recursion
    limit would hang the run instead of failing.
    """
    if call.excinfo is not None and isinstance(call.excinfo.value, RecursionError):
        entries = []
        tb = call.excinfo.tb
        while tb is not None:
            entries.append(tb)
            tb = tb.tb_next
        if len(entries) > 2 * _RECURSION_ENDS:
            entries[_RECURSION_ENDS - 1].tb_next = entries[-_RECURSION_ENDS]
    return (yield)


# Terms already in normal form: a stuck spine, a pair-pattern Pi with a
# wildcard, and a nest of 1000 binders.  Normalizing one returns the input
# object itself in the two scope-safe tree engines.
ALREADY_NORMAL = (
    "lam f . lam a . f a a",
    "fun ((a, _) : U) -> fun ((b, c) : a) -> lam d . (first d, b (c d))",
    " . ".join(f"lam x{i}" for i in range(1, 1001)) + " . x1 x500",
)


def gen_naive_pattern(rng: random.Random, depth: int, used: set[str]) -> naive.Pattern:
    """Random binding pattern with globally distinct variable names."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if roll < 0.1:
            return naive.PatternWildcard()
        name = f"p{len(used)}"
        used.add(name)
        return naive.PatternVar(naive.VarIdent(name))
    left = gen_naive_pattern(rng, depth - 1, used)
    right = gen_naive_pattern(rng, depth - 1, used)
    return naive.PatternPair(left, right)


def gen_naive_term(
    rng: random.Random, depth: int, env: tuple[str, ...] = (), pattern_depth: int = 2
) -> naive.Term:
    """Random closed term exercising the whole grammar (patterns included,
    nested at most ``pattern_depth`` pairs deep)."""
    if depth <= 0:
        if env and rng.random() < 0.75:
            return naive.Var(naive.VarIdent(rng.choice(env)))
        return naive.Universe()
    match rng.randrange(8):
        case 0 if env:
            return naive.Var(naive.VarIdent(rng.choice(env)))
        case 0 | 1:
            return naive.Universe()
        case 2:
            return naive.Pair(
                gen_naive_term(rng, depth - 1, env, pattern_depth),
                gen_naive_term(rng, depth - 1, env, pattern_depth),
            )
        case 3:
            return naive.First(gen_naive_term(rng, depth - 1, env, pattern_depth))
        case 4:
            return naive.Second(gen_naive_term(rng, depth - 1, env, pattern_depth))
        case 5:
            return naive.App(
                gen_naive_term(rng, depth - 1, env, pattern_depth),
                gen_naive_term(rng, depth - 1, env, pattern_depth),
            )
        case 6:
            used = set(env)
            pattern = gen_naive_pattern(rng, min(depth - 1, pattern_depth), used)
            inner = env + tuple(sorted(used - set(env)))
            return naive.Lam(
                pattern, naive.ScopedTerm(gen_naive_term(rng, depth - 1, inner, pattern_depth))
            )
        case _:
            used = set(env)
            pattern = gen_naive_pattern(rng, min(depth - 1, pattern_depth), used)
            inner = env + tuple(sorted(used - set(env)))
            return naive.Pi(
                pattern,
                gen_naive_term(rng, depth - 1, env, pattern_depth),
                naive.ScopedTerm(gen_naive_term(rng, depth - 1, inner, pattern_depth)),
            )


def foil_pattern(source: naive.Pattern):
    """The scope-safe form of a surface pattern, binders allocated left to
    right from the empty scope, and the identifier -> name environment its
    body is resolved under.  The pattern is the binder of a closed lambda
    over ``source``, as the conversion allocates it."""
    lam = naive.Lam(source, naive.ScopedTerm(naive.Universe()))
    pattern = to_foil_closed(lam).pattern
    idents = naive.pattern_idents(source)
    return pattern, {i.text: n for i, n in zip(idents, names_of_pattern(pattern))}


def gen_foil_pattern(rng: random.Random, depth: int):
    """Random scope-safe pattern (fresh binders) plus its naive source."""
    source = gen_naive_pattern(rng, depth, set())
    pattern, env = foil_pattern(source)
    return pattern, source, env


def extend_scope_pattern(pattern, scope):
    """``scope`` extended by each binder of ``pattern``, left to right; a
    binder already in scope fails the test."""
    for name in names_of_pattern(pattern):
        assert name.raw not in scope
        scope = scope.add(name.raw)
    return scope


def profiled_in(file: str, module: ModuleType) -> bool:
    """Whether a profiler key's ``file`` counts in ``module``: its base name
    is the module's file and it lies in the package directory, as the
    module's own file and the sources compiled for it do."""
    home, name = os.path.split(module.__file__)
    return os.path.basename(file) == name and file.startswith(home + os.sep)
