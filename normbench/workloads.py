"""The benchmark's inputs, made from ``--seed``.

Each workload is a list of closed surface terms plus, where the benchmark
can compute it without the program, the canonical form (see
:mod:`checks`) of each term's normal form.  The seed changes which inputs
are made, never how much work they are: an end-to-end time is the time of
one pass over the whole list, and a seed that doubled the work would show up
as spread between runs, not as a change in the program.

The cost of one term can hang on details a seed would pick: ``debruijn``
takes 3.8x longer on ``mult 60 15`` than on ``mult 15 60``, and random
terms are heavy-tailed (one can cost a hundred times the median), so 200
freshly drawn terms give pass times whose spread over seeds is 10-25%.  The
``church`` and ``random`` term sets are therefore fixed, and the seed
shuffles their order and renames every binder.

* ``church``: Church-numeral arithmetic: a factorial built by
  ``scopefoil.bench.church_fact``, two products and two sums
  (``church_mult``, ``church_plus``).  Expected: the numeral of the Python
  integer result.
* ``random``: the 200 terms of ``scopefoil bench --group random15 --group
  random20 --seed 42`` (``gen_random``, admission included).  Expected: all
  engines agree.
* ``deep``: two binder nests.  ``under``: ``lam x1 ... xN . (lam y . y xa)
  xb`` is normalized under N = 1000 binders.  ``through``: ``(lam y . lam
  x1 ... xM . y xc) (lam z . z)`` substitutes through M = 400 binders
  first.  The seed picks a, b and c.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CHURCH_FACT = 4
CHURCH_PRODUCTS = ((30, 30), (20, 45))
CHURCH_SUMS = ((100, 200), (200, 100))
RANDOM_SIZES = (15, 20)
RANDOM_TERMS_PER_SIZE = 100
RANDOM_BASE_SEED = 42
DEEP_UNDER = 1000
DEEP_THROUGH = 400

WORKLOADS = ("church", "random", "deep")


@dataclass
class Inputs:
    """One workload's terms, their source text and what they must normalize to."""

    terms: list  # scopefoil.naive terms
    texts: list[str]  # one surface term per input, as written to the .lp file
    expected: list  # canonical normal form, or None where only agreement is checked
    values: list  # church: the integer each term computes; else None


def church(seed: int) -> Inputs:
    from scopefoil import bench
    from checks import church_numeral

    terms = [bench.church_fact(CHURCH_FACT)]
    values = [math.factorial(CHURCH_FACT)]
    for a, b in CHURCH_PRODUCTS:
        terms.append(bench.church_mult(a, b))
        values.append(a * b)
    for a, b in CHURCH_SUMS:
        terms.append(bench.church_plus(a, b))
        values.append(a + b)
    terms, values = _shuffle_rename(terms, values, random.Random(f"church:{seed}"))
    return Inputs(terms, _texts(terms), [church_numeral(v) for v in values], values)


def _shuffle_rename(terms: list, values: list, rng: random.Random) -> tuple[list, list]:
    """Shuffle the terms (with their values) and alpha-rename every binder
    to a seeded name.  A binder at depth d gets a name ending in d, so no
    binder can capture another's variables."""
    from scopefoil import naive

    letters = "abcdefghkmnpqrstuvwyz"

    def go(t, env, depth):
        match t:
            case naive.Var(ident):
                return naive.Var(env[ident.text])
            case naive.App(fun, arg):
                return naive.App(go(fun, env, depth), go(arg, env, depth))
            case naive.Lam(naive.PatternVar(ident), naive.ScopedTerm(body)):
                fresh = naive.VarIdent(f"{rng.choice(letters)}{depth}")
                inner = {**env, ident.text: fresh}
                body = naive.ScopedTerm(go(body, inner, depth + 1))
                return naive.Lam(naive.PatternVar(fresh), body)
            case naive.Pair(left, right):
                return naive.Pair(go(left, env, depth), go(right, env, depth))
            case naive.First(inner):
                return naive.First(go(inner, env, depth))
            case naive.Second(inner):
                return naive.Second(go(inner, env, depth))
        raise TypeError(f"not a closed term without Pi or U: {t!r}")

    order = list(range(len(terms)))
    rng.shuffle(order)
    return [go(terms[i], {}, 0) for i in order], [values[i] for i in order]


def _texts(terms: list) -> list[str]:
    from scopefoil import syntax

    return [syntax.pretty_term(t) for t in terms]


def random_terms(seed: int) -> Inputs:
    from scopefoil import bench

    pool = [
        bench.gen_random(RANDOM_BASE_SEED + i, size)
        for size in RANDOM_SIZES
        for i in range(RANDOM_TERMS_PER_SIZE)
    ]
    terms, values = _shuffle_rename(pool, [None] * len(pool), random.Random(f"random:{seed}"))
    return Inputs(terms, _texts(terms), [None] * len(terms), values)


def _lams(n: int, body: tuple) -> tuple:
    for _ in range(n):
        body = ("lam", body)
    return body


def _nest(n: int) -> str:
    return " . ".join(f"lam x{i}" for i in range(1, n + 1))


# x_i is bound at depth i (1-based), so under n binders its index is n - i.


def under(n: int, a: int, b: int) -> tuple[str, tuple]:
    """A redex under n binders, and its normal form ``lam x1 ... xn . xb xa``."""
    return f"{_nest(n)} . (lam y . y x{a}) x{b}", _lams(n, ("app", ("var", n - b), ("var", n - a)))


def through(n: int, c: int) -> tuple[str, tuple]:
    """A beta through n binders, and its normal form ``lam x1 ... xn . xc``."""
    return f"(lam y . {_nest(n)} . y x{c}) (lam z . z)", _lams(n, ("var", n - c))


def deep(seed: int) -> Inputs:
    from scopefoil import syntax

    rng = random.Random(f"deep:{seed}")
    a, b = rng.randint(1, DEEP_UNDER), rng.randint(1, DEEP_UNDER)
    c = rng.randint(1, DEEP_THROUGH)
    texts, expected = zip(under(DEEP_UNDER, a, b), through(DEEP_THROUGH, c))
    return Inputs([syntax.parse_term(t) for t in texts], list(texts), list(expected), [None, None])


BUILDERS = {"church": church, "random": random_terms, "deep": deep}
