"""Where a parent decides whether its child needs weak-head reduction.

Only a projection, or an application whose head is not a variable, can
reduce; every other child is kept without a call.  The terms below sit on
that test: spines with a variable head and lambda arguments, projections of
a variable, projections of a pair, pair-pattern betas and a Church product.
Their weak-head and normal forms, and the fuel each takes, are pinned for
the direct, free and named engines (the direct and free trees read back to
the same text; the named engine keeps the surface names).
"""

from functools import partial

import pytest

from scopefoil import lambda_pi, naive, oracles, terms
from scopefoil.bench import church_mult
from scopefoil.bridge import default_ident, from_foil_term, rename_from_env, to_foil_term
from scopefoil.fuel import Fuel
from scopefoil.names import Name, Scope
from scopefoil.syntax import parse_term, pretty_term

SCOPE = Scope().add(0)  # ``q`` is free, with raw name 0
BUDGET = 10_000


def _ident(raw: int) -> naive.VarIdent:
    return naive.VarIdent("q") if raw == 0 else default_ident(raw)


def _direct(surface: naive.Term):
    return to_foil_term(rename_from_env({"q": Name(0)}), SCOPE, surface)


def _direct_run(surface, full, fuel):
    out = terms._whnf(SCOPE, _direct(surface), fuel)
    return from_foil_term(_ident, terms._nf_whnf(SCOPE, out, fuel) if full else out)


def _free_run(surface, full, fuel):
    free = lambda_pi.direct_to_free(_direct(surface))
    out = (lambda_pi._nf if full else lambda_pi._whnf)(SCOPE, free, fuel)
    return from_foil_term(_ident, out)


def _named_run(surface, full, fuel):
    memo = {}
    out = oracles._whnf_named(surface, fuel, memo)
    return oracles._nf_whnf_named(out, fuel, memo) if full else out


ENGINES = {"direct": _direct_run, "free": _free_run, "named": _named_run}

# source: (whnf read back, named whnf, fuel it takes,
#          normal form read back, named normal form, fuel it takes)
PINS = {
    "q (lam a . a) (lam b . (lam c . c) b)": (
        "q (lam x1 . x1) (lam x1 . (lam x2 . x2) x1)",
        "q (lam a . a) (lam b . (lam c . c) b)", 0,
        "q (lam x1 . x1) (lam x1 . x1)", "q (lam a . a) (lam b . b)", 1,
    ),
    "(lam x . x (lam a . a) ((lam c . c) q)) q": (
        "q (lam x2 . x2) ((lam x2 . x2) q)", "q (lam a . a) ((lam c . c) q)", 1,
        "q (lam x2 . x2) q", "q (lam a . a) q", 2,
    ),
    "first q": ("first q", "first q", 0, "first q", "first q", 0),
    "second q": ("second q", "second q", 0, "second q", "second q", 0),
    "(lam p . (first p) (second p)) q": (
        "first q (second q)", "first q (second q)", 1,
        "first q (second q)", "first q (second q)", 1,
    ),
    "lam x . (first x, second ((lam y . y) x))": (
        "lam x1 . (first x1, second ((lam x2 . x2) x1))",
        "lam x . (first x, second ((lam y . y) x))", 0,
        "lam x1 . (first x1, second x1)", "lam x . (first x, second x)", 1,
    ),
    "second (first ((q, lam b . b), U))": (
        "lam x1 . x1", "lam b . b", 2, "lam x1 . x1", "lam b . b", 2,
    ),
    "first ((lam a . a) (q, U)) (second ((lam a . a) (U, q)))": (
        "q (second ((lam x1 . x1) (U, q)))", "q (second ((lam a . a) (U, q)))", 2,
        "q q", "q q", 4,
    ),
    "(lam (a, b) . b a) (q, lam c . c)": ("q", "q", 4, "q", "q", 4),
    "(lam (a, b) . (b, a)) q": (
        "(second q, first q)", "(second q, first q)", 1,
        "(second q, first q)", "(second q, first q)", 1,
    ),
    "fun (a : (lam c . c) U) -> (lam (b, _) . b) (a, q)": (
        "fun (x1 : (lam x1 . x1) U) -> (lam (x2, _) . x2) (x1, q)",
        "fun (a : (lam c . c) U) -> (lam (b, _) . b) (a, q)", 0,
        "fun (x1 : U) -> x1", "fun (a : U) -> a", 3,
    ),
    "church_mult(3, 4)": (
        "lam x3 . (lam x1 . lam x2 . x1 (x1 (x1 x2))) ((lam x1 . lam x2 . x1 (x1 (x1 (x1 x2)))) x3)",
        "lam f . (lam f . lam x . f (f (f x))) ((lam f . lam x . f (f (f (f x)))) f)", 2,
        "lam x3 . lam x2 . x3 (x3 (x3 (x3 (x3 (x3 (x3 (x3 (x3 (x3 (x3 (x3 x2)))))))))))",
        "lam f . lam x . f (f (f (f (f (f (f (f (f (f (f (f x)))))))))))", 9,
    ),
}


def _surface(source: str) -> naive.Term:
    return church_mult(3, 4) if source == "church_mult(3, 4)" else parse_term(source)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("full", (False, True), ids=("whnf", "nf"))
@pytest.mark.parametrize("source", PINS)
def test_reduction_and_fuel_are_pinned(source, full, engine):
    pin = PINS[source][3:] if full else PINS[source][:3]
    fuel = Fuel(BUDGET)
    out = ENGINES[engine](_surface(source), full, fuel)
    assert pretty_term(out) == pin[1 if engine == "named" else 0]
    assert fuel.remaining == BUDGET - pin[2]


# A normal term whose spines have a variable head and lambda, projection
# and application arguments, and a redex that reduces to it.
ARGS = "(lam a . f a) (first p) (p (second p) (lam b . b))"
NORMAL = f"lam f . lam p . f {ARGS}"
REDEX = f"lam f . lam p . (lam g . g {ARGS}) f"


def _arguments(term, App, under):
    """The arguments of every application in ``term``, in a fixed order;
    ``under`` gives a binder's body."""
    out, todo = [], [term]
    while todo:
        t = todo.pop()
        if type(t) is App:
            out.append(t.arg)
            todo += [t.fun, t.arg]
        elif hasattr(t, "body"):
            todo.append(under(t))
        elif hasattr(t, "term"):
            todo.append(t.term)
    return out


@pytest.mark.parametrize("engine", ENGINES)
def test_normalizing_keeps_normal_arguments(engine):
    # The normal term comes back itself; and the normal form of the redex
    # holds the redex's own argument objects, though its spine is new.
    normal, redex = parse_term(NORMAL), parse_term(REDEX)
    if engine == "named":
        nf, App, under = oracles.nf_named, naive.App, lambda t: t.body.term
    else:
        normal, redex = _direct(normal), _direct(redex)
        App, under = terms.App, lambda t: t.body
        if engine == "free":
            normal, redex = lambda_pi.direct_to_free(normal), lambda_pi.direct_to_free(redex)
            App, under = lambda_pi.AppSig, lambda t: t.body.body
        nf = partial(terms.nf_direct if engine == "direct" else lambda_pi.nf_free, SCOPE)
    assert nf(normal) is normal
    spine = under(under(under(redex)).fun)
    arguments = _arguments(spine, App, under)
    assert len(arguments) == 6
    out = nf(redex)
    assert under(under(out)) is not spine
    assert all(a is b for a, b in zip(_arguments(out, App, under), arguments, strict=True))
