"""Result checks that do not rely on the program's own converters or oracles.

Every engine's result is read into one canonical form owned by this file:
nested tuples with de Bruijn indices,

    ("lam", body)   ("app", fun, arg)   ("var", index)   ("free", name)
    ("pair", left, right)   ("first", term)   ("second", term)

Two results are alpha-equivalent exactly when their canonical forms are
equal.  The readers below only look at the program's public term classes
(and the ``as_*`` views of the generic AST); they never call the program's
``to_debruijn``, ``from_foil_term`` or ``alpha_eq``.  Pi types and the
universe never occur in the benchmark's workloads, so a result holding one
is reported as a failure rather than read.
"""

from __future__ import annotations

import re


class CheckFailed(Exception):
    """A result failed one of the benchmark's checks."""


# --------------------------------------------------------------------------
# readers: program representation -> canonical form
# --------------------------------------------------------------------------


def _index(ctx: list, key: object) -> tuple:
    for depth, bound in enumerate(reversed(ctx)):
        if bound == key:
            return ("var", depth)
    return ("free", key)


def from_named(term) -> tuple:
    """Surface terms (``scopefoil.naive``): the named engine's results."""
    from scopefoil import naive

    def go(t, ctx):
        match t:
            case naive.Var(ident):
                return _index(ctx, ident.text)
            case naive.Lam(naive.PatternVar(ident), naive.ScopedTerm(body)):
                return ("lam", go(body, ctx + [ident.text]))
            case naive.App(fun, arg):
                return ("app", go(fun, ctx), go(arg, ctx))
            case naive.Pair(left, right):
                return ("pair", go(left, ctx), go(right, ctx))
            case naive.First(inner):
                return ("first", go(inner, ctx))
            case naive.Second(inner):
                return ("second", go(inner, ctx))
        raise CheckFailed(f"unexpected surface node {type(t).__name__}")

    return go(term, [])


def from_debruijn(term) -> tuple:
    """De Bruijn terms (``scopefoil.oracles``): the debruijn engine's results."""
    from scopefoil import oracles

    def go(t, depth):
        match t:
            case oracles.BVar(index):
                return ("var", index) if index < depth else ("free", index - depth)
            case oracles.FVar(ident):
                return ("free", ident.text)
            case oracles.DBLam(oracles.ShapeVar(), body):
                return ("lam", go(body, depth + 1))
            case oracles.DBApp(fun, arg):
                return ("app", go(fun, depth), go(arg, depth))
            case oracles.DBPair(left, right):
                return ("pair", go(left, depth), go(right, depth))
            case oracles.DBFirst(inner):
                return ("first", go(inner, depth))
            case oracles.DBSecond(inner):
                return ("second", go(inner, depth))
        raise CheckFailed(f"unexpected de Bruijn node {type(t).__name__}")

    return go(term, 0)


def from_direct(term) -> tuple:
    """Hand-written scoped terms (``scopefoil.terms``): foil_direct's results."""
    from scopefoil import names, patterns, terms

    def go(t, ctx):
        match t:
            case names.Var(name):
                return _index(ctx, name.raw)
            case terms.Lam(patterns.PatternVar(binder), body):
                return ("lam", go(body, ctx + [binder.raw]))
            case terms.App(fun, arg):
                return ("app", go(fun, ctx), go(arg, ctx))
            case terms.Pair(left, right):
                return ("pair", go(left, ctx), go(right, ctx))
            case terms.First(inner):
                return ("first", go(inner, ctx))
            case terms.Second(inner):
                return ("second", go(inner, ctx))
        raise CheckFailed(f"unexpected direct node {type(t).__name__}")

    return go(term, [])


def from_generic(term) -> tuple:
    """Generic-AST terms (``scopefoil.lambda_pi``): free_foil's and nbe's results."""
    from scopefoil import lambda_pi, names

    def go(t, ctx):
        if type(t) is names.Var:
            return _index(ctx, t.name.raw)
        if (lam := lambda_pi.as_lam(t)) is not None:
            binder, body = lam
            return ("lam", go(body, ctx + [binder.raw]))
        if (app := lambda_pi.as_app(t)) is not None:
            return ("app", go(app[0], ctx), go(app[1], ctx))
        if (pair := lambda_pi.as_pair(t)) is not None:
            return ("pair", go(pair[0], ctx), go(pair[1], ctx))
        if (inner := lambda_pi.as_first(t)) is not None:
            return ("first", go(inner, ctx))
        if (inner := lambda_pi.as_second(t)) is not None:
            return ("second", go(inner, ctx))
        raise CheckFailed(f"unexpected generic node {t!r:.80}")

    return go(term, [])


_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_']*)|(\S))")


def from_text(text: str) -> tuple:
    """A printed normal form, as ``scopefoil run`` writes it, read by a parser
    of this file's own (lambdas, applications, pairs and projections)."""
    tokens = [ident or symbol for ident, symbol in _TOKEN.findall(text)] + [""]
    at = 0

    def peek() -> str:
        return tokens[at]

    def take(expected: str | None = None) -> str:
        nonlocal at
        tok = tokens[at]
        if expected is not None and tok != expected:
            raise CheckFailed(f"expected {expected!r}, found {tok!r} in printed result")
        at += 1
        return tok

    def term(ctx):
        if peek() == "lam":
            take()
            name = take()
            take(".")
            return ("lam", term(ctx + [name]))
        acc = atom(ctx)
        while peek() not in ("", ")", ","):
            acc = ("app", acc, atom(ctx))
        return acc

    def atom(ctx):
        tok = peek()
        if tok in ("first", "second"):
            take()
            return (tok, atom(ctx))
        if tok == "(":
            take()
            inner = term(ctx)
            if peek() == ",":
                take()
                inner = ("pair", inner, term(ctx))
            take(")")
            return inner
        if tok == "lam":
            return term(ctx)
        if not tok or not (tok[0].isalpha()):
            raise CheckFailed(f"unexpected token {tok!r} in printed result")
        take()
        return _index(ctx, tok)

    out = term([])
    take("")
    return out


# --------------------------------------------------------------------------
# checks on canonical forms
# --------------------------------------------------------------------------


def check_closed_normal(canon: tuple) -> None:
    """Raise unless ``canon`` is closed and holds no beta or projection redex."""
    stack = [canon]
    while stack:
        node = stack.pop()
        tag = node[0]
        if tag == "free":
            raise CheckFailed(f"free variable {node[1]!r} in result")
        if tag == "var":
            continue
        if tag == "app" and node[1][0] == "lam":
            raise CheckFailed("beta redex left in result")
        if tag in ("first", "second") and node[1][0] == "pair":
            raise CheckFailed("projection redex left in result")
        stack.extend(node[1:])


def church_numeral(n: int) -> tuple:
    """The canonical form of the Church numeral ``n``."""
    body: tuple = ("var", 0)
    for _ in range(n):
        body = ("app", ("var", 1), body)
    return ("lam", ("lam", body))


def church_value(canon: tuple) -> int:
    """Decode a Church numeral ``lam f . lam x . f (... (f x))``."""
    if canon[0] != "lam" or canon[1][0] != "lam":
        raise CheckFailed("result is not a Church numeral")
    body = canon[1][1]
    n = 0
    while body[0] == "app" and body[1] == ("var", 1):
        n += 1
        body = body[2]
    if body != ("var", 0):
        raise CheckFailed("result is not a Church numeral")
    return n
