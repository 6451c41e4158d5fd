"""Conversions between string-named surface terms and scope-indexed terms.

``to_foil_term`` resolves identifiers innermost-first (shadowing works the
way you expect), allocates every binder fresh against the accumulated scope
— so its output is globally distinct and passes the debug scope checker —
and calls the supplied ``rename`` function for identifiers bound by neither
a binder nor the environment.

``from_foil_term`` forgets scope indices.  The default identifier scheme
maps raw name ``n`` to ``x{n}``.  BEWARE: this scheme knows nothing about
the identifiers the term had before ``to_foil_term``; if a term has free
names, printing it with the default scheme will rename them (e.g. a free
``y`` that entered as raw ``#0`` comes back as ``x0``).  Callers that care
must pass the inverse of the renaming they fed ``to_foil_term``.
"""

from __future__ import annotations

from typing import Callable

from . import naive, terms
from .names import Name, RawName, Scope, Var, fresh_binder, name_of
from .patterns import (
    Pattern,
    PatternPair,
    PatternVar,
    PatternWildcard,
    extend_scope_pattern,
)


class UnboundVariableError(Exception):
    def __init__(self, ident: naive.VarIdent):
        loc = f" at line {ident.loc[0]}, column {ident.loc[1]}" if ident.loc else ""
        self.message = f"unbound variable {ident.text!r}"
        super().__init__(f"{self.message}{loc}")
        self.ident = ident


class DuplicateBinderError(Exception):
    def __init__(self, ident: naive.VarIdent):
        loc = f" at line {ident.loc[0]}, column {ident.loc[1]}" if ident.loc else ""
        self.message = f"pattern binds {ident.text!r} twice"
        super().__init__(f"{self.message}{loc}")
        self.ident = ident


RenameFn = Callable[[naive.VarIdent], Name]
IdentFn = Callable[[RawName], naive.VarIdent]


def fail_on_free(ident: naive.VarIdent) -> Name:
    """The rename function for closed terms: any free identifier is an error."""
    raise UnboundVariableError(ident)


def rename_from_env(env: dict[str, Name]) -> RenameFn:
    """A rename function over a fixed identifier -> name environment."""

    def rename(ident: naive.VarIdent) -> Name:
        name = env.get(ident.text)
        if name is None:
            raise UnboundVariableError(ident)
        return name

    return rename


def to_foil_pattern(
    scope: Scope, pattern: naive.Pattern
) -> tuple[Pattern, dict[str, Name]]:
    """Convert a pattern, allocating binders left to right against ``scope``.

    Returns the scope-indexed pattern and the identifier -> name environment
    extension its body should be resolved under.
    """
    env: dict[str, Name] = {}

    def go(scope: Scope, p: naive.Pattern) -> tuple[Pattern, Scope]:
        match p:
            case naive.PatternWildcard():
                return PatternWildcard(), scope
            case naive.PatternVar(ident):
                if ident.text in env:
                    raise DuplicateBinderError(ident)
                binder = fresh_binder(scope)
                env[ident.text] = name_of(binder)
                return PatternVar(binder), scope.add(binder.raw)
            case naive.PatternPair(left, right):
                left2, scope2 = go(scope, left)
                right2, scope3 = go(scope2, right)
                return PatternPair(left2, right2), scope3
        raise TypeError(f"not a pattern: {p!r}")

    pattern2, _ = go(scope, pattern)
    return pattern2, env


def to_foil_term(rename: RenameFn, scope: Scope, term: naive.Term) -> terms.Term:
    """Convert a surface term to the scope-indexed direct representation.

    Identifiers resolve through one mutable environment: a binder's
    identifiers are set on the way into its body and the shadowed entries
    put back on the way out, so entering a binder never copies it.
    """
    env: dict[str, Name] = {}

    def under(
        scope: Scope, pattern: naive.Pattern, body: naive.Term
    ) -> tuple[Pattern, terms.Term]:
        pattern2, ext = to_foil_pattern(scope, pattern)
        saved = [(ident, env.get(ident)) for ident in ext]
        env.update(ext)
        body2 = go(extend_scope_pattern(pattern2, scope), body)
        for ident, old in saved:
            if old is None:
                del env[ident]
            else:
                env[ident] = old
        return pattern2, body2

    def go(scope: Scope, t: naive.Term) -> terms.Term:
        match t:
            case naive.Var(ident):
                name = env.get(ident.text)
                return Var(rename(ident) if name is None else name)
            case naive.Pair(left, right):
                return terms.Pair(go(scope, left), go(scope, right))
            case naive.First(inner):
                return terms.First(go(scope, inner))
            case naive.Second(inner):
                return terms.Second(go(scope, inner))
            case naive.App(fun, arg):
                return terms.App(go(scope, fun), go(scope, arg))
            case naive.Lam(pattern, naive.ScopedTerm(body)):
                return terms.Lam(*under(scope, pattern, body))
            case naive.Pi(pattern, domain, naive.ScopedTerm(codomain)):
                domain2 = go(scope, domain)
                pattern2, codomain2 = under(scope, pattern, codomain)
                return terms.Pi(pattern2, domain2, codomain2)
            case naive.Universe():
                return terms.Universe()
        raise TypeError(f"not a term: {t!r}")

    return go(scope, term)


def to_foil_closed(term: naive.Term) -> terms.Term:
    """Convert a closed term (free identifiers are an error)."""
    return to_foil_term(fail_on_free, Scope(), term)


def default_ident(raw: RawName) -> naive.VarIdent:
    """The default raw -> identifier scheme, ``n -> x{n}``.  See the module
    docstring for the free-variable caveat."""
    return naive.VarIdent(f"x{raw}")


def from_foil_pattern(raw_to_ident: IdentFn, pattern: Pattern) -> naive.Pattern:
    match pattern:
        case PatternWildcard():
            return naive.PatternWildcard()
        case PatternVar(binder):
            return naive.PatternVar(raw_to_ident(binder.raw))
        case PatternPair(left, right):
            return naive.PatternPair(
                from_foil_pattern(raw_to_ident, left),
                from_foil_pattern(raw_to_ident, right),
            )
    raise TypeError(f"not a pattern: {pattern!r}")


def from_foil_term(raw_to_ident: IdentFn, term: terms.Term) -> naive.Term:
    """Convert back to surface syntax by forgetting scope indices."""
    match term:
        case Var(name):
            return naive.Var(raw_to_ident(name.raw))
        case terms.Pair(left, right):
            return naive.Pair(
                from_foil_term(raw_to_ident, left), from_foil_term(raw_to_ident, right)
            )
        case terms.First(inner):
            return naive.First(from_foil_term(raw_to_ident, inner))
        case terms.Second(inner):
            return naive.Second(from_foil_term(raw_to_ident, inner))
        case terms.App(fun, arg):
            return naive.App(
                from_foil_term(raw_to_ident, fun), from_foil_term(raw_to_ident, arg)
            )
        case terms.Lam(pattern, body):
            return naive.Lam(
                from_foil_pattern(raw_to_ident, pattern),
                naive.ScopedTerm(from_foil_term(raw_to_ident, body)),
            )
        case terms.Pi(pattern, domain, codomain):
            return naive.Pi(
                from_foil_pattern(raw_to_ident, pattern),
                from_foil_term(raw_to_ident, domain),
                naive.ScopedTerm(from_foil_term(raw_to_ident, codomain)),
            )
        case terms.Universe():
            return naive.Universe()
    raise TypeError(f"not a term: {term!r}")
