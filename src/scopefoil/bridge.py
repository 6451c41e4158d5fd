"""Conversions between string-named surface terms and scope-indexed terms.

Both walks are derived from the surface classes' fields through
:data:`scopefoil.lambda_pi.CONSTRUCTORS`: a node's pattern field binds the
bodies in its ``naive.ScopedTerm`` fields, and every other field is a term
in the node's own scope.  Only variables and patterns are converted by hand.

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
from .generic import PATTERN, SCOPED, children
from .lambda_pi import BY_DIRECT, BY_NAIVE, constructor
from .names import Name, RawName, Scope, Var, fresh_binder, name_of, set_mask
from .patterns import Pattern, PatternPair, PatternVar, PatternWildcard, pattern_mask


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
) -> tuple[Pattern, dict[str, Name], Scope]:
    """Convert a pattern, allocating binders left to right against ``scope``.

    Returns the scope-indexed pattern, the identifier -> name environment
    extension its body should be resolved under, and the body's scope.
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

    pattern2, body_scope = go(scope, pattern)
    return pattern2, env, body_scope


def to_foil_term(rename: RenameFn, scope: Scope, term: naive.Term) -> terms.Term:
    """Convert a surface term to the scope-indexed direct representation.

    Identifiers resolve through one mutable environment: a pattern's
    identifiers are set on the way into each body under it and the shadowed
    entries put back on the way out, so entering a binder never copies it.
    Every node built records its free-name mask.
    """
    env: dict[str, Name] = {}

    def go(scope: Scope, t: naive.Term) -> terms.Term:
        if type(t) is naive.Var:
            name = env.get(t.ident.text)
            return Var(rename(t.ident) if name is None else name)
        con = constructor(BY_NAIVE, t)
        new = []
        mask = 0
        for role, field in zip(con.roles, children(t)):
            if role is PATTERN:
                pattern, ext, body_scope = to_foil_pattern(scope, field)
                bound = pattern_mask(pattern)
                new.append(pattern)
            elif role is SCOPED:
                saved = [(ident, env.get(ident)) for ident in ext]
                env.update(ext)
                body = go(body_scope, field.term)
                mask |= (1 << body.name.raw if type(body) is Var else body.fv) & ~bound
                new.append(body)
                for ident, old in saved:
                    if old is None:
                        del env[ident]
                    else:
                        env[ident] = old
            else:
                child = go(scope, field)
                mask |= 1 << child.name.raw if type(child) is Var else child.fv
                new.append(child)
        node = con.direct(*new)
        set_mask(node, mask)
        return node

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
    if type(term) is Var:
        return naive.Var(raw_to_ident(term.name.raw))
    con = constructor(BY_DIRECT, term)
    new = []
    for role, field in zip(con.roles, children(term)):
        if role is PATTERN:
            new.append(from_foil_pattern(raw_to_ident, field))
        elif role is SCOPED:
            new.append(naive.ScopedTerm(from_foil_term(raw_to_ident, field)))
        else:
            new.append(from_foil_term(raw_to_ident, field))
    return con.naive(*new)
