"""Patterns: bundles of binders introduced by one construct.

A pattern binds zero or more names at once (``_``, a variable, or a pair of
sub-patterns).  Scopes chain left to right: the right sub-pattern of a pair
is resolved in the scope already extended by the left one, which fixes the
order in which duplicate-free freshness is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .names import (
    Name,
    NameBinder,
    Scope,
    Subst,
    add_rename,
    extend_scope,
    name_of,
    with_refreshed,
)


@dataclass(frozen=True, slots=True)
class PatternWildcard:
    """Binds nothing."""


@dataclass(frozen=True, slots=True)
class PatternVar:
    binder: NameBinder


@dataclass(frozen=True, slots=True)
class PatternPair:
    left: "Pattern"
    right: "Pattern"


Pattern = Union[PatternWildcard, PatternVar, PatternPair]


def names_of_pattern(pattern: Pattern) -> list[Name]:
    """Names introduced by the pattern, left to right."""
    out: list[Name] = []

    def walk(p: Pattern) -> None:
        match p:
            case PatternWildcard():
                pass
            case PatternVar(binder):
                out.append(name_of(binder))
            case PatternPair(left, right):
                walk(left)
                walk(right)

    walk(pattern)
    return out


def extend_scope_pattern(pattern: Pattern, scope: Scope) -> Scope:
    """Scope extended by every binder of the pattern, left to right."""
    match pattern:
        case PatternWildcard():
            return scope
        case PatternVar(binder):
            return extend_scope(binder, scope)
        case PatternPair(left, right):
            return extend_scope_pattern(right, extend_scope_pattern(left, scope))
    raise TypeError(f"not a pattern: {pattern!r}")


def with_pattern(
    scope: Scope, pattern: Pattern, subst: Subst
) -> tuple[Pattern, Subst, Scope]:
    """Refresh a pattern against ``scope``, threading a substitution under it.

    Each binder is refreshed with the reuse rule (:func:`with_refreshed`),
    the substitution gains the old-binder -> new-name renaming (unless
    :func:`add_rename` finds a reused binder that already maps to itself),
    and the scope gains the new binder.  Returns the rebuilt pattern, the
    substitution to apply to the pattern's body, and the body's scope.
    """
    match pattern:
        case PatternWildcard():
            return pattern, subst, scope
        case PatternVar(binder):
            binder2 = with_refreshed(scope, name_of(binder))
            subst2 = add_rename(subst, binder, name_of(binder2))
            scope2 = extend_scope(binder2, scope)
            return PatternVar(binder2), subst2, scope2
        case PatternPair(left, right):
            left2, subst2, scope2 = with_pattern(scope, left, subst)
            right2, subst3, scope3 = with_pattern(scope2, right, subst2)
            return PatternPair(left2, right2), subst3, scope3
    raise TypeError(f"not a pattern: {pattern!r}")
