"""Patterns: bundles of binders introduced by one construct.

A pattern binds zero or more names at once (``_``, a variable, or a pair of
sub-patterns).  Scopes chain left to right: the right sub-pattern of a pair
is resolved in the scope already extended by the left one, which fixes the
order in which duplicate-free freshness is guaranteed.

The generic AST binds one variable with a bare :class:`NameBinder`, and the
direct AST with a :class:`PatternVar`; the engines of both handle that one
variable inline, and send wildcard and pair patterns through the functions
here.

The functions here dispatch with ``type`` tests, most frequent case first:
the engines call them at every binder they pass, and a class-pattern
``match`` costs about ten times as much per call.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .naive import node_class
from .names import (
    Name,
    NameBinder,
    Scope,
    ScopeViolationError,
    Subst,
    add_rename,
    enter,
    name_of,
)


@node_class
class PatternWildcard:
    """Binds nothing."""


@node_class
class PatternVar:
    binder: NameBinder


@node_class
class PatternPair:
    left: "Pattern"
    right: "Pattern"


Pattern = PatternWildcard | PatternVar | PatternPair


def names_of_pattern(pattern: Pattern) -> list[Name]:
    """Names introduced by the pattern, left to right."""
    kind = type(pattern)
    if kind is PatternVar:
        return [name_of(pattern.binder)]
    if kind is PatternPair:
        return names_of_pattern(pattern.left) + names_of_pattern(pattern.right)
    if kind is PatternWildcard:
        return []
    raise TypeError(f"not a pattern: {pattern!r}")


def pattern_mask(pattern: Pattern | NameBinder) -> int:
    """Bit ``raw`` set for each raw name the pattern (or bare binder) binds."""
    kind = type(pattern)
    if kind is PatternVar:
        return 1 << pattern.binder.raw
    if kind is NameBinder:
        return 1 << pattern.raw
    if kind is PatternPair:
        return pattern_mask(pattern.left) | pattern_mask(pattern.right)
    if kind is PatternWildcard:
        return 0
    raise TypeError(f"not a pattern: {pattern!r}")


def with_pattern(
    scope: Scope, pattern: Pattern, subst: Subst
) -> tuple[Pattern, Subst, Scope]:
    """Refresh a pattern against ``scope``, threading a substitution under it.

    Each binder is entered with the reuse rule (:func:`enter`), the
    substitution gains the old-binder -> new-name renaming (unless
    :func:`add_rename` finds a reused binder that already maps to itself),
    and the scope gains the new binder.  Returns the pattern, the
    substitution to apply to the pattern's body, and the body's scope; a
    pattern whose binders are all reused comes back as the same object.
    """
    kind = type(pattern)
    if kind is PatternVar:
        binder = pattern.binder
        binder2, scope2 = enter(scope, binder)
        subst2 = add_rename(subst, binder, name_of(binder2))
        return (pattern if binder2 is binder else PatternVar(binder2)), subst2, scope2
    if kind is PatternPair:
        left, right = pattern.left, pattern.right
        left2, subst2, scope2 = with_pattern(scope, left, subst)
        right2, subst3, scope3 = with_pattern(scope2, right, subst2)
        if left2 is left and right2 is right:
            return pattern, subst3, scope3
        return PatternPair(left2, right2), subst3, scope3
    if kind is PatternWildcard:
        return pattern, subst, scope
    raise TypeError(f"not a pattern: {pattern!r}")


def beta_bindings(
    pattern: Pattern | NameBinder,
    arg: Any,
    first: Callable[[Any], Any],
    second: Callable[[Any], Any],
) -> Subst:
    """The substitution that applying a ``pattern`` binder to ``arg`` binds.

    Binding is lazy: a pair pattern binds its parts to ``first(arg)`` and
    ``second(arg)``, so reduction never forces the argument to be a literal
    pair.  Each engine passes its own projection constructors.
    """
    kind = type(pattern)
    if kind is NameBinder:
        return {pattern.raw: arg}
    if kind is PatternVar:
        return {pattern.binder.raw: arg}
    if kind is PatternPair:
        left = beta_bindings(pattern.left, first(arg), first, second)
        return left | beta_bindings(pattern.right, second(arg), first, second)
    if kind is PatternWildcard:
        return {}
    raise TypeError(f"not a pattern: {pattern!r}")


def check_pattern_scope(pattern: Pattern | NameBinder, scope: Scope) -> Scope:
    """Scope checker: the scope of the pattern's body.

    Binders may shadow outer names (substitution outputs legitimately do),
    but binders within a single pattern must be pairwise distinct.
    """
    names = [pattern] if type(pattern) is NameBinder else names_of_pattern(pattern)
    raws = [name.raw for name in names]
    for i, raw in enumerate(raws):
        if raw in raws[:i]:
            raise ScopeViolationError(f"pattern binds #{raw} twice")
        scope = scope.add(raw)
    return scope
