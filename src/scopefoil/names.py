"""Scope-safe names, binders and substitutions.

The discipline implemented here is the stateless "rapier" style of
capture-avoiding substitution: every operation carries an explicit ``Scope``
(the set of raw names that may occur free), binders are *reused* when they do
not collide with the ambient scope and refreshed otherwise, and moving a term
into an extended scope (``sink``) costs nothing because the representation
does not change.

Static scope indices cannot be expressed in Python's type system, so the
scope-safety contract is enforced dynamically when the environment variable
``SCOPEFOIL_DEBUG_SCOPES=1`` is set (or :func:`set_debug_scopes` is called):
scope extensions assert distinctness, ``sink`` asserts that the target scope
is a superset of the source, and the term modules expose whole-term checkers
that re-validate membership node by node.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

# Raw names are plain machine integers (>= 0).  Everything else is a thin,
# immutable wrapper around them.
RawName = int


class ScopeViolationError(Exception):
    """A scope-safety invariant was broken (only raised in debug mode)."""


_debug = os.environ.get("SCOPEFOIL_DEBUG_SCOPES", "") == "1"


def debug_scopes_enabled() -> bool:
    return _debug


def set_debug_scopes(enabled: bool) -> None:
    """Toggle debug-mode scope assertions at runtime (used by tests)."""
    global _debug
    _debug = enabled


@dataclass(frozen=True, slots=True)
class Name:
    """A use of a name, valid in some scope."""

    raw: RawName


@dataclass(frozen=True, slots=True)
class NameBinder:
    """A binding occurrence introducing ``raw`` into an inner scope."""

    raw: RawName


@dataclass(frozen=True, slots=True)
class Var:
    """Variable node, shared by every term representation in this package.

    Keeping a single variable constructor lets a substitution fall back to
    the variable injection without being parameterized over the term type.
    """

    name: Name


class Scope:
    """An immutable set of raw names, stored as an int bitmask.

    Raw names are dense small integers (a fresh name is max+1), so bit
    ``raw`` of the mask records whether ``raw`` is in scope.  Membership is
    ``mask >> raw & 1``, extension is ``mask | 1 << raw`` and the maximum is
    ``mask.bit_length() - 1``: entering a binder never copies a member set.
    """

    __slots__ = ("_mask",)

    def __init__(self, raws: Iterable[RawName] = ()):
        mask = 0
        for raw in raws:
            mask |= 1 << raw
        self._mask = mask

    @property
    def members(self) -> frozenset[RawName]:
        return frozenset(self)

    @property
    def max_raw(self) -> RawName | None:
        return self._mask.bit_length() - 1 if self._mask else None

    def add(self, raw: RawName) -> "Scope":
        """Extension without a distinctness check (shadowing allowed).

        Used by the debug checkers, which must tolerate binders that shadow
        an outer raw name: substitution inserts argument terms verbatim, so
        its *output* may shadow even though every binder it creates is fresh.
        """
        new = Scope.__new__(Scope)
        new._mask = self._mask | 1 << raw
        return new

    def __contains__(self, raw: RawName) -> bool:
        return self._mask >> raw & 1 == 1

    def __iter__(self) -> Iterator[RawName]:
        """Members in increasing order."""
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scope):
            return NotImplemented
        return self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"Scope({{{', '.join(map(str, self))}}})"


def fresh_raw_name(scope: Scope) -> RawName:
    """Smallest-above-maximum freshness: 0 for the empty scope, else max+1."""
    return scope._mask.bit_length()


def fresh_binder(scope: Scope) -> NameBinder:
    return NameBinder(fresh_raw_name(scope))


def name_of(binder: NameBinder) -> Name:
    return Name(binder.raw)


def extend_scope(binder: NameBinder, scope: Scope) -> Scope:
    """Scope extended with ``binder``.

    In debug mode the binder must be distinct from the scope it extends;
    binders produced by :func:`fresh_binder` / :func:`with_refreshed` always
    are.
    """
    if _debug and binder.raw in scope:
        raise ScopeViolationError(
            f"binder #{binder.raw} already occurs in {scope!r}"
        )
    return scope.add(binder.raw)


def with_refreshed(scope: Scope, name: Name) -> NameBinder:
    """A binder for ``name`` that is safe against ``scope``.

    The name is reused exactly when it does not occur in the scope; only a
    genuine collision pays for a fresh name.  This reuse rule is what keeps
    substitution from renaming eagerly.
    """
    if name.raw in scope:
        return NameBinder(fresh_raw_name(scope))
    return NameBinder(name.raw)


def sink(value: Any, source: Scope | None = None, target: Scope | None = None) -> Any:
    """Transport a scope-indexed value into an extended scope.

    This is representation identity: the value is returned unchanged, byte
    for byte.  In debug mode, when both scopes are supplied, the target must
    extend the source.
    """
    if _debug and source is not None and target is not None:
        if source._mask & ~target._mask:
            raise ScopeViolationError(
                f"sink target {target!r} does not extend source {source!r}"
            )
    return value


# A substitution: a raw-name-keyed map with variable-injection fallback.
# Names missing from it map to themselves (as ``Var`` nodes), so the
# empty map is the identity substitution and renamings are ``Var`` entries.
# Substitutions are never mutated once built.
Subst = dict[RawName, Any]


def identity_subst() -> Subst:
    return {}


def lookup_subst(subst: Subst, name: Name) -> Any:
    hit = subst.get(name.raw)
    return Var(name) if hit is None else hit


def add_subst(subst: Subst, binder: NameBinder, expr: Any) -> Subst:
    """Substitution extended with ``binder -> expr``; overrides a stale entry."""
    env = dict(subst)
    env[binder.raw] = expr
    return env


def add_rename(subst: Subst, binder: NameBinder, name: Name) -> Subst:
    """Substitution extended with ``binder -> name``.

    A reused binder (``name`` is the binder's own raw name) with no stale
    entry for that raw already maps to itself, so the same substitution is
    returned without copying its map.
    """
    if name.raw == binder.raw and binder.raw not in subst:
        return subst
    return add_subst(subst, binder, Var(name))
