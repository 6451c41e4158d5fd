"""Scope-safe names, binders and substitutions.

The discipline implemented here is the stateless "rapier" style of
capture-avoiding substitution: every operation carries an explicit ``Scope``
(the set of raw names that may occur free), binders are *reused* when they do
not collide with the ambient scope and refreshed otherwise, and moving a term
into an extended scope (``sink``) costs nothing because the representation
does not change.  The engines enter every binder with one call, :func:`enter`,
which applies the reuse rule and extends the scope's bitmask; a reused binder
comes back as the same object, and only a collision calls
:func:`with_refreshed` for a fresh name.

Static scope indices cannot be expressed in Python's type system, so the
scope-safety contract is checked at run time instead: ``sink`` rejects a
target scope that does not extend the source, and the term modules expose
whole-term checkers that re-validate membership node by node.  The binder
:func:`enter` returns is never in scope, so entering one needs no check.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .naive import node_class

# Raw names are plain machine integers (>= 0).  Everything else is a thin,
# immutable wrapper around them.
RawName = int


class ScopeViolationError(Exception):
    """A scope-safety invariant was broken."""


@node_class
class Name:
    """A use of a name, valid in some scope."""

    raw: RawName


@node_class
class NameBinder:
    """A binding occurrence introducing ``raw`` into an inner scope."""

    raw: RawName


@node_class
class Var:
    """Variable node, shared by every term representation in this package.

    Keeping a single variable constructor lets a substitution fall back to
    the variable injection without being parameterized over the term type.
    """

    name: Name


class Node:
    """Base of the compound nodes of the direct and generic trees.

    Its one slot, ``fv``, holds a free-name mask recorded by the code that
    built the node from already-visited children: an int like ``Scope``'s,
    with bit ``raw`` set when ``raw`` may occur free.  It is not a dataclass
    field, so matching, equality, hashing, ``repr`` and the encoder never
    see it.  A node built without one reads -1 (every name may be free), and
    a mask recorded over such a child is negative too; only a non-negative
    mask is exact, and only it lets substitution skip the node.
    """

    __slots__ = ("fv",)


# Records a node's mask through the slot's own setter, which a frozen
# dataclass does not intercept; a class without the slot raises TypeError.
set_mask = Node.fv.__set__


def free_mask(t: Any) -> int:
    """The free-name mask of a tree: ``1 << raw`` for a variable, the
    recorded mask of a node, or -1 where none was recorded."""
    if type(t) is Var:
        return 1 << t.name.raw
    return getattr(t, "fv", -1)


def masked(cls: type) -> Callable[[Any], Any]:
    """The one-child constructor ``cls`` recording its child's mask in the
    node: the projections a pair-pattern beta binds its parts to."""

    def build(child: Any) -> Any:
        node = cls(child)
        set_mask(node, free_mask(child))
        return node

    return build


def check_mask(node: Any, free: int) -> None:
    """Scope checker: a node's recorded mask equals ``free``, the mask of
    its free names found by a plain walk, or, if negative, covers it."""
    fv = getattr(node, "fv", -1)
    if fv >= 0 and fv != free or free & ~fv:
        raise ScopeViolationError(
            f"{type(node).__name__} records free-name mask {fv:#x}, not {free:#x}"
        )


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

    def add(self, raw: RawName) -> "Scope":
        """Extension without a distinctness check (shadowing allowed).

        Used by the scope checkers, which must tolerate binders that shadow
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


def name_of(binder: NameBinder) -> Name:
    return Name(binder.raw)


def with_refreshed(scope: Scope, name: Name) -> NameBinder:
    """A binder for ``name`` that is safe against ``scope``.

    The name is reused exactly when it does not occur in the scope; only a
    genuine collision pays for a fresh name.  This reuse rule is what keeps
    substitution from renaming eagerly.
    """
    if name.raw in scope:
        return NameBinder(fresh_raw_name(scope))
    return NameBinder(name.raw)


def enter(scope: Scope, binder: NameBinder) -> tuple[NameBinder, Scope]:
    """Enter ``binder`` from ``scope``: the binder to use and the inner scope.

    The one step every engine takes at a binder: the reuse rule of
    :func:`with_refreshed` and the extension of the scope by the binder it
    chose, in one call.  A binder that does not collide comes back as the same
    object; a colliding one is replaced by :func:`with_refreshed`'s fresh
    binder, so ``with_refreshed`` runs only on a collision.  Either way the
    returned binder is not in ``scope``, so there is no distinctness left to
    check.
    """
    mask = scope._mask
    raw = binder.raw
    if mask >> raw & 1:
        binder = with_refreshed(scope, Name(raw))
        raw = binder.raw
    inner = Scope.__new__(Scope)
    inner._mask = mask | 1 << raw
    return binder, inner


def sink(value: Any, source: Scope | None = None, target: Scope | None = None) -> Any:
    """Transport a scope-indexed value into an extended scope.

    This is representation identity: the value (a direct or a generic tree)
    is returned unchanged, byte for byte.  When both scopes are supplied,
    the target must extend the source.
    """
    if source is not None and target is not None and source._mask & ~target._mask:
        raise ScopeViolationError(
            f"sink target {target!r} does not extend source {source!r}"
        )
    return value


# A substitution: a raw-name-keyed map with variable-injection fallback.
# Names missing from it map to themselves (``subst.get(raw, var)`` returns
# the variable itself), so the empty map is the identity substitution and
# renamings are ``Var`` entries.
# Substitutions are never mutated once built.
Subst = dict[RawName, Any]


def identity_subst() -> Subst:
    return {}


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
