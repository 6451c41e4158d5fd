"""Signature-generic scope-indexed syntax trees.

A language is described by *signature nodes*: plain data classes whose
children are either terms (same scope) or scoped terms (one binder deeper),
and which know how to map a function over each kind of child
(:func:`map_node`).  Given that, this module supplies the two constructors
every language shares — variables and nodes — and a single capture-avoiding
substitution that works for all of them.

Signatures compose as sums (:class:`InL` / :class:`InR`), so a language can
be assembled from independent fragments without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, Union

from .names import (
    Name,
    NameBinder,
    Scope,
    ScopeViolationError,
    Subst,
    Var,
    add_rename,
    debug_scopes_enabled,
    extend_scope,
    lookup_subst,
    name_of,
    with_refreshed,
)


@dataclass(frozen=True, slots=True)
class ScopedAST:
    """A subterm under one extra binder."""

    binder: NameBinder
    body: "AST"


class SignatureNode(Protocol):
    def map_node(
        self,
        f_scoped: Callable[[ScopedAST], ScopedAST],
        f_term: Callable[["AST"], "AST"],
    ) -> "SignatureNode": ...


@dataclass(frozen=True, slots=True)
class Node:
    """A signature node embedded into the syntax tree."""

    sig: Any


AST = Union[Var, Node]


def map_node(
    node: SignatureNode,
    f_scoped: Callable[[ScopedAST], ScopedAST],
    f_term: Callable[[AST], AST],
) -> SignatureNode:
    """Apply ``f_scoped`` to every scoped child and ``f_term`` to every term
    child, preserving the node's shape (the signature functor contract)."""
    return node.map_node(f_scoped, f_term)


@dataclass(frozen=True, slots=True)
class InL:
    """Left injection of a signature sum."""

    node: Any

    def map_node(self, f_scoped, f_term):  # type: ignore[no-untyped-def]
        return InL(self.node.map_node(f_scoped, f_term))


@dataclass(frozen=True, slots=True)
class InR:
    """Right injection of a signature sum."""

    node: Any

    def map_node(self, f_scoped, f_term):  # type: ignore[no-untyped-def]
        return InR(self.node.map_node(f_scoped, f_term))


def substitute(scope: Scope, subst: Subst, ast: AST) -> AST:
    """The one capture-avoiding substitution, derived from ``map_node``.

    Variables are looked up (missing names map to themselves); each scoped
    child refreshes its binder against the ambient scope with the reuse
    rule and threads the extended substitution under it.
    """
    match ast:
        case Var(name):
            return lookup_subst(subst, name)
        case Node(sig):

            def f_term(t: AST) -> AST:
                return substitute(scope, subst, t)

            def f_scoped(scoped: ScopedAST) -> ScopedAST:
                binder2 = with_refreshed(scope, name_of(scoped.binder))
                subst2 = add_rename(subst, scoped.binder, name_of(binder2))
                scope2 = extend_scope(binder2, scope)
                return ScopedAST(binder2, substitute(scope2, subst2, scoped.body))

            return Node(sig.map_node(f_scoped, f_term))
    raise TypeError(f"not a syntax tree: {ast!r}")


def check_scope(ast: AST, scope: Scope) -> None:
    """Debug checker: every free name in ``ast`` must be in ``scope``."""
    match ast:
        case Var(Name(raw)):
            if raw not in scope:
                raise ScopeViolationError(f"name #{raw} is not in {scope!r}")
        case Node(sig):

            def f_term(t: AST) -> AST:
                check_scope(t, scope)
                return t

            def f_scoped(scoped: ScopedAST) -> ScopedAST:
                check_scope(scoped.body, scope.add(scoped.binder.raw))
                return scoped

            sig.map_node(f_scoped, f_term)
        case _:
            raise TypeError(f"not a syntax tree: {ast!r}")


def sink_ast(ast: AST, source: Scope | None = None, target: Scope | None = None) -> AST:
    """Transport a tree into an extended scope: representation identity.

    In debug mode, when a target scope is supplied, the tree is re-validated
    against it node by node.
    """
    if debug_scopes_enabled() and target is not None:
        check_scope(ast, target)
    return ast
