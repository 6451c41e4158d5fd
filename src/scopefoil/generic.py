"""Signature-generic scope-indexed syntax trees.

A language is described by its *signature classes*: plain data classes that
are the tree nodes themselves.  Each field holds either a term (same scope)
or a :class:`ScopedAST` (a term under a binder), and the code here tells
the two apart by the value it finds in the field, so a new constructor needs
no table, method or registration.  Given that, this module supplies the
operations every language shares — a single capture-avoiding substitution,
a scope checker and scope weakening — written once, from the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .names import (
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
from .patterns import Pattern, check_pattern_scope, with_pattern


@dataclass(frozen=True, slots=True)
class ScopedAST:
    """A subterm under a binder: a bare ``NameBinder`` for one variable, or
    a wildcard or pair pattern (never a top-level ``PatternVar``)."""

    binder: NameBinder | Pattern
    body: "AST"


# A tree is a ``Var`` or an instance of a signature class.
AST = Any


def children(ast: AST) -> list:
    """The field values of a signature node, in field order.

    Fields are read through the dataclass match arguments; a value without
    them is not a tree and raises ``TypeError``.  Callers handle ``Var``
    first.
    """
    try:
        fields = type(ast).__match_args__
    except AttributeError:
        raise TypeError(f"not a syntax tree: {ast!r}") from None
    return [getattr(ast, field) for field in fields]


def substitute(scope: Scope, subst: Subst, ast: AST) -> AST:
    """The one capture-avoiding substitution, for every signature.

    Variables are looked up (missing names map to themselves); each scoped
    child refreshes its binder against the ambient scope with the reuse
    rule and threads the extended substitution under it.  A bare binder
    takes the inline path; a pattern goes through :func:`with_pattern`.
    """
    if type(ast) is Var:
        return lookup_subst(subst, ast.name)
    new = []
    for child in children(ast):
        if type(child) is ScopedAST:
            binder = child.binder
            if type(binder) is NameBinder:
                binder2 = with_refreshed(scope, name_of(binder))
                subst2 = add_rename(subst, binder, name_of(binder2))
                scope2 = extend_scope(binder2, scope)
            else:
                binder2, subst2, scope2 = with_pattern(scope, binder, subst)
            new.append(ScopedAST(binder2, substitute(scope2, subst2, child.body)))
        else:
            new.append(substitute(scope, subst, child))
    return type(ast)(*new)


def check_scope(ast: AST, scope: Scope) -> None:
    """Debug checker: every free name in ``ast`` must be in ``scope``, and
    the binders of one pattern must be pairwise distinct."""
    if type(ast) is Var:
        if ast.name.raw not in scope:
            raise ScopeViolationError(f"name #{ast.name.raw} is not in {scope!r}")
        return
    for child in children(ast):
        if type(child) is ScopedAST:
            check_scope(child.body, check_pattern_scope(child.binder, scope))
        else:
            check_scope(child, scope)


def sink_ast(ast: AST, source: Scope | None = None, target: Scope | None = None) -> AST:
    """Transport a tree into an extended scope: representation identity.

    In debug mode, when a target scope is supplied, the tree is re-validated
    against it node by node.
    """
    if debug_scopes_enabled() and target is not None:
        check_scope(ast, target)
    return ast
