"""Signature-generic scope-indexed syntax trees.

A language is described by its *signature classes*: plain data classes that
are the tree nodes themselves.  Each field holds either a term (same scope)
or a :class:`ScopedAST` (a term under a binder), and the code here tells
the two apart by the value it finds in the field, so a new constructor needs
no table, method or registration.  Given that, this module supplies the
operations every language shares — a single capture-avoiding substitution
and a scope checker, written once, from the fields — and :func:`derive`,
which generates node classes from a surface grammar.  The substitution's
walk is compiled once per class, when the class is first substituted into,
from one source template and the class's fields (:func:`compile_walk`), so
it reads each field by name with no loop over them; :mod:`scopefoil.lambda_pi`
compiles its congruence step the same way.  Scope weakening is
:func:`scopefoil.names.sink`, the identity on every tree.
"""

from __future__ import annotations

import re
from operator import attrgetter
from string import Template
from textwrap import indent
from types import CodeType
from typing import Any, Callable, get_type_hints

from . import naive
from .names import (
    Name,
    NameBinder,
    Node,
    Scope,
    ScopeViolationError,
    Subst,
    Var,
    add_subst,
    check_mask,
    enter,
    set_mask,
)
from .patterns import Pattern, check_pattern_scope, pattern_mask, with_pattern


@naive.node_class
class ScopedAST:
    """A subterm under a binder: a bare ``NameBinder`` for one variable, or
    a wildcard or pair pattern (never a top-level ``PatternVar``).  It
    records no mask: the node that holds it records the body's mask less
    the bound names."""

    binder: NameBinder | Pattern
    body: "AST"


# A tree is a ``Var`` or an instance of a signature class.
AST = Any


# The roles a surface field can play: the node's binding pattern, a body in
# the pattern's scope, or a term in the node's own scope.
PATTERN, SCOPED, TERM = "pattern", "scoped", "term"


@naive.node_class
class Constructor:
    """One constructor in its surface, direct and generic classes: the role
    of each surface (and direct) field, and the position of the pattern,
    which precedes the bodies under it.  The generic class drops the
    pattern field; each scoped field's :class:`ScopedAST` holds its binder.
    """

    naive: type
    direct: type
    free: type
    roles: tuple[str, ...]
    pattern: int | None


def derive(surface: type, direct_module: str, free_module: str) -> Constructor:
    """The direct and generic classes of one surface constructor.

    A ``naive.Pattern`` field is the node's pattern, a ``naive.ScopedTerm``
    field a body in its scope, and any other field a term.  The direct class
    ``X`` keeps every field; the generic class ``XSig`` drops the pattern and
    holds each body as a :class:`ScopedAST`.  Both are frozen, slotted
    :class:`Node` dataclasses of the named module, which must bind them under
    their names.  Scoped fields need the one pattern field before them, and a
    pattern needs a scoped field: anything else is a ``TypeError``.
    """
    name, fields = surface.__name__, surface.__match_args__
    hints = get_type_hints(surface)
    roles = tuple(
        PATTERN if hints[field] == naive.Pattern
        else SCOPED if hints[field] is naive.ScopedTerm
        else TERM
        for field in fields
    )
    pattern = roles.index(PATTERN) if PATTERN in roles else None
    # the conversions read a scoped field's binder from the pattern before it
    if roles.count(PATTERN) != (SCOPED in roles) or SCOPED in roles[:pattern]:
        raise TypeError(f"{name} needs one pattern field before its scoped fields")
    pairs = list(zip(fields, roles))
    direct = [(f, Pattern if r is PATTERN else AST) for f, r in pairs]
    free = [(f, AST if r is TERM else ScopedAST) for f, r in pairs if r is not PATTERN]
    return Constructor(
        surface,
        _node_class(name, direct, direct_module),
        _node_class(name + "Sig", free, free_module),
        roles,
        pattern,
    )


def _node_class(name: str, fields: list, module: str) -> type:
    namespace = {"__annotations__": dict(fields), "__module__": module}
    return naive.node_class(type(name, (Node,), namespace))


def constructor(table: dict[type, Constructor], term: object) -> Constructor:
    """The record ``table`` keeps for the class of ``term``; a value of
    any other class is not a term and raises ``TypeError``."""
    con = table.get(type(term))
    if con is None:
        raise TypeError(f"not a term: {term!r}")
    return con


_FIELD_GETTERS: dict[type, Callable[[AST], tuple]] = {}


def children(ast: AST) -> tuple:
    """The field values of a signature node, in field order.

    Fields are read through one getter per class, built from the dataclass
    match arguments the first time the class is seen; a value without them
    is not a tree and raises ``TypeError``.  Callers handle ``Var`` first.
    """
    getter = _FIELD_GETTERS.get(type(ast))
    if getter is None:
        getter = _FIELD_GETTERS[type(ast)] = _field_getter(ast)
    return getter(ast)


def _field_getter(ast: AST) -> Callable[[AST], tuple]:
    try:
        fields = type(ast).__match_args__
    except AttributeError:
        raise TypeError(f"not a syntax tree: {ast!r}") from None
    if len(fields) > 1:
        return attrgetter(*fields)  # a tuple of the values
    if fields:
        one = attrgetter(*fields)
        return lambda ast: (one(ast),)
    return lambda ast: ()


def substitute(scope: Scope, subst: Subst, ast: AST) -> AST:
    """The one capture-avoiding substitution, for every signature.

    Variables are looked up (a name outside the domain comes back as the
    same ``Var``), and a node whose recorded free-name mask misses every
    key of ``subst`` comes back as it is.  Otherwise the walk compiled for
    the node's class from :data:`_SUBSTITUTE` rebuilds it: each scoped
    child enters its binder from the ambient scope with the reuse rule
    (:func:`~scopefoil.names.enter`) and threads the extended substitution
    under it; a bare binder takes the inline path, a pattern goes through
    :func:`with_pattern`.  Every signature node built here records its mask.
    """
    if type(ast) is Var:
        return subst.get(ast.name.raw, ast)
    dom = _domain(subst)
    fv = getattr(ast, "fv", -1)
    if fv >= 0 and not fv & dom:
        return ast
    return _SUBSTITUTES[type(ast)](scope, subst, dom, ast)


def _domain(subst: Subst) -> int:
    dom = 0
    for raw in subst:
        dom |= 1 << raw
    return dom


class Compiled(dict):
    """One walk per signature class, built by ``build(cls)`` the first time
    the class is looked up; a class that ``build`` refuses is not cached."""

    def __init__(self, build: Callable[[type], Callable]):
        super().__init__()
        self.build = build

    def __missing__(self, cls: type) -> Callable:
        walk = self[cls] = self.build(cls)
        return walk


_WALK_CODE: dict[str, CodeType] = {}


def compile_walk(
    cls: type,
    template: str,
    namespace: dict,
    /,
    head: str = "",
    roles: tuple[str, ...] = (),
    **closure: object,
) -> Callable:
    """The walk ``template`` unrolled over the fields of ``cls``.

    The template is a function whose body holds a block between the lines
    ``# each field`` and ``# end``; the block is repeated once per field,
    with ``$i`` its position, ``$field`` its name and ``$head`` whether that
    name is ``head``, and ``$args`` and ``$fvs`` after it become
    ``c0, c1, ...`` and ``fv0 | fv1 | ...`` (or ``0``).  ``roles`` gives each
    field's role (each is a term where it is not given).  A line ``# when``
    followed by roles starts a part of the block that a field gets only if
    its role is one of them, up to the next such line; in ``$args`` the
    pattern field's value is ``pat``, ``$terms`` lists the other fields'
    values alone, and ``$fvs`` has no ``fv`` of the pattern.  Only the parts
    a field takes are compiled, which halves the compiling that every new
    process pays for the walks it uses.  The function runs in
    ``namespace``, a module's globals, and closes over ``closure``.  The
    source names no class, so classes whose fields share their names share
    one code object.  Each source is compiled under a file name of its own
    beside the module's, its text registered for tracebacks
    (:func:`naive.compile_generated`): cProfile keys a function by file,
    first line and name, so each walk's calls and time are counted in the
    module, under the template's name, and no two walks share a key.  A
    value without match arguments is not a tree and raises ``TypeError``.
    """
    try:
        fields = cls.__match_args__
    except AttributeError:
        raise TypeError(f"not a syntax tree: a {cls.__name__}") from None
    roles = roles or (TERM,) * len(fields)
    prologue, rest = template.split("    # each field\n")
    block, tail = rest.split("    # end\n")
    common, *parts = re.split(r"^    # when ([a-z ]+)\n", block, flags=re.M)
    each = {
        role: Template(
            common + "".join(p for when, p in zip(parts[::2], parts[1::2]) if role in when.split())
        ).substitute
        for role in (PATTERN, SCOPED, TERM)
    }
    terms = [i for i, role in enumerate(roles) if role is not PATTERN]
    source = (
        prologue
        + "".join(
            each[role](i=i, field=f, head=f == head)
            for i, (f, role) in enumerate(zip(fields, roles, strict=True))
        )
        + Template(tail).substitute(
            args=", ".join("pat" if role is PATTERN else f"c{i}" for i, role in enumerate(roles)),
            terms=", ".join(f"c{i}" for i in terms),
            fvs=" | ".join(f"fv{i}" for i in terms) or "0",
        )
    )
    source = f"def __create__({', '.join(closure)}):\n{indent(source, '    ')}"
    source += f"    return {prologue.removeprefix('def ').split('(')[0]}\n"
    code = _WALK_CODE.get(source)
    if code is None:
        code = _WALK_CODE[source] = naive.compile_generated(source, namespace["__file__"])
    scratch: dict[str, Callable] = {}
    exec(code, namespace, scratch)
    return scratch["__create__"](**closure)


def _ignore_mask(node: AST, mask: int) -> None:
    """A class without the ``Node`` base has no slot for its mask."""


# The substitution walk of one signature class: ``substitute`` after the
# shortcut, with ``dom`` the mask of ``subst``'s keys.  Each field tells a
# scoped child from a term by its value; a variable is looked up inline,
# and a node goes straight to its class's walk unless its mask lets it be
# skipped.  The block between ``# each field`` and ``# end`` is repeated
# for each field (:func:`compile_walk`); the walk reads this module's
# names, ``enter``, ``with_pattern`` and the rest, as its globals.
_SUBSTITUTE = """\
def substitute(scope, subst, dom, ast):
    # each field
    c$i = ast.$field
    kind = type(c$i)
    if kind is Var:
        raw = c$i.name.raw
        if raw in subst:
            c$i = subst[raw]
            fv$i = 1 << c$i.name.raw if type(c$i) is Var else getattr(c$i, "fv", -1)
        else:
            fv$i = 1 << raw
    elif kind is ScopedAST:
        binder = c$i.binder
        if type(binder) is NameBinder:
            binder2, scope2 = enter(scope, binder)
            raw2 = binder2.raw
            if binder2 is binder and raw2 not in subst:
                subst2, dom2 = subst, dom  # a reused binder maps to itself
            else:
                subst2 = add_subst(subst, binder, Var(Name(raw2)))
                dom2 = dom | 1 << binder.raw
            bound = 1 << raw2
        else:
            binder2, subst2, scope2 = with_pattern(scope, binder, subst)
            dom2 = _domain(subst2)
            bound = pattern_mask(binder2)
        body = c$i.body
        kind = type(body)
        if kind is Var:
            raw = body.name.raw
            if raw in subst2:
                body = subst2[raw]
                fv = 1 << body.name.raw if type(body) is Var else getattr(body, "fv", -1)
            else:
                fv = 1 << raw
        else:
            fv = getattr(body, "fv", -1)
            if fv < 0 or fv & dom2:
                body = _SUBSTITUTES[kind](scope2, subst2, dom2, body)
                fv = getattr(body, "fv", -1)
        c$i = ScopedAST(binder2, body)
        fv$i = fv - (fv & bound)
    else:
        fv$i = getattr(c$i, "fv", -1)
        if fv$i < 0 or fv$i & dom:
            c$i = _SUBSTITUTES[kind](scope, subst, dom, c$i)
            fv$i = getattr(c$i, "fv", -1)
    # end
    node = cls($args)
    record(node, $fvs)
    return node
"""

_SUBSTITUTES = Compiled(
    lambda cls: compile_walk(
        cls,
        _SUBSTITUTE,
        globals(),
        cls=cls,
        record=set_mask if issubclass(cls, Node) else _ignore_mask,
    )
)


def check_scope(ast: AST, scope: Scope) -> int:
    """Scope checker: every free name in ``ast`` must be in ``scope``, the
    binders of one pattern must be pairwise distinct, and every node's
    recorded free-name mask must be exact.  Returns the free-name mask of
    ``ast``."""
    if type(ast) is Var:
        if ast.name.raw not in scope:
            raise ScopeViolationError(f"name #{ast.name.raw} is not in {scope!r}")
        return 1 << ast.name.raw
    mask = 0
    for child in children(ast):
        if type(child) is ScopedAST:
            body = check_scope(child.body, check_pattern_scope(child.binder, scope))
            fv = body - (body & pattern_mask(child.binder))
        else:
            fv = check_scope(child, scope)
        mask |= fv
    check_mask(ast, mask)
    return mask

