"""Conversions between string-named surface terms and scope-indexed terms.

The walks are derived from the surface classes' fields through
:data:`scopefoil.lambda_pi.CONSTRUCTORS`: a node's pattern field binds the
bodies in its ``naive.ScopedTerm`` fields, and every other field is a term
in the node's own scope.  Only variables and patterns are converted by hand.

``to_free_term`` is the one walk from surface syntax: it resolves
identifiers innermost-first (shadowing works the way you expect), allocates
every binder fresh against the accumulated scope — so its output is
globally distinct and passes the scope checkers — and calls the supplied
``rename`` function for identifiers bound by neither a binder nor the
environment.  ``to_foil_term`` is ``free_to_direct`` of it.
``from_foil_term`` is the one walk back, forgetting scope indices.  It reads
either tree, telling a field apart by its value: a generic node's
``ScopedAST`` holds its binder, a direct node's pattern is a field of its own.
Neither tree is converted to the other on the way out.

The default identifier scheme maps raw name ``n`` to ``x{n}``.  BEWARE: this
scheme knows nothing about the identifiers the term had before
``to_foil_term``; if a term has free names, printing it with the default
scheme will rename them (e.g. a free ``y`` that entered as raw ``#0`` comes
back as ``x0``).  Callers that care must pass the inverse of the renaming
they fed ``to_foil_term``.
"""

from __future__ import annotations

from typing import Callable

from . import naive, terms
from .generic import PATTERN, SCOPED, ScopedAST, children
from .lambda_pi import BY_FREE, BY_NAIVE, Term, constructor, free_to_direct
from .names import Name, NameBinder, RawName, Scope, Var, fresh_raw_name, set_mask
from .patterns import Pattern, PatternPair, PatternVar, PatternWildcard, pattern_mask
from .terms import BY_DIRECT, CONSTRUCTORS


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
# An identifier's environment entry: its innermost name, and the entry that
# name shadows (``None`` where it shadows nothing).
_Entry = tuple[Name, "_Entry | None"]


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


def _bind_pattern(
    scope: Scope, pattern: naive.Pattern, bound: list[tuple[str, Name]]
) -> tuple[NameBinder | Pattern, Scope]:
    """Allocate a pattern's binders left to right, each fresh against
    ``scope`` extended by the ones before it.

    Returns the binder in the generic AST's form (a bare ``NameBinder`` for
    a single variable, else the pattern) and the body's scope; ``bound``
    gains each bound identifier's text and name, in order.
    """
    kind = type(pattern)
    if kind is naive.PatternVar:
        ident = pattern.ident
        for text, _ in bound:
            if text == ident.text:
                raise DuplicateBinderError(ident)
        raw = fresh_raw_name(scope)
        bound.append((ident.text, Name(raw)))
        return NameBinder(raw), scope.add(raw)
    if kind is naive.PatternPair:
        left, scope = _bind_pattern(scope, pattern.left, bound)
        right, scope = _bind_pattern(scope, pattern.right, bound)
        return PatternPair(_as_pattern(left), _as_pattern(right)), scope
    if kind is naive.PatternWildcard:
        return PatternWildcard(), scope
    raise TypeError(f"not a pattern: {pattern!r}")


def _as_pattern(binder: NameBinder | Pattern) -> Pattern:
    return PatternVar(binder) if type(binder) is NameBinder else binder


def to_free_term(rename: RenameFn, scope: Scope, term: naive.Term) -> Term:
    """Convert a surface term to the generic AST.

    Identifiers resolve through one mutable environment: on the way into
    each body under a pattern, every identifier it binds gets an entry
    linking its name to the entry it shadows, put back on the way out, so
    entering a binder never copies the environment.  A single-variable
    pattern becomes a bare ``NameBinder``.  Every node built records its
    free-name mask; a ``ScopedAST`` records none, and its body's mask less
    the bound names goes into its node's.
    """
    env: dict[str, _Entry | None] = {}

    def go(scope: Scope, t: naive.Term) -> Term:
        if type(t) is naive.Var:
            entry = env.get(t.ident.text)
            return Var(rename(t.ident) if entry is None else entry[0])
        con = constructor(BY_NAIVE, t)
        new = []
        mask = 0
        for role, field in zip(con.roles, children(t)):
            if role is PATTERN:
                bound: list[tuple[str, Name]] = []
                binder, body_scope = _bind_pattern(scope, field, bound)
                bits = pattern_mask(binder)
            elif role is SCOPED:
                for text, name in bound:
                    env[text] = (name, env.get(text))
                body = go(body_scope, field.term)
                for text, _ in bound:
                    env[text] = env[text][1]
                fv = 1 << body.name.raw if type(body) is Var else body.fv
                mask |= fv - (fv & bits)
                new.append(ScopedAST(binder, body))
            else:
                child = go(scope, field)
                mask |= 1 << child.name.raw if type(child) is Var else child.fv
                new.append(child)
        node = con.free(*new)
        set_mask(node, mask)
        return node

    return go(scope, term)


def to_foil_term(rename: RenameFn, scope: Scope, term: naive.Term) -> terms.Term:
    """Convert a surface term to the scope-indexed direct representation:
    :func:`to_free_term`'s tree in its direct form, every node with its
    free-name mask."""
    return free_to_direct(to_free_term(rename, scope, term))


def to_foil_closed(term: naive.Term) -> terms.Term:
    """Convert a closed term (free identifiers are an error)."""
    return to_foil_term(fail_on_free, Scope(), term)


def to_free_closed(term: naive.Term) -> Term:
    """Convert a closed term to the generic AST (free identifiers are an error)."""
    return to_free_term(fail_on_free, Scope(), term)


# ``default_ident``'s identifiers, indexed by raw name.
_DEFAULT_IDENTS: list[naive.VarIdent] = []


def default_ident(raw: RawName) -> naive.VarIdent:
    """The default raw -> identifier scheme, ``n -> x{n}``.  See the module
    docstring for the free-variable caveat.

    Each raw name has one shared identifier, built the first time it is
    asked for: ``VarIdent`` is frozen and these carry no location.
    """
    idents = _DEFAULT_IDENTS
    if 0 <= raw < len(idents):
        return idents[raw]
    ident = naive.VarIdent(f"x{raw}")  # a negative raw is an invalid identifier
    idents.extend(naive.VarIdent(f"x{n}") for n in range(len(idents), raw))
    idents.append(ident)
    return ident


def from_foil_pattern(raw_to_ident: IdentFn, pattern: Pattern | NameBinder) -> naive.Pattern:
    """A pattern, or a generic tree's bare binder, as a surface pattern."""
    kind = type(pattern)
    if kind is NameBinder:
        return naive.PatternVar(raw_to_ident(pattern.raw))
    if kind is PatternVar:
        return naive.PatternVar(raw_to_ident(pattern.binder.raw))
    if kind is PatternPair:
        return naive.PatternPair(
            from_foil_pattern(raw_to_ident, pattern.left),
            from_foil_pattern(raw_to_ident, pattern.right),
        )
    if kind is PatternWildcard:
        return naive.PatternWildcard()
    raise TypeError(f"not a pattern: {pattern!r}")


# The constructor record of each class of either scope-safe tree, and the
# positions of each direct class's bodies, which its fields hold unwrapped.
BY_TREE = BY_DIRECT | BY_FREE
_BODIES = {
    con.direct: tuple(i for i, role in enumerate(con.roles) if role is SCOPED)
    for con in CONSTRUCTORS
}


def from_foil_term(raw_to_ident: IdentFn, term: terms.Term | Term) -> naive.Term:
    """Either scope-safe tree back in surface syntax, scope indices forgotten;
    each field is read by value (see the module docstring)."""
    kind = type(term)
    if kind is Var:
        return naive.Var(raw_to_ident(term.name.raw))
    con = BY_TREE.get(kind)
    if con is None:
        raise TypeError(f"not a term: {term!r}")
    new = []
    for field in children(term):
        kind = type(field)
        if kind is Var:
            new.append(naive.Var(raw_to_ident(field.name.raw)))
        elif kind is ScopedAST:
            binder = field.binder
            new.append(naive.ScopedTerm(from_foil_term(raw_to_ident, field.body)))
        elif kind in BY_TREE:
            new.append(from_foil_term(raw_to_ident, field))
        else:  # a direct node's pattern
            new.append(from_foil_pattern(raw_to_ident, field))
    if con.pattern is not None:
        if type(term) is con.free:
            new.insert(con.pattern, from_foil_pattern(raw_to_ident, binder))
        else:
            for i in _BODIES[type(term)]:
                new[i] = naive.ScopedTerm(new[i])
    return con.naive(*new)
