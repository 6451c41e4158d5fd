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
environment.  ``to_foil_term`` is the same walk building the direct tree.
``from_foil_term`` is the one walk back, forgetting scope indices.  It reads
either tree: a generic node's ``ScopedAST`` holds its binder, a direct
node's pattern is a field of its own.  Neither tree is converted to the
other on the way in or out.  Each walk is compiled once per class from the
class's roles (:func:`~scopefoil.generic.compile_walk`), the way
``generic.substitute`` is, so no node loops over its fields.

The default identifier scheme maps raw name ``n`` to ``x{n}``.  BEWARE: this
scheme knows nothing about the identifiers the term had before
``to_foil_term``; if a term has free names, printing it with the default
scheme will rename them (e.g. a free ``y`` that entered as raw ``#0`` comes
back as ``x0``).  Callers that care must pass the inverse of the renaming
they fed ``to_foil_term``.
"""

from __future__ import annotations

from collections.abc import Callable

from . import naive, terms
from .generic import Compiled, ScopedAST, compile_walk
from .lambda_pi import BY_FREE, BY_NAIVE, Term
from .names import Name, NameBinder, RawName, Scope, Var, fresh_raw_name, set_mask
from .patterns import Pattern, PatternPair, PatternVar, PatternWildcard, pattern_mask
from .terms import BY_DIRECT


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


# The walk from surface syntax of one surface class, building the generic
# tree or, with ``direct``, the direct one; ``walks`` holds the other
# classes' walks to the same tree.  Each field is handled by its role: the
# pattern allocates its binders fresh against ``scope``, a single variable
# inline and any other pattern through ``_bind_pattern``; a scoped field's
# body is converted with the pattern's identifiers entered in ``env`` and
# taken out again after it; a term is converted in ``scope``.  ``env`` maps
# an identifier to its innermost name and the entry that name shadows
# (``None`` where it shadows nothing), so a variable is resolved inline,
# innermost binder first, and through ``rename`` where it is unbound.  The
# block between ``# each field`` and ``# end`` is repeated for each field,
# with the parts marked for its role (:func:`~scopefoil.generic.compile_walk`);
# the walk reads this module's names as its globals.
_TO_TREE = """\
def to_tree(env, rename, scope, t):
    # each field
    c$i = t.$field
    # when pattern
    if type(c$i) is naive.PatternVar:
        raw = fresh_raw_name(scope)
        binder = NameBinder(raw)
        text, bname, bound = c$i.ident.text, Name(raw), None
        inner = scope.add(raw)
        bits = 1 << raw
        if direct:
            pat = PatternVar(binder)
    else:
        bound = []
        binder, inner = _bind_pattern(scope, c$i, bound)
        bits = pattern_mask(binder)
        pat = binder
    # when scoped
    if bound is None:
        env[text] = (bname, env.get(text))
    else:
        for text, bname in bound:
            env[text] = (bname, env.get(text))
    c$i = c$i.term
    here = inner
    # when term
    here = scope
    # when scoped term
    if type(c$i) is naive.Var:
        ident = c$i.ident
        entry = env.get(ident.text)
        name = rename(ident) if entry is None else entry[0]
        c$i = Var(name)
        fv$i = 1 << name.raw
    else:
        c$i = walks[type(c$i)](env, rename, here, c$i)
        fv$i = c$i.fv
    # when scoped
    if bound is None:
        env[text] = env[text][1]
    else:
        for text, _ in bound:
            env[text] = env[text][1]
    fv$i -= fv$i & bits
    if not direct:
        c$i = ScopedAST(binder, c$i)
    # end
    node = cls($args) if direct else cls($terms)
    set_mask(node, $fvs)
    return node
"""


def _to_tree_walks(direct: bool) -> Compiled:
    """The surface walks to the direct tree, or to the generic one."""

    def build(cls: type) -> Callable:
        con = BY_NAIVE.get(cls)
        if con is None:
            raise TypeError(f"not a term: a {cls.__name__}")
        target = con.direct if direct else con.free
        return compile_walk(
            cls, _TO_TREE, globals(), roles=con.roles,
            cls=target, direct=direct, walks=walks,
        )

    walks = Compiled(build)
    return walks


_TO_FREE = _to_tree_walks(direct=False)
_TO_DIRECT = _to_tree_walks(direct=True)


def _to_tree(walks: Compiled, rename: RenameFn, scope: Scope, term: naive.Term):
    if type(term) is naive.Var:
        return Var(rename(term.ident))
    return walks[type(term)]({}, rename, scope, term)


def to_free_term(rename: RenameFn, scope: Scope, term: naive.Term) -> Term:
    """Convert a surface term to the generic AST.

    Identifiers resolve through one mutable environment: on the way into
    each body under a pattern, every identifier it binds gets an entry
    linking its name to the entry it shadows, put back on the way out, so
    entering a binder never copies the environment.  A single-variable
    pattern becomes a bare ``NameBinder``.  Every node built records its
    free-name mask; a ``ScopedAST`` records none, and its body's mask less
    the bound names goes into its node's.  The walk of each class is
    compiled from its roles (:data:`_TO_TREE`).
    """
    return _to_tree(_TO_FREE, rename, scope, term)


def to_foil_term(rename: RenameFn, scope: Scope, term: naive.Term) -> terms.Term:
    """Convert a surface term to the scope-indexed direct representation,
    in one walk: :func:`to_free_term`'s tree in its direct form, every node
    with its free-name mask, a single variable bound by a ``PatternVar``."""
    return _to_tree(_TO_DIRECT, rename, scope, term)


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


# The walk back to surface syntax of one class of either tree, a direct
# one with ``direct``: fields are read in the surface class's order, a
# direct tree's pattern from its field and a generic tree's from a scoped
# field's binder, after the body; a variable is read inline.  ``walks``
# holds every class's walk.  The block is compiled as ``_TO_TREE``'s is.
_FROM_TREE = """\
def from_tree(ident, t):
    # each field
    # when pattern
    if direct:
        pat = from_foil_pattern(ident, t.$field)
    # when scoped term
    c$i = t.$field
    # when scoped
    if not direct:
        binder = c$i.binder
        c$i = c$i.body
    # when scoped term
    if type(c$i) is Var:
        c$i = naive.Var(ident(c$i.name.raw))
    else:
        c$i = walks[type(c$i)](ident, c$i)
    # when scoped
    c$i = naive.ScopedTerm(c$i)
    if not direct:
        pat = from_foil_pattern(ident, binder)
    # end
    return cls($args)
"""

BY_TREE = BY_DIRECT | BY_FREE


def _build_from_tree(cls: type) -> Callable:
    con = BY_TREE.get(cls)
    if con is None:
        raise TypeError(f"not a term: a {cls.__name__}")
    return compile_walk(
        con.naive, _FROM_TREE, globals(), roles=con.roles,
        cls=con.naive, direct=cls is con.direct, walks=_FROM_TREES,
    )


_FROM_TREES = Compiled(_build_from_tree)


def from_foil_term(raw_to_ident: IdentFn, term: terms.Term | Term) -> naive.Term:
    """Either scope-safe tree back in surface syntax, scope indices forgotten;
    the walk of each class is compiled from its roles (:data:`_FROM_TREE`)."""
    if type(term) is Var:
        return naive.Var(raw_to_ident(term.name.raw))
    return _FROM_TREES[type(term)](raw_to_ident, term)
