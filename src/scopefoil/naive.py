"""String-named surface syntax for lambda-Pi with pairs, and
:func:`node_class`, the construction path of every frozen node class in the
package."""

from __future__ import annotations

import inspect
import re
from collections.abc import Callable
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from types import CodeType

RESERVED_WORDS = frozenset({"check", "compute", "lam", "fun", "first", "second", "U"})

# An identifier: this, and not a reserved word.  The lexer matches the same.
IDENT = r"[A-Za-z][A-Za-z0-9_']*"
_IDENT_RE = re.compile(IDENT + r"\Z")


def node_class(
    cls: type, compute: tuple[str, ...] = (), namespace: dict | None = None
) -> type:
    """``cls`` as a frozen, slotted dataclass built the cheap way.

    Every frozen, slotted class of the package is made with this decorator
    (``generic.derive``'s classes too).  It is ``dataclass(frozen=True,
    slots=True)`` except for ``__init__``: the one that ``dataclass``
    generates stores each field with ``object.__setattr__(self, name,
    value)``, which finds the slot by its name on every call; the one
    compiled here calls each slot descriptor's own ``__set__``, which a
    frozen dataclass does not intercept either.  A two-field node then takes
    about 30% less time to build, a one-field node about 25% less (CPython
    3.11).  Defaults, ``__post_init__``, equality, hashing, ``repr``, match
    arguments, the signature and the docstring are those of the plain
    dataclass.  Assigning or deleting any attribute raises
    ``FrozenInstanceError`` through one shared ``__setattr__`` and
    ``__delattr__``: the ones ``dataclass(slots=True)`` writes close over
    the class before its slotted copy, so for a name that is not a field
    they fail with a ``TypeError`` from ``super()`` instead.  A class with
    no fields keeps ``object.__init__``; one that writes its own
    ``__init__`` is refused.

    A field declared with ``init=False`` is computed, not passed: its value
    comes from ``compute``, statements that run at the end of the
    ``__init__`` with the parameters in hand and store each such field
    ``f`` with ``_set_f(self, value)``.  The other names they read are
    ``namespace``'s.
    """
    if "__init__" in cls.__dict__:
        raise TypeError(f"{cls.__name__}: node_class writes the __init__")
    doc = cls.__doc__
    # a placeholder keeps ``dataclass`` from writing a docstring from the
    # signature before the class has its ``__init__``
    cls.__doc__ = "node"
    cls = dataclass(cls, frozen=True, slots=True, init=False)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    if fields(cls):
        cls.__init__ = _setter_init(cls, compute, namespace)
    # the docstring ``dataclass`` gives a class that has none
    cls.__doc__ = doc or cls.__name__ + str(inspect.signature(cls)).replace(
        " -> None", ""
    )
    return cls


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_INIT_CODE: dict[str, CodeType] = {}


def _setter_init(
    cls: type, compute: tuple[str, ...], namespace: dict | None
) -> Callable[..., None]:
    # An ``__init__`` with what ``dataclass`` would give it: the same
    # parameters, annotations and defaults.  It reads the slot setters from
    # its closure, or, in a class that computes fields, from its globals:
    # each closure variable is copied into the frame on every call, which
    # cost a ``debruijn`` pass of normbench's ``deep`` nests 5-8% on CPython
    # 3.11 (``BENCH_26.json``).
    closure: dict[str, object] = {}
    globals_ = {"__name__": cls.__module__, **(namespace or {})}
    setters = globals_ if compute else closure
    params, body = [], []
    for f in fields(cls):
        if f.kw_only or f.default_factory is not MISSING or not (f.init or compute):
            raise TypeError(
                f"{cls.__name__}.{f.name}: node_class stores only plain fields"
            )
        setters[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if not f.init:
            continue
        closure[f"_type_{f.name}"] = f.type
        param = f"{f.name}: _type_{f.name}"
        if f.default is not MISSING:
            closure[f"_default_{f.name}"] = f.default
            param += f" = _default_{f.name}"
        params.append(param)
        body.append(f"        _set_{f.name}(self, {f.name})")
    body.extend(f"        {line}" for line in compute)
    if hasattr(cls, "__post_init__"):
        body.append("        self.__post_init__()")
    source = (
        f"def __create__({', '.join(closure)}):\n"
        f"    def __init__({', '.join(['self', *params])}) -> None:\n"
        + "\n".join(body)
        + "\n    return __init__\n"
    )
    # The source names no class, so classes whose fields share their names
    # share one compiled code object (Pair, PatternPair, PairSig, VPair, ...),
    # and importing the package compiles fewer initializers than ``dataclass``
    # would.  A class that computes fields has globals of its own, so it gets
    # a code object of its own too: the reads a code object specializes are
    # kept for one globals dict.  ``dont_inherit``: this module's ``from
    # __future__ import annotations`` would otherwise turn the annotations
    # into strings.
    code = _INIT_CODE.get(source)
    if code is None:
        code = compile(source, "<node_class>", "exec", dont_inherit=True)
        if not compute:
            _INIT_CODE[source] = code
    defined: dict[str, Callable] = {}
    exec(code, globals_, defined)
    init = defined["__create__"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


@node_class
class VarIdent:
    """An identifier token; ``loc`` is a (line, col) hint for error messages
    and does not participate in equality."""

    text: str
    loc: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.text) or self.text in RESERVED_WORDS:
            raise ValueError(f"invalid identifier: {self.text!r}")


_new_ident = object.__new__
_set_ident_text = VarIdent.text.__set__
_set_ident_loc = VarIdent.loc.__set__


def lexed_ident(text: str, loc: tuple[int, int]) -> VarIdent:
    """The identifier ``text`` at ``loc``, built without ``VarIdent``'s
    check: the caller has matched ``text`` with :data:`IDENT` and found it
    is not a reserved word."""
    ident = _new_ident(VarIdent)
    _set_ident_text(ident, text)
    _set_ident_loc(ident, loc)
    return ident


@node_class
class ScopedTerm:
    """A term in the scope of an enclosing binder (trivial wrapper)."""

    term: "Term"


@node_class
class PatternWildcard:
    pass


@node_class
class PatternVar:
    ident: VarIdent


@node_class
class PatternPair:
    left: "Pattern"
    right: "Pattern"


Pattern = PatternWildcard | PatternVar | PatternPair


@node_class
class Var:
    ident: VarIdent


@node_class
class Pair:
    left: "Term"
    right: "Term"


@node_class
class First:
    term: "Term"


@node_class
class Second:
    term: "Term"


@node_class
class App:
    fun: "Term"
    arg: "Term"


@node_class
class Lam:
    pattern: Pattern
    body: ScopedTerm


@node_class
class Pi:
    pattern: Pattern
    domain: "Term"
    codomain: ScopedTerm


@node_class
class Universe:
    pass


Term = Var | Pair | First | Second | App | Lam | Pi | Universe


@node_class
class Check:
    term: Term
    annot: Term


@node_class
class Compute:
    term: Term
    annot: Term


Command = Check | Compute


def pattern_idents(pattern: Pattern) -> list[VarIdent]:
    """Identifiers bound by the pattern, left to right."""
    kind = type(pattern)
    if kind is PatternVar:
        return [pattern.ident]
    if kind is PatternWildcard:
        return []
    if kind is PatternPair:
        return pattern_idents(pattern.left) + pattern_idents(pattern.right)
    raise TypeError(f"not a pattern: {pattern!r}")


def free_idents(term: Term, memo: dict | None = None) -> frozenset[str]:
    """Free identifier texts of a term.

    Each compound node's set is computed once per ``memo`` and cached under
    ``id(node)``; the entry holds the node itself, so its id cannot be
    reused by another object while the memo lives.  The named normalizer
    keeps one memo for a whole ``nf_named``/``whnf_named`` call, so a node
    that many substitutions pass is walked once.  Without ``memo`` the call
    makes its own.  Nothing is stored on the nodes.
    """
    kind = type(term)
    if kind is Var:
        return frozenset((term.ident.text,))
    if memo is None:
        memo = {}
    hit = memo.get(id(term))
    if hit is not None:
        return hit[1]
    if kind is App:
        out = free_idents(term.fun, memo) | free_idents(term.arg, memo)
    elif kind is Lam:
        out = free_idents(term.body.term, memo).difference(
            [i.text for i in pattern_idents(term.pattern)]
        )
    elif kind is First or kind is Second:
        out = free_idents(term.term, memo)
    elif kind is Pair:
        out = free_idents(term.left, memo) | free_idents(term.right, memo)
    elif kind is Pi:
        out = free_idents(term.domain, memo) | free_idents(
            term.codomain.term, memo
        ).difference([i.text for i in pattern_idents(term.pattern)])
    elif kind is Universe:
        out = frozenset()
    else:
        raise TypeError(f"not a term: {term!r}")
    memo[id(term)] = (term, out)
    return out
