"""String-named surface syntax for lambda-Pi with pairs, and
:func:`node_class`, the construction path of every frozen node class in the
package."""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from inspect import Parameter, Signature
from reprlib import recursive_repr
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
    (``generic.derive``'s and ``oracles``' derived classes too), in place of
    ``dataclass(frozen=True, slots=True)``, whose behaviour it keeps:
    ``__init__`` with the same signature, defaults and ``__post_init__``;
    ``__eq__`` comparing tuples of the ``compare`` fields of two instances
    of the same class, ``__hash__`` hashing that tuple; ``__repr__`` over
    the ``repr`` fields, guarded against recursion; ``__getstate__`` and
    ``__setstate__`` over every field, which pickling and copying need;
    ``FrozenInstanceError`` on assigning or deleting any attribute; and,
    for a class with no docstring, one built from the signature.  A class
    that writes any of these methods itself is refused.

    ``dataclass`` is asked only for the field list (``fields``), the match
    arguments and the slotted class; it writes no method.  The methods are
    compiled here from one source per field layout that names no class, so
    every class whose fields have the same names shares one code object per
    method, and importing the package compiles a few dozen sources where
    ``dataclass`` compiled five functions for each class.  With the
    docstring built from the field list rather than by
    ``inspect.signature``, re-importing the package takes 47 reference ms
    instead of 64 when every module is compiled from source, and 19 instead
    of 37 from cached bytecode (``BENCH_30.json``).

    The ``__init__`` stores each field through its slot descriptor's own
    ``__set__``, where the one ``dataclass`` writes calls
    ``object.__setattr__(self, name, value)``, which finds the slot by its
    name on every call: a two-field node then takes about 30% less time to
    build, a one-field node about 25% less (CPython 3.11).  A class with no
    fields keeps ``object.__init__``.  The frozen ``__setattr__`` and
    ``__delattr__`` are shared by every class: the ones
    ``dataclass(slots=True)`` writes close over the class before its
    slotted copy, so for a name that is not a field they fail with a
    ``TypeError`` from ``super()`` instead.

    A field declared with ``init=False`` is computed, not passed: its value
    comes from ``compute``, statements that run at the end of the
    ``__init__`` with the parameters in hand and store each such field
    ``f`` with ``_set_f(self, value)``.  The other names they read are
    ``namespace``'s.
    """
    for name in _WRITTEN:
        if name in cls.__dict__:
            raise TypeError(f"{cls.__name__}: node_class writes the {name}")
    doc = cls.__doc__
    # a placeholder keeps ``dataclass`` from building a docstring with
    # ``inspect.signature``
    cls.__doc__ = "node"
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
    node_fields = fields(cls)
    _install_methods(cls, node_fields)
    if node_fields:
        cls.__init__ = _setter_init(cls, node_fields, compute, namespace)
    cls.__doc__ = doc or cls.__name__ + str(
        Signature(
            [
                Parameter(
                    f.name,
                    Parameter.POSITIONAL_OR_KEYWORD,
                    default=Parameter.empty if f.default is MISSING else f.default,
                    annotation=f.type,
                )
                for f in node_fields
                if f.init
            ]
        )
    )
    return cls


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_WRITTEN = (
    "__init__",
    "__eq__",
    "__hash__",
    "__repr__",
    "__getstate__",
    "__setstate__",
    "__setattr__",
    "__delattr__",
)

# Compiled sources, by their text: the ``__init__`` factories, and the
# modules that define the other methods.
_CODE: dict[str, CodeType] = {}

# The globals of every method compiled from ``_METHODS``: one dict, so the
# builtin reads that a shared code object specializes hold for each class.
_METHOD_GLOBALS: dict[str, object] = {}

# The methods ``dataclass(frozen=True, slots=True)`` would write, with the
# same bodies: equality and hashing read the ``compare`` fields, ``repr``
# the ``repr`` fields and the pickling pair all of them.
_METHODS = """\
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({self_eq})==({other_eq})
    return NotImplemented
def __hash__(self):
    return hash(({self_eq}))
def __repr__(self):
    return self.__class__.__qualname__ + f"({shown})"
def __getstate__(self):
    return [{self_names}]
def __setstate__(self, state):
    for name, value in zip({names!r}, state):
        object.__setattr__(self, name, value)
"""


def _compiled(source: str) -> CodeType:
    # ``dont_inherit``: this module's ``from __future__ import annotations``
    # would otherwise turn an ``__init__``'s annotations into strings.
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<node_class>", "exec", dont_inherit=True)
    return code


def _install_methods(cls: type, node_fields: tuple) -> None:
    def attrs(obj: str, names: list[str]) -> str:
        return "".join(f"{obj}.{name}," for name in names)

    eq = [f.name for f in node_fields if f.compare]
    names = tuple(f.name for f in node_fields)
    source = _METHODS.format(
        self_eq=attrs("self", eq),
        other_eq=attrs("other", eq),
        shown=", ".join(f"{f.name}={{self.{f.name}!r}}" for f in node_fields if f.repr),
        self_names=attrs("self", names),
        names=names,
    )
    defined: dict[str, Callable] = {}
    exec(_compiled(source), _METHOD_GLOBALS, defined)
    for name, method in defined.items():
        method.__module__ = cls.__module__
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        if name == "__repr__":
            wrapped = method
            method = recursive_repr()(wrapped)
            method.__wrapped__ = wrapped  # as ``functools.wraps`` records it
        setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr


def _setter_init(
    cls: type,
    node_fields: tuple,
    compute: tuple[str, ...],
    namespace: dict | None,
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
    for f in node_fields:
        plain = f.hash is None and not f.kw_only and f.default_factory is MISSING
        if not plain or not (f.init or compute):
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
    # share one compiled code object (Pair, PatternPair, PairSig, VPair, ...).
    # A class that computes fields has globals of its own, so it gets a code
    # object of its own too: the reads a code object specializes are kept
    # for one globals dict.
    if compute:
        code = compile(source, "<node_class>", "exec", dont_inherit=True)
    else:
        code = _compiled(source)
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
