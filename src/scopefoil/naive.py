"""String-named surface syntax for lambda-Pi with pairs."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

RESERVED_WORDS = frozenset({"check", "compute", "lam", "fun", "first", "second", "U"})

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*\Z")


@dataclass(frozen=True, slots=True)
class VarIdent:
    """An identifier token; ``loc`` is a (line, col) hint for error messages
    and does not participate in equality."""

    text: str
    loc: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.text) or self.text in RESERVED_WORDS:
            raise ValueError(f"invalid identifier: {self.text!r}")


@dataclass(frozen=True, slots=True)
class ScopedTerm:
    """A term in the scope of an enclosing binder (trivial wrapper)."""

    term: "Term"


@dataclass(frozen=True, slots=True)
class PatternWildcard:
    pass


@dataclass(frozen=True, slots=True)
class PatternVar:
    ident: VarIdent


@dataclass(frozen=True, slots=True)
class PatternPair:
    left: "Pattern"
    right: "Pattern"


Pattern = Union[PatternWildcard, PatternVar, PatternPair]


@dataclass(frozen=True, slots=True)
class Var:
    ident: VarIdent


@dataclass(frozen=True, slots=True)
class Pair:
    left: "Term"
    right: "Term"


@dataclass(frozen=True, slots=True)
class First:
    term: "Term"


@dataclass(frozen=True, slots=True)
class Second:
    term: "Term"


@dataclass(frozen=True, slots=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Lam:
    pattern: Pattern
    body: ScopedTerm


@dataclass(frozen=True, slots=True)
class Pi:
    pattern: Pattern
    domain: "Term"
    codomain: ScopedTerm


@dataclass(frozen=True, slots=True)
class Universe:
    pass


Term = Union[Var, Pair, First, Second, App, Lam, Pi, Universe]


@dataclass(frozen=True, slots=True)
class Check:
    term: Term
    annot: Term


@dataclass(frozen=True, slots=True)
class Compute:
    term: Term
    annot: Term


Command = Union[Check, Compute]


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
