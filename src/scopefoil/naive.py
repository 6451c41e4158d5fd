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
    match pattern:
        case PatternWildcard():
            return []
        case PatternVar(ident):
            return [ident]
        case PatternPair(left, right):
            return pattern_idents(left) + pattern_idents(right)
    raise TypeError(f"not a pattern: {pattern!r}")


def free_idents(term: Term, memo: dict | None = None) -> frozenset[str]:
    """Free identifier texts of a term.

    With ``memo``, each node's set is computed once and cached under
    ``id(node)``; the entry holds the node itself, so its id cannot be
    reused by another object while the memo lives.
    """
    if memo is not None:
        hit = memo.get(id(term))
        if hit is not None:
            return hit[1]
    match term:
        case Var(ident):
            out = frozenset({ident.text})
        case Pair(left, right):
            out = free_idents(left, memo) | free_idents(right, memo)
        case First(t) | Second(t):
            out = free_idents(t, memo)
        case App(fun, arg):
            out = free_idents(fun, memo) | free_idents(arg, memo)
        case Lam(pattern, ScopedTerm(body)):
            bound = {i.text for i in pattern_idents(pattern)}
            out = frozenset(free_idents(body, memo) - bound)
        case Pi(pattern, domain, ScopedTerm(codomain)):
            bound = {i.text for i in pattern_idents(pattern)}
            out = free_idents(domain, memo) | frozenset(
                free_idents(codomain, memo) - bound
            )
        case Universe():
            out = frozenset()
        case _:
            raise TypeError(f"not a term: {term!r}")
    if memo is not None:
        memo[id(term)] = (term, out)
    return out
