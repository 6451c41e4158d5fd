"""Concrete syntax: lexer, parser and pretty-printer.

Grammar (``pretty`` emits exactly this shape, and ``parse(pretty(t))`` is
structurally ``t``)::

    program  ::= command*
    command  ::= "check" term ":" term ";"
               | "compute" term ":" term ";"

    term     ::= "lam" pattern "." term                      -- binds to the right
               | "fun" "(" pattern ":" term ")" "->" term
               | term1
    term1    ::= term1 term2                                 -- application, left-assoc
               | "first" term2
               | "second" term2
               | term2
    term2    ::= ident | "U" | "(" term ")" | "(" term "," term ")"

    pattern  ::= "_" | ident | "(" pattern "," pattern ")"

    ident    ::= letter (letter | digit | "_" | "'")*        -- minus reserved words

Comments: ``--`` to end of line and non-nesting ``{- ... -}``.  Whitespace
and layout are insignificant; every command ends with ``;``.  Reserved
words: ``check compute lam fun first second U``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, islice
from typing import Callable, NoReturn, TypeVar

from . import naive
from .naive import App, First, Lam, Pair, PatternVar, Pi, Second, Universe, Var

_T = TypeVar("_T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# A token's kind: a reserved word or a symbol is its own text, any other
# identifier is "ident".
_KINDS = {text: text for text in naive.RESERVED_WORDS | {"->", *"(),:;._"}}

# One match per token, with the layout before it (whitespace and both
# comment forms) skipped inside the match.  Group 1 is an identifier, 2 a
# symbol and 3 a character nothing else accepts, or the ``{-`` of a block
# comment that is never closed; at the end of the input, where only layout
# is left, no group matches.
_TOKEN_RE = re.compile(
    rf"""
      (?:\s|--[^\n]*|\{{-.*?-\}})*
      (?: ({naive.IDENT})
        | (->|[(),:;._])
        | (\{{-|.)
        | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(src: str) -> tuple[list[str], list[str], list[int | None]]:
    """The tokens as three parallel lists: kinds (see :data:`_KINDS`, and
    "eof" last), texts, and each identifier's offset into ``src``.

    Any other token's offset is ``None``, and :func:`_offset` finds it
    again: only an error needs it.  An offset past 256 is an int object of
    its own, and keeping one per token raised the parse's peak memory by
    0.2 MB on normbench's ``random`` program.
    """
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int | None] = []
    for m in _TOKEN_RE.finditer(src):
        group = m.lastindex
        if group is None:
            break
        text = m[group]
        if group == 3:
            message = "unterminated comment" if text == "{-" else f"unexpected character {text!r}"
            raise ParseError(message, *_position(_line_starts(src), m.start(group)))
        kind = _KINDS.get(text, "ident")
        kinds.append(kind)
        texts.append(text)
        offsets.append(m.start(1) if kind == "ident" else None)
    kinds.append("eof")
    texts.append("")
    offsets.append(None)
    return kinds, texts, offsets


def _offset(src: str, i: int) -> int:
    """The offset of token ``i`` of ``src``, scanned for again."""
    m = next(islice(_TOKEN_RE.finditer(src), i, None))
    return len(src) if m.lastindex is None else m.start(m.lastindex)


def _line_starts(src: str) -> list[int]:
    """The offset of each line's first character; lines end at ``\\n``."""
    return [0, *accumulate(len(line) + 1 for line in src.split("\n")[:-1])]


def _position(starts: list[int], offset: int) -> tuple[int, int]:
    """The (line, column) of ``offset``, both from 1, given the line starts."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


_ATOM_STARTERS = ("ident", "U", "(")


class _Parser:
    """Recursive descent over the token lists; ``i`` indexes the next token."""

    def __init__(self, src: str):
        self.src = src
        self.kinds, self.texts, self.offsets = _lex(src)
        self.starts = _line_starts(src)
        self.i = 0

    def position(self, i: int) -> tuple[int, int]:
        """The (line, column) of token ``i``."""
        offset = self.offsets[i]
        if offset is None:
            offset = _offset(self.src, i)
        return _position(self.starts, offset)

    def fail(self, expected: str) -> NoReturn:
        i = self.i
        found = self.texts[i] or "end of input"
        raise ParseError(f"expected {expected}, found {found!r}", *self.position(i))

    def expect(self, kind: str) -> None:
        if self.kinds[self.i] != kind:
            self.fail(repr(kind))
        self.i += 1

    def ident(self) -> naive.VarIdent:
        i = self.i
        self.i = i + 1
        # The loc tuple is built here, next to its identifier: building one
        # per token in the lexer (most of them freed after the parse) made
        # the named, de Bruijn and NbE engines 2-5% slower on parsed deep
        # nests, though the trees were equal.  The lexer matched the text
        # with ``naive.IDENT`` and its kind excludes the reserved words, so
        # ``VarIdent``'s own check would find nothing.
        loc = _position(self.starts, self.offsets[i])
        return naive.lexed_ident(self.texts[i], loc)

    # ---- terms ----

    def term(self) -> naive.Term:
        kind = self.kinds[self.i]
        if kind == "lam":
            self.i += 1
            pattern = self.pattern()
            self.expect(".")
            return naive.Lam(pattern, naive.ScopedTerm(self.term()))
        if kind == "fun":
            self.i += 1
            self.expect("(")
            pattern = self.pattern()
            self.expect(":")
            domain = self.term()
            self.expect(")")
            self.expect("->")
            return naive.Pi(pattern, domain, naive.ScopedTerm(self.term()))
        return self.app_term()

    def app_term(self) -> naive.Term:
        kinds = self.kinds
        kind = kinds[self.i]
        if kind == "first" or kind == "second":
            self.i += 1
            head = (naive.First if kind == "first" else naive.Second)(self.atom())
        else:
            head = self.atom()
        while kinds[self.i] in _ATOM_STARTERS:
            head = naive.App(head, self.atom())
        return head

    def atom(self) -> naive.Term:
        kind = self.kinds[self.i]
        if kind == "ident":
            return naive.Var(self.ident())
        if kind == "U":
            self.i += 1
            return naive.Universe()
        if kind == "(":
            self.i += 1
            left = self.term()
            if self.kinds[self.i] == ",":
                self.i += 1
                right = self.term()
                self.expect(")")
                return naive.Pair(left, right)
            self.expect(")")
            return left
        self.fail("a term")

    # ---- patterns ----

    def pattern(self) -> naive.Pattern:
        kind = self.kinds[self.i]
        if kind == "_":
            self.i += 1
            return naive.PatternWildcard()
        if kind == "ident":
            return naive.PatternVar(self.ident())
        if kind == "(":
            self.i += 1
            left = self.pattern()
            self.expect(",")
            right = self.pattern()
            self.expect(")")
            return naive.PatternPair(left, right)
        self.fail("a pattern")

    # ---- programs ----

    def command(self) -> naive.Command:
        kind = self.kinds[self.i]
        if kind != "check" and kind != "compute":
            self.fail("'check' or 'compute'")
        self.i += 1
        term = self.term()
        self.expect(":")
        annot = self.term()
        self.expect(";")
        return (naive.Check if kind == "check" else naive.Compute)(term, annot)

    def program(self) -> list[naive.Command]:
        commands: list[naive.Command] = []
        while self.kinds[self.i] != "eof":
            commands.append(self.command())
        return commands


def _parse(src: str, rule: Callable[[_Parser], _T]) -> _T:
    """Run ``rule`` on the tokens of ``src``.  Input nested deeper than the
    interpreter's recursion limit is a parse error at the token reached."""
    p = _Parser(src)
    try:
        return rule(p)
    except RecursionError:
        message = "input nested too deeply to parse"
        raise ParseError(message, *p.position(p.i)) from None


def parse_program(src: str) -> list[naive.Command]:
    return _parse(src, _Parser.program)


def _whole_term(p: _Parser) -> naive.Term:
    term = p.term()
    p.expect("eof")
    return term


def parse_term(src: str) -> naive.Term:
    """Parse a standalone term (the whole input must be one term)."""
    return _parse(src, _whole_term)


# --------------------------------------------------------------------------
# pretty-printing
# --------------------------------------------------------------------------

_TERM_LEVEL = 0
_APP_LEVEL = 1
_ATOM_LEVEL = 2


def pretty_pattern(pattern: naive.Pattern) -> str:
    kind = type(pattern)
    if kind is naive.PatternVar:
        return pattern.ident.text
    if kind is naive.PatternPair:
        return f"({pretty_pattern(pattern.left)}, {pretty_pattern(pattern.right)})"
    if kind is naive.PatternWildcard:
        return "_"
    raise TypeError(f"not a pattern: {pattern!r}")


# ``pretty_pattern``, ``_pp`` and ``_emit`` dispatch with ``type`` tests,
# most frequent case first: a class-pattern ``match`` costs about ten times
# as much per node, and printing is the last stage of ``scopefoil run``.
#
# ``_pp`` returns its subterm's text built with f-strings, which is the
# fastest way to print a small term, but copies each subterm's text again
# at every level above it: quadratic in the depth.  So past
# ``_STRING_DEPTH`` levels it hands the subterm to ``_emit``, which passes
# its pieces to ``emit`` (a list's ``append``) to be joined once.  Each
# character is then copied at most that many times, and a deep nest prints
# in linear time; ``_emit`` alone printed ``random``'s small terms 10-19%
# slower.  The printer names the node classes directly: reading them off
# ``naive`` cost those terms about 5%.
_STRING_DEPTH = 64


def _pp(term: naive.Term, level: int, depth: int) -> str:
    kind = type(term)
    if kind is Var:
        return term.ident.text
    if depth == _STRING_DEPTH:
        out: list[str] = []
        _emit(term, level, out.append)
        return "".join(out)
    depth += 1
    # A variable child or pattern, the most frequent, is read in place.
    if kind is App:
        fun, arg = term.fun, term.arg
        s = (
            f"{fun.ident.text if type(fun) is Var else _pp(fun, _APP_LEVEL, depth)} "
            f"{arg.ident.text if type(arg) is Var else _pp(arg, _ATOM_LEVEL, depth)}"
        )
        return f"({s})" if level > _APP_LEVEL else s
    if kind is Lam:
        pattern, body = term.pattern, term.body.term
        s = (
            f"lam {pattern.ident.text if type(pattern) is PatternVar else pretty_pattern(pattern)}"
            f" . {body.ident.text if type(body) is Var else _pp(body, _TERM_LEVEL, depth)}"
        )
        return f"({s})" if level > _TERM_LEVEL else s
    if kind is Universe:
        return "U"
    if kind is Pair:
        return f"({_pp(term.left, _TERM_LEVEL, depth)}, {_pp(term.right, _TERM_LEVEL, depth)})"
    if kind is First or kind is Second:
        word = "first" if kind is First else "second"
        s = f"{word} {_pp(term.term, _ATOM_LEVEL, depth)}"
        return f"({s})" if level > _APP_LEVEL else s
    if kind is Pi:
        s = (
            f"fun ({pretty_pattern(term.pattern)} : {_pp(term.domain, _TERM_LEVEL, depth)})"
            f" -> {_pp(term.codomain.term, _TERM_LEVEL, depth)}"
        )
        return f"({s})" if level > _TERM_LEVEL else s
    raise TypeError(f"not a term: {term!r}")


def _emit(term: naive.Term, level: int, emit: Callable[[str], None]) -> None:
    kind = type(term)
    if kind is Var:
        emit(term.ident.text)
    elif kind is App:
        if level > _APP_LEVEL:
            emit("(")
        _emit(term.fun, _APP_LEVEL, emit)
        emit(" ")
        _emit(term.arg, _ATOM_LEVEL, emit)
        if level > _APP_LEVEL:
            emit(")")
    elif kind is Lam:
        emit("(lam " if level > _TERM_LEVEL else "lam ")
        emit(f"{pretty_pattern(term.pattern)} . ")
        _emit(term.body.term, _TERM_LEVEL, emit)
        if level > _TERM_LEVEL:
            emit(")")
    elif kind is Universe:
        emit("U")
    elif kind is Pair:
        emit("(")
        _emit(term.left, _TERM_LEVEL, emit)
        emit(", ")
        _emit(term.right, _TERM_LEVEL, emit)
        emit(")")
    elif kind is First or kind is Second:
        if level > _APP_LEVEL:
            emit("(")
        emit("first " if kind is First else "second ")
        _emit(term.term, _ATOM_LEVEL, emit)
        if level > _APP_LEVEL:
            emit(")")
    elif kind is Pi:
        emit("(fun (" if level > _TERM_LEVEL else "fun (")
        emit(f"{pretty_pattern(term.pattern)} : ")
        _emit(term.domain, _TERM_LEVEL, emit)
        emit(") -> ")
        _emit(term.codomain.term, _TERM_LEVEL, emit)
        if level > _TERM_LEVEL:
            emit(")")
    else:
        raise TypeError(f"not a term: {term!r}")


def pretty_term(term: naive.Term) -> str:
    return _pp(term, _TERM_LEVEL, 0)


def pretty_command(command: naive.Command) -> str:
    match command:
        case naive.Check(term, annot):
            return f"check {pretty_term(term)} : {pretty_term(annot)} ;"
        case naive.Compute(term, annot):
            return f"compute {pretty_term(term)} : {pretty_term(annot)} ;"
    raise TypeError(f"not a command: {command!r}")


def pretty_program(commands: list[naive.Command]) -> str:
    return "".join(pretty_command(c) + "\n" for c in commands)
