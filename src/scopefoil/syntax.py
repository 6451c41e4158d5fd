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
from typing import Callable, NoReturn, TypeVar

from . import naive

_T = TypeVar("_T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_KEYWORDS = naive.RESERVED_WORDS

# One scan: layout (whitespace and both comment forms) is skipped inside it,
# and a character nothing else accepts falls through to ``bad``, as does the
# ``{-`` of a block comment that is never closed.
_TOKEN_RE = re.compile(
    r"""
      (?P<skip>(?:\s|--[^\n]*|\{-.*?-\})+)
    | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
    | (?P<symbol>->|[(),:;._])
    | (?P<bad>\{-|.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(src: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The tokens as four parallel lists: kinds ("ident", "eof", or the
    literal text of a keyword or symbol), texts, lines and columns.

    Only skipped layout can hold a newline, so lines are counted there.
    """
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rfind("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            message = "unterminated comment" if text == "{-" else f"unexpected character {text!r}"
            raise ParseError(message, line, col)
        kinds.append("ident" if kind == "ident" and text not in _KEYWORDS else text)
        texts.append(text)
        lines.append(line)
        cols.append(col)
    kinds.append("eof")
    texts.append("")
    lines.append(line)
    cols.append(len(src) - line_start + 1)
    return kinds, texts, lines, cols


_ATOM_STARTERS = ("ident", "U", "(")


class _Parser:
    """Recursive descent over the token lists; ``i`` indexes the next token."""

    def __init__(self, src: str):
        self.kinds, self.texts, self.lines, self.cols = _lex(src)
        self.i = 0

    def fail(self, expected: str) -> NoReturn:
        i = self.i
        found = self.texts[i] or "end of input"
        raise ParseError(f"expected {expected}, found {found!r}", self.lines[i], self.cols[i])

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
        # nests, though the trees were equal.
        return naive.VarIdent(self.texts[i], loc=(self.lines[i], self.cols[i]))

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
        raise ParseError(message, p.lines[p.i], p.cols[p.i]) from None


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


# ``pretty_pattern`` and ``_pp`` dispatch with ``type`` tests, most frequent
# case first: a class-pattern ``match`` costs about ten times as much per
# node, and printing is the last stage of ``scopefoil run``.
def _pp(term: naive.Term, level: int) -> str:
    kind = type(term)
    if kind is naive.Var:
        return term.ident.text
    if kind is naive.App:
        s = f"{_pp(term.fun, _APP_LEVEL)} {_pp(term.arg, _ATOM_LEVEL)}"
        return f"({s})" if level > _APP_LEVEL else s
    if kind is naive.Lam:
        s = f"lam {pretty_pattern(term.pattern)} . {_pp(term.body.term, _TERM_LEVEL)}"
        return f"({s})" if level > _TERM_LEVEL else s
    if kind is naive.Universe:
        return "U"
    if kind is naive.Pair:
        return f"({_pp(term.left, _TERM_LEVEL)}, {_pp(term.right, _TERM_LEVEL)})"
    if kind is naive.First or kind is naive.Second:
        word = "first" if kind is naive.First else "second"
        s = f"{word} {_pp(term.term, _ATOM_LEVEL)}"
        return f"({s})" if level > _APP_LEVEL else s
    if kind is naive.Pi:
        s = (
            f"fun ({pretty_pattern(term.pattern)} : {_pp(term.domain, _TERM_LEVEL)})"
            f" -> {_pp(term.codomain.term, _TERM_LEVEL)}"
        )
        return f"({s})" if level > _TERM_LEVEL else s
    raise TypeError(f"not a term: {term!r}")


def pretty_term(term: naive.Term) -> str:
    return _pp(term, _TERM_LEVEL)


def pretty_command(command: naive.Command) -> str:
    match command:
        case naive.Check(term, annot):
            return f"check {pretty_term(term)} : {pretty_term(annot)} ;"
        case naive.Compute(term, annot):
            return f"compute {pretty_term(term)} : {pretty_term(annot)} ;"
    raise TypeError(f"not a command: {command!r}")


def pretty_program(commands: list[naive.Command]) -> str:
    return "".join(pretty_command(c) + "\n" for c in commands)
