"""Concrete syntax: lexer, parser and pretty-printer.

The forms are the entries of :data:`naive.NOTATION`, each compiled here
into a parse rule and a printer; the parser finds a form by its first token
in the table of its level.  Two rules are the parser's own:

- **juxtaposition**: at application level, a term followed by an atom is
  the table's one form that starts with a term, so ``f g h`` is
  ``(f g) h``;
- **grouping**: ``"(" term ")"`` is an atom, or, when a ``,`` follows the
  term, the start of the form that begins ``"(" term ","`` (the pair).

The printer uses the fewest parentheses, and ``parse(pretty(t))`` is
structurally ``t``.  Identifiers are ``naive.IDENT`` minus the reserved
words, the table's words.  Comments: ``--`` to end of line and non-nesting
``{- ... -}``.  Whitespace and layout are insignificant; every command ends
with ``;``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from itertools import accumulate, islice
from typing import Callable, NoReturn, TypeVar, get_args

from . import naive
from .naive import APP, ATOM, TERM

_T = TypeVar("_T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# A token's kind: a reserved word or a symbol is its own text, any other
# identifier is "ident".
_KINDS = {text: text for text in naive.RESERVED_WORDS | naive.SYMBOLS}

# One match per token, with the layout before it (whitespace and both
# comment forms) skipped inside the match.  Group 1 is an identifier, 2 a
# symbol and 3 a character nothing else accepts, or the ``{-`` of a block
# comment that is never closed; at the end of the input, where only layout
# is left, no group matches.  A longer symbol is tried first.
_SYMBOL = "|".join(re.escape(s) for s in sorted(naive.SYMBOLS, key=lambda s: (-len(s), s)))
_TOKEN_RE = re.compile(
    rf"""
      (?:\s|--[^\n]*|\{{-.*?-\}})*
      (?: ({naive.IDENT})
        | ({_SYMBOL})
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


class _Parser:
    """Descent over the token lists; ``i`` indexes the next token."""

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

    # The three levels of a term: each reads a form of its own level, found
    # by its first token, or else one of the level below.

    def term(self) -> naive.Term:
        kinds, i = self.kinds, self.i
        kind = kinds[i]
        # an identifier that no atom follows, the most frequent term, is
        # read at once
        if kind == "ident" and kinds[i + 1] not in _ATOM_RULES:
            return _IDENT_RULE(self)
        rule = _TERM_RULES.get(kind)
        if rule is None:
            return self.app()
        # the body is read here, after the rule has returned, so a nest of
        # binders takes one frame per binder
        binder = rule(self)
        return binder[0](binder, self.term())

    def app(self) -> naive.Term:
        kinds = self.kinds
        rule = _HEADS.get(kinds[self.i])
        if rule is None:
            self.fail("a term")
        head = rule(self)
        while kinds[self.i] in _ATOM_RULES:
            head = _JUXTAPOSED(head, _ATOM_RULES[kinds[self.i]](self))
        return head

    def atom(self) -> naive.Term:
        rule = _ATOM_RULES.get(self.kinds[self.i])
        if rule is None:
            self.fail("a term")
        return rule(self)

    def group(self) -> naive.Term:
        self.i += 1
        inner = self.term()
        rule = _GROUPED.get(self.kinds[self.i])
        if rule is not None:
            return rule(self, inner)
        if self.kinds[self.i] != ")":
            self.fail("')'")
        self.i += 1
        return inner

    def pattern(self) -> naive.Pattern:
        rule = _PATTERN_RULES.get(self.kinds[self.i])
        if rule is None:
            self.fail("a pattern")
        return rule(self)

    def program(self) -> list[naive.Command]:
        commands: list[naive.Command] = []
        while self.kinds[self.i] != "eof":
            rule = _COMMAND_RULES.get(self.kinds[self.i])
            if rule is None:
                self.fail(" or ".join(map(repr, _COMMAND_RULES)))
            commands.append(rule(self))
        return commands


# --------------------------------------------------------------------------
# parse rules and printers, compiled from the notation table
# --------------------------------------------------------------------------

# How a field is read and printed, by the name of its type; ``{read}`` reads
# a term at the field's level, a pattern or an atom by its table's rule.  An
# identifier skips ``VarIdent``'s check, which the lexer has made, and gets
# its loc tuple here: one per token in the lexer made the named, de Bruijn
# and NbE engines 2-5% slower on parsed deep nests.
_SHOW = "P[type(c := node.{field})](c, {level}, out)"
_FIELDS = {
    "VarIdent": (
        "i = p.i; p.i = i + 1; {c} = lexed_ident(p.texts[i], position(p.starts, p.offsets[i]))",
        "out(node.{field}.text)",
    ),
    "Pattern": ("{c} = PATTERN.get(p.kinds[p.i], pattern)(p)", _SHOW),
    "ScopedTerm": ("{c} = ScopedTerm({read})", "P[type(c := node.{field}.term)](c, {level}, out)"),
    "Term": ("{c} = {read}", _SHOW),
}
_READ_TERM = ("p.term()", "p.app()", "ATOM.get(p.kinds[p.i], atom)(p)")


def _def(header: str, lines: list[str]) -> str:
    return header + "".join("\n    " + line for line in lines)


def _sources(cls: type, level: int, text: str, given: int, binder: bool) -> list[str]:
    """The printer and the parse rule of the form of ``cls``.

    The printer passes the pieces of a node's text to ``out``, in
    parentheses where ``level`` is higher than the form's.  The rule reads
    the form after its first ``given`` tokens, which its caller has read
    (the fields among them are its arguments), and takes the next token, if
    a literal, as matched.  A ``binder`` form ends in a term, its body: the
    rule returns ``build_X`` and the other fields, and once the parser has
    read the body, ``build_X`` makes the node from them and the body.
    """
    name, parts = cls.__name__, naive.FIELD.split(text)
    show = [f"if level > {level}: out('(')"] if level < ATOM else []
    read, params, fields, body = [], [], [], None
    for k in range(0, len(parts), 3):
        if parts[k]:
            show.append(f"out({parts[k]!r})")
        for token in parts[k].split():
            if given < 0:
                read.append(f"if p.kinds[p.i] != {token!r}: p.fail({repr(token)!r})")
            if given <= 0:
                read.append("p.i += 1")
            given -= 1
        if k + 1 == len(parts):
            break
        field, field_level, c = parts[k + 1], int(parts[k + 2] or TERM), f"c{len(fields)}"
        how_read, how_show = _FIELDS[cls.__annotations__[field].strip("'")]
        show.append(how_show.format(field=field, level=field_level))
        fields.append(c)
        if given > 0:
            params.append(c)
        elif binder and k + 4 == len(parts):
            body = how_read.format(c=c, read="body")
        else:
            read.append(how_read.format(c=c, read=_READ_TERM[field_level]))
        given -= 1
    if level < ATOM:
        show.append(f"if level > {level}: out(')')")
    made = f"{name}({', '.join(fields)})"
    sources = [_def(f"def pretty_{name}(node, level, out):", show)]
    if binder:
        if body is None:
            raise ValueError(f"{name}: a term-level form ends in a term")
        heads = "".join(f"{c}, " for c in fields[:-1])
        build = [f"_, {heads}= binder", body, f"return {made}"]
        sources.append(_def(f"def build_{name}(binder, body):", build))
        made = f"build_{name}, {heads}"
    read.append(f"return {made}")
    sources.append(_def(f"def parse_{name}({', '.join(['p', *params])}):", read))
    return sources


def _compile_notation() -> tuple[dict, dict, type]:
    """The parse rules, in tables by a form's first token; the printers, by
    class; and the class of juxtaposition, the one form that starts with a
    term, which the parser reads itself.

    A term form is in the table of its level, a pattern or a command in that
    of its sort, and the form that starts ``"(" term`` in the table
    "grouped", under the token after the term.  All are compiled as one
    source under a file name of its own beside this module's
    (:func:`naive.compile_generated`), so a traceback shows the generated
    line and cProfile counts their time in ``syntax``, each under its own
    line and name.
    """
    tables: dict = defaultdict(dict)
    namespace = dict(
        ScopedTerm=naive.ScopedTerm, lexed_ident=naive.lexed_ident, position=_position,
        ATOM=tables[ATOM], atom=_Parser.atom, PATTERN=tables["pattern"], pattern=_Parser.pattern,
    )
    sources: list[str] = []
    placed: list[tuple[object, str, type]] = []  # (table, first token, class)
    sorts = {"term": naive.Term, "pattern": naive.Pattern, "command": naive.Command}
    for sort, union in sorts.items():
        for cls in get_args(union):
            level, text = naive.NOTATION[cls]
            namespace[cls.__name__] = cls
            first = naive.FIELD.match(text)
            tokens = naive.FIELD.sub(" {} ", text).split()
            grouped = sort == "term" and tokens[0] == "("
            binder = sort == "term" and level == TERM
            printer, *rule = _sources(cls, level, text, 2 if grouped else 0, binder)
            sources.append(printer)
            if first and cls.__annotations__[first[1]] != "VarIdent":
                juxtaposed = cls
                continue
            sources += rule
            table = "grouped" if grouped else level if sort == "term" else sort
            placed.append((table, tokens[2] if grouped else "ident" if first else tokens[0], cls))
    exec(naive.compile_generated("\n".join(sources), __file__), namespace)
    for table, key, cls in placed:
        tables[table][key] = namespace[f"parse_{cls.__name__}"]
    namespace["P"] = {cls: namespace[f"pretty_{cls.__name__}"] for cls in naive.NOTATION}
    return tables, namespace["P"], juxtaposed


_TABLES, _PRINTERS, _JUXTAPOSED = _compile_notation()
_TERM_RULES, _APP_RULES, _ATOM_RULES = _TABLES[TERM], _TABLES[APP], _TABLES[ATOM]
_PATTERN_RULES, _COMMAND_RULES = _TABLES["pattern"], _TABLES["command"]
_GROUPED = _TABLES["grouped"]
_IDENT_RULE = _ATOM_RULES["ident"]
_ATOM_RULES["("] = _Parser.group
_HEADS = {**_APP_RULES, **_ATOM_RULES}  # the forms an application starts with


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
    if p.kinds[p.i] != "eof":
        p.fail("end of input")
    return term


def parse_term(src: str) -> naive.Term:
    """Parse a standalone term (the whole input must be one term)."""
    return _parse(src, _whole_term)


# --------------------------------------------------------------------------
# pretty-printing
# --------------------------------------------------------------------------


def pretty_term(node: naive.Term | naive.Pattern | naive.Command) -> str:
    """The text of a term, or of a pattern or a command: each node's
    printer passes its pieces to one list, joined once, so a nest prints in
    time linear in its depth."""
    out: list[str] = []
    _PRINTERS[type(node)](node, TERM, out.append)
    return "".join(out)


def pretty_program(commands: list[naive.Command]) -> str:
    return "".join(pretty_term(command) + "\n" for command in commands)
