"""Parser and pretty-printer: precedence, comments, locations, round-trips."""

import random
import re
import sys
from typing import get_args

import pytest

from conftest import gen_naive_term

from scopefoil import naive
from scopefoil.syntax import (
    ParseError,
    parse_program,
    parse_term,
    pretty_program,
    pretty_term,
)


def test_application_is_left_associative():
    term = parse_term("f g h")
    match term:
        case naive.App(naive.App(naive.Var(f), naive.Var(g)), naive.Var(h)):
            assert (f.text, g.text, h.text) == ("f", "g", "h")
        case _:
            raise AssertionError(term)


def test_lambda_body_extends_right():
    assert pretty_term(parse_term("lam x . x x")) == "lam x . x x"
    # application binds tighter than lam: (lam x . x) y needs parens
    term = parse_term("(lam x . x) y")
    assert isinstance(term, naive.App)


def test_pi_syntax():
    term = parse_term("fun (x : U) -> x")
    match term:
        case naive.Pi(naive.PatternVar(ident), naive.Universe(), body):
            assert ident.text == "x"
            assert isinstance(body.term, naive.Var)
        case _:
            raise AssertionError(term)


def test_projection_heads_take_atoms():
    term = parse_term("first f x")
    # parses as (first f) x, not first (f x)
    match term:
        case naive.App(naive.First(naive.Var(f)), naive.Var(x)):
            assert (f.text, x.text) == ("f", "x")
        case _:
            raise AssertionError(term)


def test_pair_versus_grouping_parens():
    assert isinstance(parse_term("(x, y)"), naive.Pair)
    assert isinstance(parse_term("(x)"), naive.Var)
    nested = parse_term("((a, b), c)")
    match nested:
        case naive.Pair(naive.Pair(_, _), naive.Var(_)):
            pass
        case _:
            raise AssertionError(nested)


def test_patterns_parse():
    term = parse_term("lam (a, (_, b)) . b")
    match term:
        case naive.Lam(naive.PatternPair(naive.PatternVar(_), naive.PatternPair(naive.PatternWildcard(), naive.PatternVar(_))), _):
            pass
        case _:
            raise AssertionError(term)


def test_comments_are_skipped():
    src = """
    -- leading comment
    lam x . {- inline
       spanning lines -} x
    """
    assert pretty_term(parse_term(src)) == "lam x . x"


def test_program_parses_commands():
    src = "check U : U ;\ncompute (lam x . x) U : U ;\n"
    program = parse_program(src)
    assert len(program) == 2
    assert isinstance(program[0], naive.Check)
    assert isinstance(program[1], naive.Compute)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_term("lam x .")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_term("(lam x . x")
    assert err.value.col == 11
    with pytest.raises(ParseError):
        parse_term("lam 3 . x")
    with pytest.raises(ParseError):
        parse_program("compute U ;")  # missing annotation


def test_reserved_words_rejected_as_variables():
    for word in ("lam", "fun", "first", "second", "U", "check", "compute"):
        with pytest.raises((ParseError, ValueError)):
            parse_term(f"lam {word} . U")


def test_the_notation_gives_the_reserved_words_and_symbols():
    """The literal tokens of ``naive.NOTATION`` are the words no identifier
    may be and the symbols the lexer knows."""
    assert naive.RESERVED_WORDS == {"check", "compute", "lam", "fun", "first", "second", "U"}
    assert naive.SYMBOLS == {"->", "(", ")", ",", ":", ";", ".", "_"}
    assert set(naive.NOTATION) == {
        *get_args(naive.Term), *get_args(naive.Pattern), *get_args(naive.Command)
    }


def test_var_ident_validation():
    naive.VarIdent("x'")
    naive.VarIdent("Ab_3")
    with pytest.raises(ValueError):
        naive.VarIdent("3x")
    with pytest.raises(ValueError):
        naive.VarIdent("first")
    with pytest.raises(ValueError):
        naive.VarIdent("")
    for _ in range(2):  # an accepted text in between changes no verdict
        for bad in sorted(naive.RESERVED_WORDS) + ["", "3x", "_a", "a-b", "x y"]:
            with pytest.raises(ValueError):
                naive.VarIdent(bad)
        naive.VarIdent("x'")


def test_idents_carry_location_without_affecting_equality():
    term = parse_term("lam abc . abc")
    match term:
        case naive.Lam(naive.PatternVar(p), body):
            assert p.loc == (1, 5)
            assert body.term.ident.loc == (1, 11)
            assert p == body.term.ident  # loc does not compare
        case _:
            raise AssertionError(term)


def test_pretty_minimal_parens():
    cases = [
        "lam x . x x",
        "f (g h)",
        "f g h",
        "first (f x)",
        "first f x",
        "(lam x . x) y",
        "fun (x : U) -> fun (y : x) -> x",
        "(x, (y, z))",
        "lam (a, (b, _)) . a b",
        "second (first p)",
        "f (x, y)",
    ]
    for src in cases:
        assert pretty_term(parse_term(src)) == src


def test_pretty_program_roundtrip():
    src = "check lam x . x : fun (A : U) -> U ;\ncompute first (U, U) : U ;\n"
    program = parse_program(src)
    printed = pretty_program(program)
    assert parse_program(printed) == program
    assert pretty_program(parse_program(printed)) == printed


def test_parse_pretty_roundtrip_random():
    """parse(pretty(t)) == t on generator output across the whole grammar."""
    rng = random.Random(5150)
    for _ in range(200):
        term = gen_naive_term(rng, rng.randrange(1, 6))
        assert parse_term(pretty_term(term)) == term


def test_pretty_term_of_deep_nests():
    """A binder nest, an argument nest, a projection nest and pair patterns
    nested to the left and to the right print with every binder and
    parenthesis in place."""
    n = 5000
    binders = " . ".join(f"lam x{i}" for i in range(n)) + " . x0"
    arguments = "f (" * n + "f x" + ")" * n
    projections = "first (" * n + "first p" + ")" * n
    left = "lam " + "(" * n + "p0" + "".join(f", p{i})" for i in range(1, n + 1)) + " . p0"
    right = "lam " + "".join(f"(p{i}, " for i in range(n)) + "_" + ")" * n + " . p0"
    for src in (binders, arguments, projections, left, right):
        assert pretty_term(parse_term(src)) == src


def test_ident_locations_after_comments():
    """Lines are counted through both comment forms; columns restart after
    the last newline a comment or a run of whitespace contains."""
    term = parse_term("lam a . -- note\n {- one\ntwo -}\n   a")
    match term:
        case naive.Lam(naive.PatternVar(binder), naive.ScopedTerm(naive.Var(use))):
            assert binder.loc == (1, 5)
            assert use.loc == (4, 4)
        case _:
            raise AssertionError(term)
    term = parse_term("{- x\n -} lam (p, q) . {-\n-}q")
    match term:
        case naive.Lam(naive.PatternPair(naive.PatternVar(p), naive.PatternVar(q)), body):
            assert (p.loc, q.loc, body.term.ident.loc) == ((2, 10), (2, 13), (3, 3))
        case _:
            raise AssertionError(term)


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("lam x . {- a\nbb -}  x $", 2, 10, "unexpected character '$'"),
        ("lam x . x {- never\n closed", 1, 11, "unterminated comment"),
        ("lam x . x {", 1, 11, "unexpected character '{'"),
        ("lam x . x -y", 1, 11, "unexpected character '-'"),
        ("lam x . -- trailing", 1, 20, "expected a term, found 'end of input'"),
        ("(lam x . x -- trailing\n", 2, 1, "expected ')', found 'end of input'"),
        ("lam x . x ) -- trailing", 1, 11, "expected end of input, found ')'"),
        ("lam {- c -} 3 . x", 1, 13, "unexpected character '3'"),
        ("lam x {- c -} x", 1, 15, "expected '.', found 'x'"),
        ("fun (x : U) {- -} x", 1, 19, "expected '->', found 'x'"),
        ("lam ( . x", 1, 7, "expected a pattern, found '.'"),
    ],
)
def test_parse_error_positions_and_messages(src, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_term(src)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
    assert str(err.value) == f"line {line}, column {col}: {message}"


def test_program_error_after_a_multiline_comment():
    with pytest.raises(ParseError) as err:
        parse_program("compute U : U ; {- c\n -} check")
    assert (err.value.line, err.value.col) == (2, 10)
    assert err.value.message == "expected a term, found 'end of input'"
    with pytest.raises(ParseError) as err:
        parse_program("compute U : U ;\n\n  U")
    assert (err.value.line, err.value.col) == (3, 3)
    assert err.value.message == "expected 'check' or 'compute', found 'U'"


def test_input_nested_past_the_recursion_limit_is_a_parse_error():
    """Each parenthesis takes more than one parser frame, so as many of
    them as the recursion limit run out of stack: a parse error at the
    token reached, not a ``RecursionError``."""
    n = sys.getrecursionlimit()
    nested = "(" * n + "U" + ")" * n
    for parse, src in ((parse_term, nested), (parse_program, f"check {nested} : U ;")):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.message == "input nested too deeply to parse"
        assert err.value.line == 1 and 1 < err.value.col <= n


_PRINTED_TOKEN = re.compile(r"->|[A-Za-z][A-Za-z0-9_']*|[(),:;._]")
_LAYOUT = (" ", "\n", "\t ", "  -- note\n", "{- c -}", "{- one\n two -- not a line comment -}", "\n\n  ")


def _noisy(text: str, rng: random.Random) -> str:
    """``text`` with its tokens separated by random whitespace and comments."""
    tokens = _PRINTED_TOKEN.findall(text)
    assert "".join(tokens) == "".join(text.split())
    out = [rng.choice(_LAYOUT)]
    for token in tokens:
        out.append(token)
        out.append("".join(rng.choice(_LAYOUT) for _ in range(rng.randrange(1, 3))))
    return "".join(out)


def test_parse_noisy_layout_roundtrip_random():
    """parse(pretty(t)) == t whatever layout and comments sit between the
    tokens; identifier locations never take part in equality."""
    rng = random.Random(7241)
    for _ in range(200):
        term = gen_naive_term(rng, rng.randrange(1, 6))
        assert parse_term(_noisy(pretty_term(term), rng)) == term
    program = [naive.Compute(gen_naive_term(rng, 4), naive.Universe()) for _ in range(5)]
    assert parse_program(_noisy(pretty_program(program), rng)) == program
