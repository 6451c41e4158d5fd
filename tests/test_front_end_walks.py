"""The front end's compiled walks: ``to_free_term``, ``to_foil_term`` and
``from_foil_term`` of ``bridge``, and the lexer of ``syntax``.

Each is checked against the version it replaced, kept here as the
reference: conversions that loop over each node's field roles at run time
(the direct tree made from the generic one, as the old ``to_foil_term``
made it), and a lexer with one named-group match per token and per run of
layout, counting lines as it goes.  On the corpus programs, the
``gen_random(9000 + i, 12)`` pool and pattern-heavy terms, the compiled
walks build the same trees node by node: the same classes, binders and
recorded masks, and the same errors.  The lexer gives the same kinds,
texts, lines and columns, and the same errors.  Then: every compiled walk
is keyed in cProfile under ``bridge.py``, each code object under its own
key.
"""

import cProfile
import random
import re
import sys
from pathlib import Path

import pytest

from conftest import gen_naive_term

from scopefoil import bridge, naive
from scopefoil.bench import gen_random
from scopefoil.bridge import (
    DuplicateBinderError,
    UnboundVariableError,
    default_ident,
    fail_on_free,
    from_foil_pattern,
    from_foil_term,
    rename_from_env,
    to_foil_closed,
    to_foil_term,
    to_free_term,
)
from scopefoil.generic import PATTERN, SCOPED, ScopedAST, children, constructor
from scopefoil.lambda_pi import BY_FREE, BY_NAIVE, free_to_direct, nf_free
from scopefoil.names import Name, NameBinder, Node, Scope, Var, fresh_raw_name, set_mask
from scopefoil.patterns import PatternPair, PatternVar, PatternWildcard, pattern_mask
from scopefoil.syntax import (
    ParseError,
    _lex,
    _line_starts,
    _offset,
    _position,
    parse_program,
    parse_term,
    pretty_term,
)
from scopefoil.terms import BY_DIRECT, nf_direct

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


# ---------------------------------------------------------------------------
# the reference: the walks that read each node's roles at run time
# ---------------------------------------------------------------------------


def _reference_bind_pattern(scope, pattern, bound):
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
        left, scope = _reference_bind_pattern(scope, pattern.left, bound)
        right, scope = _reference_bind_pattern(scope, pattern.right, bound)
        as_pattern = lambda b: PatternVar(b) if type(b) is NameBinder else b  # noqa: E731
        return PatternPair(as_pattern(left), as_pattern(right)), scope
    if kind is naive.PatternWildcard:
        return PatternWildcard(), scope
    raise TypeError(f"not a pattern: {pattern!r}")


def reference_to_free_term(rename, scope, term):
    env = {}

    def go(scope, t):
        if type(t) is naive.Var:
            entry = env.get(t.ident.text)
            return Var(rename(t.ident) if entry is None else entry[0])
        con = constructor(BY_NAIVE, t)
        new = []
        mask = 0
        for role, field in zip(con.roles, children(t)):
            if role is PATTERN:
                bound = []
                binder, body_scope = _reference_bind_pattern(scope, field, bound)
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


def reference_to_foil_term(rename, scope, term):
    return free_to_direct(reference_to_free_term(rename, scope, term))


_BY_TREE = BY_DIRECT | BY_FREE
_BODIES = {
    con.direct: tuple(i for i, role in enumerate(con.roles) if role is SCOPED)
    for con in _BY_TREE.values()
}


def reference_from_foil_term(raw_to_ident, term):
    kind = type(term)
    if kind is Var:
        return naive.Var(raw_to_ident(term.name.raw))
    con = _BY_TREE.get(kind)
    if con is None:
        raise TypeError(f"not a term: {term!r}")
    new = []
    for field in children(term):
        kind = type(field)
        if kind is Var:
            new.append(naive.Var(raw_to_ident(field.name.raw)))
        elif kind is ScopedAST:
            binder = field.binder
            new.append(naive.ScopedTerm(reference_from_foil_term(raw_to_ident, field.body)))
        elif kind in _BY_TREE:
            new.append(reference_from_foil_term(raw_to_ident, field))
        else:  # a direct node's pattern
            new.append(from_foil_pattern(raw_to_ident, field))
    if con.pattern is not None:
        if type(term) is con.free:
            new.insert(con.pattern, from_foil_pattern(raw_to_ident, binder))
        else:
            for i in _BODIES[type(term)]:
                new[i] = naive.ScopedTerm(new[i])
    return con.naive(*new)


_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<skip>(?:\s|--[^\n]*|\{-.*?-\})+)
    | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
    | (?P<symbol>->|[(),:;._])
    | (?P<bad>\{-|.)
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_lex(src):
    kinds, texts, lines, cols = [], [], [], []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN_RE.finditer(src):
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
        kinds.append("ident" if kind == "ident" and text not in naive.RESERVED_WORDS else text)
        texts.append(text)
        lines.append(line)
        cols.append(col)
    kinds.append("eof")
    texts.append("")
    lines.append(line)
    cols.append(len(src) - line_start + 1)
    return kinds, texts, lines, cols


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

PATTERN_HEAVY = (
    "lam _ . U",
    "lam (_, _) . lam ((_, a), _) . a",
    "lam ((a, b), (c, (d, e))) . (e, (d, (c, (b, a))))",
    "lam (a, b) . lam (b, a) . (a, b)",  # shadowing across a pair pattern
    "lam x . (lam x . x) x",  # shadowing by a single binder, which then ends
    "lam a . (lam (a, b) . (a, b)) a",
    "lam x . lam (x, (y, x')) . lam (y, x) . (x, (y, x'))",
    "fun (A : U) -> fun (A : A) -> A",  # a Pi domain scoped outside its binder
    "fun ((A, B) : U) -> fun ((B, A) : (A, B)) -> (A, B)",
    "fun (_ : U) -> fun ((x, _) : U) -> lam y . first x y",
    "(lam (f, _) . lam (a, b) . f (b, a)) (lam p . first p, U)",
)


def _corpus_terms():
    for path in sorted(CORPUS.glob("*.lp")):
        for command in parse_program(path.read_text()):
            yield command.term
            yield command.annot


def _inputs():
    yield from _corpus_terms()
    for index in range(60):
        yield gen_random(9000 + index, 12)
    for src in PATTERN_HEAVY:
        yield parse_term(src)
    rng = random.Random(2801)
    for _ in range(200):
        yield gen_naive_term(rng, rng.randrange(1, 8), pattern_depth=3)


def _binders(ast):
    """The binder of every ``ScopedAST`` in a generic tree."""
    if type(ast) is Var:
        return
    for child in children(ast):
        if type(child) is ScopedAST:
            yield child.binder
            yield from _binders(child.body)
        else:
            yield from _binders(child)


def _assert_same(ref, out):
    """The same tree node by node: class, binders and recorded masks."""
    assert type(ref) is type(out)
    if type(ref) is Var:
        assert ref == out
        return
    if type(ref) is ScopedAST:
        assert ref.binder == out.binder
        _assert_same(ref.body, out.body)
        return
    if not isinstance(ref, Node):  # a direct node's pattern
        assert ref == out
        return
    assert ref.fv == out.fv, (ref, out)
    for a, b in zip(children(ref), children(out), strict=True):
        _assert_same(a, b)


# ---------------------------------------------------------------------------
# the conversions
# ---------------------------------------------------------------------------


def test_compiled_conversions_match_the_loop_versions():
    count = patterned = 0
    for term in _inputs():
        for rename, scope in ((fail_on_free, Scope()), (fail_on_free, Scope([0, 3]))):
            _assert_same(
                reference_to_free_term(rename, scope, term), to_free_term(rename, scope, term)
            )
            _assert_same(
                reference_to_foil_term(rename, scope, term), to_foil_term(rename, scope, term)
            )
        count += 1
        patterned += any(
            type(binder) is not NameBinder for binder in _binders(to_free_term(fail_on_free, Scope(), term))
        )
    assert count > 250 and patterned > 50


def test_compiled_conversions_of_open_terms_match():
    env = {"u": Name(0), "v": Name(1)}
    rng = random.Random(2802)
    for _ in range(200):
        term = gen_naive_term(rng, rng.randrange(1, 8), ("u", "v"))
        scope = Scope([0, 1, *rng.sample(range(2, 6), rng.randrange(3))])
        rename = rename_from_env(env)
        _assert_same(
            reference_to_free_term(rename, scope, term), to_free_term(rename, scope, term)
        )
        _assert_same(
            reference_to_foil_term(rename, scope, term), to_foil_term(rename, scope, term)
        )


def test_compiled_read_back_matches_the_loop_version():
    """On both trees of every input, and on their normal forms, whose
    binders shadow and are refreshed."""
    normalized = 0
    for term in _inputs():
        free = to_free_term(fail_on_free, Scope(), term)
        direct = to_foil_term(fail_on_free, Scope(), term)
        trees = [free, direct]
        for normalize, tree in ((nf_free, free), (nf_direct, direct)):
            try:
                trees.append(normalize(Scope(), tree, fuel=20_000))
                normalized += 1
            except Exception:  # out of fuel
                pass
        for tree in trees:
            ref = reference_from_foil_term(default_ident, tree)
            out = from_foil_term(default_ident, tree)
            assert ref == out
            assert pretty_term(ref) == pretty_term(out)
    assert normalized > 500


@pytest.mark.parametrize(
    "src",
    [
        "lam x . (x, fun (A : U) -> y)",
        "lam ((a, b), (c, (d, b))) . a",
        "lam (a, (b, a)) . a",
        "lam a . ((lam (a, b) . b) b)",
        "(lam x . x, x)",
        "lam x . (lam y . lam x . x) x y",
        "lam q . (z, lam (c, c) . c)",
        "(lam (c, c) . c, z)",
        "fun ((p, p) : zz) -> U",
    ],
)
def test_compiled_conversions_raise_the_reference_errors(src):
    term = parse_term(src)
    raised = []
    for convert in (reference_to_free_term, to_free_term, to_foil_term):
        with pytest.raises((UnboundVariableError, DuplicateBinderError)) as err:
            convert(fail_on_free, Scope(), term)
        raised.append((type(err.value), str(err.value), err.value.ident.loc))
    assert raised[0] == raised[1] == raised[2]


def _compound_nodes(term):
    if type(term) is naive.Var:
        return 0
    count = 1
    for child in children(term):
        if type(child) is naive.ScopedTerm:
            count += _compound_nodes(child.term)
        elif type(child) not in (naive.PatternVar, naive.PatternPair, naive.PatternWildcard):
            count += _compound_nodes(child)
    return count


def test_the_direct_tree_is_built_in_one_walk(monkeypatch):
    """``to_foil_closed`` calls its walk once per compound surface node, and
    no conversion between the two trees."""
    refuse = lambda term: pytest.fail("a conversion between the trees")  # noqa: E731
    for name, module in list(sys.modules.items()):
        if name.startswith("scopefoil"):
            for conversion in ("free_to_direct", "direct_to_free"):
                if hasattr(module, conversion):
                    monkeypatch.setattr(module, conversion, refuse)
    terms = [parse_term(src) for src in PATTERN_HEAVY] + list(_corpus_terms())
    profiler = cProfile.Profile()
    profiler.enable()
    for term in terms:
        to_foil_closed(term)
    profiler.disable()
    profiler.create_stats()
    walks = sum(
        ncalls for (_, _, name), (_, ncalls, *_) in profiler.stats.items() if name == "to_tree"
    )
    assert walks == sum(map(_compound_nodes, terms))


def test_a_value_that_is_not_a_term_is_refused():
    for convert in (to_free_term, to_foil_term):
        with pytest.raises(TypeError, match="not a term"):
            convert(fail_on_free, Scope(), naive.Lam(naive.PatternWildcard(), naive.ScopedTerm(3)))
    with pytest.raises(TypeError, match="not a term"):
        from_foil_term(default_ident, 3)


# ---------------------------------------------------------------------------
# the lexer
# ---------------------------------------------------------------------------

LEXED = (
    "",
    "   \n\n  ",
    "check lam x . x : fun (A : U) -> U ;",
    "compute (lam (a, _) . a) (U, U) : U ;\r\ncheck U : U ;\r\n",
    "\tcompute\tlam x' .\tx'\t: U ;\n\t\t-- tabs\n",
    "-- a comment\ncheck {- a\nblock -} U : {--} U ; -- trailing",
    "{- one -}{- two\n\n -}check U:U;{- end -}",
    "lam x_1 . first (second x_1) -- no newline at the end",
    "check U : U ; ->(),:;._ lam fun first second U compute check lambda Uu",
    "f\r\n  {- \r\n -} g\r\nh",
    "x->y -->z\na--b\n{--}->{- -} -> {-}-}_",
)
LEX_ERRORS = (
    "check U : U ; {- never closed",
    "check\n  U {- -} {- \n x",
    "compute U % U ;",
    "check\n\tλ",
    "﻿check U : U ;",
    "lam x . x -} ",
    "x\r\n  @",
)


def _lex_with_positions(src):
    kinds, texts, offsets = _lex(src)
    assert [kind == "ident" for kind in kinds] == [offset is not None for offset in offsets]
    starts = _line_starts(src)
    positions = [
        _position(starts, _offset(src, i) if offset is None else offset)
        for i, offset in enumerate(offsets)
    ]
    return kinds, texts, [p[0] for p in positions], [p[1] for p in positions]


def test_lexer_matches_the_reference():
    """Kinds, texts and positions; an identifier's offset is kept, and any
    other token's found again by a second scan."""
    sources = list(LEXED)
    sources += [path.read_text() for path in sorted(CORPUS.glob("*.lp"))]
    rng = random.Random(2803)
    sources += [pretty_term(gen_naive_term(rng, 6)) for _ in range(50)]
    sources += [pretty_term(gen_random(9000 + i, 12)) for i in range(20)]
    for src in sources:
        assert _lex_with_positions(src) == reference_lex(src), src
        crlf = src.replace("\n", "\r\n")
        assert _lex_with_positions(crlf) == reference_lex(crlf), crlf


@pytest.mark.parametrize("src", LEX_ERRORS)
def test_lexer_raises_the_reference_errors(src):
    raised = []
    for lex in (_lex, reference_lex):
        with pytest.raises(ParseError) as err:
            lex(src)
        raised.append((err.value.message, err.value.line, err.value.col))
    assert raised[0] == raised[1]


def test_parsed_identifiers_equal_checked_ones():
    """The parser builds identifiers without ``VarIdent``'s check; each is
    the one the check would build, at its location."""
    term = parse_term("lam x' . lam (y_1, Uu) .\n  x' (y_1 Uu)")
    assert term == naive.Lam(
        naive.PatternVar(naive.VarIdent("x'")),
        naive.ScopedTerm(
            naive.Lam(
                naive.PatternPair(
                    naive.PatternVar(naive.VarIdent("y_1")), naive.PatternVar(naive.VarIdent("Uu"))
                ),
                naive.ScopedTerm(
                    naive.App(
                        naive.Var(naive.VarIdent("x'")),
                        naive.App(naive.Var(naive.VarIdent("y_1")), naive.Var(naive.VarIdent("Uu"))),
                    )
                ),
            )
        ),
    )
    assert term.body.term.body.term.arg.arg.ident.loc == (2, 11)
    assert term.pattern.ident.loc == (1, 5)


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------


def test_cprofile_keys_each_walk_under_bridge():
    """Every compiled front-end walk runs under a cProfile key in
    ``bridge.py``, and no two code objects share a key, so normbench's
    ``bridge.self_s`` counts them all and merges none."""
    terms = [parse_term(src) for src in PATTERN_HEAVY]
    terms += [parse_term("first (U, U)"), parse_term("second (lam x . x, U)")]
    profiler = cProfile.Profile()
    profiler.enable()
    for term in terms:
        for tree in (to_free_term(fail_on_free, Scope(), term), to_foil_term(fail_on_free, Scope(), term)):
            from_foil_term(default_ident, tree)
    profiler.disable()
    profiler.create_stats()
    keys = {key for key in profiler.stats if key[2] in ("to_tree", "from_tree")}
    walks = [*bridge._TO_FREE.values(), *bridge._TO_DIRECT.values(), *bridge._FROM_TREES.values()]
    assert len(walks) == 4 * len(BY_NAIVE)  # every class, to and from either tree
    codes = {walk.__code__ for walk in walks}
    code_keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}
    assert len(code_keys) == len(codes)
    assert keys == code_keys
    assert {file for file, _, _ in keys} == {bridge.__file__}
