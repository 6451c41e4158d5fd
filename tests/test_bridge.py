"""Conversions between raw named syntax and the scope-safe forms."""

import hashlib
import random
import sys

import pytest

from conftest import extend_scope_pattern, foil_pattern, gen_naive_term

from scopefoil import lambda_pi, naive
from scopefoil.bench import gen_random
from scopefoil.bridge import (
    DuplicateBinderError,
    UnboundVariableError,
    default_ident,
    from_foil_pattern,
    from_foil_term,
    rename_from_env,
    to_foil_closed,
    to_foil_term,
    to_free_closed,
)
from scopefoil.encoding import encode_direct, encode_free
from scopefoil.fuel import FuelExceededError
from scopefoil.generic import ScopedAST, check_scope, children
from scopefoil.cli import main
from scopefoil.lambda_pi import direct_to_free, free_to_direct, nf_free
from scopefoil.names import Name, Node, Scope, Var
from scopefoil.oracles import alpha_eq
from scopefoil.patterns import PatternPair, PatternVar, PatternWildcard
from scopefoil.syntax import parse_term, pretty_term
from scopefoil.terms import check_scope_direct, nf_direct


def test_closed_term_roundtrip_is_alpha_equal():
    src = "lam f . lam x . f (f x)"
    direct = to_foil_closed(parse_term(src))
    back = from_foil_term(default_ident, direct)
    assert alpha_eq(back, parse_term(src))


def test_shadowing_resolves_to_innermost():
    # the body's x is the inner binder, so the result is the identity
    # applied only to the inner argument
    src = "lam x . lam x . x"
    back = from_foil_term(default_ident, to_foil_closed(parse_term(src)))
    assert alpha_eq(back, parse_term("lam a . lam b . b"))


def test_binder_scope_ends_with_its_body():
    # the outer x is back in force after the inner binder's body
    src = "lam x . (lam x . x) x"
    back = from_foil_term(default_ident, to_foil_closed(parse_term(src)))
    assert alpha_eq(back, parse_term("lam a . (lam b . b) a"))
    # sibling binders each see their own name, and the enclosing ones
    src = "lam z . ((lam x . x z) (lam y . y z), (lam x . x) z)"
    back = from_foil_term(default_ident, to_foil_closed(parse_term(src)))
    assert alpha_eq(back, parse_term(src))
    # a sibling's name does not leak out of its body
    with pytest.raises(UnboundVariableError):
        to_foil_closed(parse_term("((lam x . x), x)"))


def test_unbound_variable_raises_with_location():
    term = parse_term("lam x . y")
    with pytest.raises(UnboundVariableError) as err:
        to_foil_closed(term)
    assert "y" in str(err.value)
    assert err.value.ident.loc == (1, 9)


def test_free_variables_via_environment():
    env = {"y": Name(3)}
    term = to_foil_term(rename_from_env(env), Scope().add(3), parse_term("lam x . y"))
    check_scope_direct(term, Scope().add(3))
    back = from_foil_term(
        lambda raw: naive.VarIdent("y") if raw == 3 else default_ident(raw), term
    )
    assert alpha_eq(back, parse_term("lam x . y"))


def test_duplicate_binders_in_one_pattern_rejected():
    term = parse_term("lam (a, a) . a")
    with pytest.raises(DuplicateBinderError) as err:
        to_foil_closed(term)
    assert "a" in str(err.value)


def test_duplicate_binders_in_nested_pattern_rejected():
    term = parse_term("lam ((a, b), (c, a)) . b")
    with pytest.raises(DuplicateBinderError):
        to_foil_closed(term)


def test_pattern_conversion_shapes_and_env():
    pattern, env = foil_pattern(
        naive.PatternPair(naive.PatternVar(naive.VarIdent("a")), naive.PatternWildcard())
    )
    match pattern:
        case PatternPair(PatternVar(binder), PatternWildcard()):
            assert env == {"a": Name(binder.raw)}
            assert extend_scope_pattern(pattern, Scope()) == Scope().add(binder.raw)
        case _:
            raise AssertionError(pattern)


def test_from_foil_pattern_names():
    pattern, _ = foil_pattern(
        naive.PatternPair(
            naive.PatternVar(naive.VarIdent("a")), naive.PatternVar(naive.VarIdent("b"))
        )
    )
    back = from_foil_pattern(default_ident, pattern)
    match back:
        case naive.PatternPair(naive.PatternVar(l), naive.PatternVar(r)):
            assert l.text != r.text
        case _:
            raise AssertionError(back)


def test_default_ident_scheme():
    assert default_ident(12) == naive.VarIdent("x12")
    assert default_ident(5) is default_ident(5)
    with pytest.raises(ValueError):
        default_ident(-1)


def test_pi_domain_scoped_outside_binder():
    # the A in the domain position must refer to the *outer* A
    src = "lam A . fun (A : A) -> A"
    direct = to_foil_closed(parse_term(src))
    back = from_foil_term(default_ident, direct)
    assert alpha_eq(back, parse_term("lam B . fun (A : B) -> A"))


def test_random_roundtrip_alpha_equal():
    """to-foil then from-foil preserves terms up to alpha across the whole
    grammar, patterns included."""
    rng = random.Random(31337)
    for _ in range(150):
        surface = gen_naive_term(rng, rng.randrange(1, 6))
        direct = to_foil_closed(surface)
        check_scope_direct(direct, Scope())
        back = from_foil_term(default_ident, direct)
        assert alpha_eq(back, surface), pretty_term(surface)


# --------------------------------------------------------------------------
# the direct conversions, which go through the generic ones, pinned to the
# raw names and masks of the direct walk they replaced, and their round trips
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def equivalence_corpus() -> list:
    """300 full-grammar terms (wildcard, pair and Pi binders) and the 200
    terms of the ``random`` benchmark pool."""
    rng = random.Random(4242)
    terms = [gen_naive_term(rng, rng.randrange(1, 7)) for _ in range(300)]
    terms += [gen_random(42 + i, s) for s in (15, 20) for i in range(100)]
    return terms


def _masks(ast, out: list) -> list:
    """The recorded mask of every node, in walk order."""
    if type(ast) is Var:
        return out
    out.append((type(ast), ast.fv))
    for child in children(ast):
        if type(child) is ScopedAST:
            _masks(child.body, out)
        else:
            _masks(child, out)
    return out


def _direct_masks(term, out: list) -> list:
    """The recorded mask of every direct node, in walk order."""
    if not isinstance(term, Node):  # a variable or a pattern
        return out
    out.append(term.fv)
    for child in children(term):
        _direct_masks(child, out)
    return out


def test_to_foil_bytes_and_masks_are_pinned(equivalence_corpus):
    """``to_foil_closed`` keeps the raw names, shapes and masks of the
    direct tree it built with a surface walk of its own: the digest was
    taken from that walk, before the direct conversion became a composition
    through the generic tree."""
    digest = hashlib.sha256()
    for term in equivalence_corpus:
        direct = to_foil_closed(term)
        digest.update(encode_direct(direct))
        digest.update(repr(_direct_masks(direct, [])).encode())
    assert digest.hexdigest() == (
        "1ea1a281f86b11639dd6769383b3016d3b756cb286827ac0474e0981e4b3e926"
    )


def test_to_free_is_direct_to_free_of_to_foil(equivalence_corpus):
    # the direct walk's tree, made generic, is the generic walk's
    for term in equivalence_corpus:
        one = to_free_closed(term)
        two = direct_to_free(to_foil_closed(term))
        assert encode_free(one) == encode_free(two), pretty_term(term)
        assert _masks(one, []) == _masks(two, []), pretty_term(term)
        assert check_scope(one, Scope()) == 0


def test_from_free_is_from_foil_of_free_to_direct(equivalence_corpus):
    # the one read-back walk gives the same surface term on both trees: on
    # each engine's normal form, and on that form converted to the other tree
    # (the direct engine's keep its shadowing and refreshed binders)
    normalized = 0
    for term in equivalence_corpus:
        for normalize, convert, tree in (
            (nf_free, free_to_direct, to_free_closed),
            (nf_direct, direct_to_free, to_foil_closed),
        ):
            try:
                normal = normalize(Scope(), tree(term), fuel=50_000)
            except FuelExceededError:
                continue
            normalized += 1
            assert from_foil_term(default_ident, normal) == from_foil_term(
                default_ident, convert(normal)
            ), pretty_term(term)
    assert normalized >= 800


# sha256 of the printed read-back of every ``equivalence_corpus`` term's
# direct tree, one line each
CORPUS_READ_BACK_SHA256 = "b08bfbe68033381acb5b71429fb102dd88b8b8ee5134d1a73d155fa9bed7e7c6"


def test_read_back_builds_no_generic_tree(monkeypatch, equivalence_corpus, tmp_path, capsys):
    """A direct tree is read back with no generic tree built on the way: with
    ``direct_to_free`` refused in every module of the package that binds it,
    the read-back, ``alpha_eq`` and the direct engine's ``normalize`` give
    their pinned outputs."""
    real = lambda_pi.direct_to_free

    def refuse(term):
        raise AssertionError("direct_to_free called")

    for name, module in list(sys.modules.items()):
        if name.startswith("scopefoil") and getattr(module, "direct_to_free", None) is real:
            monkeypatch.setattr(module, "direct_to_free", refuse)
    digest = hashlib.sha256()
    for term in equivalence_corpus:
        back = from_foil_term(default_ident, to_foil_closed(term))
        digest.update(pretty_term(back).encode() + b"\n")
    assert digest.hexdigest() == CORPUS_READ_BACK_SHA256
    direct = to_foil_closed(parse_term("lam (a, b) . b a"))
    assert alpha_eq(direct, parse_term("lam (x, y) . y x"))
    assert not alpha_eq(direct, parse_term("lam (x, y) . x y"))
    path = tmp_path / "redex.lp"
    path.write_text("(lam (f, _) . lam (a, b) . f (b, a)) (lam p . first p, U)\n")
    assert main(["normalize", "--engine", "direct", str(path)]) == 0
    assert capsys.readouterr().out == "lam (x1, x2) . x2\n"
    assert main(["normalize", "--whnf", "--engine", "direct", str(path)]) == 0
    assert capsys.readouterr().out == "lam (x1, x2) . first (lam x0 . first x0, U) (x2, x1)\n"


@pytest.mark.parametrize(
    "src, error, loc",
    [
        ("lam x . (x, fun (A : U) -> y)", UnboundVariableError, (1, 28)),
        ("(lam x . x, x)", UnboundVariableError, (1, 13)),
        ("lam ((a, b), (c, (d, b))) . a", DuplicateBinderError, (1, 22)),
        ("fun ((p, q) : U) -> lam (q, (r, q)) . U", DuplicateBinderError, (1, 33)),
        ("lam (a, (b, a)) . a", DuplicateBinderError, (1, 13)),
        # ``a`` is bound again once the pair that shadows it ends; ``b`` is not
        ("lam a . ((lam (a, b) . b) a b)", UnboundVariableError, (1, 29)),
        ("lam x . (lam y . lam x . x) x y", UnboundVariableError, (1, 31)),
        # two faults: the first in source order is the one raised
        ("lam q . (z, lam (c, c) . c)", UnboundVariableError, (1, 10)),
        ("(lam (c, c) . c, z)", DuplicateBinderError, (1, 10)),
        ("fun ((p, p) : zz) -> U", DuplicateBinderError, (1, 10)),
        ("fun (p : zz) -> lam (c, c) . U", UnboundVariableError, (1, 10)),
    ],
)
def test_both_walks_raise_the_same_errors(src, error, loc):
    term = parse_term(src)
    raised = []
    for convert in (to_free_closed, to_foil_closed):
        with pytest.raises(error) as err:
            convert(term)
        raised.append((str(err.value), err.value.message, err.value.ident.loc))
    assert raised[0] == raised[1]
    assert raised[0][2] == loc


@pytest.mark.parametrize("text", ["lam", "U", "1x", "_a", "x-y", ""])
def test_an_identifier_built_directly_is_still_checked(text):
    with pytest.raises(ValueError, match="invalid identifier"):
        naive.VarIdent(text)
