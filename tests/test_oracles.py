"""The two reference implementations and alpha-equivalence.

These are the oracles the rest of the suite leans on, so they get the
heaviest scrutiny: exact frozen forms for small cases, plus mutual
agreement on random terms (the named and de Bruijn normalizers share no
code, so agreement is meaningful evidence).
"""

import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

from conftest import ALREADY_NORMAL, gen_naive_term

import scopefoil
from scopefoil import lambda_pi, naive, oracles
from scopefoil.bench import (
    DEFAULT_GEN_FUEL,
    _gen_closed,
    church_fact,
    church_mult,
    church_plus,
    gen_random,
)
from scopefoil.fuel import Fuel, FuelExceededError
from scopefoil.oracles import (
    BVar,
    DBApp,
    DBFirst,
    DBLam,
    DBPair,
    DBPi,
    DBSecond,
    DBUniverse,
    FVar,
    ShapePair,
    ShapeVar,
    ShapeWildcard,
    _db_beta,
    alpha_eq,
    from_debruijn,
    nf_debruijn,
    nf_named,
    shape_arity,
    shift_db,
    subst_named,
    to_debruijn,
    whnf_debruijn,
    whnf_named,
)
from scopefoil.syntax import parse_term, pretty_term


def _v(text):
    return naive.Var(naive.VarIdent(text))


def test_to_debruijn_exact_forms():
    assert to_debruijn(parse_term("lam x . lam y . x y")) == DBLam(
        ShapeVar(), DBLam(ShapeVar(), DBApp(BVar(1), BVar(0)))
    )
    # pattern binders become name-free shapes; the leftmost binder is
    # outermost, so in `lam (a, b) . b a` the b is index 1... no: b is the
    # rightmost binder, hence index 0
    assert to_debruijn(parse_term("lam (a, b) . b a")) == DBLam(
        ShapePair(ShapeVar(), ShapeVar()), DBApp(BVar(0), BVar(1))
    )
    assert to_debruijn(parse_term("lam _ . y")) == DBLam(
        ShapeWildcard(), FVar(naive.VarIdent("y"))
    )
    # a shadowing binder hides the outer x only in its own body, and an
    # identifier it bound is free again after it
    assert to_debruijn(parse_term("lam x . lam y . fun (x : x) -> x y")) == DBLam(
        ShapeVar(),
        DBLam(ShapeVar(), DBPi(ShapeVar(), BVar(1), DBApp(BVar(0), BVar(1)))),
    )
    assert to_debruijn(parse_term("lam x . (lam x . x, x)")) == DBLam(
        ShapeVar(), DBPair(DBLam(ShapeVar(), BVar(0)), BVar(0))
    )
    assert to_debruijn(parse_term("(lam x . x, x)")) == DBPair(
        DBLam(ShapeVar(), BVar(0)), FVar(naive.VarIdent("x"))
    )
    # a pattern binding a name twice: the rightmost occurrence is innermost
    # and wins, and after the binder the name is free again, or back at the
    # enclosing binder's level
    assert to_debruijn(parse_term("lam (x, x) . x")) == DBLam(
        ShapePair(ShapeVar(), ShapeVar()), BVar(0)
    )
    assert to_debruijn(parse_term("(lam (x, x) . x) x")) == DBApp(
        DBLam(ShapePair(ShapeVar(), ShapeVar()), BVar(0)), FVar(naive.VarIdent("x"))
    )
    assert to_debruijn(parse_term("lam x . (lam (x, x) . x, x)")) == DBLam(
        ShapeVar(),
        DBPair(DBLam(ShapePair(ShapeVar(), ShapeVar()), BVar(0)), BVar(0)),
    )


def test_to_debruijn_is_alpha_canonical():
    a = to_debruijn(parse_term("lam x . lam y . x"))
    b = to_debruijn(parse_term("lam y . lam x . y"))
    assert a == b
    c = to_debruijn(parse_term("lam x . lam y . y"))
    assert a != c


def test_from_debruijn_roundtrip():
    rng = random.Random(808)
    for _ in range(150):
        term = gen_naive_term(rng, rng.randrange(1, 6))
        db = to_debruijn(term)
        assert to_debruijn(from_debruijn(db)) == db


def test_from_debruijn_names_binders_in_order_skipping_free_identifiers():
    def back(src):
        return pretty_term(from_debruijn(to_debruijn(parse_term(src))))

    # x0 and x2 occur free, so the binder takes x1
    assert back("lam y . x0 x2 y") == "lam x1 . x0 x2 x1"
    # left to right through a pair pattern, wildcards take no name
    assert back("lam (a, (_, b)) . b a") == "lam (x0, (_, x1)) . x1 x0"
    # a Pi's binder is named after its domain's, before its codomain's
    assert back("fun (x : lam y . y) -> lam z . x z") == (
        "fun (x1 : lam x0 . x0) -> lam x2 . x1 x2"
    )
    assert back("lam (a, (_, b)) . fun (c : lam d . d a) -> lam e . c x1") == (
        "lam (x0, (_, x2)) . fun (x4 : lam x3 . x3 x0) -> lam x5 . x4 x1"
    )


@pytest.mark.parametrize(
    "value",
    [naive.Check(_v("x"), naive.Universe()), ShapeVar()],
    ids=["check", "shape"],
)
def test_conversions_refuse_a_non_term(value):
    for convert in (to_debruijn, from_debruijn):
        with pytest.raises(TypeError, match=r"^not a term: "):
            convert(value)
    # and under a binder, where the walk meets it as a field
    nested = naive.Lam(naive.PatternWildcard(), naive.ScopedTerm(value))
    with pytest.raises(TypeError, match=r"^not a term: "):
        to_debruijn(nested)


def test_shift_db():
    # shifting affects only indices at or above the cutoff
    body = DBApp(BVar(0), BVar(3))
    assert shift_db(body, 2, cutoff=1) == DBApp(BVar(0), BVar(5))
    assert shift_db(body, 2) == DBApp(BVar(2), BVar(5))
    under = DBLam(ShapeVar(), DBApp(BVar(0), BVar(1)))
    assert shift_db(under, 1) == DBLam(ShapeVar(), DBApp(BVar(0), BVar(2)))


def _strip_binders(term):
    """The body under the term's outer binders, whose indices are loose."""
    while type(term) in (DBLam, DBPi):
        term = term.body if type(term) is DBLam else term.codomain
    return term


def _open_terms():
    """300 bodies of ``lam u . lam v . lam w . <random term over u, v, w>``,
    whose indices are loose, each with three small random numbers."""
    rng = random.Random(6061)
    for _ in range(300):
        term = gen_naive_term(rng, rng.randrange(2, 7), ("u", "v", "w"))
        for ident in ("w", "v", "u"):
            term = naive.Lam(
                naive.PatternVar(naive.VarIdent(ident)), naive.ScopedTerm(term)
            )
        t = _strip_binders(to_debruijn(term))
        yield t, rng.randrange(4), rng.randrange(4), rng.randrange(3)


def test_shift_db_laws_on_open_terms():
    moved = 0
    for t, a, b, c in _open_terms():
        assert shift_db(t, 0) is t
        assert shift_db(shift_db(t, a, c), b, c) == shift_db(t, a + b, c)
        moved += shift_db(t, 1) != t
    # the laws are not checked on closed terms only
    assert moved >= 150, moved


def _children(t):
    """The subterms of ``t`` with the number of indices each one's binder
    adds, read by hand rather than from the node caches."""
    match t:
        case BVar() | FVar() | DBUniverse():
            return []
        case DBLam(shape, body):
            return [(body, shape_arity(shape))]
        case DBPi(shape, domain, codomain):
            return [(domain, 0), (codomain, shape_arity(shape))]
        case DBApp(fun, arg):
            return [(fun, 0), (arg, 0)]
        case DBPair(left, right):
            return [(left, 0), (right, 0)]
        case DBFirst(inner) | DBSecond(inner):
            return [(inner, 0)]


def _walk(t):
    yield t
    for child, _ in _children(t):
        yield from _walk(child)


def _node_count(t):
    return 1 + sum(_node_count(child) for child, _ in _children(t))


def _loose_indices(t, depth=0):
    if type(t) is BVar:
        return [t.index - depth] if t.index >= depth else []
    return [i for c, k in _children(t) for i in _loose_indices(c, depth + k)]


def _check_caches(term):
    for t in _walk(term):
        assert t.size == _node_count(t), t
        assert t.loose == 1 + max(_loose_indices(t), default=-1), t
        for cutoff in range(5):
            assert (shift_db(t, 1, cutoff) is t) == (t.loose <= cutoff), (t, cutoff)


def test_node_caches_match_plain_walks():
    opened = 0
    for t, _, _, _ in _open_terms():
        _check_caches(t)
        opened += t.loose > 0
    assert opened >= 150, opened
    for s in (15, 20):
        for i in range(20):
            db = to_debruijn(gen_random(42 + i, s))
            _check_caches(db)
            # and on the nodes the engine builds
            _check_caches(nf_debruijn(db, DEFAULT_GEN_FUEL))


def test_node_caches_are_not_part_of_the_structure():
    classes = (BVar, FVar, DBApp, DBLam, DBPi, DBPair, DBFirst, DBSecond, DBUniverse)
    assert {cls.__name__: cls.__match_args__ for cls in classes} == {
        "BVar": ("index",),
        "FVar": ("ident",),
        "DBApp": ("fun", "arg"),
        "DBLam": ("shape", "body"),
        "DBPi": ("shape", "domain", "codomain"),
        "DBPair": ("left", "right"),
        "DBFirst": ("term",),
        "DBSecond": ("term",),
        "DBUniverse": (),
    }
    term = to_debruijn(parse_term("lam x . fun (y : (first x, second x)) -> x y U z"))
    nodes = list(_walk(term))
    assert {type(t) for t in nodes} == set(classes)
    for t in nodes:
        assert "size" not in repr(t) and "loose" not in repr(t)
        for name in ("size", "loose"):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, 0)
        assert t.size == _node_count(t)
    # equality and hashing read the structure only: the same term built
    # from its parts again is equal to it
    rebuilt = to_debruijn(from_debruijn(term))
    assert rebuilt == term and hash(rebuilt) == hash(term)


def test_each_debruijn_class_keeps_its_surface_fields():
    # the conversions read a de Bruijn node's fields by the surface roles
    assert set(oracles.TO_DB) == set(lambda_pi.BY_NAIVE)
    for surface, db in oracles.TO_DB.items():
        assert db.__name__ == "DB" + surface.__name__
        assert db.__match_args__ == tuple(
            "shape" if field == "pattern" else field
            for field in surface.__match_args__
        )
        assert oracles.BY_DB[db] is lambda_pi.BY_NAIVE[surface]


def test_nf_debruijn_exact_forms_under_binders():
    # the argument lands under one more binder than the redex
    term = to_debruijn(parse_term("lam z . (lam x . x (lam y . x y)) z"))
    assert nf_debruijn(term) == DBLam(
        ShapeVar(), DBApp(BVar(0), DBLam(ShapeVar(), DBApp(BVar(1), BVar(0))))
    )
    # a pair shape contracted at depth 1, under a binder that keeps its own
    term = to_debruijn(parse_term("lam z . (lam (a, b) . lam y . b a) (z, U)"))
    assert nf_debruijn(term) == DBLam(
        ShapeVar(), DBLam(ShapeVar(), DBApp(DBUniverse(), BVar(1)))
    )


def test_db_beta_shares_one_shifted_argument_per_depth():
    # (lam x . lam y . x (x y)) applied to an open argument: both copies of
    # the argument sit at depth 1, so they are one shifted object
    body = DBLam(ShapeVar(), DBApp(BVar(1), DBApp(BVar(1), BVar(0))))
    arg = DBApp(BVar(0), FVar(naive.VarIdent("f")))
    out = _db_beta(ShapeVar(), body, arg)
    copy = DBApp(BVar(1), FVar(naive.VarIdent("f")))
    assert out == DBLam(ShapeVar(), DBApp(copy, DBApp(copy, BVar(0))))
    assert out.body.fun is out.body.arg.fun


@pytest.mark.parametrize(
    "term, boundary",
    [
        (church_plus(2, 3), 38),
        (church_mult(3, 3), 80),
        (church_fact(3), 2376),
        (parse_term("(lam (a, b) . b a) (lam x . x, U)"), 7),
    ],
    ids=["plus_2_3", "mult_3_3", "fact_3", "pair_beta"],
)
def test_debruijn_fuel_boundaries_are_frozen(term, boundary):
    # a beta step costs one plus the size of its argument, a projection one
    db = to_debruijn(term)
    nf_debruijn(db, boundary)
    with pytest.raises(FuelExceededError):
        nf_debruijn(db, boundary - 1)


def test_db_beta_places_a_closed_argument_itself():
    # x occurs at binder depths 0, 1, 1 and 2; a closed argument needs no
    # shift at any of them, and the closed subterm lam q . q is left as it is
    body = to_debruijn(
        parse_term("lam x . x (lam y . x (y x)) (fun (z : lam q . q) -> x)")
    ).body
    arg = to_debruijn(parse_term("lam a . a (lam b . b a)"))
    out = _db_beta(ShapeVar(), body, arg)
    occurrences = [t for t in _walk(out) if t == arg]
    assert len(occurrences) == 4
    assert all(t is arg for t in occurrences)
    assert out.arg.domain is body.arg.domain
    assert out == to_debruijn(
        parse_term(
            "(lam a . a (lam b . b a)) (lam y . (lam a . a (lam b . b a))"
            " (y (lam a . a (lam b . b a))))"
            " (fun (z : lam q . q) -> lam a . a (lam b . b a))"
        )
    )


def test_debruijn_fuel_of_factorial_6_is_frozen():
    # the figure every measurement of the debruijn engine is checked against
    db = to_debruijn(church_fact(6))
    nf_debruijn(db, 3_092_844)
    with pytest.raises(FuelExceededError):
        nf_debruijn(db, 3_092_843)


def test_named_substitution_avoids_capture():
    # [x := y] (lam y . x y)  must not capture the substituted y
    inner = naive.Lam(
        naive.PatternVar(naive.VarIdent("y")),
        naive.ScopedTerm(naive.App(_v("x"), _v("y"))),
    )
    out = subst_named({"x": _v("y")}, inner)
    assert alpha_eq(out, parse_term("lam w . y w"))
    # and the pretty form really does rename the binder
    assert "lam y ." not in pretty_term(out)


def test_named_substitution_renames_only_a_colliding_binder():
    # [y := x] (lam x . lam z . y x z): x collides with the value and is
    # renamed to the first fresh variant; z is kept
    out = subst_named({"y": _v("x")}, parse_term("lam x . lam z . y x z"))
    assert pretty_term(out) == "lam x1 . lam z . x x1 z"
    # under a binder where nothing substituted is free, the body is kept
    closed = parse_term("lam w . w")
    out = subst_named({"y": _v("x")}, naive.App(_v("y"), closed))
    assert out.arg.body.term is closed.body.term


def test_named_substitution_respects_shadowing():
    term = parse_term("lam x . x")
    assert subst_named({"x": naive.Universe()}, term) == term


def test_named_substitution_returns_untouched_subtrees_as_they_are():
    # no key is free: the term itself comes back
    term = parse_term("lam x . (x, y) z")
    assert subst_named({"x": _v("q"), "w": _v("q")}, term) is term
    # [x := y] ((lam w . w) x): only the argument is rebuilt
    term = naive.App(parse_term("lam w . w"), _v("x"))
    out = subst_named({"x": _v("y")}, term)
    assert out == naive.App(term.fun, _v("y"))
    assert out.fun is term.fun
    # a Pi whose binder shadows x: the domain is substituted, the codomain kept
    term = parse_term("fun (x : x) -> x")
    out = subst_named({"x": naive.Universe()}, term)
    assert out.domain == naive.Universe()
    assert out.codomain.term is term.codomain.term


def test_nf_named_work_is_the_same_on_every_call(monkeypatch):
    """Each call walks its input afresh: nothing one normalization learns
    about the input's nodes (their free identifiers) outlives the call, so
    a second call does exactly the work of the first.  The bounds are the
    counts when one free-identifier memo came to serve a whole call (7,047
    and 2,797 before, with one memo per substitution)."""
    counts = {"free_idents": 0, "subst_named": 0}
    real_free, real_subst = naive.free_idents, oracles.subst_named

    def free_idents(*args):
        counts["free_idents"] += 1
        return real_free(*args)

    def subst(*args):
        counts["subst_named"] += 1
        return real_subst(*args)

    monkeypatch.setattr(naive, "free_idents", free_idents)
    monkeypatch.setattr(oracles, "subst_named", subst)
    term = church_fact(4)
    seen = []
    for _ in range(2):
        counts.update(free_idents=0, subst_named=0)
        nf_named(term)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["free_idents"] <= 2_055
    assert seen[0]["subst_named"] <= 1_433


def test_whnf_named_versus_nf_named():
    term = parse_term("(lam x . (x, x)) ((lam y . y) U)")
    assert pretty_term(whnf_named(term)) == "((lam y . y) U, (lam y . y) U)"
    assert pretty_term(nf_named(term)) == "(U, U)"


@pytest.mark.parametrize("src", ALREADY_NORMAL, ids=("spine", "pair_pi", "nest"))
def test_nf_named_returns_a_normal_term_itself(src):
    term = parse_term(src)
    assert nf_named(term) is term


def test_nf_named_copies_only_the_path_to_a_redex():
    term = parse_term("lam f . (f (lam a . a), ((lam x . x) f, fun (b : U) -> f b))")
    out = nf_named(term)
    assert pretty_term(out) == "lam f . (f (lam a . a), (f, fun (b : U) -> f b))"
    before, after = term.body.term, out.body.term
    assert after.left is before.left and after.right.right is before.right.right


def test_nf_named_pattern_beta():
    assert pretty_term(nf_named(parse_term("(lam (a, b) . (b, a)) q"))) == "(second q, first q)"
    assert pretty_term(nf_named(parse_term("(lam (a, b) . (b, a)) (x, y)"))) == "(y, x)"
    assert pretty_term(nf_named(parse_term("(lam _ . U) q"))) == "U"


def test_nf_debruijn_pattern_beta_matches_named():
    for src in (
        "(lam (a, b) . (b, a)) q",
        "(lam (a, b) . (b, a)) (x, y)",
        "(lam ((a, b), c) . (a, (b, c))) q",
        "(lam (_, b) . b) (x, y)",
    ):
        named = nf_named(parse_term(src))
        db = nf_debruijn(to_debruijn(parse_term(src)))
        assert to_debruijn(named) == db, src


def test_whnf_debruijn():
    term = to_debruijn(parse_term("(lam x . (x, x)) ((lam y . y) U)"))
    head = whnf_debruijn(term)
    assert head == to_debruijn(parse_term("((lam y . y) U, (lam y . y) U)"))


def test_whnf_debruijn_rebuilds_only_what_changed():
    # a stuck spine comes back as the same object; above a reduced head,
    # each frame is rebuilt around the new head with its own argument
    stuck = to_debruijn(parse_term("second (f (first p) a)"))
    assert whnf_debruijn(stuck) is stuck
    term = to_debruijn(parse_term("first ((lam y . y) f a)"))
    head = whnf_debruijn(term)
    assert head == to_debruijn(parse_term("first (f a)"))
    assert head.term.arg is term.term.arg


def test_fuel_exhausts_on_omega_in_both_oracles():
    omega = parse_term("(lam x . x x) (lam x . x x)")
    with pytest.raises(FuelExceededError):
        nf_named(omega, fuel=300)
    with pytest.raises(FuelExceededError):
        nf_debruijn(to_debruijn(omega), fuel=300)


_OMEGA = "(lam x . x x) (lam x . x x)"
_PROJECTION_CYCLE = "(lam x . first (x x, x)) (lam x . first (x x, x))"
_GROWING = "(lam x . x x x) (lam x . x x x)"
_CYCLE = "reduction returns to a term it has passed: it never ends"


@pytest.mark.parametrize("fuel", [10**9, None], ids=["ample", "unlimited"])
@pytest.mark.parametrize("src", [_OMEGA, _PROJECTION_CYCLE], ids=["omega", "projection"])
def test_debruijn_stops_at_a_repeated_term(src, fuel):
    db = to_debruijn(parse_term(src))
    with pytest.raises(FuelExceededError, match=_CYCLE):
        whnf_debruijn(db, fuel)
    with pytest.raises(FuelExceededError, match=_CYCLE):
        nf_debruijn(db, fuel)


def test_debruijn_growing_divergence_stops_at_its_first_repeat():
    # each beta nests the head one level deeper: the machine comes back to
    # the same head under one more pending application, above a spine it
    # never touched, so the check stops it whatever the budget
    db = to_debruijn(parse_term(_GROWING))
    for fuel in (DEFAULT_GEN_FUEL, 10**9, None):
        with pytest.raises(FuelExceededError, match=_CYCLE):
            whnf_debruijn(db, fuel)
        with pytest.raises(FuelExceededError, match=_CYCLE):
            nf_debruijn(db, fuel)


def test_debruijn_divergence_at_the_default_recursion_limit():
    # a fresh interpreter keeps Python's default recursion limit; the two
    # cycles and the growing term all end by the check, none by the stack
    script = """
import sys
limit = sys.getrecursionlimit()
from scopefoil.fuel import FuelExceededError
from scopefoil.oracles import nf_debruijn, to_debruijn
from scopefoil.syntax import parse_term
assert sys.getrecursionlimit() == limit
for src in sys.argv[1:]:
    for fuel in (10**9, None):
        try:
            nf_debruijn(to_debruijn(parse_term(src)), fuel)
        except FuelExceededError as e:
            print(e)
        except RecursionError:
            print("RecursionError")
"""
    src_dir = os.path.dirname(os.path.dirname(scopefoil.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    out = subprocess.run(
        [sys.executable, "-c", script, _OMEGA, _PROJECTION_CYCLE, _GROWING],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    ).stdout
    assert out.splitlines() == [_CYCLE] * 6


# gen_random(107, 15)'s first candidate: normalizing the spine argument
# x1 x1 (x0 (lam x2 . x1 x0)) under lam x0 comes back to normalizing it
_REENTERING = (
    "lam x0 . (lam x1 . x1 x1)"
    " (lam x1 . (lam x2 . (lam x3 . x3 x2) x0) (x1 x1 (x0 (lam x2 . x1 x0))))"
)
# Turing's fixed point of lam a . lam z . y a: the head lam z . y T that its
# weak head step reaches holds T itself, as an argument no redex passes
_TURING = "(lam x . lam f . f (x x f)) (lam x . lam f . f (x x f)) (lam a . lam z . y a)"


def test_debruijn_reentered_terms_at_the_default_recursion_limit():
    # no weak head reduction repeats a state: each divergence comes back to
    # a term it is normalizing across several of them, and the check stops
    # it under no budget at all, before the stack runs out
    script = """
from scopefoil.fuel import FuelExceededError
from scopefoil.oracles import nf_debruijn, to_debruijn
from scopefoil.syntax import parse_term
for src in sys.argv[1:]:
    try:
        nf_debruijn(to_debruijn(parse_term(src)), None)
    except FuelExceededError as e:
        print(e)
    except RecursionError:
        print("RecursionError")
"""
    src_dir = os.path.dirname(os.path.dirname(scopefoil.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    out = subprocess.run(
        [sys.executable, "-c", "import sys" + script, _REENTERING, _TURING],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    ).stdout
    assert out.splitlines() == [_CYCLE] * 2


def test_debruijn_stops_where_it_reenters_a_term():
    # at the admission budget, the first check that fires is the re-entry:
    # without it the candidate spends all 50,000 units
    for src in (_REENTERING, _TURING):
        with pytest.raises(FuelExceededError, match=_CYCLE):
            nf_debruijn(to_debruijn(parse_term(src)), DEFAULT_GEN_FUEL)


def test_debruijn_reentry_check_compares_ancestors_not_siblings():
    # the weak head step gives f A A with A = (lam x . x) a: the two A are
    # normalized one after the other, so the second is no re-entry
    term = to_debruijn(
        parse_term("lam f . lam a . (lam g . g ((lam x . x) a) ((lam x . x) a)) f")
    )
    assert nf_debruijn(term) == to_debruijn(parse_term("lam f . lam a . f a a"))


def _nf_db_reference(term, fuel):
    # ``oracles._nf_db`` without the re-entry check: a divergence that spans
    # several weak head reductions runs until the budget is spent
    kind = type(term)
    if kind is DBApp or kind is DBFirst or kind is DBSecond:
        term, spine = oracles._whnf_db(term, fuel)
        term = _nf_db_reference(term, fuel)
        for frame in reversed(spine):
            if type(frame) is DBApp:
                term = DBApp(term, _nf_db_reference(frame.arg, fuel))
            else:
                term = type(frame)(term)
        return term
    if kind is DBLam:
        return DBLam(term.shape, _nf_db_reference(term.body, fuel))
    if kind is DBPair:
        return DBPair(_nf_db_reference(term.left, fuel), _nf_db_reference(term.right, fuel))
    if kind is DBPi:
        return DBPi(
            term.shape, _nf_db_reference(term.domain, fuel),
            _nf_db_reference(term.codomain, fuel),
        )
    return term


def _outcome(normalize, term, fuel):
    try:
        return normalize(term, fuel)
    except FuelExceededError as e:
        return str(e)


def test_debruijn_reentry_check_changes_no_outcome():
    # the same normal form where the reference reaches one, and a budget
    # error where it fails; some of the reference's exhausted budgets are
    # the check's cycles
    rng = random.Random(2929)
    terms = [_gen_closed(rng, rng.randrange(3, 18)) for _ in range(5000)]
    terms += [gen_naive_term(rng, rng.randrange(1, 6)) for _ in range(1000)]
    stopped = 0
    for surface in terms:
        term = to_debruijn(surface)
        want = _outcome(_nf_db_reference, term, Fuel(2_000))
        got = _outcome(nf_debruijn, term, 2_000)
        if isinstance(want, str):
            assert isinstance(got, str), pretty_term(surface)
            stopped += want != got
        else:
            assert got == want, pretty_term(surface)
    assert stopped >= 10


def test_debruijn_cycle_check_ignores_terms_of_a_returned_call():
    # both betas give lam . 0: the first in the nested whnf of the head,
    # which has returned before the outer loop makes the second
    ident = DBLam(ShapeVar(), BVar(0))
    term = to_debruijn(parse_term("(lam x . x) (lam y . y) (lam z . z)"))
    assert whnf_debruijn(term) == ident
    assert nf_debruijn(term) == ident


def test_debruijn_cycle_check_sees_the_spine_shrink():
    # the head lam y . y comes back after the spine has lost the frame it
    # was saved under: an equal head alone is no repeat
    ident = DBLam(ShapeVar(), BVar(0))
    term = to_debruijn(parse_term("(lam x . x x x) (lam y . y)"))
    assert whnf_debruijn(term) == ident
    assert nf_debruijn(term) == ident


def test_debruijn_cycle_check_compares_the_frames_it_popped():
    # lam y . y comes back under one frame both times: an application of it
    # to first (I I) at the save, a projection later.  The run popped the
    # saved frame, so the low-water mark is below it and the two frames are
    # compared
    term = to_debruijn(parse_term("(lam x . x (first x)) ((lam y . y) (lam z . z))"))
    assert nf_debruijn(term) == DBFirst(DBLam(ShapeVar(), BVar(0)))


def test_debruijn_cycle_check_compares_pending_arguments():
    # lam y . y comes back under one pending application both times, but
    # applied first to (I I) and then to I: equal kinds, different arguments
    term = to_debruijn(parse_term("(lam x . x (x x)) ((lam y . y) (lam z . z))"))
    assert nf_debruijn(term) == DBLam(ShapeVar(), BVar(0))


def test_debruijn_cycle_check_compares_terms_not_sizes():
    # the first beta gives a different term of the same size
    term = to_debruijn(parse_term("(lam x . x x) (lam y . y a)"))
    step = _db_beta(term.fun.shape, term.fun.body, term.arg)
    assert step.size == term.size and step != term
    a = FVar(naive.VarIdent("a"))
    assert nf_debruijn(term) == DBApp(a, a)


def test_alpha_eq_basics():
    assert alpha_eq(parse_term("lam x . x"), parse_term("lam y . y"))
    assert not alpha_eq(parse_term("lam x . x"), parse_term("lam x . U"))
    # free variables compare by name
    assert alpha_eq(_v("a"), _v("a"))
    assert not alpha_eq(_v("a"), _v("b"))
    # bound names never leak into the comparison
    assert alpha_eq(parse_term("lam a . a b"), parse_term("lam q . q b"))
    assert not alpha_eq(parse_term("lam a . a b"), parse_term("lam q . q c"))


def test_alpha_eq_crosses_representations():
    from scopefoil.bridge import to_foil_closed
    from scopefoil.lambda_pi import direct_to_free

    surface = parse_term("lam f . lam x . f (f x)")
    direct = to_foil_closed(surface)
    free = direct_to_free(direct)
    db = to_debruijn(surface)
    for a in (surface, direct, free, db):
        for b in (surface, direct, free, db):
            assert alpha_eq(a, b)


def test_named_and_debruijn_normalizers_agree():
    rng = random.Random(424242)
    checked = 0
    while checked < 120:
        term = gen_naive_term(rng, rng.randrange(1, 5))
        try:
            named = nf_named(term, fuel=20_000)
            db = nf_debruijn(to_debruijn(term), fuel=20_000)
        except FuelExceededError:
            continue
        checked += 1
        assert to_debruijn(named) == db, pretty_term(term)
