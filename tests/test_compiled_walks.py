"""The walks compiled once per signature class: ``generic.substitute``'s and
the congruence step of ``lambda_pi._nf``.

Both are checked against the loop versions they replace, kept here as the
reference: on generated generic terms, with pattern binders and with
signature classes the package has never seen, the compiled walks build the
same trees, with the same binders, the same recorded masks and the same
untouched subtrees, and spend the same fuel and refreshes.  Then: nothing
is compiled at import, classes with the same field names share one code
object, and cProfile counts the walks in their modules under their names.
"""

import cProfile
import random
import subprocess
import sys

import pytest

from conftest import gen_naive_term, profiled_in
from test_generic import LET, BoxSig, HoleSig, IfSig, PlainLetSig

from scopefoil import generic, lambda_pi, names
from scopefoil.bench import church_fact
from scopefoil.bridge import rename_from_env, to_foil_closed, to_free_term
from scopefoil.fuel import Fuel, FuelExceededError
from scopefoil.generic import ScopedAST, check_scope, children, substitute
from scopefoil.lambda_pi import (
    AppSig,
    FirstSig,
    LamSig,
    PairSig,
    SecondSig,
    UniverseSig,
    direct_to_free,
    nf_free,
)
from scopefoil.names import (
    Name,
    NameBinder,
    Node,
    Scope,
    Var,
    add_subst,
    enter,
    identity_subst,
    masked,
    set_mask,
)
from scopefoil.patterns import beta_bindings, pattern_mask, with_pattern

LetSig = LET.free


# ---------------------------------------------------------------------------
# the reference: the loop versions, reading each node's fields at run time,
# and the weak-head reduction written for the generic tree alone
# ---------------------------------------------------------------------------


def reference_substitute(scope, subst, ast):
    if type(ast) is Var:
        return subst.get(ast.name.raw, ast)
    dom = 0
    for raw in subst:
        dom |= 1 << raw
    fv = getattr(ast, "fv", -1)
    if fv >= 0 and not fv & dom:
        return ast
    new = []
    mask = 0
    for child in children(ast):
        if type(child) is ScopedAST:
            binder = child.binder
            if type(binder) is NameBinder:
                binder2, scope2 = enter(scope, binder)
                raw2 = binder2.raw
                if binder2 is binder and raw2 not in subst:
                    subst2 = subst  # a reused binder maps to itself
                else:
                    subst2 = add_subst(subst, binder, Var(Name(raw2)))
                bound = 1 << raw2
            else:
                binder2, subst2, scope2 = with_pattern(scope, binder, subst)
                bound = pattern_mask(binder2)
            body = reference_substitute(scope2, subst2, child.body)
            child = ScopedAST(binder2, body)
            fv = (1 << body.name.raw if type(body) is Var else getattr(body, "fv", -1)) & ~bound
        else:
            child = reference_substitute(scope, subst, child)
            fv = 1 << child.name.raw if type(child) is Var else getattr(child, "fv", -1)
        mask |= fv
        new.append(child)
    node = type(ast)(*new)
    try:
        set_mask(node, mask)
    except TypeError:  # a signature class without the ``Node`` base
        pass
    return node


_FIRST, _SECOND = masked(FirstSig), masked(SecondSig)


def reference_whnf(scope, term, fuel):
    kind = type(term)
    if kind is AppSig:
        fun = term.fun
        fun2 = reference_whnf(scope, fun, fuel)
        if type(fun2) is LamSig:
            fuel.spend()
            binder, body = fun2.body.binder, fun2.body.body
            if type(binder) is NameBinder:
                subst = {binder.raw: term.arg}
            else:
                subst = beta_bindings(binder, term.arg, _FIRST, _SECOND)
            return reference_whnf(scope, reference_substitute(scope, subst, body), fuel)
        return term if fun2 is fun else AppSig(fun2, term.arg)
    if kind is FirstSig or kind is SecondSig:
        t = term.term
        t2 = reference_whnf(scope, t, fuel)
        if type(t2) is not PairSig:
            return term if t2 is t else kind(t2)
        fuel.spend()
        return reference_whnf(scope, t2.left if kind is FirstSig else t2.right, fuel)
    return term


def reference_nf(scope, term, fuel):
    term = reference_whnf(scope, term, fuel)
    if type(term) is Var:
        return term
    new = []
    changed = False
    for child in children(term):
        if type(child) is ScopedAST:
            binder, body = child.binder, child.body
            if type(binder) is NameBinder:
                binder2, scope2 = enter(scope, binder)
                if binder2 is not binder:
                    rename = {binder.raw: Var(Name(binder2.raw))}
                    body = reference_substitute(scope2, rename, body)
            else:
                binder2, rename, scope2 = with_pattern(scope, binder, identity_subst())
                if rename:  # some binder was renamed
                    body = reference_substitute(scope2, rename, body)
            body = reference_nf(scope2, body, fuel)
            if binder2 is not binder or body is not child.body:
                child = ScopedAST(binder2, body)
                changed = True
        else:
            child2 = reference_nf(scope, child, fuel)
            if child2 is not child:
                child = child2
                changed = True
        new.append(child)
    return type(term)(*new) if changed else term


# ---------------------------------------------------------------------------
# generated inputs: open generic terms, some nodes of foreign classes
# ---------------------------------------------------------------------------

ENV = {"u": Name(0), "v": Name(1)}


def _free_names(ast) -> int:
    if type(ast) is Var:
        return 1 << ast.name.raw
    if type(ast) is ScopedAST:
        return _free_names(ast.body) & ~pattern_mask(ast.binder)
    mask = 0
    for child in children(ast):
        mask |= _free_names(child)
    return mask


def _maybe_mask(rng, node):
    """Record the exact mask on most nodes that have the slot."""
    if isinstance(node, Node) and rng.random() < 0.8:
        set_mask(node, _free_names(node))
    return node


def _foreign(rng, ast):
    """``ast`` with some nodes swapped for signature classes the package
    has never seen, each with or without the ``Node`` base."""
    if type(ast) is Var:
        return BoxSig(ast) if rng.random() < 0.1 else ast
    new = []
    for child in children(ast):
        if type(child) is ScopedAST:
            child = ScopedAST(child.binder, _foreign(rng, child.body))
        else:
            child = _foreign(rng, child)
        new.append(child)
    roll = rng.random()
    if type(ast) is LamSig and roll < 0.5:
        value = rng.choice([UniverseSig(), HoleSig(), BoxSig(Var(Name(0)))])
        if roll < 0.2:
            return _maybe_mask(rng, LetSig(value, new[0]))
        if roll < 0.35:
            return PlainLetSig(value, new[0])
        return IfSig(value, HoleSig(), new[0])
    if type(ast) is UniverseSig and roll < 0.3:
        return HoleSig()
    return _maybe_mask(rng, type(ast)(*new))


def _open_term(rng, depth):
    naive_term = gen_naive_term(rng, depth, ("u", "v"))
    return to_free_term(rename_from_env(ENV), Scope([0, 1]), naive_term)


def _cases(seed, count):
    """(scope, subst, term) triples.  The scope sometimes holds raw names
    the terms' binders use, so that entering them refreshes, and the
    substitution sometimes has an entry for one outside the scope, which a
    reused binder shadows."""
    rng = random.Random(seed)
    for _ in range(count):
        term = _open_term(rng, rng.randrange(2, 10))
        if rng.random() < 0.6:
            term = _foreign(rng, term)
        extra = rng.sample(range(2, 8), rng.randrange(4))
        scope = Scope([0, 1, *extra])
        values = [Var(Name(1)), Var(Name(0)), UniverseSig(), _open_term(rng, 2)]
        subst = {0: rng.choice(values)}
        if rng.random() < 0.4:
            subst[1] = rng.choice(values)
        if rng.random() < 0.3:
            subst[rng.choice([raw for raw in range(2, 8) if raw not in extra])] = UniverseSig()
        if rng.random() < 0.2:
            subst = {}
        yield scope, subst, term


def _subtrees(ast):
    yield ast
    if type(ast) is ScopedAST:
        yield from _subtrees(ast.body)
    elif type(ast) is not Var:
        for child in children(ast):
            yield from _subtrees(child)


def _assert_same(ref, out, inputs):
    """The same tree node by node: class, binders, recorded mask, and the
    very object wherever either side kept a subtree of ``inputs``."""
    assert type(ref) is type(out)
    assert (id(ref) in inputs) == (id(out) in inputs), (ref, out)
    if id(ref) in inputs:
        assert ref is out
    if type(ref) is Var:
        assert ref == out
        return
    assert getattr(ref, "fv", None) == getattr(out, "fv", None), (ref, out)
    if type(ref) is ScopedAST:
        assert ref.binder == out.binder
        _assert_same(ref.body, out.body, inputs)
        return
    for a, b in zip(children(ref), children(out), strict=True):
        _assert_same(a, b, inputs)


def _inputs(*trees):
    """The ids of every subtree of ``trees``, with the subtrees kept alive."""
    keep = [sub for tree in trees for sub in _subtrees(tree)]
    return {id(sub): sub for sub in keep}


def test_compiled_substitution_matches_the_loop_version():
    patterned = foreign = 0
    for scope, subst, term in _cases(2201, 600):
        inputs = _inputs(term, *subst.values())
        ref = reference_substitute(scope, subst, term)
        out = substitute(scope, subst, term)
        assert ref == out
        _assert_same(ref, out, inputs)
        subs = list(_subtrees(term))
        patterned += any(
            type(s) is ScopedAST and type(s.binder) is not NameBinder for s in subs
        )
        foreign += any(type(s) in (BoxSig, HoleSig, IfSig, LetSig, PlainLetSig) for s in subs)
    assert patterned > 100 and foreign > 100


def test_compiled_congruence_matches_the_loop_version(monkeypatch):
    """Normal forms, failures for lack of fuel, fuel left and refreshes
    agree with the loop version's."""
    refreshes = 0
    refreshed = names.with_refreshed

    def counted(scope, name):
        nonlocal refreshes
        refreshes += 1
        return refreshed(scope, name)

    monkeypatch.setattr(names, "with_refreshed", counted)
    normal = 0
    for scope, subst, term in _cases(2202, 400):
        term = substitute(scope, subst, term)
        runs = []
        for nf in (reference_nf, lambda_pi._nf):
            refreshes = 0
            fuel = Fuel(200)
            try:
                out = nf(scope, term, fuel)
            except FuelExceededError:
                out = None
            runs.append((out, fuel.remaining, refreshes))
        (ref, ref_fuel, ref_refreshes), (out, out_fuel, out_refreshes) = runs
        assert (ref_fuel, ref_refreshes) == (out_fuel, out_refreshes)
        assert (ref is None) == (out is None)
        if ref is not None:
            normal += 1
            assert ref == out
            _assert_same(ref, out, _inputs(term))
    assert normal > 300


# ---------------------------------------------------------------------------
# laziness, sharing, profiling
# ---------------------------------------------------------------------------


def test_importing_the_package_compiles_nothing():
    code = (
        "import scopefoil, scopefoil.cli, scopefoil.bench, scopefoil.nbe\n"
        "from scopefoil import generic, lambda_pi\n"
        "print(len(generic._SUBSTITUTES), len(lambda_pi._NFS), len(generic._WALK_CODE))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0", "0"]


def test_classes_with_the_same_field_names_share_code():
    x0 = Var(Name(0))
    scope, subst = Scope([0]), {0: UniverseSig()}
    for term in (FirstSig(x0), SecondSig(x0), PairSig(x0, x0), BoxSig(x0)):
        substitute(scope, subst, term)
        nf_free(scope, term)
    walks, nfs = generic._SUBSTITUTES, lambda_pi._NFS
    assert walks[FirstSig].__code__ is walks[SecondSig].__code__
    assert nfs[FirstSig].__code__ is nfs[SecondSig].__code__
    assert walks[FirstSig] is not walks[SecondSig]  # each builds its own class
    assert walks[PairSig].__code__ is not walks[FirstSig].__code__
    assert walks[BoxSig].__code__ is not walks[FirstSig].__code__
    # with or without the ``Node`` base: one code, two ways to record a mask
    value = AppSig(x0, x0)
    let = LetSig(value, ScopedAST(NameBinder(1), x0))
    plain = PlainLetSig(value, ScopedAST(NameBinder(1), x0))
    subst = {0: Var(Name(5))}
    assert substitute(scope, subst, let).fv == 1 << 5
    assert not hasattr(substitute(scope, subst, plain), "fv")
    assert walks[LetSig].__code__ is walks[PlainLetSig].__code__


def test_cprofile_counts_the_walks_in_their_modules():
    """Each compiled walk is keyed by a file that counts in its module, its
    own first line and the name ``substitute`` or ``_nf``, so no two walks'
    counts are merged and none is lost; the sums are the calls counted by
    hand."""
    term = direct_to_free(to_foil_closed(church_fact(3)))
    walks, entries = 0, 0

    def counting(table):
        def build(cls):
            walk = table[cls]

            def counted(*args):
                nonlocal walks
                walks += 1
                return walk(*args)

            return counted

        return generic.Compiled(build)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generic, "_SUBSTITUTES", counting(generic._SUBSTITUTES))
        patch.setattr(lambda_pi, "_NFS", counting(lambda_pi._NFS))
        entry = generic.substitute

        def counted_entry(*args):
            nonlocal entries
            entries += 1
            return entry(*args)

        patch.setattr(lambda_pi, "substitute", counted_entry)
        expected = nf_free(Scope(), term)
    profiler = cProfile.Profile()
    profiler.enable()
    out = nf_free(Scope(), term)
    profiler.disable()
    assert out == expected
    profiler.create_stats()
    modules = {"substitute": generic, "_nf": lambda_pi}
    keys = [key for key in profiler.stats if key[2] in modules]
    assert all(profiled_in(file, modules[name]) for file, _, name in keys)
    codes = {walk.__code__ for walk in [*generic._SUBSTITUTES.values(), *lambda_pi._NFS.values()]}
    assert len({(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}) == len(codes)
    for name in modules:  # the entry and the walks
        assert len({file for file, _, key_name in keys if key_name == name}) >= 3
    # the entry is called by ``_whnf`` and ``_nf``'s renamings; ``nf_free``
    # calls the ``_nf`` entry once
    assert sum(profiler.stats[key][1] for key in keys) == walks + entries + 1
