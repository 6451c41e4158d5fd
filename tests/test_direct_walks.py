"""The hand-written walks of the direct tree: ``terms.subst_direct`` and the
congruence step of ``nf_direct``.

Both are checked against the versions they replace, kept here as the
reference: a substitution that builds the domain's mask again at every node
and spends a call on every child, and a congruence that calls both whnf and
itself on a variable child.  On generated open direct terms, with wildcard
and pair patterns, shadowed substitution entries and nodes built without a
mask, the walks build the same trees, with the same binders, the same
recorded masks and the same untouched subtrees, and spend the same fuel
and refreshes.  Then: the domain's mask is built once per entry, not once
per node.
"""

import random

from conftest import gen_naive_term
from test_terms import _free_names, _parts, _subtrees

from scopefoil import names, terms
from scopefoil.bench import church_fact
from scopefoil.bridge import rename_from_env, to_foil_closed, to_foil_term
from scopefoil.fuel import Fuel, FuelExceededError
from scopefoil.names import (
    Name,
    Scope,
    Var,
    add_subst,
    enter,
    free_mask,
    identity_subst,
    set_mask,
)
from scopefoil.patterns import PatternVar, pattern_mask, with_pattern
from scopefoil.terms import (
    App,
    First,
    Lam,
    Pair,
    Pi,
    Second,
    Universe,
    check_scope_direct,
    nf_direct,
    subst_direct,
)

# ---------------------------------------------------------------------------
# the reference: the walks as first written, one call per visited child
# ---------------------------------------------------------------------------


def reference_subst_direct(scope, subst, term):
    if type(term) is Var:
        return subst.get(term.name.raw, term)
    dom = 0
    for raw in subst:
        dom |= 1 << raw
    fv = getattr(term, "fv", -1)
    if fv >= 0 and not fv & dom:
        return term
    kind = type(term)
    if kind is App:
        fun = reference_subst_direct(scope, subst, term.fun)
        arg = reference_subst_direct(scope, subst, term.arg)
        node, fv = App(fun, arg), free_mask(fun) | free_mask(arg)
    elif kind is Lam or kind is Pi:
        pattern = term.pattern
        if type(pattern) is PatternVar:
            binder = pattern.binder
            binder2, scope2 = enter(scope, binder)
            raw2 = binder2.raw
            if binder2 is binder and raw2 not in subst:
                subst2 = subst  # a reused binder maps to itself
            else:
                subst2 = add_subst(subst, binder, Var(Name(raw2)))
                if binder2 is not binder:
                    pattern = PatternVar(binder2)
            bound = 1 << raw2
        else:
            pattern, subst2, scope2 = with_pattern(scope, pattern, subst)
            bound = pattern_mask(pattern)
        if kind is Lam:
            body = reference_subst_direct(scope2, subst2, term.body)
            fv = free_mask(body)
            node, fv = Lam(pattern, body), fv - (fv & bound)
        else:
            domain = reference_subst_direct(scope, subst, term.domain)
            codomain = reference_subst_direct(scope2, subst2, term.codomain)
            node = Pi(pattern, domain, codomain)
            fv = free_mask(codomain)
            fv = free_mask(domain) | fv - (fv & bound)
    elif kind is First or kind is Second:
        t = reference_subst_direct(scope, subst, term.term)
        node, fv = kind(t), free_mask(t)
    elif kind is Pair:
        left = reference_subst_direct(scope, subst, term.left)
        right = reference_subst_direct(scope, subst, term.right)
        node, fv = Pair(left, right), free_mask(left) | free_mask(right)
    elif kind is Universe:
        return term
    else:
        raise TypeError(f"not a term: {term!r}")
    set_mask(node, fv)
    return node


reference_whnf = terms.weak_head(
    App, Lam, Pair, First, Second, globals(), "reference_subst_direct"
)


def reference_nf_whnf(scope, term, fuel):
    kind = type(term)
    if kind is App:
        fun, arg = term.fun, term.arg
        fun2 = reference_nf_whnf(scope, fun, fuel)
        arg2 = reference_nf_whnf(scope, reference_whnf(scope, arg, fuel), fuel)
        return term if fun2 is fun and arg2 is arg else App(fun2, arg2)
    if kind is Lam or kind is Pi:
        pattern = term.pattern
        if type(pattern) is PatternVar:
            binder = pattern.binder
            binder2, scope2 = enter(scope, binder)
            if binder2 is binder:
                rename = None
            else:
                pattern = PatternVar(binder2)
                rename = {binder.raw: Var(Name(binder2.raw))}
        else:
            pattern, rename, scope2 = with_pattern(scope, pattern, identity_subst())
        if kind is Pi:
            domain = reference_nf_whnf(scope, reference_whnf(scope, term.domain, fuel), fuel)
        body = before = term.body if kind is Lam else term.codomain
        if rename:  # some binder was renamed
            body = reference_subst_direct(scope2, rename, body)
        body = reference_nf_whnf(scope2, reference_whnf(scope2, body, fuel), fuel)
        if kind is Lam:
            return term if pattern is term.pattern and body is before else Lam(pattern, body)
        if pattern is term.pattern and domain is term.domain and body is before:
            return term
        return Pi(pattern, domain, body)
    if kind is Var or kind is Universe:
        return term
    if kind is First or kind is Second:
        t = term.term
        t2 = reference_nf_whnf(scope, t, fuel)
        return term if t2 is t else kind(t2)
    if kind is Pair:
        left, right = term.left, term.right
        left2 = reference_nf_whnf(scope, reference_whnf(scope, left, fuel), fuel)
        right2 = reference_nf_whnf(scope, reference_whnf(scope, right, fuel), fuel)
        return term if left2 is left and right2 is right else Pair(left2, right2)
    raise TypeError(f"not a term: {term!r}")


def reference_nf(scope, term, fuel):
    return reference_nf_whnf(scope, reference_whnf(scope, term, fuel), fuel)


# ---------------------------------------------------------------------------
# generated inputs: open direct terms, some nodes built without a mask
# ---------------------------------------------------------------------------

ENV = {"u": Name(0), "v": Name(1)}


def _open_term(rng, depth, pattern_depth=2):
    naive_term = gen_naive_term(rng, depth, ("u", "v"), pattern_depth)
    return to_foil_term(rename_from_env(ENV), Scope([0, 1]), naive_term)


def _unmask(rng, term):
    """A copy of ``term`` in which about a fifth of the nodes are built
    without a mask (they read -1) and the rest record their exact one."""
    if type(term) is Var:
        return term
    fields = {}
    for name in term.__match_args__:
        value = getattr(term, name)
        fields[name] = value if name == "pattern" else _unmask(rng, value)
    node = type(term)(**fields)
    if rng.random() < 0.8:
        set_mask(node, _free_names(node))
    return node


def _cases(seed, count):
    """(scope, subst, term) triples.  Half the terms bind single variables
    only.  The scope sometimes holds raw names the terms' binders use, so
    that entering them refreshes, and the substitution sometimes has an
    entry for a raw outside the scope, which a reused binder shadows."""
    rng = random.Random(seed)
    for _ in range(count):
        term = _open_term(rng, rng.randrange(2, 10), rng.choice((0, 2)))
        if rng.random() < 0.5:
            term = _unmask(rng, term)
        extra = rng.sample(range(2, 8), rng.randrange(4))
        scope = Scope([0, 1, *extra])
        values = [Var(Name(1)), Var(Name(0)), Universe(), _open_term(rng, 2)]
        values.append(_unmask(rng, values[-1]))
        subst = {0: rng.choice(values)}
        if rng.random() < 0.4:
            subst[1] = rng.choice(values)
        if rng.random() < 0.3:
            subst[rng.choice([raw for raw in range(2, 8) if raw not in extra])] = Universe()
        if rng.random() < 0.2:
            subst = {}
        yield scope, subst, term


def _assert_same(ref, out, inputs):
    """The same tree node by node: class, patterns, recorded mask, and the
    very object wherever either side kept a subtree of ``inputs``."""
    assert type(ref) is type(out)
    assert (id(ref) in inputs) == (id(out) in inputs), (ref, out)
    if id(ref) in inputs:
        assert ref is out
    if type(ref) is Var:
        assert ref == out
        return
    assert getattr(ref, "fv", None) == getattr(out, "fv", None), (ref, out)
    assert getattr(ref, "pattern", None) == getattr(out, "pattern", None)
    for (a, _), (b, _) in zip(_parts(ref), _parts(out), strict=True):
        _assert_same(a, b, inputs)


def _inputs(*trees):
    """The ids of every subtree of ``trees``, with the subtrees kept alive."""
    keep = [sub for tree in trees for sub in _subtrees(tree)]
    return {id(sub): sub for sub in keep}


def _counting_refreshes(monkeypatch):
    """A list whose one entry counts the calls of ``with_refreshed``."""
    count = [0]
    refreshed = names.with_refreshed

    def counted(scope, name):
        count[0] += 1
        return refreshed(scope, name)

    monkeypatch.setattr(names, "with_refreshed", counted)
    return count


# ---------------------------------------------------------------------------
# the walks against the reference
# ---------------------------------------------------------------------------


def test_substitution_matches_the_reference(monkeypatch):
    refreshes = _counting_refreshes(monkeypatch)
    patterned = unmasked = shadowed = renamed = 0
    for scope, subst, term in _cases(2501, 800):
        inputs = _inputs(term, *subst.values())
        refreshes[0] = 0
        ref = reference_subst_direct(scope, subst, term)
        ref_refreshes, refreshes[0] = refreshes[0], 0
        out = subst_direct(scope, subst, term)
        assert ref == out
        _assert_same(ref, out, inputs)
        assert refreshes[0] == ref_refreshes
        check_scope_direct(out, Scope([0, 1]))
        subs = list(_subtrees(term))
        patterned += any(type(getattr(s, "pattern", PatternVar)) is not PatternVar for s in subs)
        unmasked += any(free_mask(s) < 0 for s in subs if type(s) is not Var)
        shadowed += any(raw > 1 for raw in subst)
        renamed += ref_refreshes > 0
    assert min(patterned, unmasked, shadowed, renamed) > 100


def test_normalization_matches_the_reference(monkeypatch):
    """Normal forms, failures for lack of fuel, fuel left and refreshes
    agree with the reference's."""
    refreshes = _counting_refreshes(monkeypatch)
    normal = 0
    for scope, subst, term in _cases(2502, 500):
        term = reference_subst_direct(scope, subst, term)
        runs = []
        for nf in (reference_nf, lambda s, t, f: terms._nf_whnf(s, terms._whnf(s, t, f), f)):
            refreshes[0] = 0
            fuel = Fuel(200)
            try:
                out = nf(scope, term, fuel)
            except FuelExceededError:
                out = None
            runs.append((out, fuel.remaining, refreshes[0]))
        (ref, ref_fuel, ref_refreshes), (out, out_fuel, out_refreshes) = runs
        assert (ref_fuel, ref_refreshes) == (out_fuel, out_refreshes)
        assert (ref is None) == (out is None)
        if ref is not None:
            normal += 1
            assert ref == out
            _assert_same(ref, out, _inputs(term))
    assert normal > 400


# ---------------------------------------------------------------------------
# the domain's mask is built once per entry
# ---------------------------------------------------------------------------


def test_the_domain_mask_is_built_once_per_entry(monkeypatch):
    """On ``church_fact(6)`` the substitution builds its domain's mask at
    most once per ``subst_direct`` call plus once per ``with_pattern``,
    while its walk rebuilds more than twice as many nodes: a mask built at
    every node it visits would break the bound."""
    counts = {"entries": 0, "domains": 0, "patterns": 0, "visits": 0}

    def counting(module, name, key):
        function = getattr(module, name)

        def counted(*args):
            counts[key] += 1
            return function(*args)

        monkeypatch.setattr(module, name, counted)

    counting(terms, "subst_direct", "entries")
    counting(terms, "_domain", "domains")
    counting(terms, "with_pattern", "patterns")
    counting(terms, "_subst_direct", "visits")
    nf_direct(Scope(), to_foil_closed(church_fact(6)))
    assert 0 < counts["domains"] <= counts["entries"] + counts["patterns"]
    assert counts["visits"] > 2 * (counts["entries"] + counts["patterns"])
