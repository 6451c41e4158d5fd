"""The signature-generic layer: the shared substitution and scope checking,
for the lambda-Pi signature and for one defined here, and the derivation of
signature classes from a surface grammar."""

import copy
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, dataclass, make_dataclass

import pytest

from conftest import gen_naive_term

from scopefoil import encoding, generic, lambda_pi, naive, terms
from scopefoil.bench import church_fact, gen_random
from scopefoil.bridge import rename_from_env, to_foil_closed, to_foil_term
from scopefoil.fuel import FuelExceededError
from scopefoil.generic import (
    AST,
    PATTERN,
    SCOPED,
    TERM,
    ScopedAST,
    check_scope,
    children,
    substitute,
)
from scopefoil.lambda_pi import (
    AppSig,
    LamSig,
    PairSig,
    UniverseSig,
    direct_to_free,
    nf_free,
    whnf_free,
)
from scopefoil.names import (
    Name,
    NameBinder,
    Node,
    Scope,
    ScopeViolationError,
    Var,
    add_subst,
    free_mask,
    identity_subst,
    set_mask,
)
from scopefoil.oracles import alpha_eq
from scopefoil.patterns import PatternPair, PatternVar, names_of_pattern
from scopefoil.syntax import parse_term
from scopefoil.terms import Lam, check_scope_direct


@dataclass(frozen=True, slots=True)
class Let:
    """``let pattern = value in body``: a surface constructor known only to
    this file, from which the direct ``Let`` and the generic ``LetSig`` are
    derived the way the package derives its own."""

    pattern: naive.Pattern
    value: naive.Term
    body: naive.ScopedTerm


LET = generic.derive(Let, __name__, __name__)
LetSig = LET.free


def test_derive_a_grammar_defined_elsewhere():
    """The roles come from the surface field types, the generic class drops
    the pattern, and the encoder takes the derived classes from a tag table
    alone: the direct form encodes the pattern in place, the generic form
    its binder after the tag."""
    assert LET.roles == (PATTERN, TERM, SCOPED) and LET.pattern == 0
    assert LET.naive is Let and LET.direct.__name__ == "Let"
    assert LET.direct.__match_args__ == ("pattern", "value", "body")
    assert LetSig.__name__ == "LetSig"
    assert LetSig.__match_args__ == ("value", "body")
    x0, x1 = Var(Name(0)), Var(Name(1))
    node = LetSig(x0, ScopedAST(NameBinder(1), AppSig(x0, x1)))
    tags = {**encoding._FREE_TAGS, LetSig: 0x70}
    assert encoding._encoded(node, tags) == bytes.fromhex("70 01 01 00 05 0100 0101")
    direct = LET.direct(PatternVar(NameBinder(1)), x0, terms.App(x0, x1))
    tags = {**encoding._DIRECT_TAGS, LET.direct: 0x70}
    assert encoding._encoded(direct, tags) == bytes.fromhex("70 1101 0100 05 0100 0101")


@pytest.mark.parametrize(
    "fields",
    [
        [("value", naive.Term), ("body", naive.ScopedTerm)],
        [("body", naive.ScopedTerm), ("pattern", naive.Pattern)],
        [("p", naive.Pattern), ("q", naive.Pattern), ("body", naive.ScopedTerm)],
        [("pattern", naive.Pattern), ("value", naive.Term)],
    ],
    ids=["no-pattern", "pattern-after-body", "two-patterns", "nothing-bound"],
)
def test_derive_rejects_a_malformed_constructor(fields):
    """The conversions read a scoped field's binder from the one pattern
    field before it, so any other shape is refused when it is derived."""
    surface = make_dataclass("Bad", fields, frozen=True)
    with pytest.raises(TypeError, match="Bad needs one pattern field"):
        generic.derive(surface, __name__, __name__)


def test_generated_classes_pickle_and_copy():
    """Each generated class is bound under its name in the module it names,
    so its nodes pickle; copies and reprs are those of plain dataclasses."""
    for con in lambda_pi.CONSTRUCTORS:
        for cls in (con.direct, con.free):
            assert getattr(sys.modules[cls.__module__], cls.__qualname__) is cls
    src = "fun ((a, _) : U) -> lam b . (first (a, b), second (b a))"
    direct = to_foil_closed(parse_term(src))
    free = direct_to_free(direct)
    for node in (direct, free):
        assert pickle.loads(pickle.dumps(node)) == node
        assert copy.deepcopy(node) == node
    assert repr(direct).startswith("Pi(pattern=")
    assert repr(free).startswith("PiSig(domain=")


def test_generic_operations_cover_a_signature_defined_elsewhere():
    """Substitution and scope checking are written once, for every
    signature: a constructor the package has never seen needs no code."""
    scope = Scope([0, 1])
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    # [x0 := x1] (let x1 = x0 in x0 x1): the binder collides with the live x1
    colliding = LetSig(
        Var(Name(0)), ScopedAST(NameBinder(1), AppSig(Var(Name(0)), Var(Name(1))))
    )
    assert substitute(scope, subst, colliding) == LetSig(
        Var(Name(1)), ScopedAST(NameBinder(2), AppSig(Var(Name(1)), Var(Name(2))))
    )
    # [x0 := x1] (let x7 = x0 in x0 x7): a binder that collides with nothing is reused
    free = LetSig(
        Var(Name(0)), ScopedAST(NameBinder(7), AppSig(Var(Name(0)), Var(Name(7))))
    )
    assert substitute(scope, subst, free) == LetSig(
        Var(Name(1)), ScopedAST(NameBinder(7), AppSig(Var(Name(1)), Var(Name(7))))
    )

    check_scope(free, Scope([0]))
    with pytest.raises(ScopeViolationError):
        check_scope(free, Scope())  # the value's x0 is free
    escaping = LetSig(UniverseSig(), ScopedAST(NameBinder(0), Var(Name(3))))
    with pytest.raises(ScopeViolationError):
        check_scope(escaping, Scope([0]))


@dataclass(frozen=True, slots=True)
class HoleSig:
    """A signature class with no fields, known only to this file."""


@dataclass(frozen=True, slots=True)
class BoxSig:
    """One field: a term in the node's own scope."""

    inner: AST


@dataclass(frozen=True, slots=True)
class IfSig:
    """Three fields, the last one under a binder."""

    cond: AST
    then: AST
    bind: ScopedAST


def test_field_getters_serve_classes_defined_elsewhere():
    """``children`` builds one getter per class the first time it sees the
    class, whatever its field count, so every generic walk covers a
    signature the package has never seen."""
    x0, x1 = Var(Name(0)), Var(Name(1))
    node = IfSig(BoxSig(x0), HoleSig(), ScopedAST(NameBinder(1), AppSig(x0, x1)))
    assert children(HoleSig()) == ()
    assert children(BoxSig(x0)) == (x0,)
    assert children(node) == (BoxSig(x0), HoleSig(), node.bind)
    getter = generic._FIELD_GETTERS[IfSig]
    assert children(IfSig(x1, x1, node.bind))[:2] == (x1, x1)
    assert generic._FIELD_GETTERS[IfSig] is getter  # built once per class

    # [x0 := x1]: the binder collides with the live x1 and is refreshed
    subst = add_subst(identity_subst(), NameBinder(0), x1)
    out = substitute(Scope([0, 1]), subst, node)
    assert out == IfSig(
        BoxSig(x1), HoleSig(), ScopedAST(NameBinder(2), AppSig(x1, Var(Name(2))))
    )
    assert check_scope(out, Scope([1])) == 0b10
    with pytest.raises(ScopeViolationError):
        check_scope(out, Scope([0]))
    assert substitute(Scope([0, 1]), subst, HoleSig()) == HoleSig()

    tags = {**encoding._FREE_TAGS, HoleSig: 0x70, BoxSig: 0x71, IfSig: 0x72}
    # tag, the scoped field's binder, then the fields in order
    assert encoding._encoded(out, tags) == bytes.fromhex("7202710101700501010102")


class NoFields:
    """A plain class: no match arguments, so not a tree."""


@pytest.mark.parametrize("not_a_tree", [42, "x0", None, (Var(Name(0)),), NoFields()])
def test_non_trees_are_type_errors(not_a_tree):
    for _ in range(2):  # a failed lookup caches nothing
        with pytest.raises(TypeError, match="not a syntax tree"):
            children(not_a_tree)
    assert type(not_a_tree) not in generic._FIELD_GETTERS
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    for _ in range(2):  # neither compiled walk caches a failed class
        with pytest.raises(TypeError, match="not a syntax tree"):
            substitute(Scope(), subst, not_a_tree)
        with pytest.raises(TypeError, match="not a syntax tree"):
            substitute(Scope(), subst, AppSig(Var(Name(0)), not_a_tree))
        with pytest.raises(TypeError, match="not a syntax tree"):
            nf_free(Scope(), not_a_tree)
        with pytest.raises(TypeError, match="not a syntax tree"):
            nf_free(Scope([0]), AppSig(Var(Name(0)), not_a_tree))
    assert type(not_a_tree) not in generic._SUBSTITUTES
    assert type(not_a_tree) not in lambda_pi._NFS
    with pytest.raises(TypeError):
        check_scope(not_a_tree, Scope())
    with pytest.raises(TypeError):
        check_scope(AppSig(Var(Name(0)), not_a_tree), Scope([0]))


def test_substitute_replaces_free_variable():
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    assert substitute(scope, subst, Var(Name(0))) == UniverseSig()
    # untouched names map to themselves
    assert substitute(scope, subst, Var(Name(5))) == Var(Name(5))


def test_substitute_avoids_capture():
    """[x0 := x1] (lam x1 . x0 x1) must rename the inner binder."""
    inner = LamSig(ScopedAST(NameBinder(1), AppSig(Var(Name(0)), Var(Name(1)))))
    scope = Scope().add(0).add(1)
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    out = substitute(scope, subst, inner)
    match out:
        case LamSig(ScopedAST(binder, body)):
            assert binder.raw == 2  # refreshed away from the live x1
            assert body == AppSig(Var(Name(1)), Var(Name(2)))
        case _:
            raise AssertionError(out)


def test_substitute_reuses_binder_when_safe():
    """A binder that collides with nothing live keeps its name."""
    inner = LamSig(ScopedAST(NameBinder(7), AppSig(Var(Name(0)), Var(Name(7)))))
    scope = Scope().add(0).add(1)
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    out = substitute(scope, subst, inner)
    match out:
        case LamSig(ScopedAST(binder, body)):
            assert binder.raw == 7
            assert body == AppSig(Var(Name(1)), Var(Name(7)))
        case _:
            raise AssertionError(out)


def test_substitute_shadowed_binder_blocks_substitution():
    # [x0 := U] (lam x0 . x0) leaves the bound occurrence alone
    term = LamSig(ScopedAST(NameBinder(0), Var(Name(0))))
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    out = substitute(scope, subst, term)
    match out:
        case LamSig(ScopedAST(binder, body)):
            assert body == Var(Name(binder.raw))
        case _:
            raise AssertionError(out)


def test_substitute_pair_fragment_through_same_code_path():
    scope = Scope().add(0)
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    term = PairSig(Var(Name(0)), Var(Name(0)))
    assert substitute(scope, subst, term) == PairSig(UniverseSig(), UniverseSig())


def test_check_scope():
    check_scope(Var(Name(0)), Scope().add(0))
    with pytest.raises(ScopeViolationError):
        check_scope(Var(Name(0)), Scope())
    term = LamSig(ScopedAST(NameBinder(0), Var(Name(0))))
    check_scope(term, Scope())  # closed
    escaping = LamSig(ScopedAST(NameBinder(0), Var(Name(1))))
    with pytest.raises(ScopeViolationError):
        check_scope(escaping, Scope())
    # a pattern binder scopes its body; binding one raw twice is rejected,
    # as the direct checker rejects it
    pair = PatternPair(PatternVar(NameBinder(0)), PatternVar(NameBinder(1)))
    check_scope(LamSig(ScopedAST(pair, AppSig(Var(Name(0)), Var(Name(1))))), Scope())
    twice = PatternPair(PatternVar(NameBinder(0)), PatternVar(NameBinder(0)))
    with pytest.raises(ScopeViolationError):
        check_scope(LamSig(ScopedAST(twice, Var(Name(0)))), Scope())
    with pytest.raises(ScopeViolationError):
        check_scope_direct(Lam(twice, Var(Name(0))), Scope())


def test_substitute_does_not_reach_under_shadowing_binder():
    # [#0 := U] (lam #0 . #0): the reused binder shadows the entry
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    term = LamSig(ScopedAST(NameBinder(0), Var(Name(0))))
    assert substitute(Scope(), subst, term) == term


def test_substitute_random_roundtrip_with_identity():
    """Identity substitution never changes structure, only (possibly) binders
    that collide with the ambient scope — and with fresh scopes it is exact."""
    rng = random.Random(77)
    for _ in range(100):
        depth = rng.randrange(1, 5)
        term = _random_ast(rng, depth, ())
        assert substitute(Scope(), identity_subst(), term) == term


def _random_ast(rng, depth, env):
    if depth <= 0 or (env and rng.random() < 0.3):
        if env:
            return Var(Name(rng.choice(env)))
        return UniverseSig()
    match rng.randrange(4):
        case 0:
            return AppSig(
                _random_ast(rng, depth - 1, env), _random_ast(rng, depth - 1, env)
            )
        case 1:
            raw = max(env, default=-1) + 1
            body = _random_ast(rng, depth - 1, env + (raw,))
            return LamSig(ScopedAST(NameBinder(raw), body))
        case 2:
            return PairSig(
                _random_ast(rng, depth - 1, env), _random_ast(rng, depth - 1, env)
            )
        case _:
            return UniverseSig()


# ---------------------------------------------------------------------------
# free-name masks and the untouched-subtree shortcut
# ---------------------------------------------------------------------------

ENV = {"u": Name(0), "v": Name(1)}
ENV_SCOPE = Scope([0, 1])


def _free(src: str) -> AST:
    """A generic term over the free names u (#0) and v (#1)."""
    return direct_to_free(to_foil_term(rename_from_env(ENV), ENV_SCOPE, parse_term(src)))


def _free_names(ast: AST) -> int:
    """The mask of the free names of a tree or scoped child, by a plain walk
    that never reads a recorded mask."""
    if type(ast) is Var:
        return 1 << ast.name.raw
    if type(ast) is ScopedAST:
        binder = ast.binder
        names = [binder] if type(binder) is NameBinder else names_of_pattern(binder)
        return _free_names(ast.body) & ~sum(1 << name.raw for name in names)
    mask = 0
    for child in children(ast):
        mask |= _free_names(child)
    return mask


def _subtrees(ast: AST):
    yield ast
    if type(ast) is ScopedAST:
        yield from _subtrees(ast.body)
    elif type(ast) is not Var:
        for child in children(ast):
            yield from _subtrees(child)


def _nodes(ast: AST) -> int:
    """How many compound nodes ``ast`` has: subtrees but variables and
    scoped children, which record no mask."""
    return sum(1 for sub in _subtrees(ast) if type(sub) not in (Var, ScopedAST))


def _masked_nodes(ast: AST) -> int:
    """How many nodes of ``ast`` record a mask; each must equal a plain walk,
    and a negative one must cover it."""
    count = 0
    for sub in _subtrees(ast):
        if type(sub) in (Var, ScopedAST):
            continue
        fv, free = free_mask(sub), _free_names(sub)
        if fv >= 0:
            assert fv == free, sub
            count += 1
        else:
            assert free & ~fv == 0, sub
    return count


def _mask_corpus() -> list:
    """``gen_random`` terms and full-grammar terms with patterns."""
    terms = [gen_random(2000 + i, size) for i in range(8) for size in (15, 20)]
    rng = random.Random(909)
    terms += [gen_naive_term(rng, rng.randrange(1, 6)) for _ in range(150)]
    return terms


def test_recorded_masks_equal_a_plain_free_name_walk(monkeypatch):
    """Every node ``direct_to_free`` builds records its mask, and so does
    every node ``substitute`` builds, during normalization and when it
    copies a normal form (which ``_nf`` rebuilt without masks)."""
    built = 0
    walk = generic.substitute

    def checked(scope, subst, ast):
        nonlocal built
        out = walk(scope, subst, ast)
        built += _masked_nodes(out)
        return out

    monkeypatch.setattr(lambda_pi, "substitute", checked)
    for term in _mask_corpus():
        free = direct_to_free(to_foil_closed(term))
        assert _masked_nodes(free) == _nodes(free)
        try:
            normal = nf_free(Scope(), free, fuel=20_000)
        except FuelExceededError:
            continue
        check_scope(normal, Scope())
        _masked_nodes(normal)
        copy = substitute(Scope(), {0: UniverseSig()}, normal)
        assert _masked_nodes(copy) == _nodes(copy)
        check_scope(copy, Scope())
    assert built > 500


def test_a_renamed_pattern_binder_joins_the_domain():
    """A pattern binder refreshed against the scope is renamed in its body,
    so a body subtree that mentions only that binder is not skipped."""
    term = _free("lam (a, b) . (u, first (a b))")  # a, b are #2, #3
    subst = add_subst(identity_subst(), NameBinder(0), Var(Name(1)))
    out = substitute(Scope([0, 1, 2, 3]), subst, term)
    assert alpha_eq(out, _free("lam (a, b) . (v, first (a b))"))
    check_scope(out, Scope([0, 1, 2, 3]))


def test_untouched_subtrees_come_back_as_they_are():
    term = _free("(lam x . x v) (u, v)")
    subst = add_subst(identity_subst(), NameBinder(0), _free("U"))
    out = substitute(ENV_SCOPE, subst, term)
    assert out == AppSig(term.fun, PairSig(UniverseSig(), Var(Name(1))))
    assert out.fun is term.fun  # u is not free in it
    assert out.arg.right is term.arg.right  # a variable outside the domain
    assert free_mask(out) == 0b10 and free_mask(out.arg) == 0b10
    # a value built without a mask leaves its new parents without one
    unmasked = substitute(ENV_SCOPE, {0: UniverseSig()}, term)
    assert free_mask(unmasked) < 0 and free_mask(unmasked.fun) == 0b10
    # a substitution whose domain misses the whole term returns the term
    elsewhere = add_subst(identity_subst(), NameBinder(7), UniverseSig())
    assert substitute(ENV_SCOPE, elsewhere, term) is term
    assert substitute(ENV_SCOPE, identity_subst(), term) is term
    # a skipped subtree keeps a binder that collides with the scope (#2
    # shadows the live #2): raw names may differ from a full walk, but the
    # term is the same up to alpha, and scope-safe
    closed = _free("lam x . x")
    assert closed.body.binder.raw == 2
    assert substitute(Scope([0, 1, 2]), subst, closed) is closed
    # a node built without a mask is walked, and its copy records one
    hand = AppSig(Var(Name(1)), UniverseSig())
    copy = substitute(ENV_SCOPE, subst, hand)
    assert copy == hand and copy is not hand
    assert free_mask(hand) == -1 and free_mask(copy) == 0b10


def test_masks_are_not_part_of_the_structure():
    masked = _free("lam x . x")
    hand = LamSig(ScopedAST(NameBinder(2), Var(Name(2))))
    assert free_mask(masked) == 0
    assert free_mask(hand) == -1
    assert masked == hand and hash(masked) == hash(hand)
    assert repr(masked) == repr(hand)
    assert LamSig.__match_args__ == ("body",)
    assert ScopedAST.__match_args__ == ("binder", "body")
    # a scoped child records no mask: the node that holds it records one
    assert not hasattr(ScopedAST, "fv")
    # plain assignment cannot change it (CPython 3.11 raises TypeError for
    # a non-field name of a slotted frozen dataclass)
    with pytest.raises((FrozenInstanceError, TypeError)):
        masked.fv = 3
    assert free_mask(masked) == 0


def test_check_scope_catches_a_stale_mask():
    term = _free("lam x . lam y . (x, u)")
    assert check_scope(term, ENV_SCOPE) == 0b01
    set_mask(term.body.body, 0b01)  # lam y . (x, u) has x free too
    with pytest.raises(ScopeViolationError):
        check_scope(term, ENV_SCOPE)
    negative = _free("lam x . v")
    set_mask(negative, ~0b10)  # a negative mask must cover the free names
    with pytest.raises(ScopeViolationError):
        check_scope(negative, ENV_SCOPE)
    set_mask(negative, ~0b01)
    check_scope(negative, ENV_SCOPE)


@dataclass(frozen=True, slots=True)
class PlainLetSig:
    """``LetSig`` declared by hand, without the ``Node`` base."""

    value: AST
    body: ScopedAST


def test_a_foreign_node_substitutes_and_skips_its_masked_children():
    value, body = _free("u v"), _free("(v, U)")
    let = PlainLetSig(value, ScopedAST(NameBinder(2), body))
    subst = add_subst(identity_subst(), NameBinder(0), UniverseSig())
    out = substitute(ENV_SCOPE, subst, let)
    assert out == PlainLetSig(
        AppSig(UniverseSig(), Var(Name(1))), ScopedAST(NameBinder(2), body)
    )
    assert out.body.body is body
    assert free_mask(out) == -1  # no slot to record it in
    elsewhere = add_subst(identity_subst(), NameBinder(7), UniverseSig())
    out = substitute(ENV_SCOPE, elsewhere, let)
    assert out == let and out.value is value and out.body.body is body


def test_a_pair_pattern_beta_records_masks():
    """The projections a pair-pattern beta binds record the argument's
    mask, so the result, built over them, records a mask of 0 and not a
    negative one that the next substitution would have to walk in full."""
    src = "(lam (a, b) . lam z . (b, a)) (lam x . x, lam y . y)"
    out = whnf_free(Scope(), direct_to_free(to_foil_closed(parse_term(src))))
    assert free_mask(out) == 0
    assert _masked_nodes(out) == _nodes(out)
    assert check_scope(out, Scope()) == 0
    pair = "(lam x . x, lam y . y)"
    assert alpha_eq(out, parse_term(f"lam z . (second {pair}, first {pair})"))


def _unmasked(ast: AST) -> AST:
    if type(ast) is Var:
        return ast
    if type(ast) is ScopedAST:
        return ScopedAST(ast.binder, _unmasked(ast.body))
    return type(ast)(*map(_unmasked, children(ast)))


def test_factorial_6_substitutes_a_quarter_of_the_nodes(monkeypatch):
    """Substitution's node visits with the recorded masks, against the same
    reduction where every mask reads -1: the input's are reset on a copy,
    and those the walks record are deleted as each node is built.  Visits
    are counted at the compiled walks, which recurse into each other
    without passing ``substitute``."""
    visits = 0
    unmask = False
    walks = generic._SUBSTITUTES

    def build(cls):
        walk = walks[cls]

        def counted(*args):
            nonlocal visits
            visits += 1
            node = walk(*args)
            if unmask:
                Node.fv.__delete__(node)
            return node

        return counted

    monkeypatch.setattr(generic, "_SUBSTITUTES", generic.Compiled(build))
    term = direct_to_free(to_foil_closed(church_fact(6)))
    normal = nf_free(Scope(), term)
    masked, visits, unmask = visits, 0, True
    copy = _unmasked(term)
    assert free_mask(copy) == -1
    assert nf_free(Scope(), copy) == normal
    assert 0 < masked <= visits // 4
