"""Property test over the whole grammar: the named, scope-safe and NbE
engines agree with the de Bruijn normalizer on open terms with wildcard and
pair patterns and Pi types, with the scope checkers (scopes and free-name
masks) run on every engine's input and output.

Hypothesis runs derandomized with a bounded example count, so every run
draws the same terms and takes the same time.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scopefoil import naive
from scopefoil.bridge import default_ident, from_foil_term, rename_from_env, to_foil_term
from scopefoil.fuel import FuelExceededError
from scopefoil.generic import check_scope
from scopefoil.lambda_pi import direct_to_free, free_to_direct, nf_free
from scopefoil.names import Name, Scope
from scopefoil.nbe import nf_nbe
from scopefoil.oracles import alpha_eq, nf_debruijn, nf_named, to_debruijn
from scopefoil.terms import check_scope_direct, nf_direct

# Free identifiers of the open terms, resolved through ``rename_from_env``.
FREE = {"u": Name(0), "v": Name(1)}
SCOPE = Scope([0, 1])
FUEL = 20_000


def _ident(text: str) -> naive.VarIdent:
    return naive.VarIdent(text)


@st.composite
def patterns(draw, depth: int, used: list[str]) -> naive.Pattern:
    """A pattern whose variables are fresh names, appended to ``used``."""
    kind = draw(st.sampled_from(("var", "var", "wildcard", "pair") if depth else ("var", "wildcard")))
    if kind == "wildcard":
        return naive.PatternWildcard()
    if kind == "pair":
        left = draw(patterns(depth - 1, used))
        return naive.PatternPair(left, draw(patterns(depth - 1, used)))
    used.append(f"p{len(used)}")
    return naive.PatternVar(_ident(used[-1]))


@st.composite
def terms(draw, depth: int, env: tuple[str, ...] = tuple(FREE)) -> naive.Term:
    """A term over ``env``: every constructor, and beta redexes whose binder
    is any pattern, so pair patterns meet pair and non-pair arguments."""
    leaves = ("var", "var", "universe")
    kinds = leaves if depth == 0 else leaves + (
        "pair", "first", "second", "app", "lam", "pi", "redex", "redex",
    )
    kind = draw(st.sampled_from(kinds))
    sub = terms(depth - 1, env) if depth else None
    if kind == "var":
        return naive.Var(_ident(draw(st.sampled_from(env))))
    if kind == "universe":
        return naive.Universe()
    if kind == "pair":
        return naive.Pair(draw(sub), draw(sub))
    if kind == "first":
        return naive.First(draw(sub))
    if kind == "second":
        return naive.Second(draw(sub))
    if kind == "app":
        return naive.App(draw(sub), draw(sub))
    used = list(env)
    pattern = draw(patterns(min(depth, 2), used))
    body = draw(terms(depth - 1, tuple(used)))
    if kind == "lam":
        return naive.Lam(pattern, naive.ScopedTerm(body))
    if kind == "pi":
        return naive.Pi(pattern, draw(sub), naive.ScopedTerm(body))
    return naive.App(naive.Lam(pattern, naive.ScopedTerm(body)), draw(sub))


def _named(term) -> naive.Term:
    """A direct term back in surface syntax, free names as they entered."""
    inverse = {name.raw: ident for ident, name in FREE.items()}
    return from_foil_term(
        lambda raw: _ident(inverse[raw]) if raw in inverse else default_ident(raw), term
    )


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(terms(4))
def test_engines_agree_with_de_bruijn_on_open_terms(term):
    try:
        reference = nf_debruijn(to_debruijn(term), fuel=FUEL)
    except FuelExceededError:
        assume(False)  # the other engines spend no more fuel than this
    direct = to_foil_term(rename_from_env(FREE), SCOPE, term)
    check_scope_direct(direct, SCOPE)
    free = direct_to_free(direct)
    check_scope(free, SCOPE)
    by_direct = nf_direct(SCOPE, direct, fuel=FUEL)
    by_free = nf_free(SCOPE, free, fuel=FUEL)
    check_scope_direct(by_direct, SCOPE)
    check_scope(by_free, SCOPE)
    by_nbe = nf_nbe(SCOPE, free)
    check_scope(by_nbe, SCOPE)
    assert alpha_eq(nf_named(term, FUEL), reference)
    assert alpha_eq(_named(by_direct), reference)
    assert alpha_eq(_named(free_to_direct(by_free)), reference)
    assert alpha_eq(_named(free_to_direct(by_nbe)), reference)
