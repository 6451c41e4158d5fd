"""Pinned normal-form bytes of the scope-safe engines, raw names included.

``alpha_eq`` cannot see a change in the raw names a normalizer picks for the
binders it refreshes, and no benchmark workload has a wildcard or pair
pattern, so the bytes of ``nf_direct``, ``nf_free`` and ``nf_nbe`` are pinned
here by digest: over a fixed set of wildcard and pair-pattern redexes (the
last two with ``lam`` and ``fun`` binders back to back, which ``nf_nbe``
quotes as one chain), each normalized in scopes whose raw names collide with
the term's binders, and over the ``gen_random(9000 + i, 12)`` corpus of
``tests/test_nbe.py``.
"""

import hashlib

from scopefoil.bench import gen_random
from scopefoil.bridge import to_foil_closed
from scopefoil.encoding import encode_direct, encode_free
from scopefoil.lambda_pi import direct_to_free, nf_free
from scopefoil.names import Scope
from scopefoil.nbe import nf_nbe
from scopefoil.syntax import parse_term
from scopefoil.terms import nf_direct

PATTERN_REDEXES = (
    "(lam (a, b) . lam c . (b, (a, c))) (lam x . x, lam y . y)",
    "(lam _ . lam z . z) (lam w . w w)",
    "lam p . (lam (a, b) . (b, a)) p",
    "lam f . (lam ((a, b), _) . lam c . f a (b c)) ((lam x . x, lam y . f y), U)",
    "fun ((a, _) : U) -> (lam (x, y) . x y) (a, lam z . z)",
    "(lam (a, b) . lam d . (lam _ . a) (b d)) (lam u . lam v . u, lam w . w)",
    "lam q . (lam (x, (y, _)) . lam z . (y, (x, z))) (q, (lam t . q t, U))",
    "fun (_ : U) -> fun ((p, q) : U) -> (lam (r, s) . r s) (q, p)",
    "lam g . (lam (a, b) . fun ((c, d) : a) -> b c d) (g, lam e . lam (h, _) . e h)",
    "lam (a, b) . fun (c : a) -> lam _ . lam d . (lam e . e) (b, d)",
    "fun ((a, b) : lam x . lam y . x) -> lam _ . "
    "fun (c : (lam z . z) U) -> lam (d, _) . (a, (b, (c, d)))",
)

# Closed terms allocate binders from raw 0, so every binder of a redex
# collides with a scope of 3 or 6 names and is refreshed when entered.
SCOPES = (Scope(), Scope(range(3)), Scope(range(6)))


def cases():
    """``(scope, direct term)`` pairs: the pattern redexes in every scope of
    :data:`SCOPES`, then the random corpus in the empty scope."""
    for src in PATTERN_REDEXES:
        term = to_foil_closed(parse_term(src))
        for scope in SCOPES:
            yield scope, term
    for index in range(60):
        yield Scope(), to_foil_closed(gen_random(9000 + index, 12))


def _digests() -> dict[str, str]:
    out = {"direct": hashlib.sha256(), "free": hashlib.sha256(), "nbe": hashlib.sha256()}
    for scope, term in cases():
        free = direct_to_free(term)
        out["direct"].update(encode_direct(nf_direct(scope, term)))
        out["free"].update(encode_free(nf_free(scope, free)))
        out["nbe"].update(encode_free(nf_nbe(scope, free)))
    return {engine: digest.hexdigest() for engine, digest in out.items()}


PINNED = {
    "direct": "3cb7738396cedbfd40cd3b293661a135e6773ea5e3c172db47dd1da7d2561ff9",
    "free": "7b2fcbe2da6b22da51ca224c16d13ef5e82b745e1bcde56b0ad2dcbc07daf914",
    "nbe": "87c0f6238f1c04a4c99b22da97721b7f7beac7bd4c7831f9e81ad207f4f91190",
}


def test_normal_form_bytes_are_pinned():
    assert _digests() == PINNED
