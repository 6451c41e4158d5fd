"""Canonical byte encodings and hashing.

The encodings are injective per representation (frozen byte strings below
pin the format), and the de Bruijn hash is what the benchmark harness uses
to compare results across implementations.
"""

import random

import pytest
from conftest import gen_naive_term

from scopefoil.bridge import to_foil_closed
from scopefoil.encoding import (
    encode_debruijn,
    encode_direct,
    encode_free,
    hash_debruijn,
)
from scopefoil.lambda_pi import AppSig, direct_to_free
from scopefoil.oracles import to_debruijn
from scopefoil.syntax import parse_term
from scopefoil.terms import App, Universe


def test_frozen_byte_formats():
    term = parse_term("lam x . lam y . x y")
    direct = to_foil_closed(term)
    assert encode_direct(direct).hex() == "0611000611010501000101"
    assert encode_free(direct_to_free(direct)).hex() == "060006010501000101"
    assert encode_debruijn(to_debruijn(term)).hex() == "231123112220012000"
    # Pi, pairs, projections, the universe and wildcard/pair patterns
    term = parse_term("fun ((a, _) : U) -> lam b . (first (a, b), second (b a))")
    assert (
        encode_direct(to_foil_closed(term)).hex()
        == "07121100100806110102030201000101040501010100"
    )
    assert (
        encode_debruijn(to_debruijn(term)).hex()
        == "2412111028231125262520012000272220002001"
    )


def test_frozen_generic_bytes_for_every_constructor():
    # Pi's binder comes before its domain: scoped children's binders follow the tag
    term = parse_term("fun (a : U) -> lam b . (first (a, b), second (b a))")
    free = direct_to_free(to_foil_closed(term))
    assert encode_free(free).hex() == "070008060102030201000101040501010100"


def test_frozen_generic_bytes_for_pattern_binders():
    # 0x09 marks a node whose binder is a pattern, encoded with the pattern tags
    pi = parse_term("fun ((a, _) : U) -> lam b . (first (a, b), second (b a))")
    assert (
        encode_free(direct_to_free(to_foil_closed(pi))).hex()
        == "09071211001008060102030201000101040501010100"
    )
    lam = parse_term("lam ((a, _), b) . b a")
    assert (
        encode_free(direct_to_free(to_foil_closed(lam))).hex()
        == "0906121211001011010501010100"
    )


def test_each_encoder_rejects_the_other_representations():
    direct = to_foil_closed(parse_term("(lam x . x) U"))
    free = direct_to_free(direct)
    db = to_debruijn(parse_term("(lam x . x) U"))
    for encode, foreign in (
        (encode_direct, (free, db, AppSig(Universe(), Universe()))),
        (encode_free, (direct, db, App(Universe(), Universe()))),
        (encode_debruijn, (direct, free, Universe())),
    ):
        for term in foreign:
            with pytest.raises(TypeError):
                encode(term)


def test_pattern_and_free_ident_bytes():
    term = parse_term("(lam (a, _) . (a, U)) q")
    assert encode_debruijn(to_debruijn(term)).hex() == "222312111025200028210171"


def test_varint_boundary_via_large_names():
    # names >= 128 need a two-byte varint
    from scopefoil.names import Name, NameBinder, Var
    from scopefoil.patterns import PatternVar
    from scopefoil.terms import Lam

    term = Lam(PatternVar(NameBinder(200)), Var(Name(200)))
    data = encode_direct(term)
    assert b"\xc8\x01" in data  # 200 as LEB128


def test_encoding_distinguishes_alpha_variants_in_named_reps():
    a = to_foil_closed(parse_term("lam x . lam y . x"))
    # same shape, one extra wrapping binder forces different raw names
    from scopefoil.terms import Lam
    from scopefoil.patterns import PatternVar
    from scopefoil.names import NameBinder

    b = Lam(PatternVar(NameBinder(5)), a)
    assert encode_direct(a) != encode_direct(b)


def test_debruijn_encoding_is_alpha_invariant():
    a = to_debruijn(parse_term("lam x . lam y . x (y, U)"))
    b = to_debruijn(parse_term("lam u . lam v . u (v, U)"))
    assert encode_debruijn(a) == encode_debruijn(b)
    assert hash_debruijn(a) == hash_debruijn(b)


def test_hash_is_sha256_hex():
    h = hash_debruijn(to_debruijn(parse_term("U")))
    assert len(h) == 64
    assert set(h) <= set("0123456789abcdef")


def test_encodings_injective_on_random_corpus():
    rng = random.Random(515)
    seen_db: dict[bytes, object] = {}
    seen_direct: dict[bytes, object] = {}
    seen_free: dict[bytes, object] = {}
    for _ in range(250):
        term = gen_naive_term(rng, rng.randrange(1, 6))
        db = to_debruijn(term)
        blob = encode_debruijn(db)
        if blob in seen_db:
            assert seen_db[blob] == db
        seen_db[blob] = db

        direct = to_foil_closed(term)
        blob2 = encode_direct(direct)
        if blob2 in seen_direct:
            assert seen_direct[blob2] == direct
        seen_direct[blob2] = direct

        free = direct_to_free(direct)
        blob3 = encode_free(free)
        if blob3 in seen_free:
            assert seen_free[blob3] == free
        seen_free[blob3] = free


def test_free_and_direct_encodings_agree_on_single_binder_terms():
    """Encoding either representation twice gives the same bytes."""
    rng = random.Random(9090)
    for _ in range(80):
        term = gen_naive_term(rng, rng.randrange(1, 5))
        direct = to_foil_closed(term)
        free = direct_to_free(direct)
        assert encode_free(free) == encode_free(direct_to_free(direct))
        # decoding isn't provided; determinism is the contract
        assert encode_direct(direct) == encode_direct(to_foil_closed(term))
