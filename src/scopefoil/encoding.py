"""Canonical byte encodings of terms.

Each encoder walks its term in preorder emitting one tag byte per node;
numeric payloads (raw names, de Bruijn indices) are unsigned LEB128
varints, and free identifiers are length-prefixed UTF-8.  Equal encodings
mean structurally identical terms, which is what the representation-identity
tests (``sink``) and the benchmark result hashes rely on.

Tags, direct and scope-indexed terms (the two scope-indexed forms share the
tag space but are encoded by separate functions; a lambda carries a pattern
in the direct form and a bare binder varint in the generic form)::

    0x01 var <raw>        0x05 app f a            patterns:
    0x02 pair l r         0x06 lam <binder> body    0x10 wildcard
    0x03 first t          0x07 pi <binder> dom cod  0x11 var <raw>
    0x04 second t         0x08 universe             0x12 pair l r

Tags, de Bruijn terms (shapes reuse the pattern tags, minus payloads)::

    0x20 bvar <index>     0x24 pi <shape> dom cod   0x27 second t
    0x21 fvar <len> utf8  0x25 pair l r             0x28 universe
    0x22 app f a          0x26 first t
    0x23 lam <shape> body
"""

from __future__ import annotations

import hashlib

from . import oracles, terms
from .generic import AST, ScopedAST, children
from .lambda_pi import (
    AppSig,
    FirstSig,
    LamSig,
    PairSig,
    PiSig,
    SecondSig,
    UniverseSig,
)
from .names import Var
from .patterns import Pattern, PatternPair, PatternVar, PatternWildcard


def _varint(n: int, out: bytearray) -> None:
    if n < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode_pattern(pattern: Pattern, out: bytearray) -> None:
    match pattern:
        case PatternWildcard():
            out.append(0x10)
        case PatternVar(binder):
            out.append(0x11)
            _varint(binder.raw, out)
        case PatternPair(left, right):
            out.append(0x12)
            _encode_pattern(left, out)
            _encode_pattern(right, out)
        case _:
            raise TypeError(f"not a pattern: {pattern!r}")


def _encode_direct(term: terms.Term, out: bytearray) -> None:
    match term:
        case Var(name):
            out.append(0x01)
            _varint(name.raw, out)
        case terms.Pair(left, right):
            out.append(0x02)
            _encode_direct(left, out)
            _encode_direct(right, out)
        case terms.First(t):
            out.append(0x03)
            _encode_direct(t, out)
        case terms.Second(t):
            out.append(0x04)
            _encode_direct(t, out)
        case terms.App(fun, arg):
            out.append(0x05)
            _encode_direct(fun, out)
            _encode_direct(arg, out)
        case terms.Lam(pattern, body):
            out.append(0x06)
            _encode_pattern(pattern, out)
            _encode_direct(body, out)
        case terms.Pi(pattern, domain, codomain):
            out.append(0x07)
            _encode_pattern(pattern, out)
            _encode_direct(domain, out)
            _encode_direct(codomain, out)
        case terms.Universe():
            out.append(0x08)
        case _:
            raise TypeError(f"not a term: {term!r}")


def encode_direct(term: terms.Term) -> bytes:
    out = bytearray()
    _encode_direct(term, out)
    return bytes(out)


# Every scope-indexed node: its tag, the binder of each scoped child, then
# each child (a scoped child's body) in field order.
_FREE_TAGS = {
    PairSig: 0x02,
    FirstSig: 0x03,
    SecondSig: 0x04,
    AppSig: 0x05,
    LamSig: 0x06,
    PiSig: 0x07,
    UniverseSig: 0x08,
}


def _encode_free(term: AST, out: bytearray) -> None:
    if type(term) is Var:
        out.append(0x01)
        _varint(term.name.raw, out)
        return
    tag = _FREE_TAGS.get(type(term))
    if tag is None:
        raise TypeError(f"not a term: {term!r}")
    out.append(tag)
    fields = children(term)
    for child in fields:
        if type(child) is ScopedAST:
            _varint(child.binder.raw, out)
    for child in fields:
        _encode_free(child.body if type(child) is ScopedAST else child, out)


def encode_free(term: AST) -> bytes:
    out = bytearray()
    _encode_free(term, out)
    return bytes(out)


def _encode_shape(shape: oracles.Shape, out: bytearray) -> None:
    match shape:
        case oracles.ShapeWildcard():
            out.append(0x10)
        case oracles.ShapeVar():
            out.append(0x11)
        case oracles.ShapePair(left, right):
            out.append(0x12)
            _encode_shape(left, out)
            _encode_shape(right, out)
        case _:
            raise TypeError(f"not a shape: {shape!r}")


def _encode_db(term: oracles.DBTerm, out: bytearray) -> None:
    match term:
        case oracles.BVar(index):
            out.append(0x20)
            _varint(index, out)
        case oracles.FVar(ident):
            out.append(0x21)
            data = ident.text.encode("utf-8")
            _varint(len(data), out)
            out.extend(data)
        case oracles.DBApp(fun, arg):
            out.append(0x22)
            _encode_db(fun, out)
            _encode_db(arg, out)
        case oracles.DBLam(shape, body):
            out.append(0x23)
            _encode_shape(shape, out)
            _encode_db(body, out)
        case oracles.DBPi(shape, domain, codomain):
            out.append(0x24)
            _encode_shape(shape, out)
            _encode_db(domain, out)
            _encode_db(codomain, out)
        case oracles.DBPair(left, right):
            out.append(0x25)
            _encode_db(left, out)
            _encode_db(right, out)
        case oracles.DBFirst(t):
            out.append(0x26)
            _encode_db(t, out)
        case oracles.DBSecond(t):
            out.append(0x27)
            _encode_db(t, out)
        case oracles.DBUniverse():
            out.append(0x28)
        case _:
            raise TypeError(f"not a term: {term!r}")


def encode_debruijn(term: oracles.DBTerm) -> bytes:
    out = bytearray()
    _encode_db(term, out)
    return bytes(out)


def hash_debruijn(term: oracles.DBTerm) -> str:
    """SHA-256 of the canonical de Bruijn encoding (the benchmark hash)."""
    return hashlib.sha256(encode_debruijn(term)).hexdigest()
