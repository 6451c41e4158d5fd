"""Canonical byte encodings of terms.

One walk encodes all three representations: a node emits its tag, then the
binder of each :class:`~scopefoil.generic.ScopedAST` field, then its fields
in match-argument order.  Raw names and de Bruijn indices are unsigned
LEB128 varints, an identifier is its length-prefixed UTF-8 text, and any
other field is a node.  Each representation has its own tag table; a node
missing from it is a ``TypeError``.  Equal encodings mean structurally
identical terms, which is what the representation-identity tests (``sink``)
and the benchmark result hashes rely on.

Tags, direct and scope-indexed terms (the two scope-indexed forms share the
tag space; a lambda carries a pattern in the direct form and a bare binder
varint in the generic form).  A node's tag is its surface class's position
in ``naive.Term``, from 0x01, for the generated ``terms.Pair`` …
``terms.Universe`` and ``PairSig`` … ``UniverseSig`` alike::

    0x01 var <raw>        0x05 app f a            patterns:
    0x02 pair l r         0x06 lam <binder> body    0x10 wildcard
    0x03 first t          0x07 pi <binder> dom cod  0x11 var <raw>
    0x04 second t         0x08 universe             0x12 pair l r

A generic node whose binder is a wildcard or pair pattern is prefixed with
0x09, which is no node's tag, and each of its binders is then encoded as a
pattern (a bare binder under 0x11): ``lam (a, _) . a`` is
``09 06 12 11 00 10 01 00``.

Tags, de Bruijn terms (shapes reuse the pattern tags, minus payloads)::

    0x20 bvar <index>     0x24 pi <shape> dom cod   0x27 second t
    0x21 fvar <len> utf8  0x25 pair l r             0x28 universe
    0x22 app f a          0x26 first t
    0x23 lam <shape> body
"""

from __future__ import annotations

import hashlib
from typing import get_args

from . import naive
from . import oracles as db
from . import terms
from .generic import AST, ScopedAST, children
from .lambda_pi import CONSTRUCTORS
from .naive import VarIdent
from .names import Name, NameBinder, Var
from .patterns import PatternPair, PatternVar, PatternWildcard


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


_NODE_TAGS = {cls: tag for tag, cls in enumerate(get_args(naive.Term), 0x01)}
_PATTERN_TAGS = {PatternWildcard: 0x10, PatternVar: 0x11, PatternPair: 0x12}
_DIRECT_TAGS = {Var: _NODE_TAGS[naive.Var], **_PATTERN_TAGS}
_FREE_TAGS = dict(_DIRECT_TAGS)
for _con in CONSTRUCTORS:
    _DIRECT_TAGS[_con.direct] = _FREE_TAGS[_con.free] = _NODE_TAGS[_con.naive]

_PATTERN_BINDERS = 0x09

_DB_TAGS = {
    db.ShapeWildcard: 0x10,
    db.ShapeVar: 0x11,
    db.ShapePair: 0x12,
    db.BVar: 0x20,
    db.FVar: 0x21,
    db.DBApp: 0x22,
    db.DBLam: 0x23,
    db.DBPi: 0x24,
    db.DBPair: 0x25,
    db.DBFirst: 0x26,
    db.DBSecond: 0x27,
    db.DBUniverse: 0x28,
}


def _encode(node: object, tags: dict[type, int], out: bytearray) -> None:
    """The one walk: the tag, every scoped field's binder (so Pi's binder
    precedes its domain), then the fields in match-argument order."""
    tag = tags.get(type(node))
    if tag is None:
        raise TypeError(f"not a term: {node!r}")
    fields = children(node)
    binders = [field.binder for field in fields if type(field) is ScopedAST]
    if any(type(binder) is not NameBinder for binder in binders):
        out.append(_PATTERN_BINDERS)  # then every binder is a pattern
        binders = [PatternVar(b) if type(b) is NameBinder else b for b in binders]
    out.append(tag)
    for binder in binders:
        if type(binder) is NameBinder:
            _varint(binder.raw, out)
        else:
            _encode(binder, tags, out)
    for field in fields:
        kind = type(field)
        if kind is ScopedAST:
            _encode(field.body, tags, out)
        elif kind is Name or kind is NameBinder:
            _varint(field.raw, out)
        elif kind is int:
            _varint(field, out)
        elif kind is VarIdent:
            data = field.text.encode("utf-8")
            _varint(len(data), out)
            out.extend(data)
        else:
            _encode(field, tags, out)


def _encoded(term: object, tags: dict[type, int]) -> bytes:
    out = bytearray()
    _encode(term, tags, out)
    return bytes(out)


def encode_direct(term: terms.Term) -> bytes:
    return _encoded(term, _DIRECT_TAGS)


def encode_free(term: AST) -> bytes:
    return _encoded(term, _FREE_TAGS)


def encode_debruijn(term: db.DBTerm) -> bytes:
    return _encoded(term, _DB_TAGS)


def hash_debruijn(term: db.DBTerm) -> str:
    """SHA-256 of the canonical de Bruijn encoding (the benchmark hash)."""
    return hashlib.sha256(encode_debruijn(term)).hexdigest()
