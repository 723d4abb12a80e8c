"""The byte codec shared by everything that persists triples.

Unsigned LEB128 varints, RDF terms (a kind byte plus length-prefixed
UTF-8 strings: URI/BNode/plain literal/typed literal/language literal),
delta-encoded sorted id-pair blocks, and dictionary term tables.  The
store image (:mod:`repro.bitmat.mmapstore`) is assembled from the
dictionary and pair blocks, its statistics section
(:mod:`repro.bitmat.stats`) from the varints, and the write-ahead log
(:mod:`repro.update.wal`) from the varints and terms — so a triple
serializes identically in a log record and a store image.  Every
decoder raises a typed :class:`~repro.exceptions.StorageError` on
truncated or malformed input.
"""

from __future__ import annotations

from typing import BinaryIO

from ..exceptions import StorageError
from ..rdf.dictionary import Dictionary
from ..rdf.terms import BNode, Literal, Term, URI

#: LEB128 length cap: 10 bytes carry 70 payload bits, enough for any
#: 64-bit count; a longer run of continuation bits is always corruption
#: (or a hostile image trying to decode into an unbounded int).
_MAX_VARINT_BYTES = 10

_KIND_URI = 0
_KIND_BNODE = 1
_KIND_PLAIN = 2
_KIND_TYPED = 3
_KIND_LANG = 4


def write_varint(out: BinaryIO, value: int) -> None:
    """Append one unsigned LEB128 varint."""
    if value < 0:
        raise StorageError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def read_varint(data: BinaryIO) -> int:
    """Read one unsigned LEB128 varint.

    StorageError when truncated or longer than ``_MAX_VARINT_BYTES``
    (the unsigned-range check mirroring :func:`write_varint`'s).
    """
    shift = 0
    value = 0
    while True:
        chunk = data.read(1)
        if not chunk:
            raise StorageError("truncated varint")
        byte = chunk[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift >= 7 * _MAX_VARINT_BYTES:
            raise StorageError("varint exceeds 10 bytes (corrupt image)")


def _write_text(out: BinaryIO, text: str) -> None:
    encoded = text.encode("utf-8")
    write_varint(out, len(encoded))
    out.write(encoded)


def _read_text(data: BinaryIO) -> str:
    length = read_varint(data)
    payload = data.read(length)
    if len(payload) != length:
        raise StorageError("truncated string")
    return payload.decode("utf-8")


def write_term(out: BinaryIO, term: Term) -> None:
    """Append one RDF term (kind byte + length-prefixed strings)."""
    if isinstance(term, URI):
        out.write(bytes((_KIND_URI,)))
        _write_text(out, str(term))
    elif isinstance(term, BNode):
        out.write(bytes((_KIND_BNODE,)))
        _write_text(out, str(term))
    elif isinstance(term, Literal):
        if term.language:
            out.write(bytes((_KIND_LANG,)))
            _write_text(out, str(term))
            _write_text(out, term.language)
        elif term.datatype:
            out.write(bytes((_KIND_TYPED,)))
            _write_text(out, str(term))
            _write_text(out, term.datatype)
        else:
            out.write(bytes((_KIND_PLAIN,)))
            _write_text(out, str(term))
    else:
        raise StorageError(f"cannot persist term {term!r}")


def read_term(data: BinaryIO) -> Term:
    """Read one RDF term written by :func:`write_term`."""
    kind_chunk = data.read(1)
    if not kind_chunk:
        raise StorageError("truncated term")
    kind = kind_chunk[0]
    if kind == _KIND_URI:
        return URI(_read_text(data))
    if kind == _KIND_BNODE:
        return BNode(_read_text(data))
    if kind == _KIND_PLAIN:
        return Literal(_read_text(data))
    if kind == _KIND_TYPED:
        value = _read_text(data)
        return Literal(value, datatype=_read_text(data))
    if kind == _KIND_LANG:
        value = _read_text(data)
        return Literal(value, language=_read_text(data))
    raise StorageError(f"unknown term kind {kind}")


def write_pairs(out: BinaryIO, pairs: list[tuple[int, int]]) -> None:
    """One per-predicate block: pair count + delta-encoded (sid, oid)."""
    write_varint(out, len(pairs))
    previous_sid = 0
    previous_oid = 0
    for sid, oid in pairs:
        if sid != previous_sid:
            previous_oid = 0
        write_varint(out, sid - previous_sid)
        write_varint(out, oid - previous_oid)
        previous_sid, previous_oid = sid, oid


def read_pairs(data: BinaryIO) -> list[tuple[int, int]]:
    """Read one block written by :func:`write_pairs`."""
    count = read_varint(data)
    pairs: list[tuple[int, int]] = []
    previous_sid = 0
    previous_oid = 0
    for _ in range(count):
        sid = previous_sid + read_varint(data)
        if sid != previous_sid:
            previous_oid = 0
        oid = previous_oid + read_varint(data)
        pairs.append((sid, oid))
        previous_sid, previous_oid = sid, oid
    return pairs


def write_dictionary(out: BinaryIO, dictionary: Dictionary) -> None:
    """Counts + term tables in id order (shared, S-only, O-only, preds)."""
    for count in (dictionary.num_shared, dictionary.num_subjects,
                  dictionary.num_objects, dictionary.num_predicates):
        write_varint(out, count)
    for term_id in range(1, dictionary.num_shared + 1):
        write_term(out, dictionary.subject_term(term_id))
    for term_id in range(dictionary.num_shared + 1,
                         dictionary.num_subjects + 1):
        write_term(out, dictionary.subject_term(term_id))
    for term_id in range(dictionary.num_shared + 1,
                         dictionary.num_objects + 1):
        write_term(out, dictionary.object_term(term_id))
    for term_id in range(1, dictionary.num_predicates + 1):
        write_term(out, dictionary.predicate_term(term_id))


def read_dictionary(data: BinaryIO) -> Dictionary:
    """Read a dictionary section written by :func:`write_dictionary`."""
    num_shared = read_varint(data)
    num_subjects = read_varint(data)
    num_objects = read_varint(data)
    num_predicates = read_varint(data)
    if num_subjects < num_shared or num_objects < num_shared:
        raise StorageError("corrupt dictionary counts")
    dictionary = Dictionary()
    for _ in range(num_shared):
        dictionary._add_shared(read_term(data))
    for _ in range(num_subjects - num_shared):
        dictionary._add_subject_only(read_term(data))
    for _ in range(num_objects - num_shared):
        dictionary._add_object_only(read_term(data))
    for _ in range(num_predicates):
        dictionary._add_predicate(read_term(data))
    return dictionary
