"""FSG1: the binary container for encoded signals.

Layout (all multi-byte values little-endian):

* magic ``b"FSG1"`` (4 bytes), version byte (1), dimension byte (1 or 2);
* signed 64-bit dimensions then origin: 1-D writes [length, origin],
  2-D writes [rows, cols, origin];
* policy id byte (0 = predecessor, 1 = detected);
* seed: unsigned 64-bit count, then signed 64-bit samples;
* records: unsigned 64-bit count, then per record: kind byte (0 =
  translation, 1 = affine, 2 = amp_affine; ``arrow_kind`` of S and the
  amplitude), T, S as signed 64-bit, amplitude as two signed 64-bit ints
  (numerator, denominator), delta as an unsigned 64-bit count plus signed
  64-bit values.

Parsing is strict: anything structurally off -- bad magic, unknown version,
unknown policy id, truncated section, non-positive size, empty seed, a
record ``_record_fault`` refuses, a kind byte S and the amplitude do not
give, or trailing bytes -- raises CorruptContainer.  A cut section, a
record count the bytes left cannot hold, a refused record, a wrong kind
byte and trailing bytes are named with the byte offset where that section,
the count, the record's kind byte or the trailing bytes begin.
The writer refuses with ValueError, in the reader's words, each of these an
encoding can hold (a record fault without the offset, as ``decode`` words
it too), and a bool or a value that is not a signed 64-bit int.
One header struct per dimension (``_HEADS``) serves the writer, the reader
and ``container_layout``.  A record packs as one ``_REC_HEAD`` and one bulk
delta array; a bool or a value that does not pack goes through
``_check_i64``, which names it or normalises an integral Fraction.

One packer (``_pack``) serves two sinks.  It checks and packs every record
into a list of parts before anything is written: ``write_container``
returns the parts joined, and ``write_container_file`` hands them to the
file one by one, so the file write never builds the joined container and a
refused record leaves the file untouched.  Both first run the bool-delta
rule (``_check_deltas``), the one per-sample scan, since struct packs a bool
delta as 0 or 1; ``_pack`` checks the head fields and leaves every other
bad delta to struct.  ``sigrep encode`` calls ``_write_container_file``, the
file sink without the rule, on deltas ``encode`` made by int subtraction.

This module is the bottom of the codec stack, above ``errors`` only, so it
also holds the two rules that ``codec`` and ``signal`` share: the sample
rule (``_check_samples``, on ``errors._inexact``) and the arrow-kind rule
(``KIND_NAMES``, ``arrow_kind``).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import CorruptContainer, _inexact, _is_int


def _check_samples(values: Sequence) -> Sequence:
    """Return ``values``; raise TypeError naming the first value that is not
    an int or Fraction (``errors._inexact``)."""
    if bad := _inexact(values):
        raise TypeError(f"samples must be ints or Fractions, got {bad[0]!r}")
    return values


KIND_NAMES = ("translation", "affine", "amp_affine")  # by kind byte or rank
_TRANSLATION, _AFFINE, _AMP_AFFINE = range(3)


def arrow_kind(stride, amp_num, amp_den=1) -> int:
    """The kind of an arrow with stride S and amplitude c = amp_num/amp_den,
    as an index into KIND_NAMES: a translation has S = 1 and c = 1, an
    affine arrow has c = 1, and any other arrow is amplitude-affine."""
    if amp_num != amp_den:
        return _AMP_AFFINE
    return _TRANSLATION if stride == 1 else _AFFINE


MAGIC = b"FSG1"
VERSION = 1

POLICY_IDS = {"predecessor": 0, "detected": 1}
POLICY_NAMES = {v: k for k, v in POLICY_IDS.items()}

_HEADS = {d: struct.Struct(f"<4sBB{d}qqBQ") for d in (1, 2)}  # magic..seed count
_REC_HEAD = struct.Struct("<BqqqqQ")  # kind, T, S, amp_num, amp_den, delta count
_REC_FIELDS = ("record T", "record S", "amp numerator", "amp denominator")


class ArrowRecord(NamedTuple):
    """One stored arrow: target positions are implicit (scan order)."""
    shift: int        # T of the lookup map sigma(j) = S*j + T
    stride: int       # S
    amp_num: int
    amp_den: int
    delta: Tuple[int, ...]

    @property
    def amp(self) -> Fraction:
        return Fraction(self.amp_num, self.amp_den)

    @property
    def kind(self) -> int:
        return arrow_kind(self.stride, self.amp_num, self.amp_den)


class EncodedSignal(NamedTuple):
    shape: Tuple[int, ...]         # (length,) or (rows, cols)
    origin: int
    policy: str
    seed: Tuple[int, ...]
    records: Tuple[ArrowRecord, ...]

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def total_samples(self) -> int:
        total = 1
        for d in self.shape:
            total *= d
        return total


class ContainerLayout(NamedTuple):
    """Where the bytes of an FSG1 container go; the byte fields sum to its size."""
    records: int
    header_bytes: int       # magic through the record count, seed included
    arrow_param_bytes: int  # per record: kind, T, S, amplitude, delta count
    residual_bytes: int     # the delta arrays


def container_layout(enc: EncodedSignal) -> ContainerLayout:
    deltas = sum(len(rec.delta) for rec in enc.records)
    return ContainerLayout(len(enc.records),
                           _head(enc).size + 8 * (len(enc.seed) + 1),
                           _REC_HEAD.size * len(enc.records), 8 * deltas)


def _head(enc: EncodedSignal) -> struct.Struct:
    """The header struct of ``enc``; ValueError for an arity FSG1 lacks."""
    if enc.dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    return _HEADS[enc.dimension]


def _fits_i64(v: int) -> bool:
    return -(1 << 63) <= v < 1 << 63


def _check_i64(value, what: str) -> int:
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"{what} must be an integer, got {value}")
        value = int(value)
    if not _is_int(value):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if not _fits_i64(value):
        raise ValueError(f"{what} {value} does not fit in a signed 64-bit int")
    return value


def _record_fault(stride, amp_num, amp_den) -> Optional[str]:
    """Why a record with this head cannot be decoded; None if it can."""
    if stride == 0:
        return "record stride is zero"
    if amp_num == 0 or amp_den == 0:
        return "record amplitude is zero or undefined"
    return None


def _pack_record(kind, fields, delta) -> Tuple[bytes, bytes]:
    """A record's head (kind, then T, S, amp_num, amp_den) and delta array."""
    n = len(delta)
    return _REC_HEAD.pack(kind, *fields, n), struct.pack(f"<{n}q", *delta)


def _pack(enc: EncodedSignal) -> List[bytes]:
    """The container of ``enc`` as its parts in order: the header with the
    seed and record count, then each record's head and delta array."""
    head = _head(enc)
    if enc.policy not in POLICY_IDS:
        raise ValueError(f"unknown policy {enc.policy!r}")
    shape = tuple(_check_i64(d, "dimension") for d in enc.shape)
    origin = _check_i64(enc.origin, "origin")
    seed = [_check_i64(s, "seed sample") for s in enc.seed]
    if any(d <= 0 for d in shape):
        raise ValueError(f"non-positive dimensions {shape}")
    if not seed:
        raise ValueError("bad seed count")
    parts: List[bytes] = [
        head.pack(MAGIC, VERSION, enc.dimension, *shape, origin,
                  POLICY_IDS[enc.policy], len(seed)),
        struct.pack(f"<{len(seed)}qQ", *seed, len(enc.records))]
    for rec in enc.records:
        fault = _record_fault(rec.stride, rec.amp_num, rec.amp_den)
        if fault:
            raise ValueError(fault)
        fields = rec[:4]  # T, S, amp_num, amp_den
        try:
            # struct packs a bool as 0/1, so a bool field takes the checked
            # path too; a bool delta is _check_deltas'
            if bool not in map(type, fields):
                parts += _pack_record(rec.kind, fields, rec.delta)
                continue
        except struct.error:
            pass
        # _check_i64 names a bool, non-int or out-of-range field, or
        # normalises an integral Fraction for the second packing
        parts += _pack_record(
            rec.kind, list(map(_check_i64, fields, _REC_FIELDS)),
            [_check_i64(d, "delta value") for d in rec.delta])
    return parts


def _check_deltas(enc: EncodedSignal) -> EncodedSignal:
    """Return ``enc``; raise ValueError, in ``_check_i64``'s words, for the
    first bool delta, which struct would pack as 0 or 1.  Packing the
    records up to its own first names any fault ``_pack`` meets before it,
    as a writer that checked each delta would."""
    for i, rec in enumerate(enc.records):
        if bool in set(map(type, rec.delta)):
            _pack(enc._replace(records=enc.records[:i + 1]))
            _check_i64(next(d for d in rec.delta if type(d) is bool),
                       "delta value")
    return enc


def write_container(enc: EncodedSignal) -> bytes:
    return b"".join(_pack(_check_deltas(enc)))


def read_container(data: bytes) -> EncodedSignal:
    if len(data) < 6 or data[:4] != MAGIC:
        raise CorruptContainer("bad magic")
    if data[4] != VERSION:
        raise CorruptContainer(f"unsupported version {data[4]}")
    dim = data[5]
    if dim not in _HEADS:
        raise CorruptContainer(f"bad dimension byte {dim}")
    head, total = _HEADS[dim], len(data)
    if head.size > total:
        # the sizes follow the magic, version and dimension bytes
        raise CorruptContainer("truncated container at byte 6")
    values = head.unpack_from(data)
    shape, (origin, policy_id, seed_count) = values[3:-3], values[-3:]
    if any(d <= 0 for d in shape):
        raise CorruptContainer(f"non-positive dimensions {shape}")
    if policy_id not in POLICY_NAMES:
        raise CorruptContainer(f"unknown policy id {policy_id}")
    off = head.size
    if seed_count < 1 or seed_count * 8 > total - off:
        raise CorruptContainer("bad seed count")
    if (seed_count + 1) * 8 > total - off:
        raise CorruptContainer(
            f"truncated container at byte {off + 8 * seed_count}")
    *seed, rec_count = struct.unpack_from(f"<{seed_count}qQ", data, off)
    off += 8 * (seed_count + 1)
    if rec_count * _REC_HEAD.size > total - off:
        raise CorruptContainer(f"bad record count at byte {off - 8}")
    head_unpack = _REC_HEAD.unpack_from
    head_size = _REC_HEAD.size
    records = []
    append = records.append
    for _ in range(rec_count):
        if off + head_size > total:
            raise CorruptContainer(f"truncated record at byte {off}")
        kind, t, s, num, den, dlen = head_unpack(data, off)
        fault = _record_fault(s, num, den)
        if fault:
            raise CorruptContainer(f"{fault} at byte {off}")
        if kind != arrow_kind(s, num, den):
            raise CorruptContainer(
                (f"unknown record kind {kind}" if kind >= len(KIND_NAMES) else
                 f"record kind {kind} ({KIND_NAMES[kind]}) does not match "
                 f"stride {s} and amplitude {num}/{den}") + f" at byte {off}")
        off += head_size
        if dlen * 8 > total - off:
            raise CorruptContainer(f"truncated delta array at byte {off}")
        delta = struct.unpack_from(f"<{dlen}q", data, off)
        off += 8 * dlen
        append(ArrowRecord(t, s, num, den, delta))
    if off != total:
        raise CorruptContainer(f"trailing bytes after records at byte {off}")
    return EncodedSignal(shape, origin, POLICY_NAMES[policy_id],
                         tuple(seed), tuple(records))


# The file buffer of write_container_file.  The default, the file system's
# block size (often 4 KiB), takes about 500 write calls for a 2 MB container.
_WRITE_BUFFER = 1 << 16


def write_container_file(path, enc: EncodedSignal) -> None:
    _write_container_file(path, _check_deltas(enc))


def _write_container_file(path, enc: EncodedSignal) -> None:
    """``write_container_file`` without its bool-delta rule, for deltas
    ``encode`` made by int subtraction."""
    parts = _pack(enc)  # may raise: leave ``path`` untouched
    with open(path, "wb", buffering=_WRITE_BUFFER) as fh:
        fh.writelines(parts)


def read_container_file(path) -> EncodedSignal:
    with open(path, "rb") as fh:
        return read_container(fh.read())
