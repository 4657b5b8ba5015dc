"""FSG1: the binary container for encoded signals.

Layout (all multi-byte values little-endian):

* magic ``b"FSG1"`` (4 bytes), version byte (1), dimension byte (1 or 2);
* signed 64-bit dimensions then origin: 1-D writes [length, origin],
  2-D writes [rows, cols, origin];
* policy id byte (0 = predecessor, 1 = detected);
* seed: unsigned 64-bit count, then signed 64-bit samples;
* records: unsigned 64-bit count, then per record: kind byte
  (0 = translation, 1 = affine, 2 = amp_affine), T, S as signed 64-bit,
  amplitude as two signed 64-bit ints (numerator, denominator), delta as an
  unsigned 64-bit count plus signed 64-bit values.

Parsing is strict: anything structurally off -- bad magic, unknown version,
unknown policy id, truncated section, or trailing bytes -- raises
CorruptContainer.  Writing validates that every value fits in a signed
64-bit int and that deltas are integers; bools are refused in every field.
Each record's head and delta array are packed in one call each; a value that
does not pack sends the record through the field-by-field checks, which
name the offending field.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import chain
from typing import List, NamedTuple, Tuple

from .errors import CorruptContainer

MAGIC = b"FSG1"
VERSION = 1

POLICY_IDS = {"predecessor": 0, "detected": 1}
POLICY_NAMES = {v: k for k, v in POLICY_IDS.items()}

KIND_TRANSLATION = 0
KIND_AFFINE = 1
KIND_AMP_AFFINE = 2
KIND_NAMES = {0: "translation", 1: "affine", 2: "amp_affine"}

_BYTE = struct.Struct("<B")
_Q = struct.Struct("<q")
_COUNT = struct.Struct("<Q")
_REC_HEAD = struct.Struct("<Bqqqq")  # kind, T, S, amp_num, amp_den
_REC_HEAD_COUNT = struct.Struct("<BqqqqQ")  # head plus the delta count

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class ArrowRecord(NamedTuple):
    """One stored arrow: target positions are implicit (scan order)."""
    kind: int
    shift: int        # T of the lookup map sigma(j) = S*j + T
    stride: int       # S
    amp_num: int
    amp_den: int
    delta: Tuple[int, ...]

    @property
    def amp(self) -> Fraction:
        return Fraction(self.amp_num, self.amp_den)


class EncodedSignal(NamedTuple):
    dimension: int                 # 1 or 2
    shape: Tuple[int, ...]         # (length,) or (rows, cols)
    origin: int
    policy: str
    seed: Tuple[int, ...]
    records: Tuple[ArrowRecord, ...]

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
    header = (len(MAGIC) + 2 * _BYTE.size + _Q.size * (len(enc.shape) + 1)
              + _BYTE.size + _COUNT.size + _Q.size * len(enc.seed)
              + _COUNT.size)
    deltas = sum(len(rec.delta) for rec in enc.records)
    return ContainerLayout(len(enc.records), header,
                           _REC_HEAD_COUNT.size * len(enc.records),
                           _Q.size * deltas)


def _check_i64(value, what: str) -> int:
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"{what} must be an integer, got {value}")
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"{what} {value} does not fit in a signed 64-bit int")
    return value


def write_container(enc: EncodedSignal) -> bytes:
    if enc.dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if len(enc.shape) != enc.dimension:
        raise ValueError("shape arity must match dimension")
    if enc.policy not in POLICY_IDS:
        raise ValueError(f"unknown policy {enc.policy!r}")
    parts: List[bytes] = [MAGIC, _BYTE.pack(VERSION), _BYTE.pack(enc.dimension)]
    for d in enc.shape:
        parts.append(_Q.pack(_check_i64(d, "dimension")))
    parts.append(_Q.pack(_check_i64(enc.origin, "origin")))
    parts.append(_BYTE.pack(POLICY_IDS[enc.policy]))
    parts.append(_COUNT.pack(len(enc.seed)))
    for s in enc.seed:
        parts.append(_Q.pack(_check_i64(s, "seed sample")))
    parts.append(_COUNT.pack(len(enc.records)))
    head_pack = _REC_HEAD_COUNT.pack
    append = parts.append
    for rec in enc.records:
        if isinstance(rec.kind, bool) or rec.kind not in KIND_NAMES:
            raise ValueError(f"unknown record kind {rec.kind!r}")
        n = len(rec.delta)
        fields = rec[1:5]  # T, S, amp_num, amp_den
        # struct packs a bool as 0/1, so bools go to the checked path too
        if bool not in set(map(type, chain(fields, rec.delta))):
            try:
                head = head_pack(rec.kind, *fields, n)
                body = struct.pack(f"<{n}q", *rec.delta)
            except struct.error:
                pass  # non-int or out-of-range: the checked path names it
            else:
                append(head)
                append(body)
                continue
        append(_REC_HEAD.pack(rec.kind,
                              _check_i64(rec.shift, "record T"),
                              _check_i64(rec.stride, "record S"),
                              _check_i64(rec.amp_num, "amp numerator"),
                              _check_i64(rec.amp_den, "amp denominator")))
        append(_COUNT.pack(n))
        for d in rec.delta:
            append(_Q.pack(_check_i64(d, "delta value")))
    return b"".join(parts)


class _Reader:
    __slots__ = ("data", "off")

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, st: struct.Struct):
        end = self.off + st.size
        if end > len(self.data):
            raise CorruptContainer("truncated container")
        out = st.unpack_from(self.data, self.off)
        self.off = end
        return out


def read_container(data: bytes) -> EncodedSignal:
    r = _Reader(data)
    if len(data) < 6 or data[:4] != MAGIC:
        raise CorruptContainer("bad magic")
    r.off = 4
    (version,) = r.take(_BYTE)
    if version != VERSION:
        raise CorruptContainer(f"unsupported version {version}")
    (dim,) = r.take(_BYTE)
    if dim not in (1, 2):
        raise CorruptContainer(f"bad dimension byte {dim}")
    shape = tuple(r.take(_Q)[0] for _ in range(dim))
    if any(d <= 0 for d in shape):
        raise CorruptContainer(f"non-positive dimensions {shape}")
    (origin,) = r.take(_Q)
    (policy_id,) = r.take(_BYTE)
    if policy_id not in POLICY_NAMES:
        raise CorruptContainer(f"unknown policy id {policy_id}")
    (seed_count,) = r.take(_COUNT)
    if seed_count < 1 or seed_count * 8 > len(data) - r.off:
        raise CorruptContainer("bad seed count")
    seed = struct.unpack_from(f"<{seed_count}q", data, r.off)
    r.off += 8 * seed_count
    (rec_count,) = r.take(_COUNT)
    total = len(data)
    off = r.off
    if rec_count * (_REC_HEAD.size + 8) > total - off:
        raise CorruptContainer("bad record count")
    head_unpack = _REC_HEAD_COUNT.unpack_from
    head_size = _REC_HEAD_COUNT.size
    records = []
    append = records.append
    for _ in range(rec_count):
        if off + head_size > total:
            raise CorruptContainer("truncated record")
        kind, t, s, num, den, dlen = head_unpack(data, off)
        off += head_size
        if kind not in KIND_NAMES:
            raise CorruptContainer(f"unknown record kind {kind}")
        if s == 0:
            raise CorruptContainer("record stride is zero")
        if den == 0 or num == 0:
            raise CorruptContainer("record amplitude is zero or undefined")
        if dlen * 8 > total - off:
            raise CorruptContainer("truncated delta array")
        delta = struct.unpack_from(f"<{dlen}q", data, off)
        off += 8 * dlen
        append(ArrowRecord(kind, t, s, num, den, delta))
    if off != total:
        raise CorruptContainer("trailing bytes after records")
    return EncodedSignal(dim, shape, origin, POLICY_NAMES[policy_id],
                         seed, tuple(records))


def write_container_file(path, enc: EncodedSignal) -> None:
    blob = write_container(enc)  # may raise: leave ``path`` untouched
    with open(path, "wb") as fh:
        fh.write(blob)


def read_container_file(path) -> EncodedSignal:
    with open(path, "rb") as fh:
        return read_container(fh.read())
