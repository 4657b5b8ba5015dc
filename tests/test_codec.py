"""Differential codec and the FSG1 container: round trips and strictness."""

import random
import re
import struct
from fractions import Fraction
from math import log2

import pytest

from sigrep import (ArrowRecord, CorruptContainer, EmptySignal, EncodedSignal,
                    PolicyMismatch, codec, container, decode, encode, metrics,
                    read_container, read_container_file, write_container,
                    write_container_file, zeroth_order_entropy)
from sigrep.container import KIND_NAMES, container_layout


def dpcm(shift, *deltas):
    return ArrowRecord(shift, 1, 1, 1, deltas)


def per_sample(enc):
    """The same encoding split into one record per delta, as earlier files are."""
    return enc._replace(records=tuple(rec._replace(delta=(d,))
                                      for rec in enc.records
                                      for d in rec.delta))


# ------------------------------------------------------------- encode, 1-D


def test_encode_ramp():
    enc = encode([1, 2, 3, 4, 5])
    assert enc.dimension == 1
    assert enc.shape == (5,)
    assert enc.policy == "predecessor"
    assert enc.seed == (1,)
    assert enc.records == (dpcm(-1, 1, 1, 1, 1),)  # one left run


def test_encode_single_sample_has_no_records():
    enc = encode([42])
    assert enc.records == ()
    assert decode(enc) == [42]


def test_encode_keeps_origin():
    enc = encode([4, 4], origin=-3)
    assert enc.origin == -3
    assert decode(enc) == [4, 4]


@pytest.mark.parametrize("origin", [True, False, 1.0, Fraction(2), "3", None])
@pytest.mark.parametrize("signal", [[1, 2, 3], [[1, 2], [3, 4]]])
def test_encode_refuses_an_origin_that_is_not_an_int(signal, origin):
    # the container writer's text for a bool or a non-int, given up front
    text = f"origin must be an int, got {origin!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        encode(signal, origin=origin)


def test_list_and_tuple_rows_encode_alike_and_stay_unchanged():
    rows = [[5, 3, 3], [5, 6, 0]]
    before = [list(r) for r in rows]
    as_lists = encode(rows)
    assert rows == before
    assert as_lists == encode([tuple(r) for r in rows]) == encode(tuple(rows))
    one = [4, 1, 1, 7]
    assert encode(one) == encode(tuple(one)) == encode(iter(one))
    assert one == [4, 1, 1, 7]
    # an encoding holds tuples only, never the caller's lists
    for enc in (as_lists, encode(one)):
        assert type(enc.seed) is tuple and type(enc.records) is tuple
        assert all(type(rec.delta) is tuple for rec in enc.records)


@pytest.mark.parametrize("row", [[7], [1, 2], [3, -1, 4, 1, 5, -9]])
def test_encode_row_is_a_one_row_image(row):
    one, img = encode(row, origin=-4), encode([row])
    assert one.records == img.records
    assert one.seed == img.seed == (row[0],)
    assert (one.dimension, one.shape, one.origin) == (1, (len(row),), -4)
    assert (img.dimension, img.shape, img.origin) == (2, (1, len(row)), 0)


def test_encode_rejects_empty_and_junk():
    with pytest.raises(EmptySignal):
        encode([])
    with pytest.raises(EmptySignal):
        encode([[]])
    with pytest.raises(TypeError):
        encode([1, 0.5])
    with pytest.raises(TypeError):
        encode([True, False])
    with pytest.raises(ValueError):
        encode([1, 2], policy="best")
    with pytest.raises(ValueError, match="^an image is encoded at origin 0; "
                                         "got origin=3$"):
        encode([[1, 2]], origin=3)
    # beside a bad sample, the policy, origin and shape checks come first
    with pytest.raises(ValueError, match="^policy must be one of"):
        encode([True], policy="best")
    with pytest.raises(PolicyMismatch):
        encode([[True]], policy="detected")
    with pytest.raises(ValueError, match="^ragged image rows$"):
        encode([[1, 0.5], [2]])


def test_decode_hand_built_records():
    enc = EncodedSignal((3,), 0, "predecessor", (0,),
                        (dpcm(-1, 1), dpcm(-1, -1)))
    assert decode(enc) == [0, 1, 0]


def test_roundtrip_random_1d():
    rng = random.Random(7)
    for _ in range(60):
        sig = [rng.randint(-500, 500) for _ in range(rng.randint(1, 40))]
        enc = encode(sig, origin=rng.randint(-5, 5))
        assert decode(enc) == sig


def test_roundtrip_fraction_samples():
    # Rational samples survive encode/decode; only the container insists on ints.
    sig = [Fraction(1, 2), Fraction(3, 2), Fraction(3, 2)]
    enc = encode(sig)
    assert decode(enc) == sig
    # a run through a non-integral sample comes back to an int
    out = decode(encode([5, Fraction(11, 2), 6]))
    assert out == [5, Fraction(11, 2), 6] and type(out[-1]) is int
    with pytest.raises(ValueError):
        write_container(enc)


# ------------------------------------------------------------ encode, 2-D


def test_encode_constant_image_is_all_zero():
    enc = encode([[7, 7, 7]] * 3)
    assert enc.dimension == 2
    assert enc.shape == (3, 3)
    assert enc.seed == (7,)
    # row 0: a left run; later rows: an up record, then a left run
    assert enc.records == (dpcm(-1, 0, 0),
                           dpcm(-3, 0), dpcm(-1, 0, 0),
                           dpcm(-3, 0), dpcm(-1, 0, 0))
    assert decode(enc) == [[7, 7, 7]] * 3


def test_encode_two_region_image_boundary_only():
    """A vertical edge puts one nonzero delta per row, nothing else."""
    rows = [[10, 10, 20, 20] for _ in range(4)]
    enc = encode(rows)
    nonzero = [d for rec in enc.records for d in rec.delta if d != 0]
    assert nonzero == [10, 10, 10, 10]
    assert len(enc.records) == 7  # 1 run in row 0, then 2 records per later row
    assert [len(rec.delta) for rec in enc.records] == [3, 1, 3, 1, 3, 1, 3]
    assert decode(enc) == rows


def test_encode_image_first_column_reads_up():
    enc = encode([[1, 2], [5, 6]])
    # row 0: left arrow; row 1: up arrow for column 0, then left again
    assert [r.shift for r in enc.records] == [-1, -2, -1]
    assert [r.delta for r in enc.records] == [(1,), (4,), (1,)]


def test_encode_one_column_image_is_up_records():
    # T = -width = -1: one up record per later row, no left runs
    enc = encode([[4], [6], [5]])
    assert enc.records == (dpcm(-1, 2), dpcm(-1, -1))
    assert decode(enc) == [[4], [6], [5]]
    with pytest.raises(PolicyMismatch):  # an up record covers one row only
        decode(enc._replace(records=(dpcm(-1, 2, -1),)))


def test_encode_ragged_image():
    with pytest.raises(ValueError):
        encode([[1, 2], [3]])


def test_roundtrip_random_images():
    rng = random.Random(11)
    for _ in range(40):
        h = rng.randint(1, 9)
        w = rng.randint(1, 9)
        rows = [[rng.randint(0, 255) for _ in range(w)] for _ in range(h)]
        assert decode(encode(rows)) == rows


# -------------------------------------------------------- detected policy


def test_detected_image_refused():
    with pytest.raises(PolicyMismatch):
        encode([[1, 2], [3, 4]], policy="detected")


def test_detected_roundtrip_and_dominance():
    """Detected arrows never do worse than the fixed predecessor arrow."""
    rng = random.Random(23)
    for _ in range(25):
        sig = [rng.randint(-9, 9) for _ in range(rng.randint(2, 12))]
        enc = encode(sig, policy="detected")
        assert decode(enc) == sig
        for k, rec in enumerate(enc.records, start=1):
            pred = sig[k] - sig[k - 1]
            assert sum(d * d for d in rec.delta) <= pred * pred


def test_detected_exploits_amplitude():
    # every later sample is a rational multiple of the seed: zero residuals
    enc = encode([2, 3, 5, 7], policy="detected")
    assert all(rec.delta == (0,) for rec in enc.records)
    assert KIND_NAMES[enc.records[0].kind] == "amp_affine"
    assert enc.records[0].amp == Fraction(3, 2)
    assert decode(enc) == [2, 3, 5, 7]


def test_decode_policy_mismatch():
    enc = EncodedSignal((2,), 0, "predecessor", (0,),
                        (dpcm(-2, 1),))  # wrong shift for 1-D predecessor
    with pytest.raises(PolicyMismatch):
        decode(enc)


def test_decode_left_run_crossing_a_row_is_policy_mismatch():
    rows = [[1, 2, 3], [4, 5, 6]]
    good = encode(rows)
    assert good.records == (dpcm(-1, 1, 1), dpcm(-3, 3), dpcm(-1, 1, 1))
    # the row-0 run goes on into column 0 of row 1
    bad = good._replace(records=(dpcm(-1, 1, 1, 1), dpcm(-1, 1, 1)))
    with pytest.raises(PolicyMismatch):
        decode(bad)
    # a left run starting mid-row may not spill into the next row either
    split = good._replace(records=(dpcm(-1, 1), dpcm(-1, 1, 1),
                                   dpcm(-1, 1, 1)))
    with pytest.raises(PolicyMismatch):
        decode(split)


def test_decode_up_record_with_two_deltas_is_policy_mismatch():
    good = encode([[1, 2, 3], [4, 5, 6]])
    bad = good._replace(records=(dpcm(-1, 1, 1), dpcm(-3, 3, 3), dpcm(-1, 1)))
    with pytest.raises(PolicyMismatch):
        decode(bad)


def test_decode_empty_predecessor_run_is_policy_mismatch():
    bad = encode([1, 2])._replace(records=(dpcm(-1), dpcm(-1, 1)))
    with pytest.raises(PolicyMismatch):
        decode(bad)


def test_per_sample_layout_still_reads_decodes_and_rewrites():
    """Containers with one record per sample stay valid predecessor files."""
    sig = [3, 1, 4, 1, 5, 9, 2, 6]
    rows = [[1, 2, 3], [4, 5, 6], [9, 9, 0]]
    for raw in (sig, rows):
        old = per_sample(encode(raw))
        assert all(len(rec.delta) == 1 for rec in old.records)
        blob = write_container(old)
        assert len(blob) == container_layout(old).header_bytes + 49 * len(old.records)
        back = read_container(blob)
        assert back == old
        assert decode(back) == raw
        assert write_container(back) == blob  # byte-identical rewrite
    # runs split anywhere inside a row are fine too
    mixed = EncodedSignal((2, 3), 0, "predecessor", (1,),
                          (dpcm(-1, 1), dpcm(-1, 1), dpcm(-3, 3),
                           dpcm(-1, 1, 1)))
    assert decode(mixed) == [[1, 2, 3], [4, 5, 6]]


def test_decode_count_mismatch():
    enc = EncodedSignal((3,), 0, "predecessor", (0,), (dpcm(-1, 1),))
    with pytest.raises(CorruptContainer):
        decode(enc)


@pytest.mark.parametrize("shape", [(), (1, 2, 3)])
def test_decode_dimension_must_be_1_or_2(shape):
    enc = EncodedSignal(shape, 0, "predecessor", (0,),
                        (dpcm(-1, 1, 1, 1, 1, 1),))
    with pytest.raises(CorruptContainer, match="is neither 1-D nor 2-D$"):
        decode(enc)


def test_dimension_is_the_length_of_the_shape():
    assert encode([1, 2]).dimension == 1
    assert encode([[1, 2]]).dimension == 2
    with pytest.raises(AttributeError):
        encode([1, 2]).dimension = 2
    with pytest.raises(ValueError):  # not a field, so not replaceable
        encode([1, 2])._replace(dimension=2)


def test_decode_needs_a_seed():
    # the reader refuses a zero seed count; a hand-built encoding is caught too
    enc = EncodedSignal((1,), 0, "predecessor", (), (dpcm(-1, 5),))
    with pytest.raises(CorruptContainer):
        decode(enc)


def test_decode_forward_reference():
    bad = EncodedSignal((2,), 0, "detected", (5,),
                        (ArrowRecord(1, 1, 1, 1, (0,)),))
    with pytest.raises(CorruptContainer):
        decode(bad)
    bad2 = EncodedSignal((2,), 0, "detected", (5,),
                         (ArrowRecord(0, 2, 1, 1, (0,)),))
    with pytest.raises(CorruptContainer):
        decode(bad2)


@pytest.mark.parametrize("records", [
    # a left run takes the accumulate path, one record per delta too
    (dpcm(-1, Fraction(2), Fraction(3)),),
    (dpcm(-1, Fraction(2)), dpcm(-1, Fraction(3))),
    # a reversed lookup of the previous sample takes the general loop
    (ArrowRecord(1, -1, 1, 1, (Fraction(2),)),
     ArrowRecord(3, -1, 1, 1, (Fraction(3),))),
])
def test_decode_paths_give_the_same_types(records):
    enc = EncodedSignal((3,), 0, "detected", (5,), records)
    out = decode(enc)
    assert out == [5, 7, 10]
    assert [type(v) for v in out] == [int, int, int]


@pytest.mark.parametrize("records", [
    (dpcm(-1, 0.5),),
    (ArrowRecord(1, -1, 1, 1, (0.5,)),),
])
def test_decode_refuses_a_float_on_both_paths(records):
    enc = EncodedSignal((2,), 0, "detected", (5,), records)
    with pytest.raises(TypeError,
                       match=r"^samples must be ints or Fractions, got 5\.5$"):
        decode(enc)


@pytest.mark.parametrize("seed, records, out", [
    ((True,), (), TypeError("True")),
    ((1.5,), (), TypeError("1.5")),
    (("a",), (), TypeError("'a'")),
    ((Fraction(2),), (), [2]),
    ((True,), (dpcm(-1, 1),), TypeError("True")),
])
def test_decode_returns_its_seed_as_samples(seed, records, out):
    """The seed follows the rule of every decoded sample: an int, or a
    Fraction where not integral; anything else raises TypeError."""
    enc = EncodedSignal((1 + len(records),), 0, "predecessor", seed, records)
    if isinstance(out, TypeError):
        with pytest.raises(TypeError, match="^samples must be ints or "
                           f"Fractions, got {re.escape(str(out))}$"):
            decode(enc)
    else:
        assert decode(enc) == out
        assert [type(v) for v in decode(enc)] == [int] * len(out)


def test_decode_rational_amplitude():
    enc = EncodedSignal((2,), 0, "detected", (4,),
                        (ArrowRecord(-1, 1, 3, 2, (1,)),))
    assert decode(enc) == [4, 7]


# --------------------------------------------------------------- container


def test_container_roundtrip_and_rewrite():
    enc = encode([3, 1, 4, 1, 5, 9, 2, 6], origin=2)
    blob = write_container(enc)
    back = read_container(blob)
    assert back == enc
    assert write_container(back) == blob  # byte-identical rewrite


def test_container_roundtrip_detected_and_images():
    rng = random.Random(31)
    for _ in range(20):
        sig = [rng.randint(0, 50) for _ in range(rng.randint(1, 10))]
        enc = encode(sig, policy="detected")
        assert read_container(write_container(enc)) == enc
    img = encode([[rng.randint(0, 255) for _ in range(5)] for _ in range(4)])
    assert read_container(write_container(img)) == img


def test_container_files(tmp_path):
    enc = encode([9, 8, 7])
    path = tmp_path / "sig.fsg"
    write_container_file(path, enc)
    assert read_container_file(path) == enc
    assert path.read_bytes() == write_container(enc)


def test_refused_container_file_leaves_the_path_alone(tmp_path):
    # the last record is refused, after the others have been packed
    bad = encode([1, 2, 3])._replace(records=(dpcm(-1, 1), ArrowRecord(
        -1, 0, 1, 1, (1,))))
    old = tmp_path / "old.fsg"
    write_container_file(old, encode([7, 7]))
    before = old.read_bytes()
    missing = tmp_path / "missing.fsg"
    for path in (old, missing):
        with pytest.raises(ValueError, match="^record stride is zero$"):
            write_container_file(path, bad)
    assert old.read_bytes() == before
    assert not missing.exists()


def test_container_multi_delta_record():
    enc = EncodedSignal((3,), 0, "detected", (0,),
                        (ArrowRecord(-1, 1, 1, 1, (1, 2)),))
    assert read_container(write_container(enc)) == enc
    assert decode(enc) == [0, 1, 3]


def test_container_normalises_fraction_delta():
    a = EncodedSignal((2,), 0, "detected", (0,),
                      (ArrowRecord(-1, 1, 1, 1, (Fraction(2),)),))
    b = a._replace(records=(a.records[0]._replace(delta=(2,)),))
    assert write_container(a) == write_container(b)


def test_container_write_rejections():
    ok = encode([1, 2])
    with pytest.raises(ValueError):
        write_container(ok._replace(shape=(1, 1, 2)))
    with pytest.raises(ValueError):
        write_container(ok._replace(policy="guess"))
    with pytest.raises(ValueError):
        write_container(ok._replace(origin=1 << 63))
    frac = ok.records[0]._replace(delta=(Fraction(1, 2),))
    with pytest.raises(ValueError):
        write_container(ok._replace(records=(frac,)))


def test_container_write_refuses_bools():
    """struct packs True as 1; the writer must not, in any record field."""
    ok = encode([1, 2, 3])
    rec = ok.records[0]
    bad_records = [
        dpcm(-1, True),                      # one-delta record
        dpcm(-1, 1, False),                  # longer run
        rec._replace(shift=True),
        rec._replace(stride=True),
        rec._replace(amp_num=True, amp_den=True),
    ]
    for bad in bad_records:
        n = len(bad.delta) + 1
        enc = ok._replace(shape=(n,), records=(bad,))
        with pytest.raises(ValueError):
            write_container(enc)
    with pytest.raises(ValueError):
        write_container(ok._replace(seed=(True,)))


def test_container_layout_splits_the_size():
    cases = [encode([1, 2, 3, 4, 5]), encode([7]),
             encode([[10, 10, 20, 20] for _ in range(4)]),
             per_sample(encode([[1, 2], [3, 4], [5, 6]])),
             encode([2, 3, 5, 7], policy="detected")]
    for enc in cases:
        lay = container_layout(enc)
        assert lay.records == len(enc.records)
        assert lay.residual_bytes == 8 * sum(len(r.delta) for r in enc.records)
        assert lay.arrow_param_bytes == 41 * len(enc.records)
        assert (lay.header_bytes + lay.arrow_param_bytes + lay.residual_bytes
                == len(write_container(enc)))
    img = container_layout(cases[2])
    assert img == (7, 55, 287, 120)  # 462 bytes for the 4x4 two-region image


def test_container_read_rejections():
    blob = write_container(encode([1, 2, 3]))
    with pytest.raises(CorruptContainer):
        read_container(b"JUNK" + blob[4:])
    with pytest.raises(CorruptContainer):
        read_container(blob[:-1])
    with pytest.raises(CorruptContainer):
        read_container(blob + b"\x00")
    with pytest.raises(CorruptContainer):
        read_container(blob[:4] + bytes([9]) + blob[5:])  # version
    with pytest.raises(CorruptContainer):
        read_container(blob[:5] + bytes([3]) + blob[6:])  # dimension byte
    for cut in (0, 3, 5, 9, 17):
        with pytest.raises(CorruptContainer):
            read_container(blob[:cut])


def test_container_read_zero_stride_and_amp():
    base = EncodedSignal((2,), 0, "detected", (1,),
                         (ArrowRecord(-1, 1, 1, 1, (0,)),))
    # writing refuses all of these records, so corrupt a valid blob's bytes
    blob = write_container(base)
    kind_off = 4 + 1 + 1 + 8 + 8 + 1 + 8 + 8 + 8

    def mutate(field, value):  # field: 1 = stride, 2 = amp_num, 3 = amp_den
        at = kind_off + 1 + 8 * field
        return blob[:at] + struct.pack("<q", value) + blob[at + 8:]

    with pytest.raises(CorruptContainer):
        read_container(mutate(1, 0))
    with pytest.raises(CorruptContainer):
        read_container(mutate(3, 0))
    with pytest.raises(CorruptContainer):
        read_container(mutate(2, 0))
    with pytest.raises(CorruptContainer):
        read_container(blob[:kind_off] + bytes([7]) + blob[kind_off + 1:])


# A valid 1-D encoding; each case below breaks one field of it and patches
# the same field (offset, struct format, value) in its written bytes.  The
# reader names a refused record by the offset of its kind byte.
_AMP_FAULT = "record amplitude is zero or undefined"
_SYMMETRY_BASE = EncodedSignal((2,), 0, "detected", (1,),
                               (ArrowRecord(-1, 1, 1, 1, (0,)),))
_KIND_OFF = 4 + 1 + 1 + 8 + 8 + 1 + 8 + 8 + 8


def _with_record(**kw):
    rec = _SYMMETRY_BASE.records[0]._replace(**kw)
    return _SYMMETRY_BASE._replace(records=(rec,))


@pytest.mark.parametrize("enc, off, fmt, value, text", [
    (_SYMMETRY_BASE._replace(shape=(0,)), 6, "<q", 0,
     "non-positive dimensions (0,)"),
    (_SYMMETRY_BASE._replace(shape=(-3,)), 6, "<q", -3,
     "non-positive dimensions (-3,)"),
    (_SYMMETRY_BASE._replace(seed=()), 23, "<Q", 0, "bad seed count"),
    (_SYMMETRY_BASE._replace(shape=(-(1 << 63),)), 6, "<q", -(1 << 63),
     "non-positive dimensions (-9223372036854775808,)"),
    (_with_record(stride=0), _KIND_OFF + 9, "<q", 0, "record stride is zero"),
    (_with_record(amp_num=0), _KIND_OFF + 17, "<q", 0, _AMP_FAULT),
    (_with_record(amp_den=0), _KIND_OFF + 25, "<q", 0, _AMP_FAULT),
])
def test_writer_refuses_what_the_reader_refuses(enc, off, fmt, value, text):
    blob = bytearray(write_container(_SYMMETRY_BASE))
    struct.pack_into(fmt, blob, off, value)
    with pytest.raises(CorruptContainer) as read_err:
        read_container(bytes(blob))
    with pytest.raises(ValueError) as write_err:
        write_container(enc)
    assert str(write_err.value) == text
    where = f" at byte {_KIND_OFF}" if off > _KIND_OFF else ""
    assert str(read_err.value) == text + where


@pytest.mark.parametrize("stride, amp_num, amp_den, kind", [
    (1, 1, 1, 0), (1, -1, -1, 0),   # translation: S = 1, c = 1
    (2, 1, 1, 1), (-1, 3, 3, 1),    # affine: c = 1
    (1, 3, 1, 2), (-2, 1, 2, 2),    # amp_affine: any other c
])
def test_reader_takes_only_the_kind_byte_the_arrow_gives(stride, amp_num,
                                                        amp_den, kind):
    rec = ArrowRecord(-1, stride, amp_num, amp_den, (0,))
    assert rec.kind == kind
    enc = _SYMMETRY_BASE._replace(records=(rec,))
    blob = bytearray(write_container(enc))
    assert blob[_KIND_OFF] == kind
    assert read_container(bytes(blob)) == enc
    for byte in (0, 1, 2, 3, 7, 255):
        if byte != kind:
            blob[_KIND_OFF] = byte
            text = (f"unknown record kind {byte}" if byte > 2 else
                    f"record kind {byte} ({KIND_NAMES[byte]}) does not match "
                    f"stride {stride} and amplitude {amp_num}/{amp_den}"
                    ) + f" at byte {_KIND_OFF}"
            with pytest.raises(CorruptContainer, match=f"^{re.escape(text)}$"):
                read_container(bytes(blob))


def test_reader_refuses_a_mislabelled_container():
    # an amplitude-3 arrow labelled translation, then an amplitude-1 arrow
    # labelled amp_affine: both decode, but the labels are not their kinds
    enc = EncodedSignal((3,), 0, "detected", (1,),
                        (ArrowRecord(-1, 1, 3, 1, (0,)),
                         ArrowRecord(-1, 1, 1, 1, (0,))))
    blob = bytearray(write_container(enc))
    second = _KIND_OFF + 41 + 8
    assert (blob[_KIND_OFF], blob[second]) == (2, 0)
    assert decode(read_container(bytes(blob))) == [1, 3, 3]
    # each error names the offset of the kind byte it refuses
    blob[second] = 2
    with pytest.raises(CorruptContainer, match=r"^record kind 2 \(amp_affine\) "
                       rf"does not match stride 1 and amplitude 1/1 at byte {second}$"):
        read_container(bytes(blob))
    blob[_KIND_OFF] = 0
    with pytest.raises(CorruptContainer, match=r"^record kind 0 \(translation\) "
                       rf"does not match stride 1 and amplitude 3/1 at byte {_KIND_OFF}$"):
        read_container(bytes(blob))


def test_container_layout_refuses_what_the_writer_refuses():
    bad = encode([1, 2])._replace(shape=(1, 1, 2))
    with pytest.raises(ValueError) as layout_err:
        container_layout(bad)
    with pytest.raises(ValueError) as write_err:
        write_container(bad)
    assert str(layout_err.value) == str(write_err.value)


_T_BIG = ArrowRecord(1 << 63, 1, 1, 1, (0,))


@pytest.mark.parametrize("change, pattern", [
    # each encoding breaks two fields; the first one checked is named
    (dict(shape=(1, 1, 2), policy="guess"),
     r"^dimension must be 1 or 2$"),
    (dict(shape=(1 << 63,), origin=1 << 63),
     r"^dimension 9223372036854775808 does not fit in a signed 64-bit int$"),
    (dict(origin=Fraction(1, 2), seed=(True,)),
     r"^origin must be an integer, got 1/2$"),
    (dict(seed=(True,), records=(_T_BIG,)),
     r"^seed sample must be an int, got True$"),
    (dict(records=(_T_BIG._replace(amp_den=0.5),)),
     r"^record T 9223372036854775808 does not fit in a signed 64-bit int$"),
    (dict(records=(dpcm(-1, 1.5)._replace(amp_den=Fraction(1, 2)),)),
     r"^amp denominator must be an integer, got 1/2$"),
    (dict(records=(dpcm(-1, Fraction(1, 2), 1 << 63),)),
     r"^delta value must be an integer, got 1/2$"),
    (dict(records=(dpcm(-1, 1 << 63),)),
     r"^delta value 9223372036854775808 does not fit in a signed 64-bit int$"),
    (dict(records=(dpcm(-1, 0)._replace(stride=0, shift=True),)),
     r"^record stride is zero$"),
    # a bool delta is named where a writer checking each value in turn
    # meets it: after the header, earlier records and earlier deltas
    (dict(seed=(True,), records=(dpcm(-1, True),)),
     r"^seed sample must be an int, got True$"),
    (dict(records=(dpcm(-1, 1 << 63, True),)),
     r"^delta value 9223372036854775808 does not fit in a signed 64-bit "
     r"int$"),
    (dict(records=(dpcm(-1, True, "a"),)),
     r"^delta value must be an int, got True$"),
    (dict(shape=(3,), records=(dpcm(-1, True), dpcm(-1, 1 << 63))),
     r"^delta value must be an int, got True$"),
    (dict(shape=(3,), records=(dpcm(-1, 1),
                               dpcm(-1, True)._replace(stride=0))),
     r"^record stride is zero$"),
    (dict(shape=(3,), records=(dpcm(-1, 1),
                               dpcm(-1, True)._replace(shift=1.5))),
     r"^record T must be an int, got 1\.5$"),
])
def test_container_write_error_texts_and_order(change, pattern):
    with pytest.raises(ValueError, match=pattern):
        write_container(encode([1, 2])._replace(**change))


def test_container_read_truncated_2d_header():
    blob = write_container(encode([[1, 2, 3], [4, 5, 6]]))
    for cut in range(container_layout(read_container(blob)).header_bytes):
        with pytest.raises(CorruptContainer):
            read_container(blob[:cut])


def test_container_read_errors_name_the_byte_offset():
    # four 10-delta runs: a 47-byte header whose record count sits at byte
    # 39, then records of 41 + 80 bytes starting at bytes 47, 168, 289, 410
    enc = EncodedSignal((41,), 0, "predecessor", (5,),
                        tuple(dpcm(-1, *range(10)) for _ in range(4)))
    blob = write_container(enc)
    layout = container_layout(enc)
    assert (layout.header_bytes, len(blob)) == (47, 531)
    starts = [47 + 121 * k for k in range(4)]
    cuts = {
        20: "truncated container at byte 6",            # inside the sizes
        40: "truncated container at byte 39",           # inside the count
        # at a record boundary: too few bytes left for four record heads,
        # then for the record that starts there
        starts[0]: "bad record count at byte 39",
        starts[1]: "bad record count at byte 39",
        starts[2]: "truncated record at byte 289",
        starts[3]: "truncated record at byte 410",
        starts[3] + 40: "truncated record at byte 410",
        starts[3] + 41: "truncated delta array at byte 451",
        len(blob) - 1: "truncated delta array at byte 451",
    }
    for cut, text in cuts.items():
        with pytest.raises(CorruptContainer, match=f"^{re.escape(text)}$"):
            read_container(blob[:cut])
    with pytest.raises(CorruptContainer,
                       match="^trailing bytes after records at byte 531$"):
        read_container(blob + b"\0")
    assert read_container(blob) == enc


@pytest.mark.parametrize("change, text", [
    (dict(amp_num=0, amp_den=0), _AMP_FAULT),
    (dict(amp_den=0), _AMP_FAULT),
    (dict(amp_num=0), _AMP_FAULT),
    (dict(stride=0), "record stride is zero"),
])
def test_decode_refuses_what_the_reader_refuses(change, text):
    enc = EncodedSignal((2,), 0, "detected", (1,),
                        (dpcm(-1, 0)._replace(**change),))
    with pytest.raises(CorruptContainer, match=f"^{text}$"):
        decode(enc)
    # the predecessor arrow check comes first and lets only 0/0 through
    zero_by_zero = change == dict(amp_num=0, amp_den=0)
    with pytest.raises(CorruptContainer if zero_by_zero else PolicyMismatch):
        decode(enc._replace(policy="predecessor"))


# ----------------------------------------------------------------- metrics


def test_entropy_oracles():
    assert zeroth_order_entropy([]) == 0.0
    assert zeroth_order_entropy([1, 1, 1, 1]) == 0.0
    assert abs(zeroth_order_entropy([1, 2, 3, 4, 5]) - log2(5)) < 1e-12


def test_metrics_on_ramp():
    sig = [1, 2, 3, 4, 5]
    enc = encode(sig)
    m = metrics(sig, enc)
    assert m.nonzero_delta_fraction == 1
    assert abs(m.raw_entropy - log2(5)) < 1e-12
    assert m.delta_entropy == 0.0  # every delta is the same symbol
    assert m.encoded_size == len(write_container(enc))


def test_metrics_sizes_the_container_without_writing_it(monkeypatch):
    sig, image = [1, 2, 4, 4, 9], [[3, 4, 4], [5, 5, 1]]
    sizes = [len(write_container(encode(x))) for x in (sig, image)]
    rational = encode([Fraction(1, 2), 1, 3])

    def refuse(enc):
        raise AssertionError("metrics wrote the container")
    monkeypatch.setattr(container, "write_container", refuse)
    monkeypatch.setattr(codec, "write_container", refuse, raising=False)
    assert [metrics(x, encode(x)).encoded_size for x in (sig, image)] == sizes
    # the writer refuses a rational seed; the layout still sizes it: a
    # 1-D header with one seed sample, one record head and two deltas
    assert metrics([Fraction(1, 2), 1, 3], rational).encoded_size == 47 + 41 + 16


def test_metrics_is_a_read_only_record():
    m = metrics([1, 2, 4], encode([1, 2, 4]))
    assert m._fields == ("nonzero_delta_fraction", "raw_entropy",
                         "delta_entropy", "encoded_size")
    assert tuple(m) == (m.nonzero_delta_fraction, m.raw_entropy,
                        m.delta_entropy, m.encoded_size)
    for field in m._fields:
        with pytest.raises(AttributeError):
            setattr(m, field, 0)
    assert m._replace(encoded_size=0) == (*m[:3], 0)


def test_metrics_on_two_region_image():
    rows = [[10, 10, 20, 20] for _ in range(4)]
    enc = encode(rows)
    m = metrics(rows, enc)
    assert m.nonzero_delta_fraction == Fraction(4, 15)
    assert m.raw_entropy == 1.0
    assert 0.0 < m.delta_entropy < 1.0


def test_metrics_checks_sample_count():
    with pytest.raises(ValueError):
        metrics([1, 2, 3], encode([1, 2]))


def test_metrics_refuses_a_payload_of_another_shape():
    square = encode([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=r"^raw input has shape \(4,\) but "
                       r"the container has shape \(2, 2\)$"):
        metrics([1, 2, 3, 4], square)
    with pytest.raises(ValueError, match=r"shape \(1, 4\) .* \(2, 2\)$"):
        metrics([[1, 2, 3, 4]], square)
    with pytest.raises(ValueError, match=r"shape \(2, 2\) .* \(4,\)$"):
        metrics([[1, 2], [3, 4]], encode([1, 2, 3, 4]))
    with pytest.raises(ValueError, match="ragged image rows"):
        metrics([[1, 2], [3]], square)
