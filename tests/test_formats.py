"""PGM and CSV readers/writers."""

import ast
import os
import random
import struct
import sys
import threading
from collections import Counter
from fractions import Fraction
from typing import List, Tuple

import pytest

from sigrep import formats, read_csv_signal, read_pgm, write_csv_signal, write_pgm
from sigrep.errors import Number


def test_p2_with_comments(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2 # magic\n# a comment line\n3 2\n255\n"
                  b"0 10 20\n30 40 50\n")
    rows, maxval = read_pgm(p)
    assert rows == [[0, 10, 20], [30, 40, 50]]
    assert maxval == 255


def test_p5_roundtrip(tmp_path):
    p = tmp_path / "b.pgm"
    rows = [[0, 128, 255], [7, 9, 200]]
    write_pgm(p, rows)
    assert read_pgm(p) == (rows, 255)


def test_p5_two_byte_samples(tmp_path):
    p = tmp_path / "wide.pgm"
    rows = [[0, 300], [65535, 1000]]
    write_pgm(p, rows, maxval=65535)
    assert read_pgm(p) == (rows, 65535)


def test_p2_writer(tmp_path):
    p = tmp_path / "ascii.pgm"
    write_pgm(p, [[1, 2], [3, 4]], binary=False)
    assert p.read_bytes() == b"P2\n2 2\n4\n1 2\n3 4\n"
    assert read_pgm(p) == ([[1, 2], [3, 4]], 4)


def test_pgm_errors(tmp_path):
    p = tmp_path / "bad.pgm"
    cases = [
        b"P3\n1 1\n255\n0",            # wrong magic
        b"P2\n1\n",                    # truncated header
        b"P2\n2 2\n255\n1 2 3\n",      # sample count
        b"P2\n0 2\n255\n",             # zero width
        b"P2\n1 1\n70000\n0\n",        # maxval too large
        b"P2\n1 1\n255\nxy\n",         # non-numeric sample
        b"P2\n1 1\n10\n11\n",          # sample above maxval
        b"P5\n2 1\n255\n\x00",         # short raster
        b"P5\n1 1\n300\n\x00",         # 2-byte raster expected
    ]
    for raw in cases:
        p.write_bytes(raw)
        with pytest.raises(ValueError):
            read_pgm(p)
    # a P2 sample is ASCII digits, though int() takes a sign or an underscore
    for sample in (b"-3", b"+3", b"1_0"):
        p.write_bytes(b"P2\n2 1\n255\n4 " + sample + b"\n")
        with pytest.raises(ValueError) as exc:
            read_pgm(p)
        assert str(exc.value) == f"bad P2 sample {sample!r}"
    # one whitespace byte, and nothing else, separates maxval from a raster
    p.write_bytes(b"P5\n1 1\n255#\x05")
    with pytest.raises(ValueError) as exc:
        read_pgm(p)
    assert str(exc.value) == "P5 raster must follow one whitespace byte, not b'#'"
    p.write_bytes(b"P5\n1 1\n255")
    with pytest.raises(ValueError, match=r"^P5 raster size 0 != 1$"):
        read_pgm(p)
    for raw in (b"P5\n1 1\n10\n\x0b",        # 1-byte sample above maxval
                b"P5\n1 1\n300\n\x01\x2d"):  # 2-byte sample 301 above maxval
        p.write_bytes(raw)
        with pytest.raises(ValueError, match="exceeds maxval"):
            read_pgm(p)


# ----------------------------------------------- PGM reader vs parent reader

def _pgm_tokens(data: bytes):
    """Yield header tokens, skipping whitespace and # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        j = i
        while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
            j += 1
        yield data[i:j], j
        i = j


def _read_pgm_per_byte(path) -> Tuple[List[List[int]], int]:
    """The PGM reader as it was with a per-byte tokenizer: the oracle."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)

    def next_token():
        try:
            return next(tokens)
        except StopIteration:
            raise ValueError("truncated PGM header") from None

    magic, _ = next_token()
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    fields = []
    end = 0
    for _ in range(3):
        tok, end = next_token()
        try:
            fields.append(int(tok))
        except ValueError:
            raise ValueError(f"bad PGM header token {tok!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError("PGM dimensions must be positive")
    if not 0 < maxval <= formats.MAX_PGM_VALUE:
        raise ValueError(f"PGM maxval must be in 1..{formats.MAX_PGM_VALUE}")

    count = width * height
    if magic == b"P2":
        values = []
        for tok, _ in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise ValueError(f"bad P2 sample {tok!r}") from None
        if len(values) != count:
            raise ValueError(f"P2 sample count {len(values)} != {count}")
    else:
        # P5 raster starts exactly one whitespace byte after maxval
        raster = data[end + 1:]
        if maxval < 256:
            if len(raster) != count:
                raise ValueError(f"P5 raster size {len(raster)} != {count}")
            values = list(raster)
        else:
            if len(raster) != 2 * count:
                raise ValueError(f"P5 raster size {len(raster)} != {2 * count}")
            values = list(struct.unpack(f">{count}H", raster))
    if max(values) > maxval:
        raise ValueError("PGM sample exceeds maxval")
    return [values[r * width:(r + 1) * width] for r in range(height)], maxval


# Pieces a fuzzed PGM file is drawn from.  Separators cover every ASCII
# whitespace byte, comments inside, after and between tokens, and a # that
# ends the file; tokens cover signs, underscores, leading zeros and junk.
_PGM_SEPS = (b" ", b"\n", b"\r", b"\r\n", b"\t", b"\x0b", b"\x0c", b" \n ",
             b"#c\n", b"# a b\r\n", b"#\r", b"\n#x 9\n", b"#1\x0c2\n")
_PGM_DIMS = (b"1", b"2", b"3", b"02", b"0", b"-1", b"+2", b"1_0", b"x", b"2#c\n")
_PGM_MAXVALS = (b"1", b"10", b"255", b"255", b"256", b"300", b"65535",
                b"70000", b"0", b"2_55", b"25#5\n")
_P2_SAMPLES = (b"0", b"1", b"5", b"9", b"10", b"255", b"300", b"007", b"-3",
               b"+3", b"1_0", b"x", b"3#c", b"4#", b"\xe9")


def _random_pgm(rng) -> bytes:
    def sep():
        return rng.choice(_PGM_SEPS)

    magic = rng.choice((b"P2", b"P5") * 4
                       + (b"P2#c\n", b"#c\nP5", b"P3", b"", b"P5\x1c"))
    width = rng.choice(_PGM_DIMS[:3] * 3 + _PGM_DIMS)
    height = rng.choice(_PGM_DIMS[:3] * 3 + _PGM_DIMS)
    maxval = rng.choice(_PGM_MAXVALS)
    raw = sep().join((magic, width, height, maxval))
    try:
        count = int(width) * int(height) + rng.choice((0, 0, 0, -1, 1))
        wide = int(maxval) >= 256
    except ValueError:
        count, wide = rng.randint(0, 4), False
    count = max(count, 0)
    if b"P2" in magic:
        for _ in range(count):
            raw += sep() + rng.choice(_P2_SAMPLES[:7] * 4 + _P2_SAMPLES)
        raw += rng.choice((b"", b"\n", b"#", b"# end", b" \r\n"))
    else:
        raw += rng.choice((b"\n", b"\n", b" ", b"\t", b"\r", b"#"))
        raw += bytes(rng.randrange(256) for _ in range(count * (1 + wide)))
    if rng.random() < 0.15:
        raw = raw[:rng.randrange(len(raw) + 1)]
    return raw


def _pgm_outcome(read, path):
    """(rows, maxval) or (exception type, text)."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


def test_pgm_reader_matches_per_byte_reader(tmp_path):
    rng = random.Random(9)
    p = tmp_path / "fuzz.pgm"
    kinds = Counter()
    for _ in range(4000):
        raw = _random_pgm(rng)
        p.write_bytes(raw)
        new = _pgm_outcome(read_pgm, p)
        old = _pgm_outcome(_read_pgm_per_byte, p)
        if new[0] is ValueError:
            kinds[new[1].split(" ")[0]] += 1
        else:
            kinds[next(_pgm_tokens(raw))[0], new[1] >= 256] += 1
        if new == old:
            continue
        # two differences are intended; the first: a P5 raster after a
        # byte that is not whitespace, which the per-byte reader skipped
        if new[1] == "P5 raster must follow one whitespace byte, not b'#'":
            assert old[0] is not ValueError or old[1].startswith(
                ("P5 raster size", "PGM sample exceeds")), raw
            kinds["separator rule"] += 1
            continue
        # the second: a P2 sample int() takes but that is not ASCII digits,
        # found before any later raster error
        assert new[0] is ValueError and new[1].startswith("bad P2 sample "), raw
        tok = ast.literal_eval(new[1][len("bad P2 sample "):])
        assert not tok.isdigit(), raw
        int(tok)  # which the per-byte reader took
        assert (old[0] is not ValueError
                or old[1].startswith(("bad P2 sample ", "P2 sample count",
                                      "PGM sample exceeds"))), raw
        kinds["digit rule"] += 1
    # the fuzz reaches every outcome: each raster read, and each error
    for kind in ((b"P2", False), (b"P2", True), (b"P5", False), (b"P5", True),
                 "truncated", "not", "bad", "PGM", "P2", "P5", "digit rule",
                 "separator rule"):
        assert kinds[kind] >= 20, (kind, kinds)


def test_write_pgm_rejections(tmp_path):
    p = tmp_path / "x.pgm"
    with pytest.raises(ValueError):
        write_pgm(p, [])
    with pytest.raises(ValueError):
        write_pgm(p, [[1, 2], [3]])
    with pytest.raises(ValueError):
        write_pgm(p, [[-1]])
    with pytest.raises(ValueError):
        write_pgm(p, [[5]], maxval=4)


@pytest.mark.parametrize("last", [[9, True], [9, -1], [9, -300]])
def test_write_pgm_refuses_a_bool_or_negative_in_the_last_row(tmp_path, last):
    p = tmp_path / "x.pgm"
    with pytest.raises(ValueError,
                       match="^PGM samples must be nonnegative ints$"):
        write_pgm(p, [[0, 255], [1, 2], last])
    assert not p.exists()


@pytest.mark.parametrize("rows", [[[0, Fraction(3, 2)]],
                                  [[600, Fraction(601, 2)]],
                                  [[70000, Fraction(1, 2)]],
                                  [[3, 70003, Fraction(70003, 2)]],
                                  [[Fraction(1, 2), 600], [1, -1]]])
def test_write_pgm_core_refuses_a_rational(tmp_path, rows):
    """The P5 core skips the sample rule but runs it where bytes() or
    struct refuses a sample, or where the maxval range check would refuse
    one first: a rational in an 8-bit or 16-bit row, or beside a sample
    over 65535.  P2 output takes checked rows: write_pgm refuses them."""
    p = tmp_path / "x.pgm"
    for write in (lambda: formats._write_pgm(p, rows),
                  lambda: write_pgm(p, rows, binary=False)):
        with pytest.raises(ValueError,
                           match="^PGM samples must be nonnegative ints$"):
            write()
        assert not p.exists()


def test_write_pgm_core_keeps_the_maxval_refusal_for_ints(tmp_path):
    p = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match="^maxval must be in 1..65535$"):
        formats._write_pgm(p, [[3, 70003]])
    assert not p.exists()


def test_write_pgm_maxval_65535_packs_big_endian_rows(tmp_path):
    p = tmp_path / "wide.pgm"
    rows = [[0, 1, 256], (65535, 4660, 255)]
    write_pgm(p, rows, maxval=65535)
    assert p.read_bytes() == (b"P5\n3 2\n65535\n" + bytes.fromhex(
        "0000 0001 0100 ffff 1234 00ff"))
    assert read_pgm(p) == ([[0, 1, 256], [65535, 4660, 255]], 65535)
    # with no maxval given, the largest sample sets it
    write_pgm(p, rows)
    assert read_pgm(p)[1] == 65535


def _write_pgm_min_max(path, rows, maxval=None, binary=True):
    """The writer as it was before bytes() did its range check: the oracle."""
    if not rows or not rows[0]:
        raise ValueError("cannot write an empty PGM")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    flat = [v for row in rows for v in row]
    if (any(t is bool or not issubclass(t, int) for t in set(map(type, flat)))
            or min(flat) < 0):
        raise ValueError("PGM samples must be nonnegative ints")
    top = max(flat)
    if maxval is None:
        maxval = max(top, 1)
    if not 0 < maxval <= formats.MAX_PGM_VALUE:
        raise ValueError(f"maxval must be in 1..{formats.MAX_PGM_VALUE}")
    if top > maxval:
        raise ValueError("sample exceeds maxval")
    header = f"{'P5' if binary else 'P2'}\n{width} {len(rows)}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            if maxval < 256:
                fh.write(bytes(flat))
            else:
                fh.write(struct.pack(f">{len(flat)}H", *flat))
        else:
            fh.write("\n".join(" ".join(str(v) for v in row) for row in rows)
                     .encode("ascii"))
            fh.write(b"\n")


_PGM_WRITE_VALUES = (0, 1, 7, 200, 254, 255, 256, 300, 65535, 65536, -1, -300,
                     2 ** 70, True, False, Fraction(3), Fraction(1, 2), 3.0,
                     float("nan"))
_PGM_WRITE_MAXVALS = (None, None, None, 0, 1, 2, 199, 254, 255, 256, 299,
                      65535, 65536, -1)


def _random_pgm_rows(rng):
    width = rng.choice((0,) + (1, 2, 3, 4) * 5)
    height = rng.choice((0,) + (1, 2, 3) * 5)
    # mostly plain 8-bit samples, so that each rule decides some images
    odd = rng.choice((0, 0.05, 0.3))
    rows = [[rng.choice(_PGM_WRITE_VALUES) if rng.random() < odd
             else rng.choice((rng.randrange(256), 0, 255))
             for _ in range(width)] for _ in range(height)]
    if rows and rng.random() < 0.05:
        rows[-1] = rows[-1][:-1]  # ragged
    return rows


def _write_outcome(write, path, rows, maxval, binary):
    """The bytes written, or the exception type and text (and no file)."""
    try:
        write(path, rows, maxval, binary)
    except ValueError as exc:
        assert not path.exists()
        return type(exc), str(exc)
    data = path.read_bytes()
    path.unlink()
    return data


def test_write_pgm_matches_min_max_writer(tmp_path):
    rng = random.Random(19)
    new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
    kinds = Counter()
    for _ in range(4000):
        rows = _random_pgm_rows(rng)
        maxval = rng.choice(_PGM_WRITE_MAXVALS + (rng.randint(0, 65536),))
        binary = rng.random() < 0.7
        outcome = _write_outcome(write_pgm, new, rows, maxval, binary)
        assert outcome == _write_outcome(_write_pgm_min_max, old, rows,
                                         maxval, binary), (rows, maxval,
                                                           binary)
        if isinstance(outcome, bytes):
            kinds[outcome[:2], int(outcome.split()[3]) >= 256] += 1
        else:
            kinds[outcome[1].split(" ")[0]] += 1
    # every error and every output width is reached
    for kind in ((b"P5", False), (b"P5", True), (b"P2", False), (b"P2", True),
                 "cannot", "ragged", "PGM", "maxval", "sample"):
        assert kinds[kind] >= 20, (kind, kinds)


@pytest.mark.parametrize("maxval, raster", [
    (254, bytes(range(255))[::-1] + b"\xff"),
    (1, b"\x00\x01\x02\x01"),
    (7, b"\x00\x08"),
])
def test_p5_byte_above_maxval(tmp_path, maxval, raster):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5\n%d 1\n%d\n" % (len(raster), maxval) + raster)
    with pytest.raises(ValueError, match="^PGM sample exceeds maxval$"):
        read_pgm(p)


def test_p5_every_byte_value_reads_back(tmp_path):
    raster = bytes(range(256)) * 2 + bytes(range(255, -1, -1))
    p = tmp_path / "all.pgm"
    p.write_bytes(b"P5\n256 3\n255\n" + raster)
    rows, maxval = read_pgm(p)
    assert maxval == 255
    assert rows == [list(raster[k:k + 256]) for k in (0, 256, 512)]
    # a byte equal to maxval fits
    p.write_bytes(b"P5\n4 1\n3\n\x03\x00\x02\x01")
    assert read_pgm(p) == ([[3, 0, 2, 1]], 3)


def test_csv_roundtrip(tmp_path):
    p = tmp_path / "sig.csv"
    samples = [3, -1, Fraction(5, 2), 0]
    write_csv_signal(p, samples, origin=-7)
    assert read_csv_signal(p) == (samples, -7)


def test_csv_comments_and_blanks(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("# origin=4\n\n# note\n10\n 11 \n-3/4\n")
    samples, origin = read_csv_signal(p)
    assert origin == 4
    assert samples == [10, 11, Fraction(-3, 4)]


def test_csv_errors(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("# origin=xyz\n1\n")
    with pytest.raises(ValueError):
        read_csv_signal(p)
    p.write_text("1\nbanana\n")
    with pytest.raises(ValueError) as exc:
        read_csv_signal(p)
    assert "line 2" in str(exc.value)
    p.write_text("1/0\n")
    with pytest.raises(ValueError):
        read_csv_signal(p)


# -------------------------------------------- CSV block reader vs checked loop

# Block sizes that put block ends inside lines, inside CRLFs, after lone CRs
# and inside multi-byte characters, and the default.
_BLOCKS = (1, 2, 3, 5, 7, formats._READ_BLOCK)

# Lines a generated CSV file is drawn from: ints that ``int(line)`` takes as
# they stand, and everything that sends a block's rest line by line.
_INT_LINES = ("0", "7", "-3", "+12", "1_000", "-2_5", "123456789012345678901",
              " 5", "6 ", "\t-8\t", "9\x0b", "\x0c10")
_ODD_LINES = ("", "   ", "# note", "#", "# origin=5", "#origin=-2",
              " # origin= 9 ", "# origin=xyz", "# origin=1/2", "3/4", "-5/2",
              "6/3", "1/0", "1.5", "1e3", "banana", "0x10", "1__0", "_1",
              "inf", "\x1c4", "4\x1f", "4 5", "é")


def _random_csv(rng) -> str:
    header = [rng.choice(("# origin=%d" % rng.randint(-9, 9), "# note", "#",
                          " #  origin = 1", "# origin=+3", "# origin=x"))
              for _ in range(rng.randint(0, 3))]
    body = [rng.choice(_INT_LINES) for _ in range(rng.randint(0, 12))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        body.insert(rng.randint(0, len(body)), rng.choice(_ODD_LINES))
    newline = rng.choice(("\n", "\n", "\r\n", "\r"))
    text = newline.join(header + body)
    return text + newline if rng.random() < 0.8 else text


def _read_csv_checked(lines) -> Tuple[List[Number], int]:
    """``read_csv_signal`` line by line over decoded lines: parses
    rationals, skips blank and comment lines anywhere, and names the line
    of a bad sample or origin."""
    origin = 0
    samples: List[Number] = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text[1:].strip()
            if body.startswith("origin="):
                try:
                    origin = int(body[len("origin="):])
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad origin {body!r}") from None
            continue
        try:
            samples.append(formats._parse_sample(text))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return samples, origin


def _read_checked(path):
    """The whole-file line-by-line reader, kept as the oracle.  Each line
    is decoded on its own, when it is reached, so the first line with an
    error names it, whether a bad sample or a non-ASCII byte."""
    data = path.read_bytes()

    def decoded():
        for line in data.splitlines(keepends=True):  # LF, CRLF or lone CR
            try:
                yield line.decode("ascii")
            except UnicodeDecodeError:
                raise ValueError(_not_ascii_text(data)) from None

    return _read_csv_checked(decoded())


def _outcome(read, path):
    """(type and value of each sample, origin) or (exception type, text)."""
    try:
        samples, origin = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(type(v), v) for v in samples], (type(origin), origin)


def _not_ascii_text(data: bytes) -> str:
    """The error for the first non-ASCII byte of ``data``; LF, CRLF and a
    lone CR each end a line."""
    off = next(i for i, b in enumerate(data) if b > 0x7f)
    head = data[:off]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return f"line {line}, offset {off}: non-ASCII byte 0x{data[off]:02x}"


@pytest.mark.parametrize("seed", range(4))
def test_csv_fast_path_matches_checked_path(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    p = tmp_path / "sig.csv"
    for _ in range(300):
        raw = _random_csv(rng).encode("utf-8")
        p.write_bytes(raw)
        expected = _outcome(_read_checked, p)
        for block in _BLOCKS:
            with monkeypatch.context() as m:
                m.setattr(formats, "_READ_BLOCK", block)
                assert _outcome(read_csv_signal, p) == expected, (block, raw)


@pytest.mark.parametrize("bad, undecodable, error", [
    (11, 3001, "line 11: bad sample 'banana'"),
    (3001, 3, "line 3, offset 4: non-ASCII byte 0xc3"),
    (2, 4, "line 2: bad sample 'banana'"),
])
def test_csv_decode_error_keeps_its_line_order(tmp_path, bad, undecodable,
                                               error):
    """Whichever of a bad sample and a non-ASCII byte comes first is
    reported, also when both fall in one block."""
    lines = [str(i) for i in range(5000)]
    lines[bad - 1] = "banana"
    lines[undecodable - 1] = "é"
    p = tmp_path / "sig.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert p.stat().st_size < formats._READ_BLOCK
    outcome = _outcome(read_csv_signal, p)
    assert outcome == _outcome(_read_checked, p)
    assert outcome[1] == error


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("block", sorted({*_BLOCKS, 700, 4096}))
def test_csv_non_ascii_byte_names_its_line_and_offset(tmp_path, monkeypatch,
                                                      newline, block):
    """The offset counts from the start of the file, and the line counts
    every kind of line end."""
    monkeypatch.setattr(formats, "_READ_BLOCK", block)
    lines = [str(i) for i in range(5000)]
    lines[3000] = "é"
    p = tmp_path / "sig.csv"
    data = newline.join(lines).encode("utf-8")
    p.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        read_csv_signal(p)
    assert str(exc.value) == _not_ascii_text(data)
    assert str(exc.value).startswith("line 3001, offset ")


@pytest.mark.parametrize("lone_cr_ends_a_block", [False, True])
def test_csv_non_ascii_byte_after_a_cr_at_a_block_end(tmp_path, monkeypatch,
                                                      lone_cr_ends_a_block):
    # a lone CR ends a line, also where it is the last byte of a block
    monkeypatch.setattr(formats, "_READ_BLOCK", 8192)
    data = b"1\r" * 4096 + (b"" if lone_cr_ends_a_block else b"\n") + b"\xc3\xa9"
    p = tmp_path / "sig.csv"
    p.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        read_csv_signal(p)
    assert str(exc.value) == _not_ascii_text(data)
    offset = 8192 if lone_cr_ends_a_block else 8193
    assert str(exc.value).startswith(f"line 4097, offset {offset}:")


@pytest.mark.parametrize("block", _BLOCKS)
def test_csv_lone_cr_is_counted_on_the_fast_path(tmp_path, monkeypatch,
                                                 block):
    # int() reads b"\r5\n" as 5, but its lone CR ends a blank line first
    monkeypatch.setattr(formats, "_READ_BLOCK", block)
    p = tmp_path / "sig.csv"
    p.write_bytes(b"\r5\n6\r\n7\nbanana\n")
    outcome = _outcome(read_csv_signal, p)
    assert outcome == _outcome(_read_checked, p)
    assert outcome == (ValueError, "line 5: bad sample 'banana'")


def _counted_parse_lines(monkeypatch):
    """Patch ``_parse_lines`` to record ``(lineno, len(lines))`` per call."""
    calls = []
    parse_lines = formats._parse_lines

    def counted(lines, lineno, offset, samples, origin):
        calls.append((lineno, len(lines)))
        return parse_lines(lines, lineno, offset, samples, origin)

    monkeypatch.setattr(formats, "_parse_lines", counted)
    return calls


def test_csv_int_files_stay_on_the_fast_path(tmp_path, monkeypatch):
    """Only the lines int() refuses go line by line, and map(int, ...)
    resumes after them: here the first header line alone, the next two
    together (the third follows the lines sent last), and the trailing
    blank line, in a later block."""
    n = formats._READ_BLOCK  # lines of two bytes or more: several blocks
    p = tmp_path / "sig.csv"
    p.write_text("# sensor 4\n # origin= -6\n#\n"
                 + "\n".join((_INT_LINES * n)[:n]) + "\n\n")
    data = p.read_bytes()
    assert len(data) > 3 * formats._READ_BLOCK
    expected = _read_checked(p)
    calls = _counted_parse_lines(monkeypatch)
    samples, origin = read_csv_signal(p)
    assert (samples, origin) == expected
    assert origin == -6 and len(samples) == n
    assert calls == [(0, 1), (1, 2), (n + 3, 1)]


@pytest.mark.parametrize("block", (7, 64, 4096, formats._READ_BLOCK))
def test_csv_scattered_odd_lines_go_alone(tmp_path, monkeypatch, block):
    """Comment, blank and rational lines scattered over many blocks, some
    side by side, go to the line-by-line parser alone or, after a line sent
    there, in a batch, and the result or error (line and offset) is the
    checked path's."""
    monkeypatch.setattr(formats, "_READ_BLOCK", block)
    rng = random.Random(block)
    lines = [str(rng.randint(-99999, 99999)) for _ in range(30000)]
    odd = sorted(rng.sample(range(len(lines)), 300))
    for i in odd:
        lines[i] = rng.choice(("# note", "", "# origin=4", "3/4", "-5/2",
                               "6/3", " # origin= -7 "))
    p = tmp_path / "sig.csv"
    for newline in ("\n", "\r\n", "\r"):
        for tail in ([], ["banana"], ["é"]):
            p.write_bytes(newline.join(lines[:-2000] + tail + lines[-2000:])
                          .encode("utf-8"))
            expected = _outcome(_read_checked, p)
            with monkeypatch.context() as m:
                calls = _counted_parse_lines(m)
                assert _outcome(read_csv_signal, p) == expected
            assert (expected[0] is ValueError) == bool(tail)
            if not tail and newline == "\n":
                # each call starts at an odd line, and batches at most
                # double the lines sent
                sent = {at + i for at, size in calls for i in range(size)}
                assert {at for at, _ in calls} <= set(odd) <= sent
                assert len(sent) < 2 * len(odd)


def test_csv_runs_of_refused_lines_go_in_doubling_batches(tmp_path,
                                                          monkeypatch):
    """A refused line goes alone to the line-by-line parser, and one that
    directly follows the lines sent last goes with twice as many, so a run
    of refused lines costs about log2 of its length in calls; the lines a
    batch takes past the run parse as ints do."""
    ints = ["5", "-6"] * 5
    lines = ["# a"] + ints + ["1/2"] * 2 + ints + ["1/3"] * 7 + ints
    p = tmp_path / "sig.csv"
    p.write_text("\n".join(lines) + "\n")
    calls = _counted_parse_lines(monkeypatch)
    assert read_csv_signal(p) == _read_checked(p)
    assert calls == [(0, 1), (11, 1), (12, 2), (23, 1), (24, 2), (26, 4)]


def test_csv_written_files_parse_one_line_slowly(tmp_path, monkeypatch):
    """A file write_csv_signal wrote sends only its header line, and a lone
    rational in a later block only its own line, to the line-by-line
    parser."""
    k = formats._READ_BLOCK // 4  # lines of five bytes or more
    samples = list(range(1000, k + 1100))
    mixed = samples[:k] + [Fraction(1, 3)] + samples[k:]
    p, q = tmp_path / "sig.csv", tmp_path / "frac.csv"
    write_csv_signal(p, samples, origin=-4)
    write_csv_signal(q, mixed, origin=7)
    # the rational, on line k + 2, starts past the first block
    assert q.read_bytes().index(b"1/3") > formats._READ_BLOCK
    calls = _counted_parse_lines(monkeypatch)
    assert read_csv_signal(p) == (samples, -4)
    assert calls == [(0, 1)]
    calls.clear()
    assert read_csv_signal(q) == (mixed, 7)
    assert calls == [(0, 1), (k + 1, 1)]


def test_csv_lone_cr_lines_are_parsed_in_chunks(tmp_path, monkeypatch):
    """A file whose lines end in a lone CR reads in the same blocks as its
    LF twin, and only its header line goes line by line.  A line that ends
    on a block's last byte waits for the next block in the CR file, where
    its CR could start a CRLF, so a CR chunk may start one line earlier."""
    calls = _counted_parse_lines(monkeypatch)
    chunks = {"cr": [], "lf": []}
    parse_chunk = formats._parse_chunk

    def counted_chunk(lines, lineno, offset, samples, origin):
        file = "cr" if lines[0].endswith(b"\r") else "lf"
        chunks[file].append((lineno, offset, len(lines)))
        return parse_chunk(lines, lineno, offset, samples, origin)

    monkeypatch.setattr(formats, "_parse_chunk", counted_chunk)
    rng = random.Random(17)
    walk, v = [], 0
    for _ in range(formats._READ_BLOCK):
        v += rng.randint(-3, 3)
        walk.append(v)
    text = "# origin=3\n" + "\n".join(map(str, walk)) + "\n"
    cr, lf = tmp_path / "cr.csv", tmp_path / "lf.csv"
    cr.write_bytes(text.replace("\n", "\r").encode())
    lf.write_bytes(text.encode())
    assert read_csv_signal(cr) == read_csv_signal(lf) == (walk, 3)
    assert calls == [(0, 1), (0, 1)]  # the header line, in each file
    blocks = -(-len(text) // formats._READ_BLOCK)
    assert blocks > 3
    assert len(chunks["lf"]) == blocks
    # the CR file parses its last line after the last block
    assert len(chunks["cr"]) == blocks + 1 and chunks["cr"][-1][2] == 1
    most = max(size for _, _, size in chunks["lf"])
    for (a, a_off, a_n), (b, b_off, _) in zip(chunks["cr"], chunks["lf"]):
        assert b - a in (0, 1) and (b - a == 0) == (a_off == b_off)
        assert a_n <= most + 1


@pytest.mark.parametrize("block", [2, 3, 5, 7, 4096])
@pytest.mark.parametrize("bad", ["banana", "é"])
def test_csv_lone_cr_error_past_the_first_chunk(tmp_path, monkeypatch, block,
                                                bad):
    monkeypatch.setattr(formats, "_READ_BLOCK", block)
    lines = ["# origin=3"] + [str(i) for i in range(3 * block + 50)]
    k = 2 * block + 20  # line k + 1, past the first block
    lines[k] = bad
    p = tmp_path / "sig.csv"
    p.write_bytes("\r".join(lines).encode())
    offset = sum(len(line) + 1 for line in lines[:k])
    error = (f"line {k + 1}: bad sample 'banana'" if bad == "banana" else
             f"line {k + 1}, offset {offset}: non-ASCII byte 0xc3")
    assert _outcome(read_csv_signal, p) == _outcome(_read_checked, p) == (
        ValueError, error)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_csv_line_longer_than_three_blocks(tmp_path, monkeypatch, newline):
    """A line that spans more than three blocks is read whole: an int, a
    comment, a rational, a bad sample and a non-ASCII byte, each placed so
    that block ends fall inside it."""
    lines = ["# origin=" + "1" * 25, "-" + "9" * 30, "# " + "x" * 30,
             "1" * 20 + "/" + "3" * 20, "5"]
    p = tmp_path / "sig.csv"
    for tail in ([], ["7" * 24 + "banana"], ["4" * 40 + "é" + "4"]):
        p.write_bytes(newline.join(lines + tail + ["6"]).encode("utf-8"))
        expected = _outcome(_read_checked, p)
        for block in _BLOCKS[:5]:
            monkeypatch.setattr(formats, "_READ_BLOCK", block)
            assert _outcome(read_csv_signal, p) == expected, (block, tail)
        assert (expected[0] is ValueError) == bool(tail)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("text", [
    "# origin=2\n1\n-3\n",
    "# origin=2\n1\n\n# mid\n3/4\n",
    pytest.param("# origin=2\n" + "1\n-3\n" * formats._READ_BLOCK + "\n",
                 id="longer-than-a-chunk"),
])
def test_csv_from_a_pipe(tmp_path, text):
    p = tmp_path / "sig.csv"
    p.write_text(text)
    r, w = os.pipe()
    # the text may not fit the pipe's buffer: write it from a thread
    writer = threading.Thread(target=_write_and_close,
                              args=(w, text.encode("ascii")))
    writer.start()
    try:
        assert read_csv_signal(f"/dev/fd/{r}") == read_csv_signal(p)
    finally:
        os.close(r)
        writer.join(timeout=10)
    assert not writer.is_alive()


def _write_and_close(fd, data):
    with open(fd, "wb") as fh:
        fh.write(data)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_csv_non_ascii_byte_from_a_pipe():
    # the reader counts its own offsets, so a pipe gives what a file gives
    for data, error in [
            (b"# origin=2\n1\n\xc3\xa9\n",
             "line 3, offset 13: non-ASCII byte 0xc3"),
            (b"1\r" * 4096 + b"\xc3\xa9",
             "line 4097, offset 8192: non-ASCII byte 0xc3")]:
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            with pytest.raises(ValueError) as exc:
                read_csv_signal(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert str(exc.value) == error == _not_ascii_text(data)


def _per_line_writer(path, samples, origin=0):
    """The writer as it was before chunked joins: the oracle for its bytes."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# origin={origin}\n")
        for v in samples:
            fh.write(f"{v}\n")


@pytest.mark.parametrize("samples, origin", [
    ([], 0),
    ([0], 5),
    ([3, -1, 0, 10**30, -(10**30)], -7),
    ([Fraction(5, 2), Fraction(-3, 4), Fraction(4, 1), 7], 1),
    (list(range(-formats._WRITE_CHUNK, 1)), 0),
    (list(range(2 * formats._WRITE_CHUNK)), -2),
    ([Fraction(k, 3) for k in range(formats._WRITE_CHUNK - 1)], 3),
])
def test_csv_writer_bytes_match_per_line_writer(tmp_path, samples, origin):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv_signal(new, samples, origin=origin)
    _per_line_writer(old, samples, origin=origin)
    assert new.read_bytes() == old.read_bytes()
    assert read_csv_signal(new) == (samples, origin)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="needs a limit on int digits")
def test_csv_writer_refusal_leaves_the_path_alone(tmp_path):
    """A sample str() refuses is found before the file is opened: an
    existing file keeps its bytes and a missing one is not made."""
    huge = 10 ** (sys.get_int_max_str_digits() + 1)
    old, missing = tmp_path / "old.csv", tmp_path / "missing.csv"
    write_csv_signal(old, [4, -2], origin=3)
    before = old.read_bytes()
    for samples in ([1, huge], list(range(formats._WRITE_CHUNK)) + [huge]):
        for path in (old, missing):
            with pytest.raises(ValueError):
                write_csv_signal(path, samples)
    assert old.read_bytes() == before
    assert not missing.exists()
