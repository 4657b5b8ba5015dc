"""PGM and CSV readers/writers."""

import os
import random
from fractions import Fraction

import pytest

from sigrep import formats, read_csv_signal, read_pgm, write_csv_signal, write_pgm


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
    for raw in (b"P5\n1 1\n10\n\x0b",        # 1-byte sample above maxval
                b"P5\n1 1\n300\n\x01\x2d"):  # 2-byte sample 301 above maxval
        p.write_bytes(raw)
        with pytest.raises(ValueError, match="exceeds maxval"):
            read_pgm(p)


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


# ------------------------------------------------- CSV fast path vs checked

# Lines a generated CSV file is drawn from: ints the fast path takes as they
# stand, and everything that sends the file to the checked path.
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


def _read_checked(path):
    with open(path, "r", encoding="ascii") as fh:
        return formats._read_csv_checked(fh)


def _outcome(read, path):
    """(type and value of each sample, origin) or (exception type, text)."""
    try:
        samples, origin = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(type(v), v) for v in samples], (type(origin), origin)


@pytest.mark.parametrize("seed", range(4))
def test_csv_fast_path_matches_checked_path(tmp_path, seed):
    rng = random.Random(seed)
    p = tmp_path / "sig.csv"
    for _ in range(300):
        raw = _random_csv(rng).encode("utf-8")
        p.write_bytes(raw)
        assert _outcome(read_csv_signal, p) == _outcome(_read_checked, p), raw


def test_csv_int_files_stay_on_the_fast_path(tmp_path, monkeypatch):
    def refuse(fh):
        raise AssertionError("checked path taken")

    p = tmp_path / "sig.csv"
    p.write_text("# sensor 4\n # origin= -6\n#\n" + "\n".join(_INT_LINES))
    expected = _read_checked(p)
    monkeypatch.setattr(formats, "_read_csv_checked", refuse)
    samples, origin = read_csv_signal(p)
    assert (samples, origin) == expected
    assert origin == -6 and all(type(v) is int for v in samples)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("text", ["# origin=2\n1\n-3\n",
                                  "# origin=2\n1\n\n# mid\n3/4\n"])
def test_csv_from_a_pipe(tmp_path, text):
    p = tmp_path / "sig.csv"
    p.write_text(text)
    r, w = os.pipe()
    try:
        os.write(w, text.encode("ascii"))
        os.close(w)
        assert read_csv_signal(f"/dev/fd/{r}") == read_csv_signal(p)
    finally:
        os.close(r)


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
