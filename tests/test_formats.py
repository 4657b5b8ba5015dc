"""PGM and CSV readers/writers."""

from fractions import Fraction

import pytest

from sigrep import read_csv_signal, read_pgm, write_csv_signal, write_pgm


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
