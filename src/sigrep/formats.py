"""File ingestion: PGM images (P2/P5) and CSV sample dumps.

Malformed input raises ValueError with a one-line description; the CLI maps
that (together with OSError) to its I/O-format exit code.

CSV text is read by a fast path and a checked path.  The fast path streams
the lines after the leading comments through ``map(int, ...)`` and keeps
only the ints.  It either returns exactly what the checked path,
``_read_csv_checked``, would return, or, at its first ``ValueError``,
rewinds the file and hands it to the checked path, which alone parses
rationals, skips blank and later comment lines, and words every error.
Neither path holds the whole text: a list of every line's ``str`` takes
more memory than the ints parsed from them.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import chain
from typing import List, Sequence, Tuple, Union

MAX_PGM_VALUE = 65535


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


def read_pgm(path) -> Tuple[List[List[int]], int]:
    """Read a P2 or P5 PGM file; returns (rows, maxval)."""
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
    if not 0 < maxval <= MAX_PGM_VALUE:
        raise ValueError(f"PGM maxval must be in 1..{MAX_PGM_VALUE}")

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


def write_pgm(path, rows: Sequence[Sequence[int]], maxval: int = None,
              binary: bool = True) -> None:
    if not rows or not rows[0]:
        raise ValueError("cannot write an empty PGM")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    flat = list(chain.from_iterable(rows))
    # each distinct type is checked once; min and max run at C speed
    if (any(t is bool or not issubclass(t, int) for t in set(map(type, flat)))
            or min(flat) < 0):
        raise ValueError("PGM samples must be nonnegative ints")
    top = max(flat)
    if maxval is None:
        maxval = max(top, 1)
    if not 0 < maxval <= MAX_PGM_VALUE:
        raise ValueError(f"maxval must be in 1..{MAX_PGM_VALUE}")
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


Sample = Union[int, Fraction]


def _parse_sample(text: str) -> Sample:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad sample {text!r}") from None
    return frac


def read_csv_signal(path) -> Tuple[List[Sample], int]:
    """One integer or rational per line; optional ``# origin=<i>`` header.

    Other comment lines and blank lines are skipped.  Returns
    (samples, origin).

    Fast path and checked path as in the module docstring.  ``int(line)``
    accepts a line only where ``_read_csv_checked`` reads the same int
    (``str.strip`` drops more control characters than ``int`` does, and
    those lines fall back).  A file that cannot be rewound, such as a pipe,
    takes the checked path directly.
    """
    with open(path, "r", encoding="ascii") as fh:
        if not fh.seekable():
            return _read_csv_checked(fh)
        origin = 0
        try:
            line = fh.readline()
            text = line.strip()
            while text.startswith("#"):
                body = text[1:].strip()
                if body.startswith("origin="):
                    origin = int(body[len("origin="):])
                line = fh.readline()
                text = line.strip()
            samples = list(map(int, chain((line,), fh)))
        except ValueError:
            fh.seek(0)
            return _read_csv_checked(fh)
    return samples, origin


def _read_csv_checked(fh) -> Tuple[List[Sample], int]:
    """``read_csv_signal`` line by line from an open text file: parses
    rationals, skips blank and comment lines anywhere, and names the line
    of a bad sample or origin."""
    origin = 0
    samples: List[Sample] = []
    for lineno, line in enumerate(fh, 1):
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
            samples.append(_parse_sample(text))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return samples, origin


_WRITE_CHUNK = 65536  # samples formatted into one string per write


def write_csv_signal(path, samples: Sequence[Sample], origin: int = 0) -> None:
    """``# origin=<origin>`` then one sample per line, each as ``str`` gives it.

    One ``%`` format per chunk converts the samples in C; it builds the text
    in about half the time of ``"\\n".join(map(str, chunk))``.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# origin={origin}\n")
        for i in range(0, len(samples), _WRITE_CHUNK):
            chunk = tuple(samples[i:i + _WRITE_CHUNK])
            fh.write("%s\n" * len(chunk) % chunk)
