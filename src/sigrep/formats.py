"""File ingestion: PGM images (P2/P5) and CSV sample dumps.

Malformed input raises ValueError with a one-line description; the CLI maps
that (together with OSError) to its I/O-format exit code.

Each text reader makes one pass over its input, and the work per byte runs
in C.  A PGM header is matched by one regex and a P2 raster is split by
``bytes.split``.  An 8-bit P5 raster is range-checked by one
``bytes.translate`` that deletes the bytes 0..maxval: any byte left exceeds
maxval.  ``write_pgm`` runs its sample rule (``_check_pgm_samples``:
ints only, since ``bytes()`` would take a bool) and then ``_write_pgm``,
which packs each row with ``bytes()``, checking 0 <= v <= 255 in C, and
builds no flat list of the samples.  It takes the largest sample by ``in``
(memchr) from 255 down; only a sample outside 0..255 sends it to
Python-level ``min`` and ``max`` passes and 16-bit rows to struct.  The
core runs the rule only where ``bytes()`` or struct refuses a sample, or
where a range refusal would come first, so ``sigrep decode`` calls
``_write_pgm`` itself, on ``decode``'s rows of ints and Fractions, which
hold no bool.  16-bit rows are packed before the file opens.

A CSV file is read in binary, ``_READ_BLOCK`` bytes at a time, and each
block is split into lines by ``bytes.splitlines``, in C, at LF, CRLF and a
lone CR alike: a file whose lines end in a lone CR reads a block at a time
as well.  A block's lines are parsed by ``map(int, ...)`` as bytes.  A line
``int`` refuses (a comment, a blank line, a rational, bad text or a
non-ASCII byte) is decoded and goes to the line-by-line parser, and
``map(int, ...)`` resumes after it, so nothing is read twice.  The
``# origin=`` header of a file ``write_csv_signal`` wrote, or a comment
anywhere, costs one slow line, not a slow block.  A refused line that
directly follows the lines last sent takes twice as many with it, so a
block of rationals costs a few calls, not one per line.  The CSV reader
holds one block of the file at a time, since a list of every line takes
more memory than the ints parsed from them.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from itertools import chain, islice
from typing import List, Sequence, Tuple

from .errors import Number, _inexact

MAX_PGM_VALUE = 65535

# Up to four header tokens, each after any whitespace and # comments.  The
# lookahead makes a comment run to the end of its line: without it the regex
# could end a comment early and read the comment's tail as a token.
_HEADER = re.compile(rb"(?:(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+))?" * 4)
_COMMENT = re.compile(rb"#[^\r\n]*")


def read_pgm(path) -> Tuple[List[List[int]], int]:
    """Read a P2 or P5 PGM file; returns (rows, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _HEADER.match(data)
    magic, *fields = header.groups()
    if magic is None:
        raise ValueError("truncated PGM header")
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    for i, tok in enumerate(fields):
        if tok is None:
            raise ValueError("truncated PGM header")
        try:
            fields[i] = int(tok)
        except ValueError:
            raise ValueError(f"bad PGM header token {tok!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError("PGM dimensions must be positive")
    if not 0 < maxval <= MAX_PGM_VALUE:
        raise ValueError(f"PGM maxval must be in 1..{MAX_PGM_VALUE}")

    count = width * height
    end = header.end()
    if magic == b"P2":
        tokens = _COMMENT.sub(b" ", data[end:]).split()
        # a sample is ASCII digits, as write_pgm writes it: int() would also
        # take a sign or an underscore
        if not b"".join(tokens).isdigit():
            for tok in tokens:
                if not tok.isdigit():
                    raise ValueError(f"bad P2 sample {tok!r}")
        values = list(map(int, tokens))
        if len(values) != count:
            raise ValueError(f"P2 sample count {len(values)} != {count}")
        over = max(values) > maxval
    else:
        sep, raster = data[end:end + 1], data[end + 1:]
        if sep and not sep.isspace():
            raise ValueError(f"P5 raster must follow one whitespace byte, "
                             f"not {sep!r}")
        size = count if maxval < 256 else 2 * count
        if len(raster) != size:
            raise ValueError(f"P5 raster size {len(raster)} != {size}")
        if maxval < 256:
            # the bytes left after deleting 0..maxval are the samples above it
            over = raster.translate(None, bytes(range(maxval + 1)))
            values = raster
        else:
            values = struct.unpack(f">{count}H", raster)
            over = max(values) > maxval
    if over:
        raise ValueError("PGM sample exceeds maxval")
    return [list(values[r * width:(r + 1) * width])
            for r in range(height)], maxval


def _check_pgm_samples(rows: Sequence[Sequence[int]]):
    """Return ``rows``; raise ValueError unless every sample is an int
    (``errors._inexact``), since ``bytes()`` would take a bool."""
    if any(_inexact(row, int) for row in rows):
        raise ValueError("PGM samples must be nonnegative ints")
    return rows


def _pgm_width(rows: Sequence[Sequence[int]]) -> int:
    """The width of ``rows``; ValueError if they are empty or ragged."""
    if not rows or not rows[0]:
        raise ValueError("cannot write an empty PGM")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    return width


def write_pgm(path, rows: Sequence[Sequence[int]], maxval: int = None,
              binary: bool = True) -> None:
    _pgm_width(rows)  # an empty or ragged image is named before a sample
    _write_pgm(path, _check_pgm_samples(rows), maxval, binary)


def _write_pgm(path, rows: Sequence[Sequence[int]], maxval: int = None,
               binary: bool = True) -> None:
    """``write_pgm`` without its sample rule, for P5 rows of ints and
    Fractions, such as ``decode`` returns.  Packing proves the samples
    ints, ``bytes()`` for 8-bit rows and struct for 16-bit ones, and only
    rows one of them refuses, or whose range is refused first, go to
    ``_check_pgm_samples``.  P2 text proves nothing: only ``write_pgm``,
    after the rule, asks for it."""
    width = _pgm_width(rows)
    try:
        raster = b"".join(map(bytes, rows))  # proves 0 <= v <= 255 in C
    except TypeError:  # a sample that is not an int
        _check_pgm_samples(rows)
        raise
    except ValueError:  # a sample below 0 or above 255
        if min(chain.from_iterable(rows)) < 0:
            raise ValueError("PGM samples must be nonnegative ints") from None
        top = max(chain.from_iterable(rows))
        raster = None
    else:
        # one memchr per value tried, from 255 down
        top = next(k for k in range(255, -1, -1) if k in raster)
    if maxval is None:
        maxval = max(top, 1)
    if raster is None and (not 0 < maxval <= MAX_PGM_VALUE or top > maxval):
        # a range refusal below would come before the packing proves them ints
        _check_pgm_samples(rows)
    if not 0 < maxval <= MAX_PGM_VALUE:
        raise ValueError(f"maxval must be in 1..{MAX_PGM_VALUE}")
    if top > maxval:
        raise ValueError("sample exceeds maxval")
    if binary and maxval > 255:
        # packed before the file opens, so a refused sample leaves ``path``
        # as it was
        row_16 = struct.Struct(f">{width}H")
        try:
            raster = [row_16.pack(*row) for row in rows]
        except struct.error:  # a sample that is not an int
            _check_pgm_samples(rows)
            raise
    header = f"{'P5' if binary else 'P2'}\n{width} {len(rows)}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if not binary:
            fh.write("\n".join(" ".join(str(v) for v in row) for row in rows)
                     .encode("ascii"))
            fh.write(b"\n")
        elif maxval > 255:
            fh.writelines(raster)
        else:
            fh.write(raster)


def _parse_sample(text: str) -> Number:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad sample {text!r}") from None
    return frac


_READ_BLOCK = 65536  # bytes read and split into lines at a time


def read_csv_signal(path) -> Tuple[List[Number], int]:
    """One integer or rational per line; optional ``# origin=<i>`` header.

    Other comment lines and blank lines are skipped.  Returns
    (samples, origin).  LF, CRLF and a lone CR each end a line.

    Each block is split by ``bytes.splitlines(keepends=True)``, which ends
    a line at exactly LF, CRLF and a lone CR.  A block's last line waits
    for the next block unless it ends in LF: it may go on there, or its CR
    may be the first half of a CRLF.  A line longer than a block is kept
    in pieces and joined once.  ``int`` accepts a bytes line only where
    ``_parse_lines`` reads the same int (``str.strip`` drops more control
    characters than ``int`` does).  Only the lines ``int`` refuses are
    decoded, as ASCII with ``surrogateescape``: each non-ASCII byte becomes
    one surrogate character, so a line's length is its size in bytes and
    offsets stay exact.  Errors come in line order: the first bad sample,
    bad origin or non-ASCII byte is reported, a non-ASCII byte by its line
    and file offset.
    """
    origin = 0
    samples: List[Number] = []
    lineno = offset = read = 0
    carry: List[bytes] = []  # the pieces of a line no block has ended yet
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BLOCK):
            read += len(block)
            lines = block.splitlines(keepends=True)
            if carry:
                if carry[-1].endswith(b"\r") and lines[0] != b"\n":
                    lines.insert(0, b"".join(carry))  # ended by a lone CR
                elif len(lines) == 1 and not block.endswith(b"\n"):
                    carry.append(block)  # the line goes on
                    continue
                else:
                    carry.append(lines[0])
                    lines[0] = b"".join(carry)
                carry = []
            if not lines[-1].endswith(b"\n"):
                carry.append(lines.pop())
            origin = _parse_chunk(lines, lineno, offset, samples, origin)
            lineno += len(lines)
            offset = read - len(carry[0]) if carry else read
    if carry:
        origin = _parse_chunk([b"".join(carry)], lineno, offset, samples,
                              origin)
    return samples, origin


def _parse_chunk(lines: Sequence[bytes], lineno: int, offset: int,
                 samples: List[Number], origin: int) -> int:
    """Parse one block's lines into ``samples`` by ``map(int, ...)``.  A line
    ``int`` refuses goes to ``_parse_lines``, and ``map(int, ...)`` resumes
    after it: alone, or with lines after it when it directly follows the
    last lines sent, twice as many as then.  A comment line costs one call,
    and a block of rationals about log2 of its line count.  Returns the
    origin in force after the lines."""
    rest = iter(lines)
    k = 0     # lines parsed so far; ``offset`` is where line k starts
    sent = 0  # the batch size last sent to _parse_lines
    while True:
        before = len(samples)
        try:
            samples.extend(map(int, rest))  # keeps the ints before a failure
            return origin
        except ValueError:
            end = k + len(samples) - before  # the line int refused
        offset += sum(map(len, lines[k:end]))
        sent = 2 * sent if end == k and sent else 1
        batch = lines[end:end + sent]
        k = end + len(batch)
        origin = _parse_lines(
            [line.decode("ascii", "surrogateescape") for line in batch],
            lineno + end, offset, samples, origin)
        offset += sum(map(len, batch))
        if sent > 1:  # skip the lines sent after the one int refused
            next(islice(rest, len(batch) - 1, len(batch) - 1), None)


def _parse_lines(lines: Sequence[str], lineno: int, offset: int,
                 samples: List[Number], origin: int) -> int:
    """Parse ``lines``, which follow line ``lineno`` from byte ``offset`` on,
    into ``samples``: rationals too, blank and comment lines skipped, and a
    bad sample, bad origin or non-ASCII byte named by its line.  Returns the
    origin in force after them.  A non-ASCII byte ``b`` reads as the
    surrogate ``chr(0xDC00 + b)``."""
    if not all(map(str.isascii, lines)):
        # the lines before the first non-ASCII one may hold an earlier error
        k = next(k for k, line in enumerate(lines) if not line.isascii())
        _parse_lines(lines[:k], lineno, offset, samples, origin)
        line = lines[k]
        at = next(i for i, ch in enumerate(line) if not ch.isascii())
        raise ValueError(f"line {lineno + k + 1}, "
                         f"offset {offset + sum(map(len, lines[:k])) + at}: "
                         f"non-ASCII byte 0x{ord(line[at]) - 0xDC00:02x}")
    for lineno, text in enumerate(lines, lineno + 1):
        text = text.strip()
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
    return origin


_WRITE_CHUNK = 65536  # samples formatted into one string


def write_csv_signal(path, samples: Sequence[Number], origin: int = 0) -> None:
    """``# origin=<origin>`` then one sample per line, each as ``str`` gives it.

    One ``%`` format per chunk converts the samples in C; it builds the text
    in about half the time of ``"\\n".join(map(str, chunk))``.  Every
    chunk is formatted before the file is opened, so a sample ``str``
    refuses leaves ``path`` as it was.
    """
    text = [f"# origin={origin}\n"]
    for i in range(0, len(samples), _WRITE_CHUNK):
        chunk = tuple(samples[i:i + _WRITE_CHUNK])
        text.append("%s\n" * len(chunk) % chunk)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(text)
