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
Python-level ``min`` and ``max`` passes and 16-bit rows to struct.  Any
refusal runs the sample rule first: the core's packing, range and maxval
checks share one ``try`` whose ``except`` runs ``_check_pgm_samples``, so
``sigrep decode`` calls ``_write_pgm`` itself, on ``decode``'s rows of ints
and Fractions, which hold no bool.  Every part of the file, P2 text too, is
built before it opens.

A CSV file is read in binary, ``_READ_BLOCK`` bytes at a time, by two
rules.  The block loop: a block that holds no LF and no CR ends no line
and waits for the next; otherwise the blocks read since the last line
ended are joined and split by ``bytes.splitlines``, in C, at LF, CRLF and
a lone CR alike, and every line but a last one that does not end in LF is
parsed.  The slow path: the lines are parsed by ``map(int, ...)`` as
bytes, and from a line ``int`` refuses (a comment, a blank line, a
rational, bad text or a non-ASCII byte) the line-by-line parser decodes
and parses the lines up to and including the next int sample; then
``map(int, ...)`` resumes on the same iterator, so nothing is read twice.
The ``# origin=`` header of a file ``write_csv_signal`` wrote costs one
slow call, and so does a run of comments or rationals.  The parser checks
each line for a non-ASCII byte as it reaches it, so the fault on the
earliest line is the one named.  The CSV reader holds one block of the
file at a time, since a list of every line takes more memory than the
ints parsed from them.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from itertools import chain
from typing import Iterator, List, Sequence, Tuple

from .errors import Number, _inexact, _is_int

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
    Fractions, such as ``decode`` returns.  Any refusal runs the sample rule
    first: packing (``bytes()`` for 8-bit rows, struct for 16-bit ones)
    proves the samples ints, and a refused packing, range or maxval reaches
    the one ``except``, which runs ``_check_pgm_samples``.  P2 text proves
    nothing: only ``write_pgm``, after the rule, asks for it."""
    width = _pgm_width(rows)
    try:
        try:
            parts = [b"".join(map(bytes, rows))]
            # one memchr per value tried, from 255 down
            top = next(k for k in range(255, -1, -1) if k in parts[0])
        except ValueError:  # a sample outside 0..255: refused, or 16-bit
            if min(chain.from_iterable(rows)) < 0:
                raise ValueError(
                    "PGM samples must be nonnegative ints") from None
            top = max(chain.from_iterable(rows))
        if maxval is None:
            maxval = max(top, 1)
        if not (_is_int(maxval) and 0 < maxval <= MAX_PGM_VALUE):
            raise ValueError(f"maxval must be in 1..{MAX_PGM_VALUE}")
        if top > maxval:
            raise ValueError("sample exceeds maxval")
        if not binary:
            parts = [f"{' '.join(map(str, row))}\n".encode("ascii")
                     for row in rows]
        elif maxval > 255:
            row_16 = struct.Struct(f">{width}H")
            parts = [row_16.pack(*row) for row in rows]
    except (TypeError, ValueError, struct.error):
        _check_pgm_samples(rows)
        raise
    # every part is built before the file opens, so a refusal leaves
    # ``path`` as it was
    with open(path, "wb") as fh:
        fh.write(f"{'P5' if binary else 'P2'}\n{width} {len(rows)}\n"
                 f"{maxval}\n".encode("ascii"))
        fh.writelines(parts)


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

    Each block read is appended to the carry.  A block with no LF and no
    CR ends no line, so the next one is read.  Otherwise the carry is
    joined once and split by ``bytes.splitlines(keepends=True)``, at
    exactly the three line ends: a last line that does not end in LF is
    the new carry, since it may go on in the next block or its CR may be
    the first half of a CRLF, and the other lines go to ``_parse_chunk``.
    What is left at the end of the file is split and parsed too.  Errors
    come in line order: the first bad sample, bad origin or non-ASCII byte
    is reported, a non-ASCII byte by its line and file offset.
    """
    origin = 0
    samples: List[Number] = []
    lineno = offset = read = 0
    carry: List[bytes] = []  # the blocks read since the last line ended
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BLOCK):
            read += len(block)
            carry.append(block)
            if b"\n" not in block and b"\r" not in block:
                continue
            lines = b"".join(carry).splitlines(keepends=True)
            carry = [] if lines[-1].endswith(b"\n") else [lines.pop()]
            origin = _parse_chunk(lines, lineno, offset, samples, origin)
            lineno += len(lines)
            offset = read - len(carry[0]) if carry else read
    lines = b"".join(carry).splitlines(keepends=True)
    return samples, _parse_chunk(lines, lineno, offset, samples, origin)


def _parse_chunk(lines: Sequence[bytes], lineno: int, offset: int,
                 samples: List[Number], origin: int) -> int:
    """Parse ``lines``, which follow line ``lineno`` from byte ``offset``
    on, into ``samples`` by ``map(int, ...)``, as bytes.  ``int`` accepts a
    bytes line only where ``_parse_lines`` reads the same int
    (``str.strip`` drops more control characters than ``int`` does).  From
    a line ``int`` refuses, ``_parse_lines`` takes the lines up to and
    including the next int sample, and ``map(int, ...)`` resumes on the
    same iterator, so no line is read twice: a comment line costs one
    call, and so does a run of rationals.  Returns the origin in force
    after the lines."""
    rest = iter(lines)
    k = 0  # lines parsed so far; ``offset`` is where line k starts
    while True:
        before = len(samples)
        try:
            samples.extend(map(int, rest))  # keeps the ints before a failure
            return origin
        except ValueError:
            end = k + len(samples) - before  # the line int refused
        offset += sum(map(len, lines[k:end]))
        taken, offset, origin = _parse_lines(
            chain((lines[end],), rest), lineno + end, offset, samples, origin)
        k = end + taken


def _parse_lines(lines: Iterator[bytes], lineno: int, offset: int,
                 samples: List[Number], origin: int) -> Tuple[int, int, int]:
    """Parse ``lines``, which follow line ``lineno`` from byte ``offset`` on,
    into ``samples`` up to and including the first int sample: rationals
    too, blank and comment lines skipped, and a bad sample, bad origin or
    non-ASCII byte named by its line.  Each line is decoded as ASCII with
    ``surrogateescape``: a non-ASCII byte ``b`` reads as the one character
    ``chr(0xDC00 + b)``, so offsets stay exact.  Returns the number of
    lines taken, the offset after them and the origin in force."""
    first = lineno
    for lineno, raw in enumerate(lines, lineno + 1):
        line = raw.decode("ascii", "surrogateescape")
        if not line.isascii():
            at = next(i for i, ch in enumerate(line) if not ch.isascii())
            raise ValueError(f"line {lineno}, offset {offset + at}: "
                             f"non-ASCII byte 0x{ord(line[at]) - 0xDC00:02x}")
        offset += len(line)
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
        if type(samples[-1]) is int:
            break
    return lineno - first, offset, origin


_WRITE_CHUNK = 65536  # samples formatted into one string


def write_csv_signal(path, samples: Sequence[Number], origin: int = 0) -> None:
    """``# origin=<origin>`` then one sample per line, each as ``str`` gives it.

    One ``%`` format per chunk converts the samples in C; it builds the text
    in about half the time of ``"\\n".join(map(str, chunk))``.  Every
    chunk is formatted before the file is opened, so a sample ``str``
    refuses, or an origin that is not an int, leaves ``path`` as it was.
    """
    if not _is_int(origin):
        raise ValueError(f"origin must be an int, got {origin!r}")
    text = [f"# origin={origin}\n"]
    for i in range(0, len(samples), _WRITE_CHUNK):
        chunk = tuple(samples[i:i + _WRITE_CHUNK])
        text.append("%s\n" * len(chunk) % chunk)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(text)
