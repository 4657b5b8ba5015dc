"""Lossless differential encoding of 1-D signals and 2-D images.

Every sample after the seed is predicted from an already-decoded sample
through a stored arrow record (lookup position S*j + T, amplitude c) and the
exact residual delta is kept, so decoding reproduces the input bit for bit.
A record applies its arrow along a run of consecutive targets and stores one
delta per target.

Policies (``POLICIES``, in the order of FSG1's policy ids):

* ``predecessor`` (default): the arrow is fixed by position -- each sample
  reads its immediate predecessor (images read the left neighbour, first
  column reads the pixel above, the corner pixel is the seed).  This is the
  classic DPCM/PNG-style filter; only integer work is done.  One record
  covers each run: an image is a left run (T = -1) for row 0, then per later
  row an up record (T = -width, one delta) for column 0 and a left run for
  the rest of the row.  Encoder and decoder both treat a 1-D signal as a
  one-row image, so it is a single left run of n - 1 deltas.  The decoder
  also accepts any finer split of those runs, down to one record per sample.
* ``detected`` (1-D only): each unit segment gets the best arrow the
  translation / affine / amplitude detectors would find over all earlier
  segments, restricted to integer residuals so the container stays 64-bit.
  On unit segments the detectors have closed forms, so a running index of
  earlier values finds that arrow, with the same tie-break, in O(1) per
  sample on most inputs instead of a scan of every earlier sample (see
  _encode_detected).  The predecessor arrow is always among the candidates,
  so the chosen residual norm never exceeds the predecessor policy's,
  segment by segment.  Each record holds one delta.

Where the sample rule runs: ``encode`` checks the policy, origin and shape
(``_grid``), then every sample (``_check_samples``: an int or a Fraction,
else TypeError), then hands the rows to ``_encode``, the core that builds
the records.  ``sigrep encode`` calls ``_encode`` itself, on rows a sigrep
reader built as ints.  ``decode`` checks what it returns instead: a seed
sample or a sum that is not an int goes through ``_exact``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice
from math import log2
from operator import sub
from typing import List, NamedTuple

from .container import (POLICY_IDS, ArrowRecord, EncodedSignal,
                        _check_samples, _fits_i64, _record_fault,
                        container_layout)
from .errors import (CorruptContainer, EmptySignal, Number, PolicyMismatch,
                     _is_int)

POLICIES = tuple(POLICY_IDS)


def _is_image(signal) -> bool:
    try:
        first = signal[0]
    except (TypeError, KeyError, IndexError):
        return False
    return isinstance(first, (list, tuple))


def _indexable(seq):
    return seq if isinstance(seq, (list, tuple)) else list(seq)


def encode(signal, policy: str = "predecessor", origin: int = 0) -> EncodedSignal:
    """Encode a 1-D sequence, or a 2-D row list (whose origin must be 0);
    see the module.

    A list or tuple (the signal, or a row) is read where it is, and only
    another sequence is copied; the input is never changed, and the
    encoding holds tuples only.  After the checks of the policy, origin
    and shape, every sample must be an int or a Fraction
    (``_check_samples``, TypeError)."""
    grid, image = _grid(signal, policy, origin)
    for row in grid:
        _check_samples(row)
    return _encode(grid if image else grid[0], policy, origin)


def _grid(signal, policy: str, origin: int):
    """(rows, whether ``signal`` is an image) after the policy, origin,
    empty and ragged checks; a 1-D signal is one row."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    if not _is_int(origin):
        raise ValueError(f"origin must be an int, got {origin!r}")
    image = _is_image(signal)
    if image and policy == "detected":
        raise PolicyMismatch("the detected policy applies to 1-D signals only; "
                             "images use per-axis predecessor arrows")
    if image and origin:
        raise ValueError(f"an image is encoded at origin 0; got origin={origin}")
    grid = list(map(_indexable, signal)) if image else [_indexable(signal)]
    if not grid or not grid[0]:
        raise EmptySignal(f"cannot encode an empty {'image' if image else 'signal'}")
    if any(len(r) != len(grid[0]) for r in grid):
        raise ValueError("ragged image rows")
    return grid, image


def _encode(signal, policy: str, origin: int) -> EncodedSignal:
    """``encode`` without its sample rule, for samples that hold no bool
    and no other non-number, such as a sigrep reader builds."""
    grid, image = _grid(signal, policy, origin)
    width = len(grid[0])
    if policy == "detected":
        return _encode_detected(grid[0], origin)
    records: List[ArrowRecord] = []
    append = records.append
    above = None
    for row in grid:
        if above is not None:
            append(ArrowRecord(-width, 1, 1, 1, (row[0] - above[0],)))
        if width > 1:
            append(ArrowRecord(-1, 1, 1, 1,
                               tuple(map(sub, islice(row, 1, None), row))))
        above = row
    shape, origin = ((len(grid), width), 0) if image else ((width,), origin)
    return EncodedSignal(shape, origin, "predecessor",
                         (grid[0][0],), tuple(records))


def _encode_detected(samples: List[Number], origin: int) -> EncodedSignal:
    """Best arrow into each unit segment from any earlier unit segment.

    The search ranks every detector on every earlier sample by (squared
    residual, detector rank, source index), keeping only integer residuals
    and 64-bit amplitudes.  For unit segments each detector has a closed
    form, so a running index finds the winner without scanning:

    * an earlier equal value gives an exact translation; the first such
      sample wins (``first``);
    * otherwise, for y != 0, an earlier nonzero x with y/x fitting in 64
      bits gives an exact amplitude arrow; the first such sample wins
      (``nonzero`` lists first occurrences, in order);
    * otherwise the nearest earlier value with an integral residual gives a
      translation, the smallest index on ties (a linear scan, reached only
      when y = 0 has no earlier 0 or no ratio fits).

    The affine detector never wins: for a unit target it is the translation
    from the same source at a lower priority.  Every stride is equivalent to
    stride 1 on unit targets, and the detectors' tie-break keeps stride 1.
    """
    n = len(samples)
    first = {}    # value -> index of its first occurrence
    nonzero = []  # (index, value) of each first occurrence of a nonzero value
    records: List[ArrowRecord] = []
    for k, y in enumerate(samples):
        if k:
            records.append(_detected_record(samples, k, y, first, nonzero,
                                            origin))
        if y not in first:
            first[y] = k
            if y:
                nonzero.append((k, y))
    return EncodedSignal((n,), origin, "detected",
                         (samples[0],), tuple(records))


def _detected_record(samples, k, y, first, nonzero, origin) -> ArrowRecord:
    """The record of sample ``k``; see _encode_detected."""
    i = first.get(y)
    if i is not None:
        return ArrowRecord(i - k, 1, 1, 1, (0,))
    if y:
        for i, x in nonzero:
            c = Fraction(y, x)
            if _fits_i64(c.numerator) and _fits_i64(c.denominator):
                return ArrowRecord(i - k, 1, c.numerator, c.denominator, (0,))
    best = None  # (squared residual, index, residual)
    for i in range(k):
        d = y - samples[i]
        if d.denominator == 1 and (best is None or d * d < best[0]):
            best = (d * d, i, int(d))
    if best is None:
        raise ValueError(f"detected policy: no earlier sample leaves an "
                         f"integral residual for {y} at position {origin + k}")
    return ArrowRecord(best[1] - k, 1, 1, 1, (best[2],))


def _check_predecessor_record(rec: ArrowRecord, flat: int, width: int) -> bool:
    """Whether ``rec``, starting at flat position ``flat``, is a predecessor run.

    A record starting in column 0 (of a row after the first, since the seed
    holds position 0) is one up delta; any other record is a left run that
    ends inside its row.  A 1-D signal is one row, so its records are left
    runs.
    """
    n = len(rec.delta)
    if rec.stride != 1 or rec.amp_num != rec.amp_den or n == 0:
        return False
    col = flat % width
    if col == 0:
        return rec.shift == -width and n == 1
    return rec.shift == -1 and col + n <= width


def _exact(v) -> Number:
    """A decoded sample as decode keeps it: an integral Fraction as an int."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    return _check_samples((v,))[0]  # TypeError unless an int


def decode(enc: EncodedSignal):
    """Exact inverse of encode: a list (1-D) or list of rows (2-D).

    Raises CorruptContainer for structurally impossible records (count
    mismatch, a record the container reader would refuse -- zero stride,
    zero or undefined amplitude -- or a reference to a not-yet-decoded
    position) and PolicyMismatch when a predecessor-policy container holds
    anything but the fixed predecessor arrows.  Samples come back as ints,
    or Fractions where not integral; any other value raises TypeError.
    """
    if enc.dimension not in (1, 2):
        raise CorruptContainer(f"shape {enc.shape} is neither 1-D nor 2-D")
    n = enc.total_samples
    width = enc.shape[-1]
    total_decl = len(enc.seed) + sum(len(r.delta) for r in enc.records)
    if total_decl != n:
        raise CorruptContainer(f"container declares {n} samples but "
                               f"records cover {total_decl}")
    if not enc.seed:
        raise CorruptContainer("container holds no seed sample")
    check_pred = enc.policy == "predecessor"
    origin = enc.origin
    vals: List[Number] = [v if type(v) is int else _exact(v) for v in enc.seed]
    fill = len(vals)
    for rec in enc.records:
        if check_pred and not _check_predecessor_record(rec, fill, width):
            raise PolicyMismatch("predecessor-policy container holds a "
                                 "non-predecessor record")
        num, den, s, t = rec.amp_num, rec.amp_den, rec.stride, rec.shift
        fault = _record_fault(s, num, den)
        if fault:
            raise CorruptContainer(fault)
        # an integral amplitude stays an int, so int samples stay ints
        c = num // den if num % den == 0 else Fraction(num, den)
        if c == 1 and s == 1 and t == -1:  # hot path: plain DPCM along the run
            vals.extend(islice(accumulate(rec.delta, initial=vals[-1]),
                               1, None))
            # a sum keeps the type of any Fraction or float that entered it
            if not _is_int(vals[-1]):
                vals[fill:] = map(_exact, vals[fill:])
            fill = len(vals)
            continue
        for d in rec.delta:
            src = s * (origin + fill) + t - origin
            if not 0 <= src < fill:
                raise CorruptContainer(
                    f"record references undecoded position {src + origin}")
            v = c * vals[src] + d
            vals.append(v if type(v) is int else _exact(v))
            fill += 1
    if enc.dimension == 1:
        return vals
    return [vals[r * width:(r + 1) * width] for r in range(enc.shape[0])]


class Metrics(NamedTuple):
    """Sparsity/entropy summary of an encoding relative to its raw input."""
    nonzero_delta_fraction: Fraction
    raw_entropy: float     # zeroth-order, bits per sample
    delta_entropy: float   # zeroth-order, bits per delta
    encoded_size: int      # container bytes


def zeroth_order_entropy(stream) -> float:
    """Histogram entropy in bits per symbol; 0.0 for an empty stream."""
    counts = Counter(stream)
    n = sum(counts.values())
    if n == 0:
        return 0.0
    total = 0.0
    for c in counts.values():
        p = c / n
        total -= p * log2(p)
    return total


def metrics(raw, enc: EncodedSignal) -> Metrics:
    """Compare the raw sample stream with the encoded delta stream; the raw
    payload must have the container's shape.

    ``encoded_size`` is the sum of the byte fields of ``container_layout``;
    the container is not serialised.  An encoding the container writer would
    refuse (rational samples, for example) gets that size too, where the
    writer would raise."""
    if _is_image(raw):
        shape = (len(raw), len(raw[0]))
        if any(len(row) != shape[1] for row in raw):
            raise ValueError("ragged image rows")
        flat = [v for row in raw for v in row]
    else:
        flat = list(raw)
        shape = (len(flat),)
    if shape != enc.shape:
        raise ValueError(f"raw input has shape {shape} but the container "
                         f"has shape {enc.shape}")
    deltas = [d for rec in enc.records for d in rec.delta]
    nz = sum(1 for d in deltas if d != 0)
    frac = Fraction(nz, len(deltas)) if deltas else Fraction(0)
    layout = container_layout(enc)
    return Metrics(frac,
                   zeroth_order_entropy(flat),
                   zeroth_order_entropy(deltas),
                   layout.header_bytes + layout.arrow_param_bytes
                   + layout.residual_bytes)
