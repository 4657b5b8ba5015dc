"""Segments of integer-grid signals and the structure arrows between them.

A segment is a half-open integer interval [start, end) together with one
exact sample per grid position.  An arrow from segment f to segment g says
"g is (approximately) an amplitude-scaled resampling of f" and carries:

* the lookup map ``sigma(j) = S*j + T`` giving, for each target position j,
  the source position whose sample is read (S is a nonzero integer stride,
  so prediction is total and integer-exact at every target position; the
  forward resampling map is the rational inverse i -> (i - T)/S on the used
  source subgrid);
* an amplitude factor c (a nonzero rational); and
* the residual ``delta`` = observed target minus prediction, one exact value
  per target position.

With |S| = 1 the arrow is a plain (possibly reversed) translation; |S| >= 2
reads every |S|-th source sample, so the target is shorter than the source
("integer-stride subsample").  The interval's length measure is carried with
the factor 1/|S|.

Detectors search for arrows with small residual.  They label their output as
an observed isomorphism between the given segments: a statement about these
samples, never about how the signal was generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from itertools import repeat
from operator import floordiv, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .container import (_AFFINE, _AMP_AFFINE, _TRANSLATION, KIND_NAMES,
                        _check_samples, arrow_kind)
from .errors import (INFINITY, BadBreakpoints, EmptySignal, IntervalMismatch,
                     Number, _as_rational, _as_weight, _is_int)


class Segment:
    """Samples over a half-open integer interval [start, end)."""

    __slots__ = ("start", "end", "samples")

    def __init__(self, start: int, end: int, samples: Sequence[Number]):
        if not (_is_int(start) and _is_int(end)):
            raise TypeError("interval endpoints must be ints")
        samples = _check_samples(tuple(samples))
        if not samples:
            raise EmptySignal("a segment needs at least one sample")
        if end - start != len(samples):
            raise ValueError("interval length must equal the sample count")
        self.start = start
        self.end = end
        self.samples = samples

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def interval(self) -> Tuple[int, int]:
        return (self.start, self.end)

    def sample_at(self, position: int) -> Number:
        if not self.start <= position < self.end:
            raise IndexError(f"position {position} outside [{self.start}, {self.end})")
        return self.samples[position - self.start]

    # an int and the equal Fraction compare and hash alike, so the sample
    # tuples are compared and hashed as they are
    def __eq__(self, other):
        return (isinstance(other, Segment)
                and self.interval == other.interval
                and self.samples == other.samples)

    def __hash__(self):
        return hash((self.start, self.end, self.samples))

    def __repr__(self):
        return f"Segment([{self.start},{self.end}), {list(self.samples)})"


def segment_signal(samples: Sequence[Number], origin: int,
                   breakpoints: Sequence[int]) -> List[Segment]:
    """Cut a signal starting at ``origin`` into consecutive segments.

    ``breakpoints`` are absolute cut positions, each strictly inside the
    signal's interval, strictly increasing.  Anything else raises
    BadBreakpoints; an empty signal raises EmptySignal, and an ``origin``
    that is not an int raises TypeError.
    """
    if not _is_int(origin):
        raise TypeError(f"origin must be an int, got {origin!r}")
    samples = tuple(samples)
    if not samples:
        raise EmptySignal("cannot segment an empty signal")
    end = origin + len(samples)
    bps = list(breakpoints)
    for b in bps:
        if not _is_int(b):
            raise BadBreakpoints(f"breakpoint {b!r} is not an int")
        if not origin < b < end:
            raise BadBreakpoints(f"breakpoint {b} outside ({origin}, {end})")
    if any(y <= x for x, y in zip(bps, bps[1:])):
        raise BadBreakpoints("breakpoints must be strictly increasing")
    cuts = [origin] + bps + [end]
    return [Segment(a, b, samples[a - origin:b - origin])
            for a, b in zip(cuts, cuts[1:])]


def _shift_range(f: Segment, stride: int, t_start: int, m: int) -> Tuple[int, int]:
    """Bounds (lo, hi) of the shifts T whose lookups S*j + T, for the m
    target positions from ``t_start``, all fall inside f (none if lo > hi)."""
    if stride > 0:
        return (f.start - stride * t_start,
                f.end - 1 - stride * (t_start + m - 1))
    return (f.start - stride * (t_start + m - 1),
            f.end - 1 - stride * t_start)


def _window(fv: Tuple, stride: int, a: int, m: int) -> Tuple:
    """The m entries of ``fv`` read from index ``a`` on, ``stride`` apart."""
    stop = a + stride * m
    return fv[a:stop if stop >= 0 else None:stride]


class SegmentArrow:
    """A structure arrow between two segments; see the module docstring.

    The residual convention: ``target.samples[j] == c * source(S*j+T) +
    delta[j]`` at every absolute target position j (delta indexed from
    target.start).
    """

    __slots__ = ("source", "target", "stride", "shift", "amp", "delta")

    def __init__(self, source: Segment, target: Segment, stride: int,
                 shift: int, amp, delta: Sequence[Number]):
        if not _is_int(stride) or stride == 0:
            raise ValueError("stride must be a nonzero int")
        if not _is_int(shift):
            raise ValueError("shift must be an int")
        if type(amp) is not Fraction:
            amp = _as_rational(amp, "amplitude factors")
        if amp == 0:
            raise ValueError("amplitude factor must be nonzero")
        delta = _check_samples(tuple(delta))
        if len(delta) != target.length:
            raise ValueError("need one residual value per target position")
        lo, hi = _shift_range(source, stride, target.start, target.length)
        if not lo <= shift <= hi:
            raise IntervalMismatch(
                f"lookup j->{stride}*j{shift:+d} on [{target.start}, "
                f"{target.end}) leaves the source interval "
                f"[{source.start}, {source.end})")
        self.source = source
        self.target = target
        self.stride = stride
        self.shift = shift
        self.amp = amp
        self.delta = delta

    # -- derived views -------------------------------------------------------

    def lookup(self, j: int) -> int:
        """Source position read for target position ``j``."""
        return self.stride * j + self.shift

    @property
    def kind(self) -> str:
        return KIND_NAMES[arrow_kind(self.stride, self.amp)]

    @property
    def is_exact(self) -> bool:
        return all(d == 0 for d in self.delta)

    @property
    def measure_factor(self) -> Fraction:
        """Length-measure ratio carried by the resampling: 1/|S|."""
        return Fraction(1, abs(self.stride))

    # -- action on segments ---------------------------------------------------

    def predict(self, f: Segment) -> Segment:
        """The transferred segment c * f(sigma(.)) over the target interval."""
        if f.interval != self.source.interval:
            raise IntervalMismatch("segment does not match the arrow's source interval")
        vals = _window(f.samples, self.stride,
                       self.lookup(self.target.start) - f.start,
                       self.target.length)
        if self.amp != 1:  # amplitude 1 keeps int samples
            vals = [self.amp * v for v in vals]
        return Segment(self.target.start, self.target.end, vals)

    def apply(self, f: Segment) -> Segment:
        """Prediction plus residual: reconstructs the observed target."""
        pred = self.predict(f)
        return Segment(pred.start, pred.end,
                       [v + d for v, d in zip(pred.samples, self.delta)])

    def __eq__(self, other):
        return (isinstance(other, SegmentArrow)
                and self.source == other.source
                and self.target == other.target
                and self.stride == other.stride
                and self.shift == other.shift
                and self.amp == other.amp
                and self.delta == other.delta)

    def __hash__(self):
        return hash((self.source, self.target, self.stride, self.shift,
                     self.amp, self.delta))

    def __repr__(self):
        return (f"SegmentArrow({self.kind}, lookup j->{self.stride}*j"
                f"{self.shift:+d}, amp={self.amp}, "
                f"|delta|^2={sum(d * d for d in self.delta)})")


def delta(observed: Segment, predicted: Segment) -> Tuple[Number, ...]:
    """Residual vector observed - predicted (intervals must agree)."""
    if observed.interval != predicted.interval:
        raise IntervalMismatch("residual needs segments on the same interval")
    return tuple(a - b for a, b in zip(observed.samples, predicted.samples))


def identity_arrow(seg: Segment) -> SegmentArrow:
    return SegmentArrow(seg, seg, 1, 0, 1, (0,) * seg.length)


def compose_arrows(b: SegmentArrow, a: SegmentArrow) -> SegmentArrow:
    """The composite ``b after a``.

    Lookups compose contravariantly (the composite reads source positions
    through both strides), amplitudes multiply, and the composite residual is
    exact: delta(k) = c_b * delta_a(sigma_b(k)) + delta_b(k).
    """
    if a.target != b.source:
        raise IntervalMismatch("arrows are not composable: target/source differ")
    stride = a.stride * b.stride
    shift = a.stride * b.shift + a.shift
    amp = a.amp * b.amp
    da = _window(a.delta, b.stride, b.lookup(b.target.start) - a.target.start,
                 b.target.length)
    out = [b.amp * x + y for x, y in zip(da, b.delta)]
    return SegmentArrow(a.source, b.target, stride, shift, amp, out)


def _residual_sq(vals) -> Fraction:
    """The exact sum of squares of ints and Fractions, summed in ints over
    their common denominator."""
    d = lcm(*(v.denominator for v in vals))
    return Fraction(sum((v.numerator * (d // v.denominator)) ** 2
                        for v in vals), d * d)


def _tol_sq(tol) -> Optional[Fraction]:
    """The square of a tolerance that ``_as_weight`` accepts; None means
    'infinite tolerance'."""
    tol = _as_weight(tol, "tolerances")
    return None if tol is INFINITY else tol * tol


def _check_strides(strides) -> Tuple[int, ...]:
    """The distinct strides in their given order; each a nonzero int."""
    out: List[int] = []
    for s in strides:
        if not _is_int(s) or s == 0:
            raise ValueError("strides must be nonzero ints")
        if s not in out:
            out.append(s)
    return tuple(out)


def _stride_candidates(f: Segment, g: Segment, strides) -> List[Tuple[int, int]]:
    """All (S, T) lookup maps sending g's interval into f's interval, for
    strides already passed through _check_strides."""
    out = []
    for s in strides:
        lo, hi = _shift_range(f, s, g.start, g.length)
        out.extend((s, t) for t in range(lo, hi + 1))
    return out


def _scaled(segments: Sequence[Segment], tol):
    """The samples of each segment times D, the lcm of every sample
    denominator, so all of them are ints; and tol**2 * D**2, the squared
    tolerance in those units (None for an infinite tolerance)."""
    limit = _tol_sq(tol)
    d = lcm(*{v.denominator for seg in segments for v in seg.samples})
    if limit is not None:
        limit *= d * d
    return [tuple(int(v * d) for v in seg.samples) for seg in segments], limit


def _sq_sum(diffs, cap: Optional[int]) -> Optional[int]:
    """Sum of the squares of ``diffs``, or None as soon as a partial sum is
    strictly greater than ``cap`` (no cap when None)."""
    acc = 0
    for d in diffs:
        acc += d * d
        if cap is not None and acc > cap:
            return None
    return acc


def _built(f: Segment, g: Segment, stride: int, shift: int, c,
           exact: bool = False):
    """The arrow f -> g with lookup S*j + T and amplitude c, its residual
    taken from the unscaled samples, and the residual's exact squared norm.

    ``exact`` says that the residual is 0, as for an index hit.  Its values
    then come without a multiply, each a zero of the type y - c*x has:
    Fraction(0) for a Fraction c, else y - x (c is then the int 1)."""
    u = _window(f.samples, stride, stride * g.start + shift - f.start,
                g.length)
    if not exact:
        dvals = [y - c * x for y, x in zip(g.samples, u)]
        return _residual_sq(dvals), SegmentArrow(f, g, stride, shift, c, dvals)
    dvals = (repeat(Fraction(0), g.length) if type(c) is Fraction
             else map(sub, g.samples, u))
    return Fraction(0), SegmentArrow(f, g, stride, shift, c, dvals)


def _best_arrow(g: Segment, gv: Tuple[int, ...], sources,
                ranks: Sequence[int], strides: Tuple[int, ...],
                limit: Optional[Fraction]):
    """The best arrow into g from any of ``sources``, or None, for a target
    with no exact arrow from them (_found asks only then, and only at
    tol > 0).

    ``sources`` holds (index, segment, scaled samples) triples and ``ranks``
    the detector ranks to run (0 translation, 1 affine, 2 amplitude-affine).
    Samples come scaled to ints by a common factor D (see _scaled), and
    ``limit`` is tol**2 * D**2 (None for an infinite tolerance).

    Every candidate (detector, S, T, c) is scored by its exact squared
    residual, summed in ints: sum (q*g - p*u)**2 / q**2 for c = p/q, with u
    the looked-up source samples (p = q = 1 without an amplitude).  The
    winner is the least (residual, rank, source index, |S|, |T|, T,
    candidate index), which is the detectors' own tie-break followed by the
    report's.  A candidate is abandoned once its partial sum is strictly
    greater than the bound min(limit, best so far), so candidates equal to
    the best stay in the tie-break.  When translation runs on an
    equal-length pair, the affine detector skips its stride-1 candidate: that
    is the translation candidate again, at a lower priority, so it can never
    win.  Only the winner becomes a SegmentArrow.

    Returns (residual_sq, rank, source index, arrow), residual unscaled.
    """
    m = g.length
    best = None  # the tie-break key of the best candidate so far
    win = None   # (source, S, T, p, q) of that candidate
    bound = limit
    translating = _TRANSLATION in ranks
    for index, f, fv in sources:
        lookups = None  # the affine detectors' candidates, shared by both
        twin = (1, f.start - g.start) if translating and f.length == m else None
        for rank in ranks:
            if rank == _TRANSLATION:
                if twin is None:
                    continue
                cands = (twin,)
            else:
                if lookups is None:
                    lookups = _stride_candidates(f, g, strides)
                cands = lookups
            skip = twin if rank == _AFFINE else None
            for idx, cand in enumerate(cands):
                if cand == skip:
                    continue
                s, t = cand
                u = _window(fv, s, s * g.start + t - f.start, m)
                if rank == _AMP_AFFINE:
                    uu = sum(map(mul, u, u))
                    ug = sum(map(mul, u, gv))
                    if uu == 0 or ug == 0:
                        continue
                    k = gcd(ug, uu)
                    p, q = ug // k, uu // k
                    diffs = map(sub, map(q.__mul__, gv), map(p.__mul__, u))
                else:
                    p = q = 1
                    diffs = map(sub, gv, u)
                cap = (None if bound is None
                       else bound.numerator * q * q // bound.denominator)
                acc = _sq_sum(diffs, cap)
                if acc is None:
                    continue
                rsq = acc if q == 1 else Fraction(acc, q * q)
                key = (rsq, rank, index, abs(s), abs(t), t, idx)
                if best is None or key < best:
                    best, win = key, (f, s, t, p, q)
                    bound = rsq
    if best is None:
        return None
    f, s, t, p, q = win
    c = Fraction(p, q) if best[1] == _AMP_AFFINE else 1
    rsq, arrow = _built(f, g, s, t, c)
    return rsq, best[1], best[2], arrow


def _primitive(v: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    """v over the gcd of its entries, signed so that its first nonzero entry
    is positive: two vectors share it exactly when one is a nonzero rational
    multiple of the other.  None for an all-zero v, which the
    amplitude-affine detector skips."""
    lead = next(filter(None, v), 0)
    if not lead:
        return None
    k = gcd(*v) if lead > 0 else -gcd(*v)
    return v if k == 1 else tuple(map(floordiv, v, repeat(k)))


# what a window is filed under for each rank the window index serves: an
# exact affine arrow reads the target's samples, an exact amplitude-affine
# one a nonzero multiple of them
_INDEX_KEYS = {_AFFINE: lambda v: v, _AMP_AFFINE: _primitive}


def _indexed_hit(table, key, keyfn, segments, scaled, g, strides):
    """The winning window filed under ``key``, as (source index, S, T, the
    window), or None.  Hits come in order of source index, so the first
    source with a hit whose own key is ``key`` is the least; among that
    source's hits the least (|S|, |T|, T, stride position) wins."""
    m = g.length
    pick = None
    for src, si, a in table.get(hash(key), ()):
        if pick is not None and src != pick[0]:
            break
        s = strides[si]
        window = _window(scaled[src], s, a, m)
        if keyfn(window) != key:  # a hash collision
            continue
        t = segments[src].start + a - s * g.start
        cand = (src, abs(s), abs(t), t, si, window)
        if pick is None or cand[:5] < pick[:5]:
            pick = cand
    return None if pick is None else (pick[0], strides[pick[4]], pick[3],
                                      pick[5])


def _exact_arrows(segments: Sequence[Segment], scaled, ranks: Sequence[int],
                  strides: Tuple[int, ...]):
    """For each segment after the first, in order, the best exact arrow into
    it from an earlier segment, found by lookups rather than a scan of every
    earlier segment.

    Translation looks the target's samples up in a map from samples to the
    least index that has them.  For the other ranks, every window
    fv[a : a + S*m : S] of a segment, for each stride S and each length m
    of a later target, is filed under the hash of its key (_INDEX_KEYS) as
    (segment index, stride position, a); a target looks up its own key and
    checks each hit's key, so a hash collision costs a comparison and never
    a wrong arrow.  Every exact arrow has residual 0, so the report's
    ranking reduces to the first rank with a hit, then _indexed_hit's
    tie-break.  A segment is filed only after its own lookup, so every
    source is an earlier segment.  Each window is stored as three ints, not
    as its samples.

    Yields (residual_sq, rank, source index, arrow) or None per target.
    """
    last = {seg.length: i for i, seg in enumerate(segments) if i}
    keyed = [(r, _INDEX_KEYS[r]) for r in ranks if r != _TRANSLATION]
    tables = {(r, m): {} for r, _ in keyed for m in last}
    firsts: Dict[Tuple[int, ...], int] = {}
    for i, (g, gv) in enumerate(zip(segments, scaled)):
        if i:
            hit = None
            for rank in ranks:
                if rank == _TRANSLATION:
                    src = firsts.get(gv)
                    if src is not None:
                        hit = (src, 1, segments[src].start - g.start, gv)
                else:
                    keyfn = _INDEX_KEYS[rank]
                    key = keyfn(gv)
                    if key is not None:
                        hit = _indexed_hit(tables[rank, g.length], key, keyfn,
                                           segments, scaled, g, strides)
                if hit is not None:
                    break
            if hit is None:
                yield None
            else:
                src, s, t, window = hit
                c = 1
                if rank == _AMP_AFFINE:  # the ratio of the first nonzeros
                    c = Fraction(next(filter(None, gv)),
                                 next(filter(None, window)))
                rsq, arrow = _built(segments[src], g, s, t, c, exact=True)
                yield rsq, rank, src, arrow
        firsts.setdefault(gv, i)
        for m, last_target in last.items():
            if last_target <= i:
                continue
            for si, s in enumerate(strides):
                reach = s * (m - 1)
                for a in range(max(0, -reach), len(gv) - max(0, reach)):
                    window = _window(gv, s, a, m)
                    for rank, keyfn in keyed:
                        key = keyfn(window)
                        if key is not None:
                            tables[rank, m].setdefault(hash(key), []).append(
                                (i, si, a))


def _found(segments: Sequence[Segment], ranks: Sequence[int],
           strides: Tuple[int, ...], tol):
    """For each segment after the first, in order, the best arrow into it
    from an earlier segment: (residual_sq, rank, source index, arrow), or
    None when none lands within ``tol``.

    Exact arrows come from the index (_exact_arrows) at every tolerance.
    Only a target with no exact arrow, and only at tol > 0, scans the
    earlier segments (_best_arrow).
    """
    scaled, limit = _scaled(segments, tol)
    exact = _exact_arrows(segments, scaled, ranks, strides)
    for i, best in enumerate(exact, 1):
        if best is None and limit != 0:
            best = _best_arrow(segments[i], scaled[i],
                               zip(range(i), segments, scaled), ranks,
                               strides, limit)
        yield best


def _detect(f: Segment, g: Segment, rank: int, strides,
            tol) -> Optional[SegmentArrow]:
    """One detector on one pair of segments: the report on [f, g]."""
    best = next(_found((f, g), (rank,), _check_strides(strides), tol))
    return None if best is None else best[3]


def detect_translation(f: Segment, g: Segment, tol=0) -> Optional[SegmentArrow]:
    """Look for g == f shifted (amplitude 1, stride 1), residual within tol.

    Equal lengths force the shift, so the only candidate is checked; returns
    the arrow (with its residual recorded) or None.  The result describes an
    observed isomorphism of these two segments only.
    """
    if f.length != g.length:
        _tol_sq(tol)  # a bad tolerance is refused all the same
        return None
    return _detect(f, g, _TRANSLATION, (), tol)


def detect_affine(f: Segment, g: Segment, strides=(-2, -1, 1, 2),
                  tol=0) -> Optional[SegmentArrow]:
    """Search integer-stride resamplings of f matching g with amplitude 1.

    Every lookup map sigma(j) = S*j + T with S in ``strides`` that keeps all
    target positions inside f is scored by exact squared residual norm.  Ties
    break toward smaller |S|, then smaller |T|, then smaller T.  With stride
    1 and equal lengths this reduces to detect_translation.
    """
    return _detect(f, g, _AFFINE, strides, tol)


def detect_amp_affine(f: Segment, g: Segment, strides=(-2, -1, 1, 2),
                      tol=0) -> Optional[SegmentArrow]:
    """Like detect_affine but also fits a nonzero rational amplitude.

    For each candidate lookup the amplitude is the exact least-squares ratio
    <u, g>/<u, u> where u is the looked-up source vector; candidates with
    u identically zero, or a zero fitted amplitude, are discarded (an
    amplitude map must be invertible).  When g is an exact multiple of a
    resampling of f the fitted ratio is that exact multiple.  Tie-break as
    in detect_affine.
    """
    return _detect(f, g, _AMP_AFFINE, strides, tol)


# ---------------------------------------------------------------- reports

@dataclass(frozen=True)
class RedundancyEntry:
    target_index: int
    source_index: Optional[int]
    detector: Optional[str]
    residual_sq: Optional[Fraction]
    arrow: Optional[SegmentArrow]

    @property
    def redundant(self) -> bool:
        return self.arrow is not None


@dataclass(frozen=True)
class RedundancyReport:
    entries: Tuple[RedundancyEntry, ...]
    tol: object

    @property
    def redundant_count(self) -> int:
        return sum(e.redundant for e in self.entries)

    @property
    def segment_count(self) -> int:
        return len(self.entries) + 1


def redundancy_report(segments: Sequence[Segment], tol=0,
                      strides=(-2, -1, 1, 2),
                      detectors=KIND_NAMES) -> RedundancyReport:
    """For each segment after the first, the best observed isomorphism from
    any earlier segment, if one lands within tolerance.

    Candidates are ranked by exact squared residual, then detector priority
    (translation, affine, amplitude-affine), then source index, then the
    detector's own tie-break (least |S|, then |T|, then T, then the stride's
    position in ``strides``).  Entries with no in-tolerance candidate are
    reported as not redundant.  An empty list of segments raises
    EmptySignal; bad strides or detector names raise ValueError, whichever
    detectors are chosen.  ``tol`` is a nonnegative int or Fraction, or
    ``float('inf')``, as a weight is (``errors._as_weight``).

    Exact arrows come from lookups in an index of the earlier segments
    (_exact_arrows) at every tolerance, at a cost that grows with the number
    of segments, not its square.  With ``tol > 0``, only a target without an
    exact arrow scans the earlier segments (_best_arrow), with early
    abandoning: a candidate's residual is summed in exact ints and dropped
    as soon as it exceeds the tolerance or the best candidate so far.  Both
    find the winner that scoring every candidate finds, and only the winner
    is built as an arrow.
    """
    if not segments:
        raise EmptySignal("a redundancy report needs at least one segment")
    for d in detectors:
        if d not in KIND_NAMES:
            raise ValueError(f"unknown detector {d!r}")
    ranks = [r for r, name in enumerate(KIND_NAMES) if name in detectors]
    strides = _check_strides(strides)
    entries = []
    for tgt_i, best in enumerate(_found(segments, ranks, strides, tol), 1):
        if best is None:
            entries.append(RedundancyEntry(tgt_i, None, None, None, None))
        else:
            rsq, rank, src_i, arr = best
            entries.append(RedundancyEntry(tgt_i, src_i,
                                           KIND_NAMES[rank], rsq, arr))
    return RedundancyReport(tuple(entries), tol)


# ---------------------------------------------------------------- prototype

def _unit_translations(values: Sequence[Number],
                       start: int) -> List[SegmentArrow]:
    """The translation j -> j - 1 from each one-point segment of ``values``,
    laid out from ``start``, to the next, its residual their difference."""
    segs = [Segment(start + k, start + k + 1, (v,))
            for k, v in enumerate(values)]
    return [SegmentArrow(f, g, 1, -1, 1, (g.samples[0] - f.samples[0],))
            for f, g in zip(segs, segs[1:])]


def prototype_decomposition(samples: Sequence[Number], origin: int = 1):
    """Decompose a signal over unit segments by consecutive translations.

    Each position becomes a one-point segment; consecutive segments are
    related by the unit translation j -> j - 1, an arrow fixed by position
    and so built rather than searched for; the first-level residuals form
    delta segments, and consecutive delta segments are related the same way,
    giving second-level residuals.  Returns a dict with the seed sample, the
    arrows, both residual levels, and the reconstruction.
    """
    if not _is_int(origin):
        raise TypeError(f"origin must be an int, got {origin!r}")
    samples = _check_samples(tuple(samples))
    if not samples:
        raise EmptySignal("nothing to decompose")
    arrows = _unit_translations(samples, origin)
    first_deltas = tuple(arr.delta[0] for arr in arrows)
    second_deltas = tuple(arr.delta[0] for arr in
                          _unit_translations(first_deltas, origin + 1))

    rebuilt = [samples[0]]
    for arr in arrows:
        prev = Segment(arr.source.start, arr.source.end, (rebuilt[-1],))
        rebuilt.append(arr.apply(prev).samples[0])

    return {
        "origin": origin,
        "seed": samples[0],
        "arrows": arrows,
        "first_deltas": first_deltas,
        "second_deltas": second_deltas,
        "reconstruction": tuple(rebuilt),
        "exact": tuple(rebuilt) == samples,
    }
