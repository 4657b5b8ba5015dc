"""The indexed `detected` encoder, the exact arrow index behind
`redundancy_report` at tol = 0, and the early-abandoning detector ranking,
against the exhaustive searches they replaced.

The oracles below are the earlier implementations, kept here as references:
the detectors that score every candidate lookup in Fractions, the
redundancy-report loop that runs every detector on every earlier segment,
and the quadratic `detected` encoder that does the same over unit segments.
The new code must pick the same arrows (source, detector, residual, lookup,
amplitude and deltas) and write the same container bytes on seeded random
inputs.
"""

import random
from fractions import Fraction

import pytest

import sigrep.signal as signal_mod
from sigrep import (Segment, SegmentArrow, detect_affine, detect_amp_affine,
                    detect_translation, encode, redundancy_report,
                    segment_signal, write_container)
from sigrep.container import ArrowRecord, EncodedSignal

INF = float("inf")
ORDER = ("translation", "affine", "amp_affine")

# ---------------------------------------------------------------- oracles


def rsq_oracle(vals):
    return sum((Fraction(v) * v for v in vals), Fraction(0))


def tol_sq_oracle(tol):
    return None if tol == INF else Fraction(tol) ** 2


def candidates_oracle(f, g, strides):
    out, seen = [], set()
    m = g.length
    for s in strides:
        if s in seen:
            continue
        seen.add(s)
        if abs(s) * (m - 1) + 1 > f.length:
            continue
        if s > 0:
            lo, hi = f.start - s * g.start, f.end - 1 - s * (g.end - 1)
        else:
            lo, hi = f.start - s * (g.end - 1), f.end - 1 - s * g.start
        out.extend((s, t) for t in range(lo, hi + 1))
    return out


def translation_oracle(f, g, tol):
    if f.length != g.length:
        return None
    dvals = [gv - fv for gv, fv in zip(g.samples, f.samples)]
    limit = tol_sq_oracle(tol)
    if limit is not None and rsq_oracle(dvals) > limit:
        return None
    return SegmentArrow(f, g, 1, f.start - g.start, 1, dvals)


def lookup_oracle(f, g, strides, tol, fit_amp):
    """Every candidate scored in Fractions, best by (rsq, |S|, |T|, T, idx)."""
    limit = tol_sq_oracle(tol)
    best = None
    for idx, (s, t) in enumerate(candidates_oracle(f, g, strides)):
        u = [f.sample_at(s * j + t) for j in range(g.start, g.end)]
        c = 1
        if fit_amp:
            uu = sum(Fraction(x) * x for x in u)
            if uu == 0:
                continue
            c = sum(Fraction(x) * y for x, y in zip(u, g.samples)) / uu
            if c == 0:
                continue
            dvals = [y - c * x for y, x in zip(g.samples, u)]
        else:
            dvals = [y - x for y, x in zip(g.samples, u)]
        key = (rsq_oracle(dvals), abs(s), abs(t), t, idx)
        if best is None or key < best[0]:
            best = (key, (s, t, c, dvals))
    if best is None or (limit is not None and best[0][0] > limit):
        return None
    s, t, c, dvals = best[1]
    return SegmentArrow(f, g, s, t, c, dvals)


def detector_oracle(name, f, g, strides, tol):
    if name == "translation":
        return translation_oracle(f, g, tol)
    return lookup_oracle(f, g, strides, tol, name == "amp_affine")


def report_oracle(segments, tol, strides, detectors):
    """(source, detector, residual_sq, arrow) per target, or None."""
    out = []
    for ti in range(1, len(segments)):
        best = None
        for si in range(ti):
            for rank, name in enumerate(ORDER):
                if name not in detectors:
                    continue
                arr = detector_oracle(name, segments[si], segments[ti],
                                      strides, tol)
                if arr is None:
                    continue
                key = (rsq_oracle(arr.delta), rank, si)
                if best is None or key < best[:3]:
                    best = key + (arr,)
        out.append(None if best is None
                   else (best[2], ORDER[best[1]], best[0], best[3]))
    return out


def fits(v):
    return -(1 << 63) <= v < 1 << 63


def encode_detected_oracle(samples, origin):
    """The quadratic search; None where no candidate has an integral residual."""
    segs = [Segment(origin + k, origin + k + 1, (v,))
            for k, v in enumerate(samples)]
    records = []
    for k in range(1, len(samples)):
        best = None
        for i in range(k):
            for rank, name in enumerate(ORDER):
                arr = detector_oracle(name, segs[i], segs[k], (1,), INF)
                if arr is None or any(Fraction(d).denominator != 1
                                      for d in arr.delta):
                    continue
                if not (fits(arr.amp.numerator) and fits(arr.amp.denominator)):
                    continue
                key = (rsq_oracle(arr.delta), rank, i)
                if best is None or key < best[:3]:
                    best = key + (arr,)
        if best is None:
            return None
        arr = best[3]
        records.append(ArrowRecord(arr.shift, arr.stride, arr.amp.numerator,
                                   arr.amp.denominator,
                                   tuple(int(d) for d in arr.delta)))
    return EncodedSignal((len(samples),), origin, "detected",
                         (samples[0],), tuple(records))


# ---------------------------------------------------------------- inputs


def rand_sample(rng, fractions):
    v = rng.randint(-4, 4)
    if fractions and rng.random() < 0.3:
        return Fraction(v, rng.choice((2, 3, 4)))
    return v


def rand_signal(rng, n, fractions=False):
    """Small values, so repeats, zeros, negatives and ratios abound."""
    out = []
    for _ in range(n):
        if out and rng.random() < 0.3:
            out.append(rng.choice(out) * rng.choice((1, -1, 2, -3)))
        else:
            out.append(rand_sample(rng, fractions))
    return out


def huge_signal(rng, n):
    """Ints whose ratios overflow 64 bits, mixed with small ones and zeros."""
    pool = [0, 1, -1, 3, 1 << 64, -(1 << 65) + 7, (1 << 70) + 1, 1 << 63]
    return [rng.choice(pool) + rng.choice((0, 0, 1, -2)) for _ in range(n)]


def segmented(rng):
    """Segments of lengths 1..6 (the last one often shorter), built from
    copies, reversals, multiples and 2-strided subsamples of earlier ones."""
    segs = []
    start = rng.randint(-5, 5)
    for _ in range(rng.randint(2, 7)):
        m = rng.randint(1, 6)
        earlier = [s for s in segs if s.length >= m]
        if earlier and rng.random() < 0.6:
            src = list(rng.choice(earlier).samples)
            op = rng.choice(("copy", "reverse", "scale", "stride"))
            if op == "stride" and len(src) >= 2 * m - 1:
                a = rng.randint(0, len(src) - (2 * m - 1))
                vals = src[a:a + 2 * m - 1:2]
                vals = vals[::rng.choice((1, -1))]
            elif op == "reverse":
                vals = src[::-1][:m]
            elif op == "scale":
                c = Fraction(rng.choice((2, -1, -3)), rng.choice((1, 2)))
                vals = [c * v for v in src[:m]]
            else:
                vals = src[:m]
        else:
            vals = rand_signal(rng, m, fractions=rng.random() < 0.3)
        if rng.random() < 0.2:
            vals[rng.randrange(m)] += rng.choice((1, -1))
        segs.append(Segment(start, start + m, vals))
        start += m
    if rng.random() < 0.5:  # a shorter last segment, as segment_signal cuts
        last = segs[-1]
        cut = rng.randint(1, last.length)
        segs[-1] = Segment(last.start, last.start + cut, last.samples[:cut])
    return segs


def assert_same_arrow(got, want):
    assert got == want
    if want is None:
        return
    assert (got.stride, got.shift, got.amp) == (want.stride, want.shift, want.amp)
    assert list(map(type, got.delta)) == list(map(type, want.delta))


# ---------------------------------------------------------------- tests

TOLS = (0, 1, Fraction(3, 2), INF)
DETECTOR_SETS = (ORDER, ("translation",), ("affine",), ("amp_affine",),
                 ("translation", "amp_affine"), ("affine", "amp_affine"))
STRIDE_SETS = ((-2, -1, 1, 2), (1,), (2, -2), (-1, 2, -1))


def check_report(segs, tol, strides, detectors):
    """The report agrees with report_oracle entry for entry; returns it."""
    rep = redundancy_report(segs, tol=tol, strides=strides,
                            detectors=detectors)
    want = report_oracle(segs, tol, strides, detectors)
    assert len(rep.entries) == len(want)
    for e, w in zip(rep.entries, want):
        if w is None:
            assert (e.source_index, e.detector, e.residual_sq,
                    e.arrow) == (None, None, None, None)
            continue
        assert (e.source_index, e.detector, e.residual_sq) == w[:3]
        assert type(e.residual_sq) is Fraction
        assert_same_arrow(e.arrow, w[3])
    assert rep.redundant_count == sum(w is not None for w in want)
    return rep


@pytest.mark.parametrize("tol", TOLS, ids=str)
def test_report_matches_exhaustive_ranking(tol):
    rng = random.Random(f"report:{tol}")
    for _ in range(60):
        segs = segmented(rng)
        detectors = rng.choice(DETECTOR_SETS)
        check_report(segs, tol, rng.choice(STRIDE_SETS), detectors)


def test_report_on_cut_signals():
    """segment_signal's layout: equal lengths and a shorter tail."""
    rng = random.Random("cut")
    for _ in range(20):
        samples = rand_signal(rng, rng.randint(5, 16), fractions=rng.random() < 0.3)
        step = rng.randint(1, 4)
        segs = segment_signal(samples, 3, list(range(3 + step, 3 + len(samples), step)))
        for tol in TOLS:
            rep = redundancy_report(segs, tol=tol)
            want = report_oracle(segs, tol, (-2, -1, 1, 2), ORDER)
            got = [None if e.arrow is None else
                   (e.source_index, e.detector, e.residual_sq, e.arrow)
                   for e in rep.entries]
            assert got == want


# ---------------------------------------------------------------- tol = 0


def check_exact(segs):
    """check_report at tol = 0 under every detector and stride set."""
    for detectors in DETECTOR_SETS:
        for strides in STRIDE_SETS:
            check_report(segs, 0, strides, detectors)


def test_exact_index_on_zero_runs():
    segs = [Segment(0, 4, [0, 0, 0, 0]), Segment(4, 7, [0, 0, 0]),
            Segment(7, 11, [0, 0, 0, 0]), Segment(11, 15, [3, 0, 0, 0]),
            Segment(15, 19, [0, 0, 0, -6]), Segment(19, 22, [0, 0, 12]),
            Segment(22, 24, [0, 0])]
    check_exact(segs)
    # the amplitude detector skips an all-zero target and all-zero windows
    rep = redundancy_report(segs, tol=0, detectors=("amp_affine",))
    assert [e.redundant for e in rep.entries] == [False, False, False,
                                                 True, True, False]
    assert rep.entries[3].arrow.amp == -2
    assert rep.entries[4].arrow.amp == 4  # from segment 3, not -2 from 4
    rng = random.Random("zero runs")
    for _ in range(40):
        check_exact([Segment(s.start, s.end, [v if rng.random() < 0.4 else 0
                                              for v in s.samples])
                     for s in segmented(rng)])


@pytest.mark.parametrize("strides, stride", (((1, -1), 1), ((-1, 1), -1),
                                             ((-2, 1, 2, -1), 1)))
def test_exact_index_breaks_a_tie_of_plus_and_minus_stride_by_position(
        strides, stride):
    # at g.start = 0 the windows read from -2 forward and backward both
    # have T = -2; the stride named first in ``strides`` wins
    segs = [Segment(-3, 0, [5, 7, 5]), Segment(0, 1, [7])]
    rep = check_report(segs, 0, strides, ORDER)
    arrow = rep.entries[0].arrow
    assert (arrow.stride, arrow.shift) == (stride, -2)
    check_exact(segs)


def test_exact_index_breaks_ties_by_abs_shift_then_shift():
    # T = -1 (S = 1) and T = 1 (S = -1) tie on |S| and |T|; T = -1 wins
    segs = [Segment(-2, 3, [4, 0, 0, 0, 4]), Segment(3, 4, [4])]
    rep = check_report(segs, 0, (-1, 1), ORDER)
    arrow = rep.entries[0].arrow
    assert (arrow.stride, arrow.shift) == (1, -1)
    check_exact(segs)
    # the nearer of two hits wins: T = -3 over T = -5
    segs = [Segment(-5, 0, [5, 1, 5, 0, 2]), Segment(0, 1, [5])]
    assert check_report(segs, 0, (1,), ORDER).entries[0].arrow.shift == -3


def test_exact_index_with_duplicate_strides():
    segs = [Segment(0, 6, [1, 2, 3, 4, 5, 6]), Segment(6, 9, [1, 3, 5]),
            Segment(9, 12, [3, 2, 1]), Segment(12, 15, [2, 6, 10]),
            Segment(15, 18, [5, 3, 1])]
    rep = check_report(segs, 0, (-1, 2, -1), ORDER)
    # no stride -2, so 5, 3, 1 is read backwards from segment 1, not 0
    assert [(e.source_index, e.detector, e.arrow.stride, e.arrow.amp)
            for e in rep.entries] == [(0, "affine", 2, 1), (0, "affine", -1, 1),
                                      (0, "amp_affine", 2, 2),
                                      (1, "affine", -1, 1)]
    check_exact(segs)
    rng = random.Random("duplicates")
    for _ in range(30):
        check_report(segmented(rng), 0, (-1, 2, -1), rng.choice(DETECTOR_SETS))


def test_exact_index_on_fraction_samples():
    h, q, t = Fraction(1, 2), Fraction(3, 4), Fraction(-1, 3)
    segs = [Segment(0, 3, [h, q, t]), Segment(3, 6, [1, 2 * q, 2 * t]),
            Segment(6, 9, [t, q, h]), Segment(9, 12, [h, q, t]),
            Segment(12, 14, [q, -t]), Segment(14, 16, [Fraction(1, 5), 0])]
    rep = check_report(segs, 0, (-2, -1, 1, 2), ORDER)
    assert [e.detector for e in rep.entries] == [
        "amp_affine", "affine", "translation", None, None]
    assert rep.entries[0].arrow.amp == 2
    check_exact(segs)
    rng = random.Random("fractions")
    for _ in range(30):
        segs = segmented(rng)
        check_exact([Segment(s.start, s.end, [Fraction(v) / rng.choice((1, 3))
                                              for v in s.samples])
                     for s in segs])


def test_exact_index_labels_amplitude_one_amp_affine():
    segs = [Segment(0, 3, [1, 2, 3]), Segment(3, 6, [1, 2, 3]),
            Segment(6, 9, [3, 2, 1])]
    rep = check_report(segs, 0, (-2, -1, 1, 2), ("amp_affine",))
    for e in rep.entries:
        assert e.detector == "amp_affine" and e.arrow.amp == 1
        assert all(type(d) is Fraction for d in e.arrow.delta)
    assert [e.arrow.kind for e in rep.entries] == ["translation", "affine"]


def test_exact_index_with_a_shorter_last_segment():
    segs = segment_signal([1, 2, 3, 4, 4, 3, 2, 1, 6, 2], 5, [9, 13])
    rep = check_report(segs, 0, (-2, -1, 1, 2), ORDER)
    assert [(e.source_index, e.detector, e.arrow.stride, e.arrow.amp)
            for e in rep.entries] == [(0, "affine", -1, 1),
                                      (0, "amp_affine", -2, 2)]
    check_exact(segs)
    rng = random.Random("tails")
    for _ in range(30):
        samples = rand_signal(rng, rng.randint(6, 20))
        step = rng.randint(2, 5)
        check_exact(segment_signal(samples, 0, list(range(step, len(samples),
                                                          step))))


def test_exact_index_survives_hash_collisions(monkeypatch):
    # every key filed under one hash: each hit is checked against its key
    monkeypatch.setattr(signal_mod, "hash", lambda key: 0, raising=False)
    rng = random.Random("collisions")
    for _ in range(40):
        check_report(segmented(rng), 0, rng.choice(STRIDE_SETS),
                     rng.choice(DETECTOR_SETS))


def test_tol_zero_never_scans_and_tol_one_does(monkeypatch):
    """The scan runs once for each target with no exact arrow, and only at
    tol > 0; exact arrows come from the index at every tolerance."""
    scanned = []
    scan = signal_mod._best_arrow

    def counted(g, *args):
        scanned.append(g)
        return scan(g, *args)

    monkeypatch.setattr(signal_mod, "_best_arrow", counted)
    exact = segment_signal([1, 2, 3, 3, 2, 1, 2, 4, 6], 0, [3, 6])
    mixed = segment_signal([1, 2, 3, 3, 2, 1, 5, 0, 9], 0, [3, 6])
    f, g = mixed[0], mixed[2]
    with pytest.raises(TypeError, match="^finite float tolerances"):
        redundancy_report(exact, tol=0.0)  # a tolerance is exact too
    for tol in (0, Fraction(0)):
        assert redundancy_report(exact, tol=tol).redundant_count == 2
        assert redundancy_report(mixed, tol=tol).redundant_count == 1
        for detector in (detect_affine, detect_amp_affine):
            assert detector(exact[0], exact[1], tol=tol) is not None
            assert detector(f, g, tol=tol) is None
        assert detect_translation(exact[0], exact[0], tol) is not None
        assert detect_translation(f, g, tol) is None
    assert scanned == []
    # every target exact: no scan at tol = 1 either
    assert redundancy_report(exact, tol=1).redundant_count == 2
    assert detect_affine(exact[0], exact[1], tol=1) is not None
    assert detect_translation(exact[0], exact[0], 1) is not None
    assert scanned == []
    # [5, 0, 9] alone has no exact arrow: one scan, for it alone
    assert redundancy_report(mixed, tol=1).redundant_count == 1
    assert scanned == [g]
    for detector in (detect_affine, detect_amp_affine):
        assert detector(f, g, tol=1) is None
    assert detect_translation(f, g, 1) is None
    assert scanned == [g] * 4


def test_exact_index_scales_to_long_signals():
    """4,096 segments in detect-1d's layout: a fresh motif, then its repeat,
    its reversal, its x2 and its x-3 copy.  Scanning every earlier segment
    takes minutes here."""
    rng = random.Random("long")
    samples, expected = [], []
    for idx in range(4096):
        kind = idx % 5
        if kind == 0:
            motif = [rng.choice((-1, 1)) * rng.randint(1, 40)
                     for _ in range(8)]
            fresh = idx
        samples += ([motif, motif, motif[::-1], [2 * v for v in motif],
                     [-3 * v for v in motif]][kind])
        expected.append(None if kind == 0 else
                        [(fresh, "translation", 1, 1),
                         (fresh, "affine", -1, 1),
                         (fresh, "amp_affine", 1, 2),
                         (fresh, "amp_affine", 1, -3)][kind - 1])
    assert len(samples) == 32768
    segs = segment_signal(samples, -9, list(range(-1, 32768 - 9, 8)))
    rep = redundancy_report(segs, tol=0)
    got = [None if e.arrow is None else
           (e.source_index, e.detector, e.arrow.stride, e.arrow.amp)
           for e in rep.entries]
    assert got == expected[1:]


def test_exact_hits_build_their_residual_without_multiplying(monkeypatch):
    """An index hit has residual 0 by construction, so building its arrow
    multiplies no sample by the amplitude: 63 amplitude hits of 8 samples
    each take fewer Fraction multiplies than there are segments."""
    motif = [3, -1, 4, 1, -5, 9, 2, 6]
    samples = [v * k for k in range(1, 65) for v in motif]
    segs = segment_signal(samples, 0, list(range(8, len(samples), 8)))
    calls = []
    for name in ("__mul__", "__rmul__"):
        def counted(a, b, real=getattr(Fraction, name)):
            calls.append(b)
            return real(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    rep = redundancy_report(segs, tol=0)
    assert [(e.source_index, e.detector, e.arrow.amp) for e in rep.entries] \
        == [(0, "amp_affine", k) for k in range(2, 65)]
    assert all(e.residual_sq == 0 and e.arrow.delta == (0,) * 8
               and all(type(d) is Fraction for d in e.arrow.delta)
               for e in rep.entries)
    assert len(calls) < len(segs)


def test_detectors_match_exhaustive_scoring():
    rng = random.Random("pairs")
    public = {"translation": lambda f, g, s, t: detect_translation(f, g, t),
              "affine": detect_affine, "amp_affine": detect_amp_affine}
    for _ in range(300):
        segs = segmented(rng)
        f, g = rng.sample(segs, 2) if len(segs) > 1 else (segs[0], segs[0])
        strides = rng.choice(STRIDE_SETS)
        tol = rng.choice(TOLS)
        for name, fn in public.items():
            assert_same_arrow(fn(f, g, strides, tol),
                              detector_oracle(name, f, g, strides, tol))


def check_encoding(samples, origin):
    want = encode_detected_oracle(samples, origin)
    if want is None:
        with pytest.raises(ValueError, match="position"):
            encode(samples, "detected", origin=origin)
        return
    got = encode(samples, "detected", origin=origin)
    assert got == want
    try:
        blob = write_container(want)
    except ValueError:
        with pytest.raises(ValueError):
            write_container(got)
    else:
        assert write_container(got) == blob


def test_encoder_matches_quadratic_search():
    rng = random.Random("encode")
    for _ in range(100):
        n = rng.randint(1, 18)
        check_encoding(rand_signal(rng, n, fractions=rng.random() < 0.3),
                       rng.randint(-5, 5))


def test_encoder_falls_back_when_ratios_overflow():
    rng = random.Random("huge")
    for _ in range(60):
        check_encoding(huge_signal(rng, rng.randint(1, 14)), rng.randint(-3, 3))
    # no earlier ratio fits: the nearest value wins, the first on a tie
    big = 1 << 70
    enc = encode([1, big, big + 2, big + 1, 2], "detected")
    assert enc.records[1] == ArrowRecord(-1, 1, 1, 1, (2,))
    assert enc.records[2] == ArrowRecord(-2, 1, 1, 1, (1,))
    assert enc.records[3] == ArrowRecord(-4, 1, 2, 1, (0,))


def test_encoder_zero_with_no_earlier_zero_takes_nearest_value():
    enc = encode([5, -2, 3, 0, 0], "detected", origin=7)
    assert enc.records[2] == ArrowRecord(-2, 1, 1, 1, (2,))
    assert enc.records[3] == ArrowRecord(-1, 1, 1, 1, (0,))


def test_encoder_refuses_a_sample_with_no_integral_residual():
    with pytest.raises(ValueError, match="position 1"):
        encode([0, Fraction(1, 2)], "detected")
    with pytest.raises(ValueError, match="position 4"):
        encode([Fraction(1, 3), Fraction(2, 3), 0], "detected", origin=2)
