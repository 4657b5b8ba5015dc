"""Segments, arrows, detectors, category laws, redundancy reports."""

import random
from dataclasses import fields
from fractions import Fraction

import pytest

import sigrep.signal
from sigrep import (BadBreakpoints, EmptySignal, IntervalMismatch, Segment,
                    SegmentArrow, compose_arrows, delta, detect_affine,
                    detect_amp_affine, detect_translation, identity_arrow,
                    prototype_decomposition, redundancy_report,
                    segment_signal)
from sigrep.cli import main as cli_main

STRIDES = (-2, -1, 1, 2)


# ---------------------------------------------------------------- segments


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0, 3, [1, 2])
    with pytest.raises(EmptySignal):
        Segment(0, 0, [])
    with pytest.raises(TypeError):
        Segment(0, 1, [0.5])
    with pytest.raises(TypeError, match="got True"):
        Segment(0, 1, [True])
    s = Segment(-2, 1, [7, 8, 9])
    assert s.length == 3
    assert s.sample_at(-1) == 8
    with pytest.raises(IndexError):
        s.sample_at(1)


def test_int_and_equal_fraction_samples_compare_and_hash_alike():
    f = Segment(0, 2, [1, 2])
    f_frac = Segment(0, 2, [Fraction(1), Fraction(4, 2)])
    assert f == f_frac and hash(f) == hash(f_frac)
    assert f != Segment(0, 2, [1, Fraction(5, 2)])
    g = Segment(3, 5, [2, 3])
    a = SegmentArrow(f, g, 1, -3, 1, [1, 1])
    a_frac = SegmentArrow(f_frac, g, 1, -3, Fraction(1), [Fraction(1), 1])
    assert a == a_frac and hash(a) == hash(a_frac)
    assert a != SegmentArrow(f, g, 1, -3, 1, [1, Fraction(3, 2)])


def test_segment_signal_cuts():
    segs = segment_signal([10, 20, 30, 40], 0, [2])
    assert [s.interval for s in segs] == [(0, 2), (2, 4)]
    assert segs[1].samples == (30, 40)


def test_segment_signal_breakpoint_errors():
    with pytest.raises(EmptySignal):
        segment_signal([], 0, [])
    with pytest.raises(BadBreakpoints):
        segment_signal([1, 2, 3], 0, [0])          # not strictly interior
    with pytest.raises(BadBreakpoints):
        segment_signal([1, 2, 3], 0, [3])
    with pytest.raises(BadBreakpoints):
        segment_signal([1, 2, 3, 4], 0, [2, 2])    # not increasing


# ---------------------------------------------------------------- arrows


def test_arrow_validation():
    f = Segment(0, 4, [1, 2, 3, 4])
    g = Segment(0, 2, [1, 2])
    with pytest.raises(ValueError):
        SegmentArrow(f, g, 0, 0, 1, [0, 0])
    with pytest.raises(ValueError):
        SegmentArrow(f, g, 1, 0, 0, [0, 0])
    with pytest.raises(ValueError):
        SegmentArrow(f, g, 1, 0, 1, [0])           # wrong residual arity
    with pytest.raises(IntervalMismatch):
        SegmentArrow(f, g, 1, 5, 1, [0, 0])        # lookup leaves the source


def test_arrow_views():
    f = Segment(0, 5, [0, 1, 2, 3, 4])
    g = Segment(0, 3, [0, 2, 4])
    a = SegmentArrow(f, g, 2, 0, 1, [0, 0, 0])
    assert a.kind == "affine"
    assert a.is_exact
    assert a.measure_factor == Fraction(1, 2)
    assert a.predict(f) == g


def test_arrow_apply_reconstructs():
    f = Segment(0, 3, [5, 6, 7])
    g = Segment(10, 13, [6, 8, 7])
    shift = -10
    pred = [f.sample_at(j + shift) for j in range(10, 13)]
    a = SegmentArrow(f, g, 1, shift, 1, [o - p for o, p in zip(g.samples, pred)])
    assert a.apply(f) == g
    assert delta(g, a.predict(f)) == tuple(a.delta)


def test_commuting_square_when_exact():
    """g = a.predict(f) means g agrees with c*f on the resampled grid."""
    f = Segment(0, 7, [3, 1, 4, 1, 5, 9, 2])
    g_vals = [2 * f.sample_at(-2 * j + 4) for j in range(0, 3)]
    g = Segment(0, 3, g_vals)
    a = SegmentArrow(f, g, -2, 4, 2, [0, 0, 0])
    assert a.predict(f) == g
    for j in range(g.start, g.end):
        assert g.sample_at(j) == 2 * f.sample_at(a.lookup(j))


def test_identity_and_composition():
    f = Segment(0, 3, [1, 2, 3])
    g = Segment(5, 8, [1, 2, 3])
    h = Segment(9, 12, [1, 2, 3])
    a = detect_translation(f, g)
    b = detect_translation(g, h)
    assert a is not None and b is not None
    ba = compose_arrows(b, a)
    assert ba.stride == 1 and ba.amp == 1
    assert ba.predict(f) == h
    assert compose_arrows(a, identity_arrow(f)) == a
    assert compose_arrows(identity_arrow(g), a) == a
    with pytest.raises(IntervalMismatch):
        compose_arrows(a, b)
    back = detect_translation(g, f)
    assert compose_arrows(back, a) == identity_arrow(f)
    assert compose_arrows(a, back) == identity_arrow(g)


def test_composite_residual_exact_random():
    """delta of a composite reproduces the observed target exactly, and
    composition associates."""
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(2, 6)
        f, g, h, k = (Segment(0, n, [rng.randint(-9, 9) for _ in range(n)])
                      for _ in range(4))
        a = detect_translation(f, g, tol=float("inf"))
        b = detect_translation(g, h, tol=float("inf"))
        c = detect_translation(h, k, tol=float("inf"))
        ba = compose_arrows(b, a)
        assert ba.apply(f) == h
        assert compose_arrows(c, ba) == compose_arrows(compose_arrows(c, b), a)
    associated = 0
    for _ in range(60):  # strides, amplitudes and nonzero residuals
        n, m, k, q = sorted(rng.randint(1, 9) for _ in range(4))[::-1]
        f, g, h, e = (Segment(s, s + n, [rng.randint(-9, 9) for _ in range(n)])
                      for s, n in ((-4, n), (3, m), (20, k), (-30, q)))
        a = detect_amp_affine(f, g, STRIDES, float("inf"))
        b = detect_amp_affine(g, h, STRIDES, float("inf"))
        c = detect_amp_affine(h, e, STRIDES, float("inf"))
        if a is not None and b is not None:
            ba = compose_arrows(b, a)
            assert ba.apply(f) == h
            if c is not None:
                assert (compose_arrows(c, ba)
                        == compose_arrows(compose_arrows(c, b), a))
                associated += 1
    assert associated >= 50


@pytest.mark.parametrize("stride", (-3, -2, -1, 1, 2, 3))
def test_arrow_takes_exactly_the_shifts_that_stay_in_the_source(stride):
    f = Segment(-2, 5, range(7))
    for g in (Segment(3, 4, [0]), Segment(-1, 2, [0, 0, 0])):
        for shift in range(-25, 26):
            if all(f.start <= stride * j + shift < f.end
                   for j in range(g.start, g.end)):
                SegmentArrow(f, g, stride, shift, 1, [0] * g.length)
            else:
                with pytest.raises(IntervalMismatch):
                    SegmentArrow(f, g, stride, shift, 1, [0] * g.length)


def test_compose_strides_and_amps():
    f = Segment(0, 9, list(range(9)))
    g = Segment(0, 5, [0, 2, 4, 6, 8])
    h = Segment(0, 3, [0, 8, 16])
    a = SegmentArrow(f, g, 2, 0, 1, [0] * 5)
    b = SegmentArrow(g, h, 2, 0, 2, [0] * 3)
    ba = compose_arrows(b, a)
    assert (ba.stride, ba.shift, ba.amp) == (4, 0, 2)
    assert ba.measure_factor == Fraction(1, 4)
    assert ba.predict(f) == h


# ---------------------------------------------------------------- detectors


def test_translation_exact_complete():
    rng = random.Random(59)
    for _ in range(50):
        n = rng.randint(1, 8)
        vals = [rng.randint(-50, 50) for _ in range(n)]
        f = Segment(0, n, vals)
        g = Segment(7, 7 + n, vals)
        arr = detect_translation(f, g)
        assert arr is not None and arr.is_exact
        assert arr.shift == -7


def test_translation_residual_and_tolerance():
    f = Segment(0, 3, [1, 2, 3])
    g = Segment(3, 6, [1, 3, 3])
    assert detect_translation(f, g, tol=0) is None
    arr = detect_translation(f, g, tol=1)
    assert arr is not None
    assert arr.delta == (0, 1, 0)
    assert detect_translation(f, g, tol=Fraction(99, 100)) is None


def test_translation_needs_equal_lengths():
    f = Segment(0, 3, [1, 2, 3])
    g = Segment(0, 2, [1, 2])
    assert detect_translation(f, g, tol=float("inf")) is None


def test_affine_downsample():
    f = Segment(0, 7, [0, 1, 2, 3, 4, 5, 6])
    g = Segment(0, 4, [0, 2, 4, 6])
    arr = detect_affine(f, g, STRIDES, 0)
    assert arr is not None and arr.is_exact
    assert (arr.stride, arr.shift, arr.amp) == (2, 0, 1)
    assert arr.measure_factor == Fraction(1, 2)


def test_affine_reflection():
    f = Segment(0, 4, [1, 2, 3, 4])
    g = Segment(0, 4, [4, 3, 2, 1])
    arr = detect_affine(f, g, STRIDES, 0)
    assert arr is not None and arr.is_exact
    assert arr.stride == -1
    assert arr.shift == 3


def test_amp_affine_scaling():
    f = Segment(0, 2, [1, 2])
    g = Segment(5, 7, [3, 6])
    arr = detect_amp_affine(f, g, STRIDES, 0)
    assert arr is not None and arr.is_exact
    assert arr.amp == 3
    assert (arr.stride, arr.shift) == (1, -5)


def test_amp_affine_rational_amp():
    f = Segment(0, 3, [2, 4, 8])
    g = Segment(0, 3, [3, 6, 12])
    arr = detect_amp_affine(f, g, STRIDES, 0)
    assert arr is not None and arr.amp == Fraction(3, 2)


def test_amp_affine_skips_zero_lookups():
    # a zero source window fits nothing (c would be 0)
    f = Segment(0, 4, [0, 0, 0, 0])
    g = Segment(0, 2, [1, 2])
    assert detect_amp_affine(f, g, STRIDES, float("inf")) is None
    # and a zero target never matches with c != 0
    f2 = Segment(0, 4, [1, 2, 3, 4])
    g2 = Segment(0, 2, [0, 0])
    assert detect_amp_affine(f2, g2, STRIDES, 0) is None


def test_tie_break_on_constant_source():
    # every candidate is exact on constants: smallest |S|, then |T|, then T
    f = Segment(0, 5, [5, 5, 5, 5, 5])
    g = Segment(0, 2, [5, 5])
    arr = detect_affine(f, g, STRIDES, 0)
    assert (arr.stride, arr.shift) == (1, 0)
    arr2 = detect_amp_affine(f, g, STRIDES, 0)
    assert (arr2.stride, arr2.shift, arr2.amp) == (1, 0, 1)


def test_tie_break_magnitude_then_sign_of_shift():
    # exact matches at T=-1 and T=+1 only; |T| ties, signed T prefers -1
    f = Segment(-1, 2, [7, 5, 7])
    g = Segment(0, 1, [7])
    arr = detect_affine(f, g, (1,), 0)
    assert (arr.stride, arr.shift) == (1, -1)
    # when the window sits strictly right of zero, smallest |T| wins
    f2 = Segment(3, 6, [9, 9, 9])
    g2 = Segment(1, 2, [9])
    arr2 = detect_affine(f2, g2, (1,), 0)
    assert arr2.shift == 2


def test_detectors_respect_stride_bounds():
    f = Segment(0, 3, [1, 2, 3])
    g = Segment(0, 3, [1, 2, 3])
    # |S|*(m-1)+1 = 5 > 3, so stride 2 yields no candidates
    assert detect_affine(f, g, (2,), float("inf")) is None


# ---------------------------------------------------------------- reports


def test_redundancy_predecessor_chain():
    segs = segment_signal([1, 2, 3, 4, 5], 1, [2, 3, 4, 5])
    rep = redundancy_report(segs, tol=float("inf"), detectors=("translation",))
    assert rep.segment_count == 5
    assert rep.redundant_count == 4
    for e in rep.entries:
        assert e.source_index == e.target_index - 1
        assert e.detector == "translation"
        assert e.arrow.delta == (1,)
        assert e.residual_sq == 1


def test_redundancy_constant_signal_exact():
    segs = segment_signal([4, 4, 4, 4, 4, 4], 0, [2, 4])
    rep = redundancy_report(segs, tol=0)
    assert rep.redundant_count == 2
    for e in rep.entries:
        assert e.residual_sq == 0
        assert e.arrow.is_exact


def test_redundancy_none_on_distinct_segments():
    segs = segment_signal([1, 10, 100, -7, 55, 1000], 0, [2, 4])
    rep = redundancy_report(segs, tol=0)
    assert rep.redundant_count == 0
    for e in rep.entries:
        assert not e.redundant
        assert e.arrow is None and e.detector is None


def test_redundancy_detector_subset():
    # reflection is only found when the affine detector is allowed
    segs = [Segment(0, 4, [1, 2, 3, 4]), Segment(4, 8, [4, 3, 2, 1])]
    only_t = redundancy_report(segs, tol=0, detectors=("translation",))
    assert only_t.redundant_count == 0
    with_a = redundancy_report(segs, tol=0, detectors=("translation", "affine"))
    assert with_a.redundant_count == 1
    assert with_a.entries[0].detector == "affine"
    with pytest.raises(ValueError):
        redundancy_report(segs, detectors=("translation", "mystery"))


@pytest.mark.parametrize("tol", (0, 1), ids=str)
@pytest.mark.parametrize("strides", ((0,), (1, 0), (1.5,), ("1",)), ids=str)
def test_redundancy_refuses_bad_strides_for_every_detector(strides, tol):
    segs = [Segment(0, 2, [1, 2]), Segment(2, 4, [1, 2])]
    for detectors in (("translation",), ("affine",), ("amp_affine",)):
        with pytest.raises(ValueError, match="strides must be nonzero ints"):
            redundancy_report(segs, tol=tol, strides=strides,
                              detectors=detectors)


def test_bool_strides_are_refused():
    f, g = Segment(0, 4, [1, 2, 3, 4]), Segment(4, 6, [2, 3])
    with pytest.raises(ValueError, match="strides must be nonzero ints"):
        redundancy_report([f, g], strides=(True,), detectors=("affine",))
    with pytest.raises(ValueError, match="strides must be nonzero ints"):
        detect_affine(f, g, strides=(True,))
    with pytest.raises(ValueError, match="stride must be a nonzero int"):
        SegmentArrow(f, g, True, -3, 1, [0, 0])


def test_redundant_count_is_derived_from_the_entries():
    segs = segment_signal([1, 2, 3, 1, 2, 3, 9, 0, 7], 0, [3, 6])
    rep = redundancy_report(segs)
    assert [fl.name for fl in fields(rep)] == ["entries", "tol"]
    assert rep.redundant_count == 1 == sum(e.redundant for e in rep.entries)


def test_redundancy_refuses_no_segments():
    with pytest.raises(EmptySignal):
        redundancy_report([])
    rep = redundancy_report([Segment(0, 1, [5])])
    assert rep.entries == () and rep.segment_count == 1


# ---------------------------------------------------------------- prototype


def test_prototype_decomposition_values():
    demo = prototype_decomposition([1, 2, 3, 4, 5], origin=1)
    assert demo["seed"] == 1
    assert demo["first_deltas"] == (1, 1, 1, 1)
    assert demo["second_deltas"] == (0, 0, 0)
    assert demo["reconstruction"] == (1, 2, 3, 4, 5)
    assert demo["exact"]
    assert all(a.kind == "translation" and a.shift == -1
               for a in demo["arrows"])


def test_prototype_empty_rejected():
    with pytest.raises(EmptySignal):
        prototype_decomposition([], origin=0)


def _searched_prototype(samples, origin):
    """The prototype with each unit translation found by the detector
    search, as prototype_decomposition built it before its arrows were
    built by position: the oracle for the built arrows."""
    segs = [Segment(origin + k, origin + k + 1, (v,))
            for k, v in enumerate(samples)]
    arrows = [detect_translation(f, g, tol=float("inf"))
              for f, g in zip(segs, segs[1:])]
    first = tuple(a.delta[0] for a in arrows)
    dsegs = [Segment(origin + k + 1, origin + k + 2, (d,))
             for k, d in enumerate(first)]
    second = tuple(detect_translation(f, g, tol=float("inf")).delta[0]
                   for f, g in zip(dsegs, dsegs[1:]))
    rebuilt = [samples[0]]
    for arr in arrows:
        prev = Segment(arr.source.start, arr.source.end, (rebuilt[-1],))
        rebuilt.append(arr.apply(prev).samples[0])
    return {"origin": origin, "seed": samples[0], "arrows": arrows,
            "first_deltas": first, "second_deltas": second,
            "reconstruction": tuple(rebuilt),
            "exact": tuple(rebuilt) == tuple(samples)}


def _typed(vals):
    return [(type(v), v) for v in vals]


def _arrow_facts(arr):
    return (arr.source.interval, _typed(arr.source.samples),
            arr.target.interval, _typed(arr.target.samples),
            arr.stride, arr.shift, type(arr.amp), arr.amp, _typed(arr.delta))


def test_prototype_matches_the_detector_search():
    rng = random.Random(2211)
    pool = [-3, -1, 0, 0, 1, 2, 5, Fraction(0), Fraction(4, 2),
            Fraction(-1, 3), Fraction(5, 6), Fraction(7, 4)]
    for _ in range(3000):
        samples = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        origin = rng.randint(-5, 5)
        got = prototype_decomposition(samples, origin)
        want = _searched_prototype(samples, origin)
        assert got.keys() == want.keys()
        for key in ("origin", "seed", "exact"):
            assert _typed([got[key]]) == _typed([want[key]])
        for key in ("first_deltas", "second_deltas", "reconstruction"):
            assert type(got[key]) is tuple
            assert _typed(got[key]) == _typed(want[key])
        assert ([_arrow_facts(a) for a in got["arrows"]]
                == [_arrow_facts(a) for a in want["arrows"]])


def test_prototype_runs_no_search(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the prototype searched for an arrow")

    for name in ("_found", "_exact_arrows", "_best_arrow",
                 "detect_translation", "detect_affine", "detect_amp_affine"):
        monkeypatch.setattr(sigrep.signal, name, refuse)
    demo = prototype_decomposition([3, Fraction(1, 2), 0, -4], origin=-2)
    assert demo["first_deltas"] == (Fraction(-5, 2), Fraction(-1, 2), -4)
    assert demo["second_deltas"] == (2, Fraction(-7, 2))
    assert demo["exact"]
    assert cli_main(["demo-prototype"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "exact=true"
