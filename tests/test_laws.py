"""Planted-fault fingerprints of the law suites behind ``sigrep verify``.

Each case replaces one library function with a wrong version and runs every
suite through ``run_all`` at a fixed seed, as ``sigrep verify --seed 0``
does.  The outcome of each suite is pinned: the number of failures and a
digest of their text, in order, or the error the suite raised.  A suite
that stops making a call, stops comparing its value or words a failure
differently changes its fingerprint, so none of these checks can go
vacuous unnoticed.  Every failure text in ``laws.py`` is produced by at
least one planted fault.
"""

import ast
import copy
import dataclasses
import functools
import hashlib
import inspect
import random
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from sigrep import codec, laws, quotient
from sigrep.container import ArrowRecord
from sigrep.errors import SigrepError
from sigrep.fnspace import DualElement, FnClass, canonical_class
from sigrep.measure import (FiniteMeasureSpace, MeasurableMap, SigmaAlgebra,
                            _bits)
from sigrep.partial import PartialInjection
from sigrep.quotient import BooleanHom, MeasureAlgebra
from sigrep.signal import Segment, _shift_range

SEED = 0
INSTANCES = 25


@functools.lru_cache(maxsize=None)
def outcome(fault=None):
    """The suites' outcome with ``FAULTS[fault]`` planted (none by default):
    {suite function name: the error text} for each suite that raised, and
    {suite function name: its failures} for each that failed."""
    raised, failed = {}, {}

    @contextmanager
    def caught(name):
        try:
            yield
        except (SigrepError, ValueError) as exc:  # run_all skips its result
            raised[name] = f"{type(exc).__name__}: {exc}"

    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            owner, name, wrong, _ = FAULTS[fault]
            mp.setattr(owner, name, wrong(getattr(owner, name)))
        results = laws.run_all(seed=SEED, instances=INSTANCES, phase=caught)
    names = [fn.__name__ for fn in laws.ALL_SUITES if fn.__name__ not in raised]
    for name, res in zip(names, results):
        if res.failures:
            failed[name] = res.failures
    return raised, failed


def fingerprints(fault=None):
    """{suite function name: (failure count, digest) or the error text} for
    each suite that fails or raises with ``fault`` planted."""
    raised, failed = outcome(fault)
    out = dict(raised)
    for name, failures in failed.items():
        text = "\n".join(failures).encode()
        out[name] = (len(failures), hashlib.sha256(text).hexdigest()[:16])
    return out


def drop_low_class_bit(project):
    """The class loses its lowest atom when it has two or more."""
    def wrong(self, mask):
        e = project(self, mask)
        return e & (e - 1) if e & (e - 1) else e
    return wrong


def mass_off_by_one(mass):
    def wrong(self, mask):
        return mass(self, mask) + (1 if mask == 0b11 else 0)
    return wrong


def preimage_loses_a_point(preimage_mask):
    def wrong(self, mask):
        return preimage_mask(self, mask) & ~0b10
    return wrong


def mu_bar_zero_at_3(mu_bar):
    def wrong(self, element):
        return 0 if element == 3 else mu_bar(self, element)
    return wrong


def member_refused(contains):
    def wrong(self, mask):
        return mask != 0b101 and contains(self, mask)
    return wrong


def shift_off_by_one(detect):
    def wrong(*args):
        arr = detect(*args)
        if arr is not None:
            arr = copy.copy(arr)
            arr.shift += 1
        return arr
    return wrong


def last_sample_altered(decode):
    def wrong(enc):
        out = decode(enc)
        if enc.dimension == 1:
            out[-1] += 1
        return out
    return wrong


def first_atom_raised(covariant_op):
    """Target atom 0 gets 1 more, when the target has two or more atoms."""
    def wrong(pi, u):
        vals = list(covariant_op(pi, u).atom_values)
        if len(vals) > 1:
            vals[0] += 1
        return DualElement(pi.target, vals)
    return wrong


def records_read_the_seed(encode_detected):
    """Every detected record reads the seed: the signal still decodes
    exactly, but the residuals are larger than the predecessor's."""
    def wrong(samples, origin):
        enc = encode_detected(samples, origin)
        return enc._replace(records=tuple(
            ArrowRecord(-k, 1, 1, 1, (y - samples[0],))
            for k, y in enumerate(samples[1:], 1)))
    return wrong


def null_ideal_of_points(null_ideal):
    """The ideal holds the empty set and each null point, but no union."""
    def wrong(self):
        return frozenset([0] + [1 << i for i in _bits(self.null_mask)])
    return wrong


def null_ideal_without_empty(null_ideal):
    def wrong(self):
        return null_ideal(self) - {0}
    return wrong


def empty_set_refused(contains):
    def wrong(self, mask):
        return mask != 0 and contains(self, mask)
    return wrong


def mu_bar_one_at_zero(mu_bar):
    def wrong(self, element):
        return mu_bar(self, element) + (1 if element == 0 else 0)
    return wrong


def null_atoms_kept(atoms):
    """Every sigma-atom counts, null ones too."""
    def wrong(space):
        return list(space.sigma.atoms)
    return wrong


def composite_loses_low_atom(compose_homs):
    """Each image of two or more atoms loses its lowest one."""
    def wrong(theta, pi):
        hom = compose_homs(theta, pi)
        return BooleanHom._from_images(hom.source, hom.target, [
            m & (m - 1) or m for m in hom._images])
    return wrong


def hom_flag_cleared(induced_hom):
    def wrong(phi):
        hom = copy.copy(induced_hom(phi))
        hom._hom = False
        return hom
    return wrong


def unit_law_reported_broken(check_hom_laws):
    def wrong(pi):
        return dataclasses.replace(check_hom_laws(pi), preserves_unit=False)
    return wrong


def doubled(fn):
    """Twice the right class."""
    def wrong(*args):
        return 2 * fn(*args)
    return wrong


def squared(fn):
    """The right class times itself."""
    def wrong(*args):
        out = fn(*args)
        return out * out
    return wrong


def added_twice(add):
    """x + y adds y twice."""
    def wrong(self, other):
        return self._combine(other, lambda a, b: a + 2 * b)
    return wrong


def sign_of_class_dropped(scale):
    def wrong(c, f):
        return scale(c, abs(f))
    return wrong


def product_plus_square(mul):
    """x * y adds x * x."""
    def wrong(self, other):
        return mul(self, other) + mul(self, self)
    return wrong


def abs_plus_one(abs_):
    def wrong(self):
        return canonical_class([abs(v) + 1 for v in self.values],
                               self.space, self.tag)
    return wrong


def order(compare):
    """leq_ae by ``compare`` at every point."""
    def fault(leq_ae):
        def wrong(f, g):
            return all(map(compare, f.values, g.values))
        return wrong
    return fault


def inner_low_point_dropped(compose):
    """g after f misses the lowest point of f's domain."""
    def wrong(g, f):
        out = compose(g, f)
        low = min(f.as_dict(), default=None)
        return PartialInjection(out.source, out.target,
                                [(x, y) for x, y in out.pairs if x != low])
    return wrong


def first_pair_dropped(fn):
    """The injection without the pair of its lowest source point."""
    def wrong(*args):
        out = fn(*args)
        return PartialInjection(out.source, out.target, sorted(out.pairs)[1:])
    return wrong


def sum_weights_rotated(direct_sum):
    """The sum space's weights move one point down, the last to the front."""
    def wrong(spaces):
        total, injections = direct_sum(spaces)
        shifted = FiniteMeasureSpace(total.sigma,
                                     total.weights[1:] + total.weights[:1],
                                     summands=total.summands)
        return shifted, [MeasurableMap(inj.source, shifted, inj.mapping)
                         for inj in injections]
    return wrong


def composite_amp_doubled(compose_arrows):
    def wrong(b, a):
        arr = copy.copy(compose_arrows(b, a))
        arr.amp *= 2
        return arr
    return wrong


def residual_magnitude(delta):
    def wrong(obs, f):
        return [abs(d) for d in delta(obs, f)]
    return wrong


def forward_shifts_only(detect_translation):
    def wrong(f, g, tol=0):
        return None if g.start < f.start else detect_translation(f, g, tol)
    return wrong


def negative_amplitude_missed(detect_amp_affine):
    def wrong(*args):
        arr = detect_amp_affine(*args)
        return None if arr is not None and arr.amp < 0 else arr
    return wrong


def negative_amplitude_residual(detect_amp_affine):
    """A negative-amplitude arrow records a residual 1 too large everywhere."""
    def wrong(*args):
        arr = detect_amp_affine(*args)
        if arr is not None and arr.amp < 0:
            arr = copy.copy(arr)
            arr.delta = tuple(d + 1 for d in arr.delta)
        return arr
    return wrong


def last_pixel_altered(decode):
    def wrong(enc):
        out = decode(enc)
        if enc.dimension == 2:
            out[-1][-1] += 1
        return out
    return wrong


def origin_dropped(read_container):
    def wrong(blob):
        return read_container(blob)._replace(origin=0)
    return wrong


NOT_HOM = "NotHom: induced mapping failed the homomorphism laws"
NOT_MEMBER = "ValueError: measure is defined on sigma-algebra members only"
NOT_SOC = ("NotHom: covariant transport needs a sequentially order-continuous "
           "homomorphism")

FAULTS = {
    "project": (MeasureAlgebra, "project", drop_low_class_bit, {
        "suite_measure_algebra": (2097, "c13141e04d4bdf6c"),
        "suite_induced_hom": NOT_HOM,
        "suite_imp_preserving": NOT_HOM,
        "suite_bridge": NOT_HOM,
    }),
    "mass": (FiniteMeasureSpace, "_mass", mass_off_by_one, {
        "suite_null_ideal": (1, "ad74323f490b343a"),
        "suite_measure_algebra": (63, "6709d4612424b255"),
        "suite_imp_preserving": (5, "8d3aad64e04a50cc"),
        "suite_pullback_isometry": "NotIMP: an L2 class only pulls back "
                                   "along an inverse-measure-preserving map",
        "suite_direct_sum": (324, "7df9469286e349f6"),
    }),
    "preimage_mask": (MeasurableMap, "preimage_mask", preimage_loses_a_point, {
        "suite_induced_hom": NOT_HOM,
        "suite_imp_preserving": NOT_HOM,
        "suite_pullback": (8, "ee3d044aba14cfc6"),
        "suite_bridge": NOT_HOM,
        "suite_direct_sum": (602, "7aa05f1842cf14b4"),
    }),
    "mu_bar": (MeasureAlgebra, "mu_bar", mu_bar_zero_at_3, {
        "suite_measure_algebra": (59, "21483d2d0d18c7ff"),
    }),
    "member": (SigmaAlgebra, "__contains__", member_refused, {
        "suite_sigma_closure": (22, "34756b7e977b09a7"),
        "suite_null_ideal": NOT_MEMBER,
        "suite_measure_algebra": NOT_MEMBER,
    }),
    "detect_amp_affine": (laws, "detect_amp_affine", shift_off_by_one, {
        "suite_detection": (25, "1179681155ce0a8c"),
    }),
    "detect_affine": (laws, "detect_affine", shift_off_by_one, {
        "suite_detection": (5, "522f23740fd2fe3f"),
    }),
    "decode": (codec, "decode", last_sample_altered, {
        "suite_codec": (50, "f7ca22d62d152aff"),
    }),
    "covariant_op": (laws, "covariant_op", first_atom_raised, {
        "suite_covariant": (22, "f7b6c4b1cf82941b"),
        "suite_bridge": (16, "07ad54c3d8f0226f"),
    }),
    "encode_detected": (codec, "_encode_detected", records_read_the_seed, {
        "suite_codec": (292, "b509687c478b806d"),
    }),
    "null_ideal_points": (FiniteMeasureSpace, "null_ideal",
                          null_ideal_of_points, {
        "suite_null_ideal": (12, "ba57b3d041bf49b1"),
    }),
    "null_ideal_no_empty": (FiniteMeasureSpace, "null_ideal",
                            null_ideal_without_empty, {
        "suite_null_ideal": (68, "fe05f61bbd90bf47"),
    }),
    "member_empty": (SigmaAlgebra, "__contains__", empty_set_refused, {
        "suite_sigma_closure": (216, "d9bdfc6a3d28ef9d"),
        "suite_null_ideal": NOT_MEMBER,
        "suite_measure_algebra": NOT_MEMBER,
        "suite_pullback": "ValueError: indicator needs a sigma-algebra member",
    }),
    "mu_bar_zero": (MeasureAlgebra, "mu_bar", mu_bar_one_at_zero, {
        "suite_measure_algebra": (214, "69d619dadd149889"),
    }),
    "atoms": (quotient, "atoms", null_atoms_kept, {
        "suite_measure_algebra": (84, "db4be78cce2fb884"),
        "suite_degenerate": (25, "6cba8f39a073dc12"),
        "suite_induced_hom": NOT_HOM,
        "suite_imp_preserving": NOT_HOM,
        "suite_bridge": NOT_HOM,
    }),
    "compose_homs": (laws, "compose_homs", composite_loses_low_atom, {
        "suite_induced_hom": (11, "ed26bee2c5e7bffc"),
        "suite_covariant": NOT_SOC,
    }),
    "induced_hom": (laws, "induced_hom", hom_flag_cleared, {
        "suite_induced_hom": (25, "e529d749f652546b"),
        "suite_imp_preserving": (12, "ecd0b79ab5acfd3c"),
        "suite_bridge": NOT_SOC,
    }),
    "check_hom_laws": (laws, "check_hom_laws", unit_law_reported_broken, {
        "suite_induced_hom": (25, "8cc19a45ee989e54"),
    }),
    "pullback_doubled": (laws, "pullback", doubled, {
        "suite_pullback": (29, "c11a0345b806d467"),
        "suite_pullback_isometry": (49, "462a1da564c5854e"),
        "suite_bridge": (22, "4b333402ceb13c71"),
    }),
    "pullback_squared": (laws, "pullback", squared, {
        "suite_pullback": (39, "f044b26d06581e43"),
        "suite_pullback_isometry": (43, "c28eba5cbe3f8630"),
        "suite_bridge": (14, "185385cf3ecb7abb"),
    }),
    "duality_bridge_inverse": (laws, "duality_bridge_inverse", doubled, {
        "suite_bridge": (45, "3d017f3e84763310"),
    }),
    "add": (FnClass, "__add__", added_twice, {
        "suite_linear": (118, "6a140ae73eee80d8"),
    }),
    "scale": (laws, "scale", sign_of_class_dropped, {
        "suite_linear": (50, "91be27529f860d58"),
        "suite_order_riesz": (4, "57de3c5068474a2a"),
        "suite_multiplicative": (16, "ba9f86785a8e048d"),
    }),
    "leq_ae_strict": (laws, "leq_ae", order(lambda a, b: a < b), {
        "suite_order_riesz": (75, "162bad23a264430b"),
    }),
    "leq_ae_abs": (laws, "leq_ae", order(lambda a, b: abs(a) <= abs(b)), {
        "suite_order_riesz": (39, "fe2a4566c6462d8f"),
    }),
    "leq_ae_slack": (laws, "leq_ae", order(lambda a, b: a <= b + 3), {
        "suite_order_riesz": (26, "4ebb6316aa4c0f3d"),
        "suite_multiplicative": (8, "96d7e48364a6a52f"),
    }),
    "mul": (FnClass, "__mul__", product_plus_square, {
        "suite_multiplicative": (161, "1af67f336f15d590"),
    }),
    "abs": (FnClass, "__abs__", abs_plus_one, {
        "suite_order_riesz": (25, "9499ff4e1bbeac33"),
        "suite_multiplicative": (31, "f9b12c6dad3c20b7"),
    }),
    "compose": (laws, "compose", inner_low_point_dropped, {
        "suite_restriction_dagger": (79, "a3f79462810d2ec1"),
    }),
    "restriction": (laws, "restriction", first_pair_dropped, {
        "suite_restriction_dagger": (56, "e2809f94f6789ee9"),
    }),
    "dagger": (laws, "dagger", first_pair_dropped, {
        "suite_restriction_dagger": (35, "0928ea8f25dc57b8"),
    }),
    "l2_partial": (laws, "l2_partial", doubled, {
        "suite_l2_partial": (31, "9ede84c4df40b147"),
    }),
    "direct_sum": (laws, "direct_sum", sum_weights_rotated, {
        "suite_direct_sum": (1884, "fd7738297408d15c"),
    }),
    "detect_translation": (laws, "detect_translation", forward_shifts_only, {
        "suite_segment_category": (19, "ed473511304717ec"),
    }),
    "compose_arrows": (laws, "compose_arrows", composite_amp_doubled, {
        "suite_segment_category": (75, "274303f2187bf053"),
    }),
    "delta": (laws, "delta", residual_magnitude, {
        "suite_segment_category": (25, "94e6c82a375472e2"),
    }),
    "detect_amp_affine_missed": (laws, "detect_amp_affine",
                                 negative_amplitude_missed, {
        "suite_detection": (10, "feadf61c4d72950a"),
    }),
    "detect_amp_affine_residual": (laws, "detect_amp_affine",
                                   negative_amplitude_residual, {
        "suite_detection": (10, "143d0528194126e4"),
    }),
    "read_container": (laws, "read_container", origin_dropped, {
        "suite_codec": (48, "ea3b25472fcb488b"),
    }),
    "decode_2d": (codec, "decode", last_pixel_altered, {
        "suite_codec": (25, "a9bc05c9c80839ee"),
    }),
}


def test_the_suites_pass_without_a_fault():
    assert fingerprints() == {}


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_fingerprint(fault):
    assert fingerprints(fault) == FAULTS[fault][3]


def failure_patterns():
    """{text: pattern} for each failure text in ``laws.py``, ``[i] text`` for
    each ``_expect`` call and each ``f"[{i}] ..."`` a suite appends itself,
    with each field shown as ``{}`` and matching any text."""
    patterns = {}
    for node in ast.walk(ast.parse(inspect.getsource(laws))):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "_expect"):
            parts = ["[", None, "] " + node.args[3].value]
        elif isinstance(node, ast.JoinedStr):
            parts = [part.value if isinstance(part, ast.Constant) else None
                     for part in node.values]
        else:
            continue
        if parts[:1] == ["["] and parts[2:3] != ["] "]:  # not _expect's own
            text = "".join("{}" if part is None else part for part in parts)
            patterns[text] = re.compile("".join(
                ".+" if part is None else re.escape(part) for part in parts))
    return patterns


def test_every_failure_text_has_a_planted_fault():
    """A check whose failure no planted fault produces could go vacuous
    unnoticed: each text in ``laws.py`` must come out of some fault's run."""
    patterns = failure_patterns()
    assert {"[{}] R1 fails", "[{}] union escapes the ideal"} <= set(patterns)
    produced = {text for fault in FAULTS
                for failures in outcome(fault)[1].values()
                for text in failures}
    assert [text for text, pattern in patterns.items()
            if not any(map(pattern.fullmatch, produced))] == []


def test_measure_algebra_suite_calls_once_per_distinct_argument(monkeypatch):
    """project and mu_bar run once per distinct argument of each measure
    algebra, however many pairs of members look their values up."""
    calls = Counter()
    seen = []  # keeps each algebra alive, so its id is not reused

    for name in ("project", "mu_bar"):
        def counted(self, arg, real=getattr(MeasureAlgebra, name), name=name):
            seen.append(self)
            calls[name, id(self), arg] += 1
            return real(self, arg)
        monkeypatch.setattr(MeasureAlgebra, name, counted)
    assert laws.suite_measure_algebra(random.Random(2), INSTANCES).ok
    assert {name for name, _, _ in calls} == {"project", "mu_bar"}
    assert max(calls.values()) == 1


def fraction_candidates(f, g):
    """``laws._exact_candidates`` as first written: the least-squares
    amplitude of each lookup as a Fraction, checked at every point."""
    count = 0
    m = g.length
    for s in laws.STRIDES:
        if abs(s) * (m - 1) + 1 > f.length:
            continue
        lo, hi = _shift_range(f, s, g.start, m)
        for t in range(lo, hi + 1):
            u = [f.sample_at(s * j + t) for j in range(g.start, g.end)]
            uu = sum(v * v for v in u)
            if uu == 0:
                continue
            c = sum(v * w for v, w in zip(u, g.samples)) / uu
            if c != 0 and all(w == c * v for v, w in zip(u, g.samples)):
                count += 1
    return count


def test_int_detection_oracle_matches_the_fraction_one():
    """Planted amplitudes 0, +-1/2, +-1, +-2, 3 and 3/2, plants that fit
    more than one lookup, and random rational targets."""
    rng = random.Random(5077)
    amps = [Fraction(a) for a in (0, 1, -1, 2, -2, 3)] + [
        Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
    kinds = Counter()
    for case in range(20000):
        stride = rng.choice(laws.STRIDES)
        m = rng.randint(1, 4)
        length = abs(stride) * (m - 1) + 1 + rng.randint(0, 3)
        start = rng.randint(-5, 5)
        if case % 3 == 1:  # periodic or sparse: several lookups fit
            period = rng.randint(1, 3)
            motif = [rng.choice((0, 0, 1, -2, 3)) for _ in range(period)]
            samples = [motif[i % period] for i in range(length)]
        else:
            samples = [rng.randint(-6, 6) for _ in range(length)]
        f = Segment(start, start + length, samples)
        t_start = rng.randint(-5, 5)
        if case % 3 == 2:
            g = Segment(t_start, t_start + m,
                        [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(m)])
        else:
            lo, hi = _shift_range(f, stride, t_start, m)
            shift, c = rng.randint(lo, hi), rng.choice(amps)
            g = Segment(t_start, t_start + m,
                        [c * f.sample_at(stride * j + shift)
                         for j in range(t_start, t_start + m)])
        want = fraction_candidates(f, g)
        assert laws._exact_candidates(f, g) == want, (f, g)
        kinds[min(want, 2)] += 1
    assert min(kinds[0], kinds[1], kinds[2]) >= 1000, kinds
