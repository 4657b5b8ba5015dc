"""Planted-fault fingerprints of the law suites behind ``sigrep verify``.

Each case replaces one library function with a wrong version and runs every
suite through ``run_all`` at a fixed seed, as ``sigrep verify --seed 0``
does.  The outcome of each suite is pinned: the number of failures and a
digest of their text, in order, or the error the suite raised.  A suite
that stops making a call, stops comparing its value or words a failure
differently changes its fingerprint, so none of these checks can go
vacuous unnoticed.
"""

import copy
import hashlib
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from sigrep import codec, laws
from sigrep.container import ArrowRecord
from sigrep.errors import SigrepError
from sigrep.fnspace import DualElement
from sigrep.measure import FiniteMeasureSpace, MeasurableMap, SigmaAlgebra
from sigrep.quotient import MeasureAlgebra

SEED = 0
INSTANCES = 25


def fingerprints():
    """{suite function name: (failure count, digest) or the error text} for
    each suite that fails or raises."""
    raised = {}

    @contextmanager
    def caught(name):
        try:
            yield
        except (SigrepError, ValueError) as exc:  # run_all skips its result
            raised[name] = f"{type(exc).__name__}: {exc}"

    results = laws.run_all(seed=SEED, instances=INSTANCES, phase=caught)
    names = [fn.__name__ for fn in laws.ALL_SUITES if fn.__name__ not in raised]
    out = dict(raised)
    for name, res in zip(names, results):
        if res.failures:
            text = "\n".join(res.failures).encode()
            out[name] = (len(res.failures), hashlib.sha256(text).hexdigest()[:16])
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


NOT_HOM = "NotHom: induced mapping failed the homomorphism laws"
NOT_MEMBER = "ValueError: measure is defined on sigma-algebra members only"

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
}


def test_the_suites_pass_without_a_fault():
    assert fingerprints() == {}


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_fingerprint(fault, monkeypatch):
    owner, name, wrong, pinned = FAULTS[fault]
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    assert fingerprints() == pinned


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
