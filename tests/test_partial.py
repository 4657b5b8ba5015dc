"""Partial injections: composition, restriction axioms, dagger, l2 transport."""

import random
from fractions import Fraction

import pytest

from sigrep import (FiniteCarrier, FiniteMeasureSpace, PartialInjection,
                    SpaceMismatch, canonical_class, compose, counting_space,
                    dagger, identity_injection, l2_partial, norm2_sq,
                    power_set_algebra, restriction)

X = counting_space([0, 1, 2, 3])
Y = counting_space([0, 1, 2])


def rand_pinj(rng, src, tgt):
    xs = [p for p in src.carrier.points if rng.random() < 0.6]
    ys = rng.sample(list(tgt.carrier.points), min(len(xs), tgt.carrier.size))
    return PartialInjection(src, tgt, list(zip(xs, ys)))


def test_validation():
    with pytest.raises(ValueError):
        PartialInjection(X, Y, [(0, 0), (0, 1)])   # not single-valued
    with pytest.raises(ValueError):
        PartialInjection(X, Y, [(0, 0), (1, 0)])   # not injective
    with pytest.raises(KeyError):
        PartialInjection(X, Y, [(9, 0)])
    # True == 1, but a bool is never a point, on either side
    for pairs in ([(True, 2)], [(2, True)], [(0, False)]):
        with pytest.raises(KeyError, match="is not a carrier point"):
            PartialInjection(X, Y, pairs)


def test_apply_and_masks():
    f = PartialInjection(X, Y, [(0, 2), (3, 1)])
    assert f.as_dict()[0] == 2
    assert 3 in f.as_dict() and 1 not in f.as_dict()
    with pytest.raises(KeyError):
        f.as_dict()[1]
    assert restriction(f).image_mask() == 0b1001
    assert f.image_mask() == 0b110


def test_composition():
    f = PartialInjection(X, Y, [(0, 2), (1, 0), (3, 1)])
    g = PartialInjection(Y, X, [(0, 3), (2, 2)])
    gf = compose(g, f)
    assert gf.as_dict() == {0: 2, 1: 3}    # 3 -> 1 dies: g undefined at 1
    with pytest.raises(SpaceMismatch):
        compose(f, f)


def test_identity_neutral():
    f = PartialInjection(X, Y, [(0, 2), (3, 1)])
    assert compose(f, identity_injection(X)) == f
    assert compose(identity_injection(Y), f) == f


def test_restriction_is_partial_identity():
    f = PartialInjection(X, Y, [(0, 2), (3, 1)])
    r = restriction(f)
    assert r == restriction(r) and f != restriction(f)
    assert r.image_mask() == X.carrier.mask_of(f.as_dict())


def test_restriction_axioms_random():
    """The four restriction axioms, on random partial injections."""
    rng = random.Random(43)
    for _ in range(60):
        f = rand_pinj(rng, X, Y)
        g = rand_pinj(rng, X, X)       # same source as f
        h = rand_pinj(rng, Y, X)       # composable after f
        # R1: f restricted to its own domain is f
        assert compose(f, restriction(f)) == f
        # R2: restrictions on a common source commute
        assert (compose(restriction(f), restriction(g))
                == compose(restriction(g), restriction(f)))
        # R3: restricting after a restriction collapses
        assert (restriction(compose(f, restriction(g)))
                == compose(restriction(f), restriction(g)))
        # R4: a restriction moves across a map by pulling back its domain
        assert (compose(restriction(h), f)
                == compose(f, restriction(compose(h, f))))


def test_dagger_involution_and_contravariance():
    rng = random.Random(47)
    for _ in range(60):
        f = rand_pinj(rng, X, Y)
        g = rand_pinj(rng, Y, X)
        assert dagger(dagger(f)) == f
        assert dagger(compose(g, f)) == compose(dagger(f), dagger(g))
        # inverse-semigroup identity
        assert compose(f, compose(dagger(f), f)) == f
        assert compose(restriction(f), restriction(f)) == restriction(f)


def test_dagger_restriction_relation():
    f = PartialInjection(X, Y, [(0, 2), (3, 1)])
    assert compose(dagger(f), f) == restriction(f)


def test_l2_zero_extension():
    f = PartialInjection(X, Y, [(0, 2), (3, 1)])
    g = canonical_class([5, 6, 7], Y, "L2")
    lifted = l2_partial(f, g)
    assert lifted.tag == "L2"
    assert lifted.values == (7, 0, 0, 6)


def test_l2_contraction_and_isometry():
    g = canonical_class([5, 6, 7], Y, "L2")
    partial = PartialInjection(X, Y, [(0, 2)])
    assert norm2_sq(l2_partial(partial, g)) == 49 <= norm2_sq(g)
    covering = PartialInjection(X, Y, [(0, 0), (1, 1), (2, 2)])
    assert norm2_sq(l2_partial(covering, g)) == norm2_sq(g)


def test_l2_requires_counting_measure():
    c = FiniteCarrier([0, 1, 2])
    weighted = FiniteMeasureSpace(power_set_algebra(c),
                                  [Fraction(2), Fraction(1), Fraction(1)])
    f = PartialInjection(X, weighted, [(0, 0)])
    g = canonical_class([1, 1, 1], weighted, "L2")
    with pytest.raises(SpaceMismatch):
        l2_partial(f, g)


def test_l2_class_must_live_over_target():
    f = PartialInjection(X, Y, [(0, 0)])
    g = canonical_class([1, 1, 1, 1], X, "L2")
    with pytest.raises(SpaceMismatch):
        l2_partial(f, g)
