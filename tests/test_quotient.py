"""Measure algebras: quotient construction, Boolean homs, induced homs."""

import random
from fractions import Fraction

import pytest

from sigrep import (DegenerateMeasure, FiniteCarrier, FiniteMeasureSpace,
                    INFINITY, BooleanHom, MeasurableMap, MeasureAlgebra,
                    NotHom, NotNonsingular, SpaceMismatch, check_hom_laws,
                    compose_homs, compose_maps, counting_space,
                    generate_sigma_algebra, identity_hom, identity_map,
                    induced_hom, power_set_algebra,
                    quotient_measure_algebra)


def full_space(weights):
    carrier = FiniteCarrier(range(len(weights)))
    return FiniteMeasureSpace(power_set_algebra(carrier), weights)


def rand_full_space(rng, max_size=5, allow_zero=True):
    n = rng.randint(1, max_size)
    while True:
        weights = []
        for _ in range(n):
            if allow_zero and rng.random() < 0.35:
                weights.append(Fraction(0))
            else:
                weights.append(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        if any(w != 0 for w in weights):
            return full_space(weights)


# ---------------------------------------------------------------- quotient


def test_quotient_classes_of_1_0_2():
    """Weights (1,0,2): four classes, masses 0,1,2,3."""
    sp = full_space([Fraction(1), Fraction(0), Fraction(2)])
    malg, project = quotient_measure_algebra(sp)
    assert malg.algebra.atom_count == 2
    zero = project(0b000)
    assert zero == malg.algebra.zero
    assert project(0b010) == zero                      # {1} is null
    assert project(0b001) == project(0b011)            # {0} ~ {0,1}
    assert project(0b100) == project(0b110)            # {2} ~ {1,2}
    assert project(0b111) == malg.algebra.unit
    masses = sorted(malg.mu_bar(e) for e in malg.algebra.elements)
    assert masses == [0, 1, 2, 3]
    assert malg.class_members(malg.algebra.unit) == frozenset({0b101, 0b111})
    assert malg.member_rep(project(0b110)) == 0b100    # smallest in class


def test_quotient_is_full_boolean_algebra_random():
    rng = random.Random(11)
    for _ in range(40):
        sp = rand_full_space(rng)
        malg, project = quotient_measure_algebra(sp)
        k = malg.algebra.atom_count
        assert len({project(m) for m in sp.sigma.members}) == 1 << k


def test_mu_bar_strictly_positive_random():
    rng = random.Random(13)
    for _ in range(40):
        sp = rand_full_space(rng)
        malg, _ = quotient_measure_algebra(sp)
        for e in malg.algebra.elements:
            assert (malg.mu_bar(e) == 0) == (e == malg.algebra.zero)


def test_mu_bar_additive_random():
    rng = random.Random(17)
    for _ in range(40):
        sp = rand_full_space(rng)
        malg, _ = quotient_measure_algebra(sp)
        alg = malg.algebra
        for _ in range(10):
            a = rng.randrange(1 << alg.atom_count)
            b = rng.randrange(1 << alg.atom_count) & ~a
            assert malg.mu_bar(a | b) == malg.mu_bar(a) + malg.mu_bar(b)


def test_mu_bar_well_defined_on_members():
    rng = random.Random(19)
    for _ in range(30):
        sp = rand_full_space(rng)
        malg, project = quotient_measure_algebra(sp)
        for m in sp.sigma.members:
            assert malg.mu_bar(project(m)) == sp.measure(m)


def test_degenerate_space_rejected():
    sp = full_space([Fraction(0), Fraction(0)])
    with pytest.raises(DegenerateMeasure):
        quotient_measure_algebra(sp)


def test_infinite_mass_space_is_fine():
    sp = full_space([INFINITY, Fraction(1)])
    malg, project = quotient_measure_algebra(sp)
    assert malg.mu_bar(malg.algebra.unit) == INFINITY
    assert malg.finite_part == frozenset({malg.algebra.zero,
                                          project(0b10)})


def test_projection_is_soc_hom_exhaustive():
    sp = full_space([Fraction(1), Fraction(0), Fraction(2), Fraction(3)])
    malg, project = quotient_measure_algebra(sp)
    full = sp.carrier.full_mask
    alg = malg.algebra
    for a in sp.sigma.members:
        assert project(full & ~a) == alg.unit & ~project(a)
        for b in sp.sigma.members:
            assert project(a ^ b) == project(a) ^ project(b)
            assert project(a & b) == project(a) & project(b)
            assert project(a | b) == project(a) | project(b)
    assert project(full) == alg.unit


def test_atom_masses():
    sp = full_space([Fraction(1), Fraction(0), Fraction(2)])
    malg, _ = quotient_measure_algebra(sp)
    assert [malg.atom_mass(j) for j in range(2)] == [1, 2]


# ---------------------------------------------------------------- boolean homs


def two_atom_algebras():
    a = counting_space([0, 1])
    b = counting_space([0, 1])
    return MeasureAlgebra(a), MeasureAlgebra(b)


def test_swap_hom_flags():
    src, tgt = two_atom_algebras()
    # elements are 2-bit atom masks; the swap exchanges the bits
    swap = BooleanHom(src, tgt, (0b00, 0b10, 0b01, 0b11))
    assert swap.is_hom and swap.is_measure_preserving
    rep = check_hom_laws(swap)
    assert rep.is_hom and not rep.failures


def test_non_hom_mapping_flags():
    src, tgt = two_atom_algebras()
    bad = BooleanHom(src, tgt, (0b00, 0b11, 0b01, 0b11))   # breaks sym_diff
    assert not bad.is_hom
    rep = check_hom_laws(bad)
    assert not rep.is_hom
    assert rep.failures


def test_unit_must_map_to_unit():
    src, tgt = two_atom_algebras()
    collapse = BooleanHom(src, tgt, (0b00, 0b00, 0b00, 0b00))
    rep = check_hom_laws(collapse)
    assert rep.preserves_sym_diff and rep.preserves_meet
    assert not rep.preserves_unit
    assert not collapse.is_hom


def test_identity_and_composition():
    src, tgt = two_atom_algebras()
    swap = BooleanHom(src, tgt, (0b00, 0b10, 0b01, 0b11))
    ident = identity_hom(src)
    assert compose_homs(swap, ident) == swap
    assert compose_homs(identity_hom(tgt), swap) == swap
    back = BooleanHom(tgt, src, (0b00, 0b10, 0b01, 0b11))
    assert compose_homs(back, swap) == identity_hom(src)
    with pytest.raises(SpaceMismatch):
        malg3 = MeasureAlgebra(counting_space([0, 1, 2]))
        compose_homs(swap, identity_hom(malg3))


# ---------------------------------------------------------------- induced homs


def test_induced_hom_goes_backwards():
    sp = counting_space([0, 1])
    phi = MeasurableMap(sp, sp, {0: 1, 1: 0})
    hom = induced_hom(phi)
    assert hom.source == MeasureAlgebra(phi.target)
    assert hom.target == MeasureAlgebra(phi.source)
    assert hom.is_hom and hom.is_measure_preserving
    # the swap exchanges the two atoms
    assert hom(0b01) == 0b10
    assert hom(0b10) == 0b01


def test_induced_hom_of_null_collapse():
    # phi maps the null point 1 onto 0: classes are untouched
    src = full_space([Fraction(1), Fraction(0), Fraction(2)])
    phi = MeasurableMap(src, src, {0: 0, 1: 0, 2: 2})
    hom = induced_hom(phi)
    malg = MeasureAlgebra(src)
    for e in malg.algebra.elements:
        assert hom(e) == e


def test_induced_hom_requires_nonsingular():
    src = counting_space([0, 1])
    tgt = full_space([Fraction(1), Fraction(0)])
    phi = MeasurableMap(src, tgt, {0: 0, 1: 1})
    assert not phi.flags.is_nonsingular
    with pytest.raises(NotNonsingular):
        induced_hom(phi)


def test_induced_contravariance_random():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        sp = counting_space(range(n))
        f = {i: rng.randrange(n) for i in range(n)}
        g = {i: rng.randrange(n) for i in range(n)}
        phi = MeasurableMap(sp, sp, f)
        psi = MeasurableMap(sp, sp, g)
        # counting measures: every total map is nonsingular
        comp = compose_maps(psi, phi)
        assert induced_hom(comp) == compose_homs(induced_hom(phi),
                                                 induced_hom(psi))


def test_induced_measure_preserving_iff_imp_random():
    rng = random.Random(29)
    for _ in range(40):
        sp = rand_full_space(rng, allow_zero=True)
        n = sp.carrier.size
        mapping = {i: rng.randrange(n) for i in range(n)}
        phi = MeasurableMap(sp, sp, mapping)
        if not phi.flags.is_nonsingular:
            with pytest.raises(NotNonsingular):
                induced_hom(phi)
            continue
        hom = induced_hom(phi)
        assert hom.is_measure_preserving == phi.flags.is_imp


def test_induced_identity_is_identity():
    sp = full_space([Fraction(2), Fraction(5)])
    assert induced_hom(identity_map(sp)) == identity_hom(MeasureAlgebra(sp))
