"""Measure-space layer: carriers, sigma-algebras, weights, maps, direct sums."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from sigrep import (INFINITY, DualElement, FiniteCarrier, FiniteMeasureSpace,
                    MapNotTotal, MeasurableMap, MeasureAlgebra, NotADirectSum,
                    PartialInjection, SigmaAlgebra, SpaceMismatch, atoms,
                    canonical_class, check_hom_laws, compose_homs,
                    compose_maps, counting_space, covariant_op, direct_sum,
                    duality_bridge, duality_bridge_inverse,
                    generate_sigma_algebra, identity_hom, identity_map,
                    induced_hom, join_direct_sum, power_set_algebra)


def full_space(weights):
    carrier = FiniteCarrier(range(len(weights)))
    return FiniteMeasureSpace(power_set_algebra(carrier), weights)


# ---------------------------------------------------------------- carriers


def test_carrier_points_must_increase():
    with pytest.raises(ValueError):
        FiniteCarrier([0, 2, 1])
    with pytest.raises(ValueError):
        FiniteCarrier([0, 0])


def test_carrier_has_no_size_cap():
    c = FiniteCarrier(range(17))
    assert c.size == 17
    assert c.labels_of(c.full_mask) == tuple(range(17))


def test_carrier_masks():
    c = FiniteCarrier([3, 7, 20])
    assert c.full_mask == 0b111
    assert c.mask_of([3, 20]) == 0b101
    assert c.labels_of(0b101) == (3, 20)
    assert c.index(7) == 1
    with pytest.raises(KeyError):
        c.index(4)


@pytest.mark.parametrize("label", [True, False])
def test_carrier_refuses_a_bool_label(label):
    # True == 1 and False == 0, but a bool is never a point
    c = FiniteCarrier([0, 1, 2])
    text = f"^'label {label!r} is not a carrier point'$"
    with pytest.raises(KeyError, match=text):
        c.index(label)
    with pytest.raises(KeyError, match=text):
        c.mask_of([2, label])
    sp = counting_space([0, 1, 2])
    with pytest.raises(KeyError, match=text):
        MeasurableMap(sp, sp, {0: label, 1: 1, 2: 2})


@pytest.mark.parametrize("label", [1.0, 2.0, Fraction(2), Decimal(1), "1"],
                         ids=["float_1", "float_2", "fraction_2", "decimal_1",
                              "str_1"])
def test_carrier_refuses_a_label_that_is_not_an_int(label):
    # 1.0, Fraction(2) and Decimal(1) equal points as dict keys, but only
    # ints are points; the error is the one an absent label gets
    text = f"label {label!r} is not a carrier point"
    sp = counting_space([0, 1, 2])
    f = canonical_class([0, 1, 2], sp)
    for lookup in (lambda: sp.carrier.index(label),
                   lambda: sp.carrier.mask_of([2, label]),
                   lambda: PartialInjection(sp, sp, [(label, 0)]),
                   lambda: PartialInjection(sp, sp, [(0, label)]),
                   lambda: MeasurableMap(sp, sp, {0: label, 1: 1, 2: 2}),
                   lambda: f.value(label)):
        with pytest.raises(KeyError) as err:
            lookup()
        assert err.value.args == (text,)
    assert f.value(2) == 2 and sp.carrier.mask_of([2, 0]) == 0b101


# ---------------------------------------------------------------- sigma algebras


def test_generated_algebra_single_set():
    # closure of {{0}} on three points: empty, {0}, {1,2}, everything
    c = FiniteCarrier([0, 1, 2])
    sig = generate_sigma_algebra(c, [[0]])
    assert sig.members == frozenset({0b000, 0b001, 0b110, 0b111})


def test_generated_algebra_two_singletons_is_power_set():
    c = FiniteCarrier([0, 1])
    sig = generate_sigma_algebra(c, [[0], [1]])
    assert sig.members == frozenset({0, 1, 2, 3})


def test_power_set_size():
    c = FiniteCarrier(range(4))
    assert len(power_set_algebra(c)) == 16


def test_closure_validation():
    c = FiniteCarrier([0, 1, 2])
    with pytest.raises(ValueError):
        SigmaAlgebra(c, [0b000, 0b001, 0b111])   # complement of {0} missing
    with pytest.raises(ValueError):
        SigmaAlgebra(c, [0b001, 0b111])          # no empty set
    # union closure
    with pytest.raises(ValueError):
        SigmaAlgebra(c, [0b000, 0b001, 0b010, 0b110, 0b101, 0b111])


def test_membership_protocol():
    c = FiniteCarrier([0, 1, 2])
    sig = generate_sigma_algebra(c, [[0]])
    assert 0b110 in sig
    assert 0b010 not in sig
    assert list(sig) == [0b000, 0b001, 0b110, 0b111]


# ---------------------------------------------------------------- measures


def test_weight_validation():
    c = FiniteCarrier([0, 1])
    sig = power_set_algebra(c)
    with pytest.raises(TypeError):
        FiniteMeasureSpace(sig, [0.5, 1])
    with pytest.raises(TypeError):
        FiniteMeasureSpace(sig, [True, 1])
    # Fraction() reads both of these, as 1/2 and 1/4
    with pytest.raises(TypeError, match="not str"):
        FiniteMeasureSpace(sig, ["1/2", 1])
    with pytest.raises(TypeError, match="not Decimal"):
        FiniteMeasureSpace(sig, [Decimal("0.25"), 1])
    with pytest.raises(ValueError):
        FiniteMeasureSpace(sig, [Fraction(-1), 1])
    FiniteMeasureSpace(sig, [INFINITY, Fraction(1, 3)])


def test_measure_values():
    sp = full_space([Fraction(1), Fraction(0), Fraction(2)])
    assert sp.measure(0b000) == 0
    assert sp.measure(0b001) == 1
    assert sp.measure(0b110) == 2
    assert sp.measure(0b111) == 3
    assert sp.measure(sp.carrier.full_mask) == 3


def test_measure_additive_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        sp = full_space([Fraction(rng.randint(0, 5)) for _ in range(n)])
        a = rng.randrange(1 << n)
        b = rng.randrange(1 << n) & ~a
        assert sp.measure(a | b) == sp.measure(a) + sp.measure(b)


def test_infinite_weight_short_circuits():
    sp = full_space([Fraction(1), INFINITY])
    assert sp.measure(0b10) == INFINITY
    assert sp.measure(0b11) == INFINITY
    assert sp.measure(0b01) == 1
    assert sp.measure(sp.carrier.full_mask) == INFINITY


def test_measure_requires_member():
    c = FiniteCarrier([0, 1, 2])
    sig = generate_sigma_algebra(c, [[0]])
    sp = FiniteMeasureSpace(sig, [Fraction(1)] * 3)
    with pytest.raises(ValueError):
        sp.measure(0b010)


# ---------------------------------------------------------------- null ideal


def test_null_mask_and_ideal():
    # weights (1, 0, 2): the only null sets are inside {1}
    sp = full_space([Fraction(1), Fraction(0), Fraction(2)])
    assert sp.null_mask == 0b010
    assert sp.null_ideal() == frozenset({0b000, 0b010})
    assert 0b010 & ~sp.null_mask == 0
    assert 0b001 & ~sp.null_mask != 0


def test_null_ideal_is_sigma_ideal_random():
    """Downward closed, closed under union, and members really are null."""
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 6)
        weights = [Fraction(0) if rng.random() < 0.4 else Fraction(rng.randint(1, 4))
                   for _ in range(n)]
        sp = full_space(weights)
        ideal = sp.null_ideal()
        for m in ideal:
            assert m & ~sp.null_mask == 0
            assert sp.measure(m) == 0
        for a in ideal:
            for b in ideal:
                assert (a | b) in ideal
            sub = a
            while True:
                assert sub in ideal
                if sub == 0:
                    break
                sub = (sub - 1) & a


def test_null_ideal_with_coarse_algebra():
    # sigma generated by {0,1}; weights make {0,1} null, so all its subsets
    # (measurable or not) are in the ideal
    c = FiniteCarrier([0, 1, 2])
    sig = generate_sigma_algebra(c, [[0, 1]])
    sp = FiniteMeasureSpace(sig, [Fraction(0), Fraction(0), Fraction(5)])
    assert sp.null_mask == 0b011
    assert sp.null_ideal() == frozenset({0b000, 0b001, 0b010, 0b011})


# ---------------------------------------------------------------- atoms


def test_atoms_with_null_point():
    sp = full_space([Fraction(1), Fraction(0), Fraction(2)])
    assert atoms(sp) == [0b001, 0b100]


def test_atoms_counting_space():
    sp = counting_space(range(5))
    assert atoms(sp) == [1 << i for i in range(5)]


def test_atoms_coarse_algebra():
    c = FiniteCarrier([0, 1, 2])
    sig = generate_sigma_algebra(c, [[0]])
    sp = FiniteMeasureSpace(sig, [Fraction(1), Fraction(1), Fraction(1)])
    assert atoms(sp) == [0b001, 0b110]


# ---------------------------------------------------------------- maps


def test_map_must_be_total():
    a = counting_space([0, 1])
    b = counting_space([0])
    with pytest.raises(MapNotTotal):
        MeasurableMap(a, b, {0: 0})
    with pytest.raises(KeyError):
        MeasurableMap(a, b, {0: 0, 1: 5})


def test_identity_is_imp():
    sp = full_space([Fraction(2), Fraction(3)])
    flags = identity_map(sp).flags
    assert flags.is_measurable and flags.is_nonsingular and flags.is_imp


def test_collapse_map_flags():
    two = counting_space([0, 1])
    one_double = full_space([Fraction(2)])
    collapse = MeasurableMap(two, one_double, {0: 0, 1: 0})
    assert collapse.flags.is_imp  # preimage of the point has mass 2 = its weight

    one_triple = full_space([Fraction(3)])
    collapse2 = MeasurableMap(two, one_triple, {0: 0, 1: 0})
    assert collapse2.flags.is_nonsingular and not collapse2.flags.is_imp


def test_nonsingularity_fails_on_null_target():
    src = counting_space([0, 1])
    tgt = full_space([Fraction(1), Fraction(0)])
    phi = MeasurableMap(src, tgt, {0: 0, 1: 1})
    # {1} is null in the target but its preimage has measure 1
    assert phi.flags.is_measurable and not phi.flags.is_nonsingular


def test_measurability_fails_on_coarse_source():
    c = FiniteCarrier([0, 1, 2])
    coarse = FiniteMeasureSpace(generate_sigma_algebra(c, [[0, 1]]),
                                [Fraction(1)] * 3)
    fine = counting_space([0, 1, 2])
    phi = MeasurableMap(coarse, fine, {0: 0, 1: 1, 2: 2})
    assert not phi.flags.is_measurable
    assert not phi.flags.is_nonsingular and not phi.flags.is_imp


def test_preimage_and_image_masks():
    src = counting_space([0, 1, 2])
    tgt = counting_space([0, 1])
    phi = MeasurableMap(src, tgt, {0: 1, 1: 1, 2: 0})
    assert phi.preimage_mask(0b10) == 0b011
    assert phi.preimage_mask(0b01) == 0b100
    assert phi.image_mask() == 0b11
    assert phi(2) == 0


def test_compose_maps():
    a = counting_space([0, 1])
    b = counting_space([0, 1])
    c = counting_space([0])
    phi = MeasurableMap(a, b, {0: 1, 1: 0})
    psi = MeasurableMap(b, c, {0: 0, 1: 0})
    comp = compose_maps(psi, phi)
    assert comp.mapping == {0: 0, 1: 0}
    with pytest.raises(SpaceMismatch):
        compose_maps(phi, psi)


def test_compose_preserves_imp_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        sp = counting_space(range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        phi = MeasurableMap(sp, sp, {i: perm[i] for i in range(n)})
        assert phi.flags.is_imp
        assert compose_maps(phi, identity_map(sp)) == phi


# ---------------------------------------------------------------- direct sums


def test_direct_sum_relabels_consecutively():
    a = full_space([Fraction(1), Fraction(2)])
    b = full_space([Fraction(3)])
    total, injections = direct_sum([a, b])
    assert total.carrier.points == (0, 1, 2)
    assert total.weights == (Fraction(1), Fraction(2), Fraction(3))
    assert total.measure(total.carrier.full_mask) == 6
    assert len(injections) == 2
    assert injections[0].mapping == {0: 0, 1: 1}
    assert injections[1].mapping == {0: 2}
    for inj in injections:
        assert inj.flags.is_nonsingular


def test_direct_sum_sigma_is_componentwise():
    c = FiniteCarrier([0, 1, 2])
    coarse = FiniteMeasureSpace(generate_sigma_algebra(c, [[0, 1]]),
                                [Fraction(1)] * 3)
    fine = counting_space([0, 1])
    total, _ = direct_sum([coarse, fine])
    # members = union of one member from each block
    assert len(total.sigma) == len(coarse.sigma) * len(fine.sigma)
    assert total.sigma.carrier.size == 5
    # {0,1} from the first block, {4} (old label 1) from the second
    assert (0b00011 | 0b10000) in total.sigma
    # a non-member of the first block stays a non-member
    assert 0b00001 not in total.sigma


def test_summand_slices_round_trip():
    a = full_space([Fraction(1), Fraction(2)])
    b = counting_space([0, 1, 2])
    total, _ = direct_sum([a, b])
    # the (component, offset) provenance that split and join read
    assert total.summands == ((a, 0), (b, 2))
    assert a.summands is None
    with pytest.raises(NotADirectSum):
        join_direct_sum([canonical_class([1, 2], a)], a)


def test_direct_sum_has_no_carrier_cap():
    parts = [counting_space(range(6)) for _ in range(3)]
    total, injections = direct_sum(parts)
    assert total.carrier.size == 18
    assert total.sigma.atoms == tuple(1 << i for i in range(18))
    assert all(inj.flags.is_nonsingular and not inj.flags.is_imp
               for inj in injections)


# ---------------------------------------------------------------- 2**k tables

TABLE_REFUSED = re.escape("a 2**k table is built for k <= 16 only (k = 17)")


def seventeen_null_atoms():
    """One positive point and 17 null ones: a measure algebra of one atom
    whose classes each hold 2**17 members."""
    return MeasureAlgebra(full_space([Fraction(1)] + [Fraction(0)] * 17))


@pytest.mark.parametrize("build", [
    lambda: counting_space(range(17)).sigma.members,
    lambda: seventeen_null_atoms().space.null_ideal(),
    lambda: MeasureAlgebra(counting_space(range(17))).finite_part,
    lambda: seventeen_null_atoms().class_members(1),
    # a hom is stored as its atom images; only its full table refuses
    lambda: identity_hom(MeasureAlgebra(counting_space(range(17)))).mapping,
    lambda: induced_hom(identity_map(counting_space(range(17)))).mapping,
], ids=["members", "null_ideal", "finite_part", "class_members",
        "identity_hom", "induced_hom"])
def test_tables_refuse_past_sixteen_atoms(build):
    with pytest.raises(ValueError, match=TABLE_REFUSED):
        build()


def test_homs_and_measures_work_past_sixteen_atoms():
    # a hom is its atom images and mu_bar sums atom masses, so neither
    # builds a 2**k table: 17 atoms work as 3 do
    n = 17
    sp = full_space([Fraction(j + 1) for j in range(n)])
    malg = MeasureAlgebra(sp)
    unit = malg.algebra.unit
    assert malg.mu_bar(unit) == n * (n + 1) // 2
    assert malg.mu_bar(0b101) == 4 and malg.mu_bar(0) == 0
    ident = identity_hom(malg)
    assert ident.is_hom and ident.is_measure_preserving
    assert ident(0b10110) == 0b10110 and ident(unit) == unit
    # a rotation of a counting space: phi sends point i to i + 1 mod n, so
    # the class of {i + 1} pulls back to the class of {i}
    cs = counting_space(range(n))
    phi = MeasurableMap(cs, cs, {i: (i + 1) % n for i in range(n)})
    rot = induced_hom(phi)
    assert rot.is_hom and rot.is_measure_preserving
    assert [rot(1 << i) for i in range(n)] == [1 << (i - 1) % n for i in range(n)]
    assert check_hom_laws(rot).failures == ()
    twice = compose_homs(rot, rot)
    assert twice == induced_hom(compose_maps(phi, phi))
    assert twice(1 << 5) == 1 << 3
    assert compose_homs(rot, identity_hom(MeasureAlgebra(cs))) == rot
    u = DualElement(rot.source, range(n))
    assert covariant_op(rot, u).atom_values == tuple((j + 1) % n for j in range(n))
    assert induced_hom(identity_map(sp)) == identity_hom(malg)


def test_finite_part_tabulates_only_the_finite_atoms():
    # 17 positive atoms, 2 of them infinite: 2**15 finite elements, while
    # the measure table itself would need 2**17 entries
    weights = [Fraction(1)] * 17
    weights[3] = weights[11] = INFINITY
    malg = MeasureAlgebra(full_space(weights))
    infinite = 1 << 3 | 1 << 11
    assert malg.finite_part == frozenset(
        e for e in range(1 << 17) if not e & infinite)
    assert len(malg.finite_part) == 1 << 15
    # mu_bar sums atom masses: it works on the 2**17 elements too
    assert malg.mu_bar(1) == 1 and malg.mu_bar(1 << 16 | 1) == 2
    assert malg.mu_bar(infinite | 1) == INFINITY


def test_atom_level_calls_work_at_forty_atoms():
    # every third point is null, so 60 points give 40 positive atoms
    sp = full_space([Fraction(i % 3) for i in range(60)])
    malg = MeasureAlgebra(sp)
    assert malg.algebra.atom_count == 40
    assert malg.project(sp.carrier.full_mask) == malg.algebra.unit
    assert malg.project(0b110) == 0b11
    assert [malg.atom_mass(j) for j in range(40)] == [1, 2] * 20
    assert malg.member_rep(malg.algebra.unit) == sp.carrier.full_mask & ~sp.null_mask
    f = canonical_class(range(60), sp)
    u = duality_bridge(sp, f)
    assert u.atom_values == tuple(i for i in range(60) if i % 3)
    assert duality_bridge_inverse(sp, u) == f
