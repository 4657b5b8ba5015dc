"""Function classes: canonical form, norms, pullback, duality, transport."""

import math
import random
from fractions import Fraction

import pytest

from sigrep import (INFINITY, BooleanHom, DualElement, FiniteCarrier,
                    FiniteMeasureSpace, FnClass, MeasurableMap,
                    MeasureAlgebra, NonConstantOnAtom, NotHom, NotIMP,
                    NotNonsingular, SpaceMismatch, canonical_class,
                    counting_space, covariant_l2_op, covariant_op, direct_sum,
                    dual_norm2_sq, duality_bridge, duality_bridge_inverse,
                    generate_sigma_algebra, indicator, inner, join_direct_sum,
                    norm2_sq, power_set_algebra, pullback, scale,
                    split_direct_sum)
from sigrep.fnspace import inf as fn_inf
from sigrep.fnspace import leq_ae, sup as fn_sup


def full_space(weights):
    carrier = FiniteCarrier(range(len(weights)))
    return FiniteMeasureSpace(power_set_algebra(carrier), weights)


SP102 = full_space([Fraction(1), Fraction(0), Fraction(2)])


# ---------------------------------------------------------------- canonical


def test_canonical_zeroes_null_points():
    f = canonical_class([5, 7, 9], SP102)
    assert f.values == (5, 0, 9)
    assert f.support_mask() == 0b101


def test_canonical_accepts_mapping_and_callable():
    f = canonical_class({0: 1, 1: 2, 2: 3}, SP102)
    g = canonical_class(lambda p: p + 1, SP102)
    assert f == g
    assert f.value(2) == 3
    assert f.value(0) == 1
    with pytest.raises(KeyError, match="^'label True is not a carrier point'$"):
        f.value(True)


def test_non_canonical_values_rejected():
    with pytest.raises(ValueError):
        FnClass(SP102, (Fraction(1), Fraction(1), Fraction(1)))


def test_floats_rejected():
    with pytest.raises(TypeError):
        canonical_class([0.5, 0, 0], SP102)


@pytest.mark.parametrize("bad", [0.5, "a", True, False])
def test_constructor_refuses_values_that_are_not_exact(bad):
    sp = counting_space([0, 1])
    with pytest.raises(TypeError, match=f"not {type(bad).__name__}"):
        FnClass(sp, [bad, 1])
    with pytest.raises(TypeError, match=f"not {type(bad).__name__}"):
        canonical_class([bad, 1], sp)
    with pytest.raises(TypeError, match=f"not {type(bad).__name__}"):
        scale(bad, canonical_class([1, 2], sp))
    with pytest.raises(TypeError, match=f"not {type(bad).__name__}"):
        DualElement(MeasureAlgebra(sp), [bad, 2])
    f = FnClass(sp, [Fraction(1, 2), 1])    # an int becomes a Fraction
    assert f.values == (Fraction(1, 2), 1) and type(f.values[1]) is Fraction


def test_indicator_needs_member():
    c = FiniteCarrier([0, 1, 2])
    sp = FiniteMeasureSpace(generate_sigma_algebra(c, [[0]]), [Fraction(1)] * 3)
    ind = indicator(sp, 0b110)
    assert ind.values == (0, 1, 1)
    with pytest.raises(ValueError):
        indicator(sp, 0b010)


def test_tags():
    f = canonical_class([1, 2], counting_space([0, 1]), "L2")
    assert f.tag == "L2"
    assert FnClass(f.space, f.values, "L0").tag == "L0"
    g = canonical_class([1, 1], counting_space([0, 1]))
    assert (f + g).tag == "L0"      # mixed tags fall back to L0
    assert (f + f).tag == "L2"
    with pytest.raises(ValueError):
        canonical_class([1], counting_space([0]), "L7")


# ---------------------------------------------------------------- norms


def test_norm_three_four_five():
    f = canonical_class([3, 4], counting_space([0, 1]), "L2")
    assert norm2_sq(f) == 25
    assert math.sqrt(norm2_sq(f)) == 5.0


def test_norm_uses_weights():
    sp = full_space([Fraction(1, 2), Fraction(3)])
    f = canonical_class([2, 1], sp)
    assert norm2_sq(f) == Fraction(1, 2) * 4 + 3


def test_norm_infinite_weight():
    sp = full_space([INFINITY, Fraction(1)])
    assert norm2_sq(canonical_class([1, 1], sp)) == INFINITY
    assert math.sqrt(norm2_sq(canonical_class([1, 1], sp))) == float("inf")
    # zero value on the infinite point does not blow up
    assert norm2_sq(canonical_class([0, 3], sp)) == 9


def test_norms_match_pointwise_weight_loops():
    """norm2_sq, inner and dual_norm2_sq decide infinity from the space's
    infinite-point mask; the pointwise loops they replaced test each
    weight against INFINITY."""
    def norm_oracle(f):
        total = Fraction(0)
        for w, v in zip(f.space.weights, f.values):
            if v != 0:
                if w == INFINITY:
                    return INFINITY
                total += w * v * v
        return total

    def inner_oracle(f, g):
        total = Fraction(0)
        for w, a, b in zip(f.space.weights, f.values, g.values):
            if a * b != 0:
                if w == INFINITY:
                    return INFINITY
                total += w * a * b
        return total

    rng = random.Random(1403)
    pool = [Fraction(0), Fraction(1, 3), Fraction(2), INFINITY]
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        weights = [rng.choice(pool) for _ in range(n)]
        if not any(weights):
            weights[0] = Fraction(1)
        sp = full_space(weights)
        f, g = (canonical_class([rng.choice([0, 0, 1, Fraction(-3, 2)])
                                 for _ in range(n)], sp) for _ in range(2))
        for got, want in ((norm2_sq(f), norm_oracle(f)),
                          (inner(f, g), inner_oracle(f, g)),
                          (dual_norm2_sq(duality_bridge(sp, f)), norm_oracle(f))):
            assert type(got) is type(want) and got == want
            assert (got is INFINITY) == (want is INFINITY)
            seen.add(type(got))
    assert seen == {Fraction, float}


def test_values_keep_their_fraction_objects():
    x = Fraction(7, 3)
    f = canonical_class([x, 2, x], SP102)
    assert f.values[0] is x and type(f.values[2]) is Fraction
    assert type(canonical_class([1, 2, 3], SP102).values[0]) is Fraction
    with pytest.raises(TypeError):
        canonical_class([1, 0, float("inf")], SP102)


def test_inner_product():
    sp = counting_space([0, 1, 2])
    f = canonical_class([1, 2, 3], sp)
    g = canonical_class([4, 0, -1], sp)
    assert inner(f, g) == 4 - 3
    with pytest.raises(SpaceMismatch):
        inner(f, canonical_class([1], counting_space([0])))


def test_vector_and_lattice_ops():
    sp = counting_space([0, 1])
    f = canonical_class([1, -2], sp)
    g = canonical_class([0, 5], sp)
    assert (f + g).values == (1, 3)
    assert (f - g).values == (1, -7)
    assert (Fraction(1, 2) * f).values == (Fraction(1, 2), -1)
    with pytest.raises(TypeError):
        f * 2                       # a scalar goes on the left
    assert abs(f).values == (1, 2)
    assert fn_sup(f, g).values == (1, 5)
    assert fn_inf(f, g).values == (0, -2)
    assert leq_ae(fn_inf(f, g), f) and leq_ae(f, fn_sup(f, g))
    # lattice identity: f + g = f v g + f ^ g
    assert fn_sup(f, g) + fn_inf(f, g) == f + g


def test_arithmetic_results_are_what_the_checked_constructor_builds():
    # +, -, *, scalar *, - and abs build their results without the
    # constructor's checks; each result passes them unchanged
    rng = random.Random(21)
    sp = full_space([Fraction(1), Fraction(0), Fraction(3, 2), Fraction(0)])
    for _ in range(50):
        f, g = (canonical_class([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(4)], sp, rng.choice(("L0", "L2")))
                for _ in range(2))
        c = rng.choice([2, Fraction(-3, 4), 0])
        for r in (f + g, f - g, f * g, c * f, -f, abs(f)):
            assert FnClass(r.space, r.values, r.tag) == r
            assert set(map(type, r.values)) == {Fraction}
        assert (f + g).tag == (f.tag if f.tag == g.tag else "L0")
        assert (c * f).tag == (-f).tag == abs(f).tag == f.tag


# ---------------------------------------------------------------- pullback


def test_pullback_swap():
    sp = counting_space([0, 1])
    swap = MeasurableMap(sp, sp, {0: 1, 1: 0})
    g = canonical_class([1, 3], sp)
    assert pullback(swap, g).values == (3, 1)


def test_pullback_composes_with_values():
    src = counting_space([0, 1, 2])
    tgt = counting_space([0, 1])
    phi = MeasurableMap(src, tgt, {0: 0, 1: 1, 2: 1})
    g = canonical_class([10, 20], tgt)
    assert pullback(phi, g).values == (10, 20, 20)


def test_pullback_l0_requires_nonsingular():
    src = counting_space([0, 1])
    tgt = full_space([Fraction(1), Fraction(0)])
    phi = MeasurableMap(src, tgt, {0: 0, 1: 1})
    g = canonical_class([1, 0], tgt)
    with pytest.raises(NotNonsingular):
        pullback(phi, g)


def test_pullback_l2_requires_imp():
    two = counting_space([0, 1])
    one = full_space([Fraction(3)])          # collapse changes mass 2 -> 3
    phi = MeasurableMap(two, one, {0: 0, 1: 0})
    assert phi.flags.is_nonsingular and not phi.flags.is_imp
    g2 = canonical_class([1], one, "L2")
    with pytest.raises(NotIMP):
        pullback(phi, g2)
    # the same data as an L0 class passes
    assert pullback(phi, FnClass(one, g2.values, "L0")).values == (1, 1)


def test_pullback_isometry_random():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 6)
        sp = counting_space(range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        phi = MeasurableMap(sp, sp, dict(enumerate(perm)))
        g = canonical_class([Fraction(rng.randint(-5, 5)) for _ in range(n)],
                            sp, "L2")
        assert norm2_sq(pullback(phi, g)) == norm2_sq(g)


# ---------------------------------------------------------------- dual side


def test_dual_thresholds():
    malg = MeasureAlgebra(SP102)        # atoms: {0} then {2}
    u = DualElement(malg, [Fraction(1), Fraction(3)])
    assert u.threshold(0) == 0b11
    assert u.threshold(1) == 0b10
    assert u.threshold(3) == 0b00
    assert u.threshold_ge(3) == 0b10
    assert u.threshold_ge(Fraction(1, 2)) == 0b11
    with pytest.raises(ValueError):
        DualElement(malg, [Fraction(1)])


def test_dual_norm():
    malg = MeasureAlgebra(SP102)
    u = DualElement(malg, [Fraction(1), Fraction(3)])
    assert dual_norm2_sq(u) == 1 * 1 + 2 * 9


def test_covariant_swap():
    malg = MeasureAlgebra(counting_space([0, 1]))
    swap = BooleanHom(malg, malg, (0b00, 0b10, 0b01, 0b11))
    u = DualElement(malg, [Fraction(1), Fraction(3)])
    assert covariant_op(swap, u).atom_values == (3, 1)


def test_covariant_pick_takes_largest_cover():
    # the hom dual to picking atom 0: the target atom receives the largest
    # value d whose pushed super-level set covers it -- here 1, because the
    # pushed [[u >= 3]] misses the picked atom
    two = MeasureAlgebra(counting_space([0, 1]))
    one = MeasureAlgebra(full_space([Fraction(1)]))
    pick0 = BooleanHom(two, one, (0b0, 0b1, 0b0, 0b1))
    assert pick0.is_hom
    u = DualElement(two, [Fraction(1), Fraction(3)])
    assert covariant_op(pick0, u).atom_values == (1,)


def test_covariant_duplicate_along_collapse():
    # the hom induced by collapsing two unit points onto one point of mass 2
    # sends the single atom to the unit; transport duplicates the value
    one = MeasureAlgebra(full_space([Fraction(2)]))
    two = MeasureAlgebra(counting_space([0, 1]))
    dup = BooleanHom(one, two, (0b00, 0b11))
    assert dup.is_hom and dup.is_measure_preserving
    u = DualElement(one, [Fraction(7)])
    assert covariant_op(dup, u).atom_values == (7, 7)
    assert covariant_l2_op(dup, u) == covariant_op(dup, u)


def test_covariant_handles_negative_values():
    two = MeasureAlgebra(counting_space([0, 1]))
    one = MeasureAlgebra(counting_space([0]))
    # dual of the inclusion of the first atom
    pick = BooleanHom(two, one, (0b0, 0b1, 0b0, 0b1))
    u = DualElement(two, [Fraction(-4), Fraction(-1)])
    assert covariant_op(pick, u).atom_values == (-4,)


def test_covariant_requires_hom():
    src, tgt = (MeasureAlgebra(counting_space([0, 1])),
                MeasureAlgebra(counting_space([0, 1])))
    bad = BooleanHom(src, tgt, (0b00, 0b11, 0b01, 0b11))
    u = DualElement(src, [Fraction(1), Fraction(2)])
    with pytest.raises(NotHom):
        covariant_op(bad, u)


def test_covariant_l2_requires_measure_preserving():
    two = MeasureAlgebra(counting_space([0, 1]))
    one = MeasureAlgebra(full_space([Fraction(3)]))
    pick0 = BooleanHom(two, one, (0b0, 0b1, 0b0, 0b1))
    assert pick0.is_hom and not pick0.is_measure_preserving
    u = DualElement(two, [Fraction(1), Fraction(3)])
    with pytest.raises(NotIMP):
        covariant_l2_op(pick0, u)
    assert covariant_op(pick0, u).atom_values == (1,)


def test_covariant_threshold_characterization_random():
    """[[Tu > a]] == pi([[u > a]]) for every threshold a."""
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 4)
        malg = MeasureAlgebra(counting_space(range(n)))
        perm = list(range(n))
        rng.shuffle(perm)
        table = []
        for e in malg.algebra.elements:
            img = 0
            for j in range(n):
                if e >> j & 1:
                    img |= 1 << perm[j]
            table.append(img)
        pi = BooleanHom(malg, malg, tuple(table))
        u = DualElement(malg, [Fraction(rng.randint(-4, 4)) for _ in range(n)])
        v = covariant_op(pi, u)
        for a in set(u.atom_values) | {Fraction(-9), Fraction(9)}:
            assert v.threshold(a) == pi(u.threshold(a))


def covariant_threshold_scan(pi, u):
    """Transport as it was first written: each target atom receives the
    largest value d of u whose pushed super-level set ``pi([[u >= d]])``
    covers it."""
    descending = sorted(set(u.atom_values), reverse=True)
    pushed = [pi(u.threshold_ge(d)) for d in descending]
    out = []
    for j in range(pi.target.algebra.atom_count):
        bit = 1 << j
        for d, img in zip(descending, pushed):
            if img & bit == bit:
                out.append(d)
                break
    return tuple(out)


def hom_from_owners(src, tgt, owner):
    """The hom sending source atom i to the join of the target atoms t with
    ``owner[t] == i`` (none: i collapses to 0; several: i is duplicated)."""
    images = [0] * src.algebra.atom_count
    for t, i in enumerate(owner):
        images[i] |= 1 << t
    table = [0] * (1 << src.algebra.atom_count)
    for e in range(1, len(table)):
        low = e & -e
        table[e] = table[e ^ low] | images[low.bit_length() - 1]
    pi = BooleanHom(src, tgt, table)
    assert pi.is_hom
    return pi


def test_covariant_matches_threshold_scan():
    rng = random.Random(41)
    pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3), INFINITY]

    def rand_malg():
        n = rng.randint(1, 4)
        weights = [rng.choice(pool) for _ in range(n - 1)] + [Fraction(1)]
        return MeasureAlgebra(full_space(weights))

    def check(pi):
        k = pi.source.algebra.atom_count
        u = DualElement(pi.source, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(k)])
        v = covariant_op(pi, u)
        assert v.atom_values == covariant_threshold_scan(pi, u)
        for a in set(u.atom_values):
            assert v.threshold(a) == pi(u.threshold(a))

    for _ in range(200):
        src, tgt = rand_malg(), rand_malg()
        k, n = src.algebra.atom_count, tgt.algebra.atom_count
        check(hom_from_owners(src, tgt, [rng.randrange(k) for _ in range(n)]))
        # every target atom owned by source atom 0: the others collapse
        check(hom_from_owners(src, tgt, [0] * n))
    three = MeasureAlgebra(counting_space(range(3)))
    one = MeasureAlgebra(full_space([Fraction(3)]))
    check(hom_from_owners(one, three, [0, 0, 0]))  # duplicate onto 3 atoms
    check(hom_from_owners(three, one, [1]))        # collapse 2 of 3 atoms
    sixteen = MeasureAlgebra(counting_space(range(16)))
    perm = list(range(16))
    rng.shuffle(perm)
    check(hom_from_owners(sixteen, sixteen, perm))


# ---------------------------------------------------------------- bridge


def test_bridge_round_trip():
    f = canonical_class([5, 7, 9], SP102)
    u = duality_bridge(SP102, f)
    assert u.atom_values == (5, 9)
    assert duality_bridge_inverse(SP102, u) == f
    assert norm2_sq(f) == dual_norm2_sq(u)


def test_bridge_rejects_non_constant_atom():
    c = FiniteCarrier([0, 1, 2])
    sp = FiniteMeasureSpace(generate_sigma_algebra(c, [[0, 1]]),
                            [Fraction(1)] * 3)
    f = canonical_class([1, 2, 3], sp)
    with pytest.raises(NonConstantOnAtom):
        duality_bridge(sp, f)
    ok = canonical_class([1, 1, 3], sp)
    assert duality_bridge(sp, ok).atom_values == (1, 3)


def test_bridge_space_mismatch():
    f = canonical_class([1, 2], counting_space([0, 1]))
    with pytest.raises(SpaceMismatch):
        duality_bridge(SP102, f)


def test_bridge_naturality_square():
    """bridge(pullback(phi, f)) == covariant(induced(phi), bridge(f))."""
    from sigrep import induced_hom
    sp = counting_space([0, 1, 2])
    phi = MeasurableMap(sp, sp, {0: 1, 1: 2, 2: 0})
    f = canonical_class([4, 8, 15], sp)
    left = duality_bridge(sp, pullback(phi, f))
    right = covariant_op(induced_hom(phi), duality_bridge(sp, f))
    assert left == right


# ---------------------------------------------------------------- direct sums


def test_split_and_join():
    a = counting_space([0, 1])
    b = counting_space([0, 1])
    total, _ = direct_sum([a, b])
    f = canonical_class([3, 4, 0, 5], total, "L2")
    parts = split_direct_sum(f)
    assert [p.values for p in parts] == [(3, 4), (0, 5)]
    assert [norm2_sq(p) for p in parts] == [25, 25]
    assert norm2_sq(f) == 50
    assert join_direct_sum(parts, total) == f


def test_join_is_l2_only_when_every_part_is():
    # the tag rule of p + q, whatever the order of the parts
    a, b = counting_space([0]), counting_space([0, 1])
    p, q = canonical_class([1], a), canonical_class([2, 3], b, "L2")
    ab, _ = direct_sum([a, b])
    ba, _ = direct_sum([b, a])
    assert join_direct_sum([p, q], ab).tag == "L0"
    assert join_direct_sum([q, p], ba).tag == "L0"
    assert join_direct_sum([canonical_class([1], a, "L2"), q], ab).tag == "L2"


def test_split_requires_sum_space():
    from sigrep import NotADirectSum
    f = canonical_class([1, 2], counting_space([0, 1]))
    with pytest.raises(NotADirectSum):
        split_direct_sum(f)
