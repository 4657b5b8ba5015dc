"""The atom-based measure layer against the exhaustive algorithms it replaced,
and the advertised 16-point carrier limit.

The oracles below are the earlier member-family implementations, kept here
as references: closure by a pairwise fixpoint, closure checks over all pairs,
map flags from the preimage of every target member, and hom laws over all
pairs of elements.  Every check runs on random carriers of up to 6 points.
"""

import random
import re
from fractions import Fraction

import pytest

from sigrep import (INFINITY, BooleanHom, FiniteCarrier, FiniteMeasureSpace,
                    MeasurableMap, MeasureAlgebra, SigmaAlgebra, atoms,
                    check_hom_laws, counting_space, direct_sum,
                    generate_sigma_algebra, identity_hom, induced_hom,
                    power_set_algebra, quotient_measure_algebra)

# ---------------------------------------------------------------- oracles


def closure_oracle(full, masks):
    """Fixpoint of adding complements and pairwise unions."""
    fam = {0, full, *masks}
    while True:
        fresh = set(fam)
        fresh.update(full & ~a for a in fam)
        fresh.update(a | b for a in fam for b in fam)
        if fresh == fam:
            return frozenset(fam)
        fam = fresh


def is_closed_oracle(full, family):
    """The pairwise closure check a sigma-algebra family must pass."""
    fam = set(family)
    if any(m < 0 or m > full for m in fam) or 0 not in fam or full not in fam:
        return False
    return all((full & ~a) in fam and all((a | b) in fam for b in fam)
               for a in fam)


def flags_oracle(phi):
    """(measurable, nonsingular, imp) from the preimage of every member."""
    src, tgt = phi.source, phi.target
    nonsingular = imp = True
    for f_mask in tgt.sigma.members:
        pre = phi.preimage_mask(f_mask)
        if pre not in src.sigma.members:
            return (False, False, False)
        nu, mu = tgt._mass(f_mask), src._mass(pre)
        if nu == 0 and mu != 0:
            nonsingular = False
        if mu != nu:
            imp = False
    return (True, nonsingular, imp and nonsingular)


def hom_laws_oracle(pi):
    """Hom law flags and failing pairs from a scan over all element pairs."""
    m = pi.mapping
    elems = range(len(m))
    bad_sym = {(a, b) for a in elems for b in elems if m[a ^ b] != m[a] ^ m[b]}
    bad_meet = {(a, b) for a in elems for b in elems if m[a & b] != m[a] & m[b]}
    unit_ok = m[-1] == pi.target.algebra.unit
    soc = (not bad_sym and not bad_meet and unit_ok
           and all(m[a | b] == m[a] | m[b] for a in elems for b in elems))
    preserving = all(pi.target.mu_bar(m[a]) == pi.source.mu_bar(a)
                     for a in elems)
    return bad_sym, bad_meet, unit_ok, soc, preserving


def failures_oracle(pi):
    """Every failure ``check_hom_laws`` describes, in its order, uncapped."""
    m = pi.mapping
    unit = len(m) - 1
    out = [] if m[0] == 0 else ["sym_diff broken at (0, 0)"]
    for a in range(1, len(m)):
        low = a & -a
        if m[a] != m[a ^ low] ^ m[low]:
            out.append(f"sym_diff broken at ({a ^ low}, {low})")
    for a in range(unit):
        b = ~a & (a + 1)
        if m[a] != m[a | b] & m[unit ^ b]:
            out.append(f"meet broken at ({a | b}, {unit ^ b})")
    if m[unit] != pi.target.algebra.unit:
        out.append("unit not preserved")
    if any(pi.target.mu_bar(m[a]) != pi.source.mu_bar(a) for a in range(len(m))):
        out.append("measure not preserved")
    return out


def quotient_oracle(space):
    """The minimal nonzero reduced masks ``E & ~null`` (the quotient's atoms)
    and the members grouped by reduced mask (its classes)."""
    null = space.null_mask
    classes = {}
    for member in space.sigma.members:
        classes.setdefault(member & ~null, set()).add(member)
    reduced = [r for r in classes if r]
    minimal = sorted(r for r in reduced
                     if not any(s != r and s & r == s for s in reduced))
    return minimal, classes


# ---------------------------------------------------------------- generators


def rand_sigma(rng, carrier):
    if rng.random() < 0.3:
        return power_set_algebra(carrier)
    gens = [rng.sample(carrier.points, rng.randint(1, carrier.size))
            for _ in range(rng.randint(0, 3))]
    return generate_sigma_algebra(carrier, gens)


def rand_space(rng, max_points=6, positive=False):
    n = rng.randint(1, max_points)
    carrier = FiniteCarrier(sorted(rng.sample(range(12), n)))
    pool = [Fraction(0), Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3),
            Fraction(5, 2), INFINITY]
    while True:
        weights = [rng.choice(pool) for _ in range(n)]
        if not positive or any(w != 0 for w in weights):
            return FiniteMeasureSpace(rand_sigma(rng, carrier), weights)


def rand_malg(rng, max_atoms=3):
    while True:
        malg = MeasureAlgebra(rand_space(rng, positive=True))
        if malg.algebra.atom_count <= max_atoms:
            return malg


def rand_table(rng, src, tgt):
    """A hom, a hom with one entry changed, or an arbitrary table."""
    size, unit = 1 << src.algebra.atom_count, tgt.algebra.unit
    kind = rng.randrange(3)
    if kind == 2:
        return [rng.randint(0, unit) for _ in range(size)]
    owner = [rng.randrange(src.algebra.atom_count)
             for _ in range(tgt.algebra.atom_count)]
    images = [sum(1 << t for t, o in enumerate(owner) if o == j)
              for j in range(src.algebra.atom_count)]
    table = [sum(images[j] for j in range(len(images)) if a >> j & 1)
             for a in range(size)]
    if kind == 1:
        table[rng.randrange(size)] = rng.randint(0, unit)
    return table


# ---------------------------------------------------------------- sigma-algebras


def test_generate_matches_closure_fixpoint():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(0, 6)
        carrier = FiniteCarrier(range(n))
        gens = [rng.sample(range(n), rng.randint(0, n))
                for _ in range(rng.randint(0, 4))]
        sig = generate_sigma_algebra(carrier, gens)
        expected = closure_oracle(carrier.full_mask,
                                  [carrier.mask_of(g) for g in gens])
        assert sig.members == expected
        assert len(sig) == len(expected)
        for mask in range(carrier.full_mask + 2):
            assert (mask in sig) == (mask in expected)


def test_constructor_accepts_exactly_closed_families():
    rng = random.Random(103)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        carrier = FiniteCarrier(range(n))
        full = carrier.full_mask
        family = set(rand_sigma(rng, carrier).members)
        kind = rng.randrange(4)
        if kind == 1:
            family.add(rng.randint(0, full))
        elif kind == 2:
            family.discard(rng.choice(sorted(family)))
        elif kind == 3:
            family = {rng.randint(0, full) for _ in range(rng.randint(1, 12))}
            family |= {0, full} if rng.random() < 0.8 else set()
        closed = is_closed_oracle(full, family)
        verdicts.add(closed)
        if closed:
            sig = SigmaAlgebra(carrier, family)
            assert sig.members == frozenset(family)
            assert sig == generate_sigma_algebra(
                carrier, [carrier.labels_of(m) for m in family])
        else:
            with pytest.raises(ValueError):
                SigmaAlgebra(carrier, family)
    assert verdicts == {True, False}


# ---------------------------------------------------------------- maps


def test_map_flags_match_member_scan():
    rng = random.Random(107)
    seen = set()
    for _ in range(300):
        src, tgt = rand_space(rng), rand_space(rng)
        phi = MeasurableMap(src, tgt, {p: rng.choice(tgt.carrier.points)
                                       for p in src.carrier.points})
        flags = phi.flags
        got = (flags.is_measurable, flags.is_nonsingular, flags.is_imp)
        assert got == flags_oracle(phi)
        seen.add(got)
    assert len(seen) >= 3


# ---------------------------------------------------------------- quotient


def test_quotient_matches_class_derivation():
    rng = random.Random(109)
    for _ in range(150):
        sp = rand_space(rng, positive=True)
        malg, project = quotient_measure_algebra(sp)
        minimal, classes = quotient_oracle(sp)
        assert atoms(sp) == list(malg.atom_point_masks)
        assert [min(classes[r], key=lambda m: (bin(m).count("1"), m))
                for r in minimal] == atoms(sp)
        assert len(classes) == 1 << malg.algebra.atom_count
        for r, members in classes.items():
            e = project(min(members))
            assert all(project(m) == e for m in members)
            assert malg.class_members(e) == frozenset(members)
            assert malg.member_rep(e) == min(
                members, key=lambda m: (bin(m).count("1"), m))
            assert malg.mu_bar(e) == sp._mass(r)


# ---------------------------------------------------------------- hom laws


def test_hom_laws_match_pairwise_scan():
    rng = random.Random(113)
    seen = set()
    for _ in range(400):
        src, tgt = rand_malg(rng), rand_malg(rng)
        if rng.random() < 0.2:
            tgt = src
        pi = BooleanHom(src, tgt, rand_table(rng, src, tgt))
        bad_sym, bad_meet, unit_ok, soc, preserving = hom_laws_oracle(pi)
        rep = check_hom_laws(pi)
        assert rep.preserves_sym_diff == (not bad_sym)
        assert rep.preserves_meet == (not bad_meet)
        assert rep.preserves_unit == unit_ok
        assert rep.is_soc == soc
        assert rep.is_measure_preserving == preserving
        assert (pi.is_hom, pi.is_soc, pi.is_measure_preserving) == (
            rep.is_hom, soc, rep.is_hom and preserving)
        # every reported failure names a pair on which its law breaks
        assert rep.failures == tuple(failures_oracle(pi)[:16])
        assert bool(rep.failures) == (bool(bad_sym) or bool(bad_meet)
                                      or not unit_ok or not preserving)
        for msg in rep.failures:
            pair = re.fullmatch(r"(sym_diff|meet) broken at \((\d+), (\d+)\)", msg)
            if pair:
                law, a, b = pair.group(1), int(pair.group(2)), int(pair.group(3))
                assert (a, b) in (bad_sym if law == "sym_diff" else bad_meet)
            else:
                assert msg in ("unit not preserved", "measure not preserved")
        seen.add((rep.is_hom, preserving))
    assert len(seen) >= 3


# ---------------------------------------------------------------- 16 points


def test_sixteen_point_counting_space():
    n = 16
    sp = counting_space(range(n))
    assert len(sp.sigma) == 1 << n
    malg, project = quotient_measure_algebra(sp)
    assert malg.algebra.atom_count == n
    assert project(sp.carrier.full_mask) == malg.algebra.unit
    assert malg.mu_bar(malg.algebra.unit) == n
    ident = identity_hom(malg)
    assert ident.is_hom
    assert check_hom_laws(ident).is_hom
    perm = list(range(n))
    random.Random(127).shuffle(perm)
    hom = induced_hom(MeasurableMap(sp, sp, dict(enumerate(perm))))
    assert hom.is_hom and hom.is_measure_preserving
    for i in range(n):
        assert hom(1 << perm[i]) == 1 << i


def test_sixteen_point_failures_stop_at_sixteen():
    malg = MeasureAlgebra(counting_space(range(16)))
    lost = list(malg.algebra.elements)
    lost[1] = 0  # atom 0 lost: sym_diff breaks at every odd element but 1
    # atom 0 sent to atoms 0 and 1: an xor-linear map, so only meet breaks
    doubled = [e ^ (e & 1) << 1 for e in malg.algebra.elements]
    for table, first in ((lost, "sym_diff broken at (2, 1)"),
                         (doubled, "meet broken at (1, 65534)")):
        pi = BooleanHom(malg, malg, table)
        uncapped = failures_oracle(pi)
        assert len(uncapped) > 16 and uncapped[0] == first
        rep = check_hom_laws(pi)
        assert not rep.is_hom and not pi.is_hom
        assert rep.failures == tuple(uncapped[:16])


def test_sixteen_point_direct_sum():
    a = counting_space(range(8))
    b = FiniteMeasureSpace(generate_sigma_algebra(
        FiniteCarrier(range(8)), [[0, 1], [2]]), [Fraction(1)] * 8)
    total, injections = direct_sum([a, b])
    assert total.carrier.size == 16
    assert len(total.sigma) == len(a.sigma) * len(b.sigma)
    assert total.sigma.atoms == tuple(1 << i for i in range(8)) + (
        0b11 << 8, 0b100 << 8, 0b11111000 << 8)
    assert all(inj.is_nonsingular and not inj.is_imp for inj in injections)
    assert 0b11 << 8 in total.sigma and 0b1 << 8 not in total.sigma


def test_large_family_not_closed_is_refused():
    carrier = FiniteCarrier(range(11))
    family = set(range(1 << 11))
    family.discard(0b1)          # 2047 members; {0}'s complement remains
    with pytest.raises(ValueError):
        SigmaAlgebra(carrier, family)
