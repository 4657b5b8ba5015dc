"""The atom-based measure layer against the exhaustive algorithms it replaced,
at the 16-atom cap on 2**k tables, and on carriers far past it.

The oracles below are the earlier member-family implementations, kept here
as references: closure by a pairwise fixpoint, closure checks over all pairs,
map flags from the preimage of every target member, and hom laws over all
pairs of elements; the earlier primitives the integer masses replaced: a
mass as a sum of Fraction weights, and projection as a membership pass
followed by a pass over the positive atoms; and the earlier null rules the
null mask replaced, which weighed every atom: null and positive atoms,
map flags and the finite part, each decided from masses.  Those checks run
on random carriers of up to 6 points; the 4,096-point checks at the end
compare with per-point oracles instead.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from operator import add

import pytest

from sigrep import (INFINITY, BooleanHom, DegenerateMeasure, FiniteCarrier,
                    FiniteMeasureSpace, MeasurableMap, MeasureAlgebra,
                    NonConstantOnAtom,
                    SigmaAlgebra, atoms, canonical_class, check_hom_laws,
                    counting_space, direct_sum, duality_bridge,
                    duality_bridge_inverse, generate_sigma_algebra,
                    compose_homs, identity_hom, identity_map, induced_hom,
                    power_set_algebra, pullback,
                    quotient_measure_algebra)
from sigrep import measure, quotient
from sigrep.quotient import HomLawReport

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


def mass_oracle(space, mask):
    """The mass of ``mask`` as a sum of the points' Fraction weights."""
    ws = [space.weights[i] for i in measure._bits(mask)]
    return INFINITY if INFINITY in ws else sum(ws, Fraction(0))


def project_oracle(malg, member_mask):
    """The class of a member: a membership check, then a pass over the
    positive atoms."""
    if member_mask not in malg.space.sigma:
        raise ValueError("project is defined on sigma-algebra members only")
    e = 0
    for j, a in enumerate(malg.atom_point_masks):
        if member_mask & a:
            e |= 1 << j
    return e


def null_mask_oracle(space):
    """The union of the sigma-atoms whose mass is zero."""
    return sum(a for a in space.sigma.atoms if mass_oracle(space, a) == 0)


def atoms_oracle(space):
    """The sigma-atoms whose mass is not zero."""
    return [a for a in space.sigma.atoms if mass_oracle(space, a) != 0]


def flags_loop_oracle(phi):
    """(measurable, nonsingular, imp) from the preimage of each target atom,
    weighing every target atom and its preimage."""
    src, tgt = phi.source, phi.target
    nonsingular = imp = True
    for atom in tgt.sigma.atoms:
        pre = phi.preimage_mask(atom)
        if pre not in src.sigma:
            return (False, False, False)
        nu, mu = mass_oracle(tgt, atom), mass_oracle(src, pre)
        if nu == 0 and mu != 0:
            nonsingular = False
        if mu != nu:
            imp = False
    return (True, nonsingular, imp and nonsingular)


def finite_part_oracle(malg):
    """The elements whose measure is not INFINITY."""
    return frozenset(e for e in malg.algebra.elements
                     if malg.mu_bar(e) != INFINITY)


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


def rand_null_space(rng):
    """A space on 0 to 6 points, coarse or discrete, with zero and infinite
    weights drawn often."""
    n = rng.randint(0, 6)
    carrier = FiniteCarrier(sorted(rng.sample(range(12), n)))
    pool = [Fraction(0), Fraction(0), Fraction(0), Fraction(1, 3), Fraction(2),
            INFINITY, INFINITY]
    sigma = rand_sigma(rng, carrier) if n else power_set_algebra(carrier)
    return FiniteMeasureSpace(sigma, [rng.choice(pool) for _ in range(n)])


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
        # over finite algebras every hom preserves pairwise joins, so the
        # oracle's SOC flag is the hom flag
        assert soc == rep.is_hom == pi.is_hom
        assert rep.is_measure_preserving == preserving
        assert pi.is_measure_preserving == (rep.is_hom and preserving)
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


def table_walk(src, tgt, m):
    """The law report of the table ``m`` as ``check_hom_laws`` made it for
    every map before a hom was stored as its atom images: both law passes
    over the table, then the atom masses for a hom, else the two 2**k
    measure tables at every element."""
    unit = len(m) - 1
    failures = []
    sym = m[0] == 0
    if not sym:
        failures.append("sym_diff broken at (0, 0)")
    for a in range(1, len(m)):
        low = a & -a
        if m[a] != m[a ^ low] ^ m[low]:
            sym = False
            if len(failures) == 16:
                break
            failures.append(f"sym_diff broken at ({a ^ low}, {low})")
    meet = True
    for a in range(unit):
        b = ~a & (a + 1)
        if m[a] != m[a | b] & m[unit ^ b]:
            meet = False
            if len(failures) == 16:
                break
            failures.append(f"meet broken at ({a | b}, {unit ^ b})")
    unit_ok = m[unit] == tgt.algebra.unit
    if not unit_ok:
        failures.append("unit not preserved")
    if sym and meet and unit_ok:
        t_mu = tgt._atom_mu
        preserving = all(sum((t_mu[i] for i in measure._bits(m[1 << j])),
                             Fraction(0)) == mu
                         for j, mu in enumerate(src._atom_mu))
    else:
        target_mu = measure._unions(tgt._atom_mu, add, Fraction(0))
        source_mu = measure._unions(src._atom_mu, add, Fraction(0))
        preserving = all(target_mu[m[a]] == source_mu[a] for a in range(len(m)))
    if not preserving:
        failures.append("measure not preserved")
    return HomLawReport(sym, meet, unit_ok, preserving, tuple(failures[:16]))


def rand_images(rng, src, tgt):
    """Atom images of one of six kinds, and the kind: a partition of the
    unit (a hom), a permutation of a common algebra's atoms, a partition
    with a bit added to or taken from one image (still a hom when that bit
    was already there or the image was empty), arbitrary images, or one
    image out of the target's range."""
    ks, unit = src.algebra.atom_count, tgt.algebra.unit
    owner = [rng.randrange(ks) for _ in range(tgt.algebra.atom_count)]
    images = [sum(1 << t for t, o in enumerate(owner) if o == j)
              for j in range(ks)]
    kind = rng.choice(("partition", "permutation", "overlap", "gap",
                       "arbitrary", "out_of_range"))
    j = rng.randrange(ks)
    if kind == "permutation" and src is tgt:
        images = [1 << t for t in rng.sample(range(ks), ks)]
    elif kind == "overlap":
        images[j] |= images[j - 1] | 1 << rng.randrange(tgt.algebra.atom_count)
    elif kind == "gap":
        images[j] &= images[j] - 1
    elif kind == "arbitrary":
        images = [rng.randint(0, unit) for _ in range(ks)]
    elif kind == "out_of_range":
        images[j] = rng.choice((-1, -1 - unit, unit + 1, images[j] | unit + 1))
    return images, kind


def test_atom_images_match_the_table_walk():
    rng = random.Random(2801)
    seen = Counter()
    for _ in range(3000):
        src = rand_malg(rng, max_atoms=4)
        tgt = src if rng.random() < 0.35 else rand_malg(rng, max_atoms=4)
        images, kind = rand_images(rng, src, tgt)
        seen[kind] += 1
        if kind == "out_of_range":
            with pytest.raises(ValueError) as want:
                BooleanHom(src, tgt, measure._unions(images))
            with pytest.raises(ValueError) as got:
                BooleanHom._from_images(src, tgt, images)
            assert str(got.value) == str(want.value)
            continue
        table = measure._unions(images)
        want = table_walk(src, tgt, table)
        stored = BooleanHom._from_images(src, tgt, images)
        tabled = BooleanHom(src, tgt, table)
        # a join-extension of its atom entries keeps only those entries
        assert tabled._table is None
        for pi in (stored, tabled):
            assert check_hom_laws(pi) == want
            assert pi.is_hom == want.is_hom
            assert pi.is_measure_preserving == (want.is_hom
                                                and want.is_measure_preserving)
            assert pi.mapping == tuple(table)
            assert [pi(e) for e in range(len(table))] == table
        assert stored == tabled and hash(stored) == hash(tabled)
        ident = identity_hom(src)
        assert compose_homs(stored, ident) == stored
        assert compose_homs(identity_hom(tgt), stored) == stored
        if tgt is src:
            assert compose_homs(stored, stored).mapping == tuple(
                table[b] for b in table)
        # any other table is kept as given, and walked
        e = rng.choice([0] + [e for e in range(len(table)) if e & e - 1])
        old, table[e] = table[e], rng.randint(0, tgt.algebra.unit)
        if table[e] != old:
            kept = BooleanHom(src, tgt, table)
            assert kept._table == tuple(table) and kept != stored
            assert check_hom_laws(kept) == table_walk(src, tgt, table)
            assert not kept.is_hom and not kept.is_measure_preserving
            assert compose_homs(kept, ident) == kept
            assert compose_homs(identity_hom(tgt), kept) == kept
            seen["kept"] += 1
        seen["hom"] += want.is_hom
        seen["preserving"] += want.is_hom and want.is_measure_preserving
        seen["not preserving"] += not want.is_measure_preserving
    assert min(seen.values()) >= 50, seen


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
    assert all(inj.flags.is_nonsingular and not inj.flags.is_imp
               for inj in injections)
    assert 0b11 << 8 in total.sigma and 0b1 << 8 not in total.sigma


def test_large_family_not_closed_is_refused():
    carrier = FiniteCarrier(range(11))
    family = set(range(1 << 11))
    family.discard(0b1)          # 2047 members; {0}'s complement remains
    with pytest.raises(ValueError):
        SigmaAlgebra(carrier, family)


def test_table_builds_are_counted(monkeypatch):
    built = []
    unions = measure._unions

    def counted(*args):
        built.append(len(args[0]))
        return unions(*args)

    monkeypatch.setattr(measure, "_unions", counted)
    monkeypatch.setattr(quotient, "_unions", counted)
    sp = counting_space(range(16))
    perm = list(range(16))
    random.Random(127).shuffle(perm)
    # a hom is its atom images: building, checking, composing and
    # weighing it tabulate nothing, and neither does mu_bar
    hom = induced_hom(MeasurableMap(sp, sp, dict(enumerate(perm))))
    assert check_hom_laws(hom).is_measure_preserving
    assert compose_homs(hom, identity_hom(hom.source)) == hom
    assert hom.is_hom and hom.is_measure_preserving
    duality_bridge(sp, canonical_class(range(16), sp))
    malg = MeasureAlgebra(sp)
    assert [malg.mu_bar(e) for e in (1, 3, 7, 1)] == [1, 2, 3, 1]
    assert built == []
    # only reading the whole mapping builds it
    assert hom.mapping[0b11] == hom(0b11)
    assert built == [16]


# ---------------------------------------------------------------- 4,096 points

N = 4096


def blocked_space(block, weights):
    """The space on points 0..len(block)-1 whose atoms are the blocks named
    by ``block[i]``, the block of point i."""
    gens = {}
    for i, b in enumerate(block):
        gens.setdefault(b, []).append(i)
    carrier = FiniteCarrier(range(len(block)))
    return FiniteMeasureSpace(generate_sigma_algebra(carrier, gens.values()), weights)


def point_flags(src_block, src_w, tgt_block, tgt_w, image):
    """(measurable, nonsingular, imp) by definition, from the points: the
    preimage of each target atom must hold every point of each source atom
    it meets, and carries the summed weight of its points."""
    meets = Counter((tgt_block[image[i]], b) for i, b in enumerate(src_block))
    size = Counter(src_block)
    if any(n != size[b] for (_, b), n in meets.items()):
        return (False, False, False)
    mu, nu = Counter(), Counter()
    for i, w in enumerate(src_w):
        mu[tgt_block[image[i]]] += w
    for j, w in enumerate(tgt_w):
        nu[tgt_block[j]] += w
    nonsingular = all(mu[t] == 0 for t in nu if nu[t] == 0)
    return (True, nonsingular, nonsingular and all(mu[t] == nu[t] for t in nu))


def point_null(block, weights):
    """Whether each point lies in a zero-mass block."""
    mass = Counter()
    for b, w in zip(block, weights):
        mass[b] += w
    return [mass[b] == 0 for b in block]


def test_four_thousand_points_match_point_oracles():
    rng = random.Random(4096)
    one = [Fraction(1)] * N
    coarse = [rng.randrange(64) for _ in range(N)]
    assert len(set(coarse)) == 64
    # blocks 0..7 weigh nothing; elsewhere a point may weigh 0, 1 or 2
    coarse_w = [Fraction(0 if b < 8 else rng.randrange(3)) for b in coarse]
    spaces = {"counting": (counting_space(range(N)), list(range(N)), one),
              "coarse": (blocked_space(coarse, coarse_w), coarse, coarse_w)}
    assert len(spaces["coarse"][0].sigma.atoms) == 64
    perm = list(range(N))
    rng.shuffle(perm)
    # block to block, positive blocks to positive ones: nonsingular
    block_to = [rng.randrange(0 if b < 8 else 8, 64) for b in range(64)]
    members = [[i for i in range(N) if coarse[i] == b] for b in range(64)]
    cases = [("counting", "counting", perm),
             ("counting", "coarse", [rng.randrange(N) for _ in range(N)]),
             ("coarse", "counting", [rng.randrange(N) for _ in range(N)]),
             ("coarse", "coarse", [rng.choice(members[block_to[b]]) for b in coarse]),
             ("coarse", "coarse", [i if coarse[i] < 8 else perm[i] for i in range(N)])]
    seen = set()
    for src_name, tgt_name, image in cases:
        src, src_block, src_w = spaces[src_name]
        tgt, tgt_block, tgt_w = spaces[tgt_name]
        phi = MeasurableMap(src, tgt, dict(enumerate(image)))
        flags = point_flags(src_block, src_w, tgt_block, tgt_w, image)
        got = phi.flags
        assert (got.is_measurable, got.is_nonsingular, got.is_imp) == flags
        seen.add(flags)
        target_mask = rng.getrandbits(N)
        assert phi.preimage_mask(target_mask) == sum(
            1 << i for i in range(N) if target_mask >> image[i] & 1)
        assert phi.image_mask() == sum(1 << j for j in set(image))
        raw = [Fraction(rng.randrange(-5, 6)) for _ in range(N)]
        g = canonical_class(raw, tgt)
        null = point_null(tgt_block, tgt_w)
        assert list(g.values) == [0 if z else v for z, v in zip(null, raw)]
        if flags[1]:
            src_null = point_null(src_block, src_w)
            assert list(pullback(phi, g).values) == [
                0 if src_null[i] else g.values[image[i]] for i in range(N)]
    assert seen == {(True, True, True), (True, True, False),
                    (True, False, False), (False, False, False)}
    for sp, block, weights in spaces.values():
        value_of = [Fraction(rng.randrange(-5, 6)) for _ in range(N)]
        f = canonical_class([value_of[b] for b in block], sp)
        assert duality_bridge_inverse(sp, duality_bridge(sp, f)) == f
    sp, block, weights = spaces["coarse"]
    bumped = canonical_class([Fraction(i) for i in range(N)], sp)
    with pytest.raises(NonConstantOnAtom):
        duality_bridge(sp, bumped)


def test_reprs_give_atom_counts_past_62_atoms():
    sp = counting_space(range(20000))
    assert repr(sp.sigma) == "SigmaAlgebra(|X|=20000, atoms=20000)"
    assert "atoms=20000, weights=" in repr(sp)
    with pytest.raises(OverflowError):
        len(sp.sigma)


# ---------------------------------------------------------------- integer masses


def test_mass_matches_fraction_sum():
    rng = random.Random(1401)
    pool = [Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(2),
            Fraction(11, 6), INFINITY]
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        carrier = FiniteCarrier(range(n))
        sp = FiniteMeasureSpace(rand_sigma(rng, carrier),
                                [rng.choice(pool) for _ in range(n)])
        masks = {0, carrier.full_mask, *sp.sigma.atoms,
                 *(1 << i for i in range(n)),
                 *(rng.getrandbits(n) for _ in range(4))}
        for mask in masks:
            want, got = mass_oracle(sp, mask), sp._mass(mask)
            assert type(got) is type(want) and got == want
            if want == INFINITY:
                assert got is INFINITY
            kinds.add(type(got))
        assert sp.measure(carrier.full_mask) == mass_oracle(sp, carrier.full_mask)
    assert kinds == {Fraction, float}


def test_mass_at_4096_points_over_a_5900_bit_denominator():
    weights = [Fraction(1, i + 1) for i in range(N)]
    sp = FiniteMeasureSpace(power_set_algebra(FiniteCarrier(range(N))), weights)
    assert 5800 < sp._den.bit_length() < 6000
    rng = random.Random(4097)
    for mask in (0, 1, 1 << (N - 1), sp.carrier.full_mask, rng.getrandbits(N)):
        got = sp._mass(mask)
        assert type(got) is Fraction and got == mass_oracle(sp, mask)


def test_project_matches_two_pass_oracle():
    rng = random.Random(1402)
    for _ in range(150):
        malg = MeasureAlgebra(rand_space(rng, positive=True))
        sigma = malg.space.sigma
        full = sigma.carrier.full_mask
        for member in sigma.members:
            assert malg.project(member) == project_oracle(malg, member)
        outside = [-1, -full - 1, full + 1, 1 << (full.bit_length() + 3)]
        outside += [m for m in range(full + 1) if m not in sigma]
        for mask in outside:
            with pytest.raises(ValueError) as want:
                project_oracle(malg, mask)
            with pytest.raises(ValueError) as got:
                malg.project(mask)
            assert str(got.value) == str(want.value)


def test_measure_algebra_weighs_each_atom_once(monkeypatch):
    calls = []
    mass = FiniteMeasureSpace._mass

    def counted(self, mask):
        calls.append(mask)
        return mass(self, mask)

    monkeypatch.setattr(FiniteMeasureSpace, "_mass", counted)
    malg = MeasureAlgebra(counting_space(range(N)))
    assert len(calls) == N
    assert malg.algebra.atom_count == N
    # half the points weigh nothing: only the positive atoms are weighed,
    # and the null mask, the atom list and a singular map weigh none
    calls.clear()
    half = power_set_algebra(FiniteCarrier(range(N)))
    sp = FiniteMeasureSpace(half, [Fraction(i % 2) for i in range(N)])
    assert sp.null_mask == sum(1 << i for i in range(0, N, 2))
    assert atoms(sp) == [1 << i for i in range(1, N, 2)]
    assert calls == []
    malg = MeasureAlgebra(sp)
    assert len(calls) == N // 2
    assert calls == list(malg.atom_point_masks)
    calls.clear()
    shift = MeasurableMap(sp, sp, {i: (i + 1) % N for i in range(N)})
    assert shift.flags.is_measurable and not shift.flags.is_nonsingular
    assert calls == []
    assert identity_map(sp).flags.is_imp
    assert len(calls) == N
    monkeypatch.undo()
    discrete = power_set_algebra(FiniteCarrier(range(3)))
    with pytest.raises(DegenerateMeasure):
        MeasureAlgebra(FiniteMeasureSpace(discrete, [0, 0, 0]))
    # an infinite weight is positive mass, beside null points or not
    for weights in ([0, INFINITY, 0], [INFINITY, INFINITY, 1]):
        malg = MeasureAlgebra(FiniteMeasureSpace(discrete, weights))
        assert malg.atom_mass(0) is INFINITY


# ---------------------------------------------------------------- the null rule


def test_null_rule_matches_atom_masses():
    rng = random.Random(1501)
    seen = Counter()
    for _ in range(400):
        sp = rand_null_space(rng)
        assert sp.null_mask == null_mask_oracle(sp)
        assert atoms(sp) == atoms_oracle(sp)
        seen["empty" if not sp.carrier.size else
             "discrete" if len(sp.sigma.atoms) == sp.carrier.size else "coarse"] += 1
        seen["null"] += sp.null_mask != 0
        seen["infinite"] += sp._inf_mask != 0
        if not atoms(sp):
            with pytest.raises(DegenerateMeasure):
                MeasureAlgebra(sp)
            continue
        malg = MeasureAlgebra(sp)
        assert malg.atom_point_masks == tuple(atoms_oracle(sp))
        assert malg.finite_part == finite_part_oracle(malg)
        seen["finite_part"] += 1
    assert min(seen.values()) >= 5, seen


def test_map_flags_match_per_atom_mass_loop():
    rng = random.Random(1502)
    seen = set()
    for _ in range(400):
        src, tgt = rand_null_space(rng), rand_null_space(rng)
        if not tgt.carrier.size and src.carrier.size:
            continue
        phi = MeasurableMap(src, tgt, {p: rng.choice(tgt.carrier.points)
                                       for p in src.carrier.points})
        flags = phi.flags
        got = (flags.is_measurable, flags.is_nonsingular, flags.is_imp)
        assert got == flags_loop_oracle(phi)
        seen.add(got)
    assert seen == {(True, True, True), (True, True, False),
                    (True, False, False), (False, False, False)}


def test_full_mask_is_stored_and_read_only():
    for n in (0, 1, 5, N):
        carrier = FiniteCarrier(range(n))
        assert carrier.full_mask == (1 << n) - 1
    with pytest.raises(AttributeError):
        carrier.full_mask = 3
