"""Ten end-to-end acceptance checks, one test per shipped guarantee.

Every test is self-contained: it draws its own random instances from a fixed
seed and asserts the guarantee directly against the public API (not through
the library's own law runner), so a library regression cannot vouch for
itself.  The terminal summary prints one PASS/FAIL line per criterion; see
conftest.py.
"""

import random
import time
from fractions import Fraction

from sigrep import (BooleanHom, DualElement, FiniteCarrier, FiniteMeasureSpace,
                    MeasurableMap, MeasureAlgebra, PartialInjection, Segment,
                    canonical_class, compose, compose_homs, compose_maps,
                    covariant_op, dagger, decode, detect_affine,
                    detect_amp_affine, detect_translation, duality_bridge,
                    duality_bridge_inverse, encode, generate_sigma_algebra,
                    identity_hom, induced_hom, inf, leq_ae, metrics,
                    norm2_sq, power_set_algebra, prototype_decomposition,
                    pullback, quotient_measure_algebra, read_container,
                    read_pgm, restriction, scale, sup,
                    write_container, write_pgm)
from sigrep.cli import main as cli_main

SEED = 20260816  # fixed: the whole suite is deterministic


# ------------------------------------------------------------- generators
#
# Deliberately written from scratch here rather than imported from
# sigrep.laws, so the acceptance run does not share code with the library's
# self-checks.


def _rand_weights(rng, n, zero_prob):
    w = [Fraction(0) if rng.random() < zero_prob
         else Fraction(rng.randint(1, 8), rng.randint(1, 5)) for _ in range(n)]
    if all(v == 0 for v in w):
        w[rng.randrange(n)] = Fraction(rng.randint(1, 8))
    return w


def _rand_space(rng, max_points=5, coarse_prob=0.0, zero_prob=0.35):
    size = rng.randint(1, max_points)
    carrier = FiniteCarrier(sorted(rng.sample(range(12), size)))
    if rng.random() < coarse_prob:
        gens = [rng.sample(carrier.points, rng.randint(1, size))
                for _ in range(rng.randint(1, 2))]
        sigma = generate_sigma_algebra(carrier, gens)
    else:
        sigma = power_set_algebra(carrier)
    return FiniteMeasureSpace(sigma, _rand_weights(rng, size, zero_prob))


def _rand_nonsingular(rng, src, tgt):
    # null points may land anywhere; positive points on positive points
    positive = [p for i, p in enumerate(tgt.carrier.points)
                if tgt.weights[i] > 0]
    return MeasurableMap(src, tgt, {
        p: rng.choice(positive if src.weights[i] > 0 else tgt.carrier.points)
        for i, p in enumerate(src.carrier.points)})


def _rand_imp_onto(rng, tgt):
    """Split every target weight over fresh source points; the covering
    surjection is inverse-measure-preserving by construction."""
    labels, weights, mapping = [], [], {}
    for i, y in enumerate(tgt.carrier.points):
        w = tgt.weights[i]
        cuts = rng.randint(1, 2)  # 2 keeps a chained split within 16 points
        if cuts == 1 or w == 0:
            parts = [w] + [Fraction(0)] * (cuts - 1)
        else:
            a = Fraction(rng.randint(0, 6), 6)
            parts = [a * w, (1 - a) * w]
        for part in parts:
            lab = len(labels)
            labels.append(lab)
            weights.append(part)
            mapping[lab] = y
    src = FiniteMeasureSpace(power_set_algebra(FiniteCarrier(labels)), weights)
    return MeasurableMap(src, tgt, mapping)


def _rand_fn(rng, space, tag="L0"):
    vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in space.carrier.points]
    return canonical_class(vals, space, tag)


def _rand_scalar(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _rand_hom(rng, src, tgt):
    # dual of a function target-atoms -> source-atoms; always a SOC hom
    pick = [rng.randrange(src.algebra.atom_count)
            for _ in range(tgt.algebra.atom_count)]
    mapping = []
    for e in src.algebra.elements:
        img = 0
        for j, a in enumerate(pick):
            if e >> a & 1:
                img |= 1 << j
        mapping.append(img)
    return BooleanHom(src, tgt, mapping)


def _rand_dual(rng, malg):
    return DualElement(malg, [Fraction(rng.randint(-3, 3))
                              for _ in range(malg.algebra.atom_count)])


def _rand_counting(rng, hi=5):
    size = rng.randint(1, hi)
    carrier = FiniteCarrier(sorted(rng.sample(range(12), size)))
    return FiniteMeasureSpace(power_set_algebra(carrier),
                              [Fraction(1)] * size)


def _rand_pinj(rng, src, tgt):
    k = rng.randint(0, min(src.carrier.size, tgt.carrier.size))
    return PartialInjection(src, tgt, zip(rng.sample(src.carrier.points, k),
                                          rng.sample(tgt.carrier.points, k)))


# ------------------------------------------------------------- criterion 1


def test_criterion_1_prototype_reproduction(capsys):
    t0 = time.monotonic()
    assert cli_main(["demo-prototype"]) == 0
    elapsed = time.monotonic() - t0
    lines = capsys.readouterr().out.splitlines()
    assert "signal=1,2,3,4,5" in lines
    assert "seed=1" in lines
    assert "first_deltas=1,1,1,1" in lines
    assert "second_deltas=0,0,0" in lines
    assert "reconstruction=1,2,3,4,5" in lines
    assert "exact=true" in lines

    demo = prototype_decomposition([1, 2, 3, 4, 5], origin=1)
    assert demo["seed"] == 1
    assert list(demo["first_deltas"]) == [1, 1, 1, 1]
    assert list(demo["second_deltas"]) == [0, 0, 0]
    assert list(demo["reconstruction"]) == [1, 2, 3, 4, 5]
    assert demo["exact"]
    assert elapsed < 1.0


# ------------------------------------------------------------- criterion 2


def test_criterion_2_measure_algebra_construction():
    """200 random spaces: the quotient is a strictly positive, additive
    Boolean algebra and the projection is a SOC Boolean homomorphism."""
    rng = random.Random(SEED + 2)
    t0 = time.monotonic()
    for _ in range(200):
        sp = _rand_space(rng, max_points=6, coarse_prob=0.5, zero_prob=0.4)
        malg, project = quotient_measure_algebra(sp)
        alg = malg.algebra
        elements = list(alg.elements)
        eset = set(elements)
        mass = {e: malg.mu_bar(e) for e in elements}

        # Boolean algebra closure, strict positivity, finite additivity
        assert mass[alg.zero] == 0
        assert mass[alg.unit] == sp.measure(sp.carrier.full_mask)
        for a in elements:
            assert (alg.unit & ~a) in eset
            if a != alg.zero:
                assert mass[a] > 0
            for b in elements:
                assert (a | b) in eset and (a & b) in eset and (a ^ b) in eset
                if a & b == 0:
                    assert mass[a | b] == mass[a] + mass[b]

        # the projection is a Boolean hom that carries mu to mu-bar
        members = sorted(sp.sigma.members)
        proj = {m: project(m) for m in members}
        full = sp.carrier.full_mask
        assert proj[full] == alg.unit and proj[0] == alg.zero
        for ea in members:
            assert mass[proj[ea]] == sp.measure(ea)
            assert proj[full & ~ea] == alg.unit & ~proj[ea]
            pa = proj[ea]
            for eb in members:
                assert proj[ea ^ eb] == pa ^ proj[eb]
                assert proj[ea & eb] == pa & proj[eb]
                assert proj[ea | eb] == pa | proj[eb]

        # sequential order continuity along an increasing chain
        union = 0
        join = 0
        for m in rng.sample(members, min(len(members), 6)):
            union |= m
            join |= proj[m]
            assert proj[union] == join
    assert time.monotonic() - t0 < 10.0


# ------------------------------------------------------------- criterion 3


def test_criterion_3_induced_hom_functoriality():
    rng = random.Random(SEED + 3)
    for i in range(100):
        if i % 3 == 2:  # every third pair: both maps measure-splitting
            psi = _rand_imp_onto(rng, _rand_space(rng, 3))
            phi = _rand_imp_onto(rng, psi.source)
        else:
            a = _rand_space(rng, 4)
            b = _rand_space(rng, 4)
            c = _rand_space(rng, 4)
            phi = _rand_nonsingular(rng, a, b)
            psi = _rand_nonsingular(rng, b, c)
        chi = compose_maps(psi, phi)
        h_phi, h_psi, h_chi = induced_hom(phi), induced_hom(psi), induced_hom(chi)
        assert h_chi == compose_homs(h_phi, h_psi)
        assert induced_hom(MeasurableMap(
            phi.source, phi.source,
            {p: p for p in phi.source.carrier.points}
        )) == identity_hom(MeasureAlgebra(phi.source))
        for mp, hom in ((phi, h_phi), (psi, h_psi), (chi, h_chi)):
            assert hom.is_hom
            assert hom.is_measure_preserving == mp.flags.is_imp
        if phi.flags.is_imp and psi.flags.is_imp:
            assert h_chi.is_measure_preserving


# ------------------------------------------------------------- criterion 4


def test_criterion_4_pullback_laws():
    rng = random.Random(SEED + 4)
    for _ in range(500):
        a = _rand_space(rng, 4)
        b = _rand_space(rng, 4)
        phi = _rand_nonsingular(rng, a, b)
        g = _rand_fn(rng, b)
        h = _rand_fn(rng, b)
        s, t = _rand_scalar(rng), _rand_scalar(rng)
        tg, th = pullback(phi, g), pullback(phi, h)
        assert pullback(phi, scale(s, g) + scale(t, h)) == \
            scale(s, tg) + scale(t, th)
        assert pullback(phi, g * h) == tg * th
        assert pullback(phi, sup(g, h)) == sup(tg, th)
        assert pullback(phi, inf(g, h)) == inf(tg, th)
    for _ in range(200):
        phi = _rand_imp_onto(rng, _rand_space(rng, 3))
        g = _rand_fn(rng, phi.target, tag="L2")
        lhs, rhs = norm2_sq(pullback(phi, g)), norm2_sq(g)
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
        assert lhs == rhs


# ------------------------------------------------------------- criterion 5


def test_criterion_5_duality_bridge():
    rng = random.Random(SEED + 5)
    for _ in range(100):
        a = _rand_space(rng, 4)
        b = _rand_space(rng, 4)
        phi = _rand_nonsingular(rng, a, b)
        u = _rand_dual(rng, MeasureAlgebra(b))
        fn = duality_bridge_inverse(b, u)
        assert duality_bridge(b, fn) == u
        assert duality_bridge(a, pullback(phi, fn)) == \
            covariant_op(induced_hom(phi), u)
    for _ in range(100):
        m1 = MeasureAlgebra(_rand_space(rng, 4))
        m2 = MeasureAlgebra(_rand_space(rng, 4))
        m3 = MeasureAlgebra(_rand_space(rng, 4))
        pi = _rand_hom(rng, m1, m2)
        theta = _rand_hom(rng, m2, m3)
        u = _rand_dual(rng, m1)
        assert covariant_op(compose_homs(theta, pi), u) == \
            covariant_op(theta, covariant_op(pi, u))


# ------------------------------------------------------------- criterion 6


def test_criterion_6_riesz_lattice_multiplicative():
    rng = random.Random(SEED + 6)
    for _ in range(500):
        sp = _rand_space(rng, 5, coarse_prob=0.3)
        x = _rand_fn(rng, sp)
        y = _rand_fn(rng, sp)
        z = _rand_fn(rng, sp)
        c, d = _rand_scalar(rng), _rand_scalar(rng)
        zero = canonical_class([0] * sp.carrier.size, sp)
        one = canonical_class([1] * sp.carrier.size, sp)

        # linear space
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + zero == x
        assert x + (-x) == zero
        assert scale(c, x + y) == scale(c, x) + scale(c, y)
        assert scale(c + d, x) == scale(c, x) + scale(d, x)
        assert scale(c * d, x) == scale(c, scale(d, x))
        assert scale(1, x) == x

        # partial order and lattice
        assert leq_ae(x, x)
        if leq_ae(x, y) and leq_ae(y, x):
            assert x == y
        if leq_ae(x, y):
            assert leq_ae(x + z, y + z)
            assert leq_ae(scale(abs(c), x), scale(abs(c), y))
        s, m = sup(x, y), inf(x, y)
        assert leq_ae(x, s) and leq_ae(y, s)
        assert leq_ae(m, x) and leq_ae(m, y)
        assert leq_ae(s, z) == (leq_ae(x, z) and leq_ae(y, z))
        assert leq_ae(z, m) == (leq_ae(z, x) and leq_ae(z, y))
        assert sup(x, -x) == abs(x)

        # multiplicative structure
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * one == x
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert scale(c, x * y) == scale(c, x) * y == x * scale(c, y)
        assert abs(x * y) == abs(x) * abs(y)
        assert (x * y == zero) == (inf(abs(x), abs(y)) == zero)
        quot = canonical_class(
            [xa / ya if ya != 0 else Fraction(0)
             for xa, ya in zip(x.values, y.values)], sp)
        assert leq_ae(abs(x), abs(y)) == \
            (leq_ae(abs(quot), one) and y * quot == x)


# ------------------------------------------------------------- criterion 7


def test_criterion_7_restriction_dagger():
    rng = random.Random(SEED + 7)
    for _ in range(200):
        sx = _rand_counting(rng)
        sy = _rand_counting(rng)
        sz = _rand_counting(rng)
        f = _rand_pinj(rng, sx, sy)
        g = _rand_pinj(rng, sx, sz)   # shares f's source
        h = _rand_pinj(rng, sy, sz)   # composable after f
        fr = restriction(f)
        assert compose(f, fr) == f
        assert compose(fr, restriction(g)) == compose(restriction(g), fr)
        assert restriction(compose(f, restriction(g))) == \
            compose(fr, restriction(g))
        assert compose(restriction(h), f) == \
            compose(f, restriction(compose(h, f)))
        assert dagger(dagger(f)) == f
        assert dagger(compose(h, f)) == compose(dagger(f), dagger(h))


# ------------------------------------------------------------- criterion 8


def test_criterion_8_lossless_codec(tmp_path):
    rng = random.Random(SEED + 8)
    t0 = time.monotonic()
    for _ in range(1000):
        sig = [rng.randint(-(1 << 16), 1 << 16)
               for _ in range(rng.randint(1, 4096))]
        enc = encode(sig, origin=rng.randint(-64, 64))
        assert decode(enc) == sig
        blob = write_container(enc)
        assert write_container(read_container(blob)) == blob
    path = tmp_path / "case.pgm"
    for i in range(50):
        h, w = rng.randint(1, 256), rng.randint(1, 256)
        rows = [[rng.randint(0, 255) for _ in range(w)] for _ in range(h)]
        write_pgm(path, rows, maxval=255, binary=(i % 2 == 0))
        loaded, _maxval = read_pgm(path)
        assert loaded == rows
        enc = encode(loaded)
        assert decode(enc) == rows
        blob = write_container(enc)
        assert write_container(read_container(blob)) == blob
    assert time.monotonic() - t0 < 60.0


# ------------------------------------------------------------- criterion 9


def _paint_rectangles(rng, n):
    base = rng.randint(0, 255)
    grid = [[base] * n for _ in range(n)]
    for _ in range(rng.randint(1, 9)):  # <= 10 regions with the background
        hh, ww = rng.randint(16, 64), rng.randint(16, 64)
        r0, c0 = rng.randint(0, n - hh), rng.randint(0, n - ww)
        color = rng.randint(0, 255)
        for r in range(r0, r0 + hh):
            grid[r][c0:c0 + ww] = [color] * ww
    return grid


def _boundary_pixels(grid):
    """Pixels with at least one 4-neighbour of a different value."""
    n, m = len(grid), len(grid[0])
    count = 0
    for r in range(n):
        row = grid[r]
        for c in range(m):
            v = row[c]
            if ((c > 0 and row[c - 1] != v)
                    or (c + 1 < m and row[c + 1] != v)
                    or (r > 0 and grid[r - 1][c] != v)
                    or (r + 1 < n and grid[r + 1][c] != v)):
                count += 1
    return count


def test_criterion_9_sparsity_mechanism():
    rng = random.Random(SEED + 9)
    n = 128
    for _ in range(25):
        grid = _paint_rectangles(rng, n)
        boundary = _boundary_pixels(grid)
        while boundary == 0:  # all rectangles painted base-on-base; redraw
            grid = _paint_rectangles(rng, n)
            boundary = _boundary_pixels(grid)
        enc = encode(grid)
        nonzero = sum(1 for rec in enc.records for d in rec.delta if d != 0)
        # same denominator n*n on both sides, so compare the counts
        assert nonzero <= boundary
        m = metrics(grid, enc)
        assert m.delta_entropy < m.raw_entropy
    for _ in range(4):
        noise = [[rng.randint(0, 255) for _ in range(n)] for _ in range(n)]
        m = metrics(noise, encode(noise))
        assert m.delta_entropy >= m.raw_entropy - 1.0


# ------------------------------------------------------------ criterion 10


def _exact_arrow_count(f, g, strides):
    """Brute-force count of (S, T, c) giving a zero residual with c != 0."""
    hits = 0
    for s in strides:
        if abs(s) * (g.length - 1) + 1 > f.length:
            continue
        if s > 0:
            lo, hi = f.start - s * g.start, (f.end - 1) - s * (g.end - 1)
        else:
            lo, hi = f.start - s * (g.end - 1), (f.end - 1) - s * g.start
        for t in range(lo, hi + 1):
            u = [f.sample_at(s * j + t) for j in range(g.start, g.end)]
            den = sum(Fraction(v) * v for v in u)
            if den == 0:
                continue
            c = sum(Fraction(v) * w for v, w in zip(u, g.samples)) / den
            if c != 0 and all(w == c * v for v, w in zip(u, g.samples)):
                hits += 1
    return hits


def _planted_case(rng, strides):
    while True:
        s = rng.choice(strides)
        m = rng.randint(3, 7)
        flen = abs(s) * (m - 1) + 1 + rng.randint(0, 5)
        fstart = rng.randint(-30, 30)
        f = Segment(fstart, fstart + flen, rng.sample(range(-75, 75), flen))
        gstart = rng.randint(-30, 30)
        if s > 0:
            lo, hi = fstart - s * gstart, (f.end - 1) - s * (gstart + m - 1)
        else:
            lo, hi = fstart - s * (gstart + m - 1), (f.end - 1) - s * gstart
        t = rng.randint(lo, hi)
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        g = Segment(gstart, gstart + m,
                    [c * f.sample_at(s * j + t) for j in range(gstart, gstart + m)])
        if _exact_arrow_count(f, g, strides) == 1:
            return f, g, s, t, c


def test_criterion_10_detection_completeness():
    rng = random.Random(SEED + 10)
    strides = (-2, -1, 1, 2)
    misses = 0
    for _ in range(200):
        f, g, s, t, c = _planted_case(rng, strides)
        arr = detect_amp_affine(f, g, strides, 0)
        if (arr is None or not arr.is_exact
                or (arr.stride, arr.shift, arr.amp) != (s, t, c)):
            misses += 1
            continue
        if c == 1:  # the weaker detectors must find the same arrow
            aff = detect_affine(f, g, strides, 0)
            assert aff is not None and aff.is_exact
            assert (aff.stride, aff.shift) == (s, t)
            if s == 1 and f.length == g.length:
                tr = detect_translation(f, g, 0)
                assert tr is not None and (tr.stride, tr.shift) == (1, t)
    assert misses == 0
