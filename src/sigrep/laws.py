"""Randomized law suites behind ``sigrep verify``.

A suite is one per-instance check: it draws a random finite instance and
checks the relevant identities exactly (rational arithmetic, no
tolerances), appending a description of each failure.  One runner,
``_suite``, draws the instances and returns a LawResult with their count
and failures; the CLI prints one line per suite and fails on any failure.

Within one instance a suite makes each library call once per distinct
argument and then compares the values: a loop over members or pairs looks
them up in a ``_Memo``, and a value that several laws use is kept in a
local.  Every law is still checked on the same arguments, and the failures
come in the same order.  A failure message is formatted only when its check
fails, never for a check that passes.
"""

import random
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from functools import wraps
from typing import NamedTuple, Tuple

from . import codec as codec_mod
from .container import read_container, write_container
from .errors import DegenerateMeasure
from .fnspace import (DualElement, canonical_class, covariant_op,
                      duality_bridge, duality_bridge_inverse, indicator, inf,
                      inner, leq_ae, norm2_sq, pullback, scale,
                      split_direct_sum, sup)
from .measure import (FiniteCarrier, FiniteMeasureSpace, MeasurableMap,
                      compose_maps, counting_space, direct_sum,
                      generate_sigma_algebra, power_set_algebra)
from .partial import (PartialInjection, compose, dagger, identity_injection,
                      l2_partial, restriction)
from .quotient import BooleanHom, MeasureAlgebra, check_hom_laws, compose_homs, induced_hom
from .signal import (Segment, _shift_range, compose_arrows, delta,
                     detect_affine, detect_amp_affine, detect_translation,
                     identity_arrow)


class LawResult(NamedTuple):
    name: str
    checked: int
    failures: Tuple[str, ...] = ()

    @property
    def ok(self):
        return not self.failures


# ---------------------------------------------------------------- generators

#: the strides a planted arrow uses, and the detector searches
STRIDES = (-2, -1, 1, 2)


def rand_weights(rng, n):
    out = []
    for _ in range(n):
        if rng.random() < 0.35:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
    return out


def rand_space(rng, max_points=5, coarse_prob=0.0):
    size = rng.randint(1, max_points)
    carrier = FiniteCarrier(sorted(rng.sample(range(10), size)))
    weights = rand_weights(rng, size)
    if all(w == 0 for w in weights):
        weights[rng.randrange(size)] = Fraction(1)
    if rng.random() < coarse_prob:
        gens = [rng.sample(carrier.points, rng.randint(1, size))
                for _ in range(rng.randint(1, 2))]
        sigma = generate_sigma_algebra(carrier, gens)
    else:
        sigma = power_set_algebra(carrier)
    return FiniteMeasureSpace(sigma, weights)


def rand_fn(rng, space, tag="L0"):
    vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in space.carrier.points]
    return canonical_class(vals, space, tag)


def rand_scalar(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_nonsingular_map(rng, src, tgt):
    """Positive-weight points land on positive-weight points; with full
    sigma-algebras on both sides this is nonsingular by construction."""
    positive = [p for i, p in enumerate(tgt.carrier.points) if tgt.weights[i] > 0]
    mapping = {}
    for i, p in enumerate(src.carrier.points):
        pool = positive if src.weights[i] > 0 else tgt.carrier.points
        mapping[p] = rng.choice(pool)
    return MeasurableMap(src, tgt, mapping)


def rand_composable_nonsingular(rng):
    a = rand_space(rng, 4)
    b = rand_space(rng, 4)
    c = rand_space(rng, 4)
    return rand_nonsingular_map(rng, a, b), rand_nonsingular_map(rng, b, c)


def rand_imp_map(rng):
    """Split every target weight across fresh source points: the resulting
    surjection is inverse-measure-preserving exactly."""
    tgt = rand_space(rng, 3)
    labels = []
    weights = []
    mapping_pairs = []
    next_label = 0
    for i, y in enumerate(tgt.carrier.points):
        parts = rng.randint(1, 2)
        w = tgt.weights[i]
        if parts == 1 or w == 0:
            split = [w] + [Fraction(0)] * (parts - 1)
        else:
            t = Fraction(rng.randint(0, 4), 4)
            split = [t * w, (1 - t) * w]
        for part in split:
            labels.append(next_label)
            weights.append(part)
            mapping_pairs.append((next_label, y))
            next_label += 1
    src = FiniteMeasureSpace(power_set_algebra(FiniteCarrier(labels)), weights)
    return MeasurableMap(src, tgt, dict(mapping_pairs))


def rand_hom(rng, src_malg, tgt_malg):
    """A random Boolean hom built as the dual of a function from target atoms
    to source atoms (every hom of finite algebras arises this way)."""
    ks, kt = src_malg.algebra.atom_count, tgt_malg.algebra.atom_count
    assignment = [rng.randrange(ks) for _ in range(kt)]
    images = [0] * ks  # images[a]: the target atoms assigned to atom a
    for j, a in enumerate(assignment):
        images[a] |= 1 << j
    return BooleanHom._from_images(src_malg, tgt_malg, images)


def rand_dual(rng, malg):
    vals = [Fraction(rng.choice((-2, -1, 0, 1, 2, 3)))
            for _ in range(malg.algebra.atom_count)]
    return DualElement(malg, vals)


def rand_counting_space(rng):
    return counting_space(sorted(rng.sample(range(10), rng.randint(1, 5))))


def rand_pinj(rng, src, tgt):
    k = rng.randint(0, min(src.carrier.size, tgt.carrier.size))
    xs = rng.sample(src.carrier.points, k)
    ys = rng.sample(tgt.carrier.points, k)
    return PartialInjection(src, tgt, zip(xs, ys))


def rand_segment(rng, length, origin=None):
    if origin is None:
        origin = rng.randint(-20, 20)
    return Segment(origin, origin + length,
                   [rng.randint(-9, 9) for _ in range(length)])


# ---------------------------------------------------------------- helpers

def _expect(failures, cond, i, text):
    """Record ``[i] text`` if ``cond`` is false; only then is it formatted."""
    if not cond:
        failures.append(f"[{i}] {text}")


class _Memo(dict):
    """The values of ``fn``, each computed on its first lookup, so a loop
    over members or pairs calls ``fn`` once per distinct argument.  An error
    from ``fn`` propagates and nothing is stored."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _suite(name):
    """The suite ``name`` made from ``check(rng, i, failures)``, the check of
    instance i: ``suite(rng, instances)`` runs instances 0 .. instances - 1
    on the one ``rng`` and returns a LawResult.  The suite keeps the check's
    ``__name__``, by which ``--timings`` names its phase."""
    def runner(check):
        @wraps(check)
        def suite(rng, instances):
            failures = []
            for i in range(instances):
                check(rng, i, failures)
            return LawResult(name, instances, tuple(failures))
        return suite
    return runner


# ---------------------------------------------------------------- suites

@_suite("sigma-algebra closure")
def suite_sigma_closure(rng, i, f):
    size = rng.randint(1, 5)
    carrier = FiniteCarrier(sorted(rng.sample(range(10), size)))
    gens = [rng.sample(carrier.points, rng.randint(1, size))
            for _ in range(rng.randint(0, 3))]
    alg = generate_sigma_algebra(carrier, gens)
    full = carrier.full_mask
    inside = _Memo(alg.__contains__)
    _expect(f, inside[0] and inside[full], i, "missing empty/full")
    for g in gens:
        _expect(f, inside[carrier.mask_of(g)], i, "generator missing")
    members = alg.members
    for a in members:
        if not inside[full & ~a]:
            f.append(f"[{i}] complement of {a} missing")
        for b in members:
            if not inside[a | b]:
                f.append(f"[{i}] union missing")
            if not inside[a & b]:
                f.append(f"[{i}] intersection missing")


@_suite("null ideal is a sigma-ideal")
def suite_null_ideal(rng, i, f):
    sp = rand_space(rng, coarse_prob=0.5)
    ideal = sp.null_ideal()
    null = sp.null_mask
    _expect(f, 0 in ideal, i, "empty set missing")
    for n in ideal:
        _expect(f, sp._mass(n & null) == 0, i, "member not null")
        for m in ideal:
            if (n | m) not in ideal:
                f.append(f"[{i}] union escapes the ideal")
        sub = n
        while True:  # all subsets of n
            if sub not in ideal:
                f.append(f"[{i}] subset escapes the ideal")
            if sub == 0:
                break
            sub = (sub - 1) & n
    for e in sp.sigma.members:
        if sp.measure(e) == 0 and e not in ideal:
            f.append(f"[{i}] null member {e} not in ideal")


@_suite("measure-algebra construction")
def suite_measure_algebra(rng, i, f):
    sp = rand_space(rng, coarse_prob=0.4)
    malg = MeasureAlgebra(sp)
    alg = malg.algebra
    mu = _Memo(malg.mu_bar)
    _expect(f, mu[alg.zero] == 0, i, "mu_bar(0) != 0")
    elements = alg.elements
    for e in elements:
        if e != 0 and not mu[e] > 0:
            f.append(f"[{i}] mu_bar({e}) not positive")
    for a in elements:
        for b in elements:
            if a & b == 0 and mu[a | b] != mu[a] + mu[b]:
                f.append(f"[{i}] additivity fails at ({a},{b})")
    proj = _Memo(malg.project)
    mass = _Memo(sp._mass)
    full = sp.carrier.full_mask
    members = sorted(sp.sigma.members)
    _expect(f, proj[full] == alg.unit, i, "unit not hit")
    for ea in members:
        pa = proj[ea]
        for eb in members:
            pb = proj[eb]
            if proj[ea ^ eb] != pa ^ pb:
                f.append(f"[{i}] projection breaks sym-diff")
            if proj[ea & eb] != pa & pb:
                f.append(f"[{i}] projection breaks meet")
            if proj[ea | eb] != pa | pb:
                f.append(f"[{i}] projection breaks join (SOC)")
            if (pa & ~pb == 0) != (mass[ea & ~eb & full] == 0):
                f.append(f"[{i}] order mismatch at ({ea},{eb})")
        if mu[pa] != sp.measure(ea):
            f.append(f"[{i}] measure not respected at {ea}")


@_suite("degenerate spaces rejected")
def suite_degenerate(rng, i, f):
    size = rng.randint(1, 4)
    carrier = FiniteCarrier(sorted(rng.sample(range(10), size)))
    sp = FiniteMeasureSpace(power_set_algebra(carrier), [Fraction(0)] * size)
    try:
        MeasureAlgebra(sp)
        f.append(f"[{i}] all-zero space accepted")
    except DegenerateMeasure:
        pass


@_suite("induced-hom contravariance")
def suite_induced_hom(rng, i, f):
    phi, psi = rand_composable_nonsingular(rng)
    chi = compose_maps(psi, phi)
    h_phi = induced_hom(phi)
    h_psi = induced_hom(psi)
    h_chi = induced_hom(chi)
    _expect(f, h_chi == compose_homs(h_phi, h_psi),
            i, "contravariance fails")
    _expect(f, h_phi.is_hom, i, "flags wrong")
    rep = check_hom_laws(h_phi)
    _expect(f, rep.is_hom, i, "law report disagrees")


@_suite("measure preservation iff imp")
def suite_imp_preserving(rng, i, f):
    if rng.random() < 0.5:
        phi = rand_imp_map(rng)
    else:
        a = rand_space(rng, 4)
        b = rand_space(rng, 4)
        phi = rand_nonsingular_map(rng, a, b)
    hom = induced_hom(phi)
    _expect(f, hom.is_measure_preserving == phi.flags.is_imp,
            i, "preservation flag disagrees with imp flag")


@_suite("pullback operator laws")
def suite_pullback(rng, i, f):
    a = rand_space(rng, 4)
    b = rand_space(rng, 4)
    phi = rand_nonsingular_map(rng, a, b)
    g = rand_fn(rng, b)
    h = rand_fn(rng, b)
    s, t = rand_scalar(rng), rand_scalar(rng)
    T = lambda x: pullback(phi, x)
    tg, th = T(g), T(h)
    _expect(f, T(scale(s, g) + scale(t, h)) == scale(s, tg) + scale(t, th),
            i, "linearity fails")
    _expect(f, T(g * h) == tg * th, i, "multiplicativity fails")
    _expect(f, T(sup(g, h)) == sup(tg, th), i, "sup not preserved")
    _expect(f, T(inf(g, h)) == inf(tg, th), i, "inf not preserved")
    member = rng.choice(sorted(b.sigma.members))
    _expect(f, T(indicator(b, member)) == indicator(a, phi.preimage_mask(member)),
            i, "indicator pullback mismatch")


@_suite("pullback isometry on imp maps")
def suite_pullback_isometry(rng, i, f):
    phi = rand_imp_map(rng)
    g = rand_fn(rng, phi.target, tag="L2")
    h = rand_fn(rng, phi.target, tag="L2")
    tg, th = pullback(phi, g), pullback(phi, h)
    _expect(f, norm2_sq(tg) == norm2_sq(g), i, "squared norm changed")
    _expect(f, inner(tg, th) == inner(g, h), i, "inner product changed")


@_suite("covariant transport functoriality")
def suite_covariant(rng, i, f):
    m1 = MeasureAlgebra(rand_space(rng, 4))
    m2 = MeasureAlgebra(rand_space(rng, 4))
    m3 = MeasureAlgebra(rand_space(rng, 4))
    pi = rand_hom(rng, m1, m2)
    theta = rand_hom(rng, m2, m3)
    u = rand_dual(rng, m1)
    tu = covariant_op(pi, u)
    for a in set(u.atom_values) | {Fraction(0)}:
        if tu.threshold(a) != pi(u.threshold(a)):
            f.append(f"[{i}] threshold family mismatch at {a}")
    lhs = covariant_op(compose_homs(theta, pi), u)
    rhs = covariant_op(theta, tu)
    _expect(f, lhs == rhs, i, "composition law fails")


@_suite("duality bridge naturality")
def suite_bridge(rng, i, f):
    a = rand_space(rng, 4)
    b = rand_space(rng, 4)
    phi = rand_nonsingular_map(rng, a, b)
    malg_b = MeasureAlgebra(b)
    u = rand_dual(rng, malg_b)
    fb = duality_bridge_inverse(b, u)
    _expect(f, duality_bridge(b, fb) == u, i, "bridge round trip fails")
    hom = induced_hom(phi)
    lhs = duality_bridge(a, pullback(phi, fb))
    rhs = covariant_op(hom, u)
    _expect(f, lhs == rhs, i, "naturality square fails")


@_suite("linear space axioms")
def suite_linear(rng, i, f):
    sp = rand_space(rng, 5, coarse_prob=0.3)
    x, y, z = (rand_fn(rng, sp) for _ in range(3))
    c, d = rand_scalar(rng), rand_scalar(rng)
    zero = canonical_class([0] * sp.carrier.size, sp)
    xy = x + y
    _expect(f, xy + z == x + (y + z), i, "+ not associative")
    _expect(f, x + zero == x and zero + x == x, i, "zero not neutral")
    _expect(f, x + (-x) == zero, i, "negation fails")
    _expect(f, xy == y + x, i, "+ not commutative")
    cx = scale(c, x)
    _expect(f, scale(c, xy) == cx + scale(c, y),
            i, "scalar distributivity fails")
    _expect(f, scale(c + d, x) == cx + scale(d, x),
            i, "scalar addition fails")
    _expect(f, scale(c * d, x) == scale(c, scale(d, x)),
            i, "scalar associativity fails")
    _expect(f, scale(1, x) == x, i, "unit scalar fails")


@_suite("ordered space and lattice laws")
def suite_order_riesz(rng, i, f):
    sp = rand_space(rng, 5, coarse_prob=0.3)
    x, y, z, h = (rand_fn(rng, sp) for _ in range(4))
    c = abs(rand_scalar(rng))
    _expect(f, leq_ae(x, x), i, "order not reflexive")
    x_le_y = leq_ae(x, y)
    if x_le_y and leq_ae(y, x):
        _expect(f, x == y, i, "order not antisymmetric")
    if x_le_y and leq_ae(y, z):
        _expect(f, leq_ae(x, z), i, "order not transitive")
    if x_le_y:
        _expect(f, leq_ae(x + z, y + z), i, "order not shift-invariant")
        _expect(f, leq_ae(scale(c, x), scale(c, y)),
                i, "order not scale-invariant")
    s, m = sup(x, y), inf(x, y)
    _expect(f, leq_ae(x, s) and leq_ae(y, s), i, "sup below operand")
    _expect(f, leq_ae(m, x) and leq_ae(m, y), i, "inf above operand")
    _expect(f, leq_ae(s, h) == (leq_ae(x, h) and leq_ae(y, h)),
            i, "sup universal property fails")
    _expect(f, leq_ae(h, m) == (leq_ae(h, x) and leq_ae(h, y)),
            i, "inf universal property fails")
    _expect(f, sup(x, -x) == abs(x), i, "|x| is not x v -x")


@_suite("multiplicative structure laws")
def suite_multiplicative(rng, i, f):
    sp = rand_space(rng, 5, coarse_prob=0.3)
    x, y, z = (rand_fn(rng, sp) for _ in range(3))
    c = rand_scalar(rng)
    one = canonical_class([1] * sp.carrier.size, sp)
    xy, xz, yz = x * y, x * z, y * z
    ax, ay = abs(x), abs(y)
    _expect(f, x * yz == xy * z, i, "x not associative")
    _expect(f, x * one == x and one * x == x, i, "unit fails")
    _expect(f, scale(c, xy) == scale(c, x) * y ==
            x * scale(c, y), i, "scalar compatibility fails")
    _expect(f, x * (y + z) == xy + xz, i, "left distributivity fails")
    _expect(f, (x + y) * z == xz + yz,
            i, "right distributivity fails")
    _expect(f, xy == y * x, i, "x not commutative")
    _expect(f, abs(xy) == ax * ay, i, "|xy| != |x||y|")
    zero = canonical_class([0] * sp.carrier.size, sp)
    _expect(f, (xy == zero) == (inf(ax, ay) == zero),
            i, "disjointness characterization fails")
    # |x| <= |y| iff x = y*z for some z with |z| <= 1
    dominated = leq_ae(ax, ay)
    zvals = [xa / ya if ya != 0 else Fraction(0)
             for xa, ya in zip(x.values, y.values)]
    zc = canonical_class(zvals, sp)
    witness_ok = leq_ae(abs(zc), one) and y * zc == x
    _expect(f, dominated == witness_ok,
            i, "domination witness characterization fails")


@_suite("restriction and dagger laws")
def suite_restriction_dagger(rng, i, fl):
    x = rand_counting_space(rng)
    yy = rand_counting_space(rng)
    zz = rand_counting_space(rng)
    f_ = rand_pinj(rng, x, yy)
    g_same = rand_pinj(rng, x, zz)      # same source as f_
    g_chain = rand_pinj(rng, yy, zz)    # composable after f_
    fr, rg = restriction(f_), restriction(g_same)
    fr_rg = compose(fr, rg)
    gf = compose(g_chain, f_)
    fd = dagger(f_)
    _expect(fl, compose(f_, fr) == f_, i, "R1 fails")
    _expect(fl, fr_rg == compose(rg, fr), i, "R2 fails")
    _expect(fl, restriction(compose(f_, rg)) == fr_rg, i, "R3 fails")
    _expect(fl, compose(restriction(g_chain), f_) ==
            compose(f_, restriction(gf)), i, "R4 fails")
    _expect(fl, dagger(fd) == f_, i, "dagger not involutive")
    _expect(fl, dagger(gf) == compose(fd, dagger(g_chain)),
            i, "dagger not contravariant")
    _expect(fl, compose(fd, f_) == fr, i, "f+ f != restriction")
    _expect(fl, compose(f_, fd) == restriction(fd),
            i, "f f+ != image restriction")
    ident = identity_injection(x)
    _expect(fl, compose(f_, ident) == f_ and
            compose(identity_injection(yy), f_) == f_,
            i, "identities fail")


@_suite("partial-injection l2 transport")
def suite_l2_partial(rng, i, fl):
    x = rand_counting_space(rng)
    yy = rand_counting_space(rng)
    f_ = rand_pinj(rng, x, yy)
    g = rand_fn(rng, yy, tag="L2")
    tg = l2_partial(f_, g)
    ntg, ng = norm2_sq(tg), norm2_sq(g)
    _expect(fl, ntg <= ng, i, "not a contraction")
    covered = g.support_mask() & ~f_.image_mask() == 0
    _expect(fl, (ntg == ng) == covered, i, "isometry condition mismatch")
    fd = f_.as_dict()
    for p in x.carrier.points:
        want = g.value(fd[p]) if p in fd else 0
        if tg.value(p) != want:
            fl.append(f"[{i}] wrong value at {p}")


@_suite("direct-sum structure")
def suite_direct_sum(rng, i, fl):
    comps = [rand_space(rng, 3, coarse_prob=0.3)
             for _ in range(rng.randint(2, 3))]
    total, injections = direct_sum(comps)
    members = sorted(total.sigma.members)
    if len(members) > 128:
        members = rng.sample(members, 128)
    for comp, inj in zip(comps, injections):
        _expect(fl, inj.flags.is_measurable and inj.flags.is_nonsingular,
                i, "injection not nonsingular")
        img = inj.image_mask()
        # each distinct pair is weighed once and fails once per member
        pairs = Counter((inj.preimage_mask(fm), fm & img) for fm in members)
        for (pre, part), times in pairs.items():
            if comp._mass(pre) != total._mass(part):
                fl += [f"[{i}] injection not imp onto its image"] * times
    u = rand_fn(rng, total, tag="L2")
    parts = split_direct_sum(u)
    _expect(fl, norm2_sq(u) == sum(norm2_sq(p) for p in parts),
            i, "norm not additive over components")


@_suite("segment arrow category laws")
def suite_segment_category(rng, i, fl):
    f = rand_segment(rng, rng.randint(2, 8))
    shift1 = rng.randint(-5, 5)
    shift2 = rng.randint(-5, 5)
    g = Segment(f.start + shift1, f.end + shift1, f.samples)
    h = Segment(g.start + shift2, g.end + shift2, g.samples)
    a = detect_translation(f, g, 0)
    b = detect_translation(g, h, 0)
    if a is None or b is None:
        fl.append(f"[{i}] exact translation not detected")
        return
    ba = compose_arrows(b, a)
    _expect(fl, ba.is_exact and ba.predict(f) == h,
            i, "composite does not transfer")
    _expect(fl, compose_arrows(a, identity_arrow(f)) == a,
            i, "right identity fails")
    _expect(fl, compose_arrows(identity_arrow(g), a) == a,
            i, "left identity fails")
    obs = rand_segment(rng, f.length, origin=f.start)
    d1 = delta(obs, f)
    d2 = delta(f, obs)
    _expect(fl, all(p == -q for p, q in zip(d1, d2)),
            i, "residual not antisymmetric")


def plant_arrow_case(rng):
    """A random (f, g, stride, shift, amp) with g an exact scaled resampling
    of f, resampled until that arrow is the unique exact candidate (random
    distinct samples can still be accidentally proportional, which would
    turn detection into a tie)."""
    while True:
        stride = rng.choice(STRIDES)
        m = rng.randint(3, 6)
        length = abs(stride) * (m - 1) + 1 + rng.randint(0, 4)
        start = rng.randint(-9, 9)
        f = Segment(start, start + length, rng.sample(range(-60, 60), length))
        t_start = rng.randint(-9, 9)
        lo, hi = _shift_range(f, stride, t_start, m)
        shift = rng.randint(lo, hi)
        c = Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2)))
        g = Segment(t_start, t_start + m,
                    [c * f.sample_at(stride * j + shift)
                     for j in range(t_start, t_start + m)])
        if _exact_candidates(f, g) == 1:
            return f, g, stride, shift, c


def _exact_candidates(f, g):
    """Brute-force count of (S, T, c) over ``STRIDES`` with zero residual and
    c != 0."""
    count = 0
    m = g.length
    for s in STRIDES:
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


@_suite("planted arrow detection")
def suite_detection(rng, i, fl):
    f, g, stride, shift, c = plant_arrow_case(rng)
    # the plant is the only exact candidate at any amplitude, so an exact
    # amplitude-1 arrow exists only when c == 1, and it is the plant
    unit = detect_affine(f, g, STRIDES, 0)
    got = None if unit is None else (unit.stride, unit.shift, unit.amp)
    want = (stride, shift, c) if c == 1 else None
    if got != want:
        fl.append(f"[{i}] wrong amplitude-1 arrow: {got} != {want}")
    arr = detect_amp_affine(f, g, STRIDES, 0)
    if arr is None:
        fl.append(f"[{i}] planted arrow missed")
        return
    _expect(fl, arr.is_exact, i, "nonzero residual")
    got = (arr.stride, arr.shift, arr.amp)
    if got != (stride, shift, c):
        fl.append(f"[{i}] wrong arrow recovered: "
                  f"{got} != {(stride, shift, c)}")


@_suite("codec round trip and dominance")
def suite_codec(rng, i, fl):
    n = rng.randint(1, 40)
    sig = [rng.randint(-1000, 1000) for _ in range(n)]
    origin = rng.randint(-5, 5)
    encoded = {}
    for policy in codec_mod.POLICIES:
        enc = encoded[policy] = codec_mod.encode(sig, policy, origin=origin)
        if codec_mod.decode(enc) != sig:
            fl.append(f"[{i}] 1-D round trip fails ({policy})")
        blob = write_container(enc)
        if write_container(read_container(blob)) != blob:
            fl.append(f"[{i}] container bytes unstable ({policy})")
    # compare per sample: one predecessor record covers a whole run
    deltas = {policy: [d for rec in enc.records for d in rec.delta]
              for policy, enc in encoded.items()}
    for dp, dd in zip(deltas["predecessor"], deltas["detected"]):
        _expect(fl, dd * dd <= dp * dp,
                i, "detected norm above predecessor")
    w = rng.randint(1, 8)
    rows = [[rng.randint(0, 255) for _ in range(w)]
            for _ in range(rng.randint(1, 8))]
    enc2 = codec_mod.encode(rows, "predecessor")
    _expect(fl, codec_mod.decode(enc2) == rows, i, "2-D round trip fails")


ALL_SUITES = (
    suite_sigma_closure,
    suite_null_ideal,
    suite_measure_algebra,
    suite_degenerate,
    suite_induced_hom,
    suite_imp_preserving,
    suite_pullback,
    suite_pullback_isometry,
    suite_covariant,
    suite_bridge,
    suite_linear,
    suite_order_riesz,
    suite_multiplicative,
    suite_restriction_dagger,
    suite_l2_partial,
    suite_direct_sum,
    suite_segment_category,
    suite_detection,
    suite_codec,
)


def run_all(seed=0, instances=25, phase=None):
    """Run every suite in ALL_SUITES, each with its own seeded rng.

    ``phase``, if given, takes a suite's function name and returns a context
    manager entered around that suite's run; the CLI times suites with it.
    """
    results = []
    for idx, fn in enumerate(ALL_SUITES):
        rng = random.Random(seed * 1000003 + idx)
        with phase(fn.__name__) if phase else nullcontext():
            results.append(fn(rng, instances))
    return results
