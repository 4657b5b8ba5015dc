"""Function classes over finite measure spaces, and their two presentations.

A function class is a pointwise map canonicalized to 0 on the largest null
set.  Values are exact rationals, held as one tuple of int numerators over
one positive int denominator in lowest terms, as a space holds its weights.
Equality of classes is tuple equality, and pointwise arithmetic, order,
squared norms and inner products are int work with one Fraction at most.

The dual presentation (:class:`DualElement`) lives on the measure algebra:
it records one value per algebra atom, which is the same thing as the
threshold family ``[[u > a]]`` (the class of points where u exceeds a).  The
bridge between the two presentations is exact whenever the function is
constant on the points of every atom.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from typing import List, Sequence

from .errors import (INFINITY, NonConstantOnAtom, NotADirectSum, NotHom,
                     NotIMP, NotNonsingular, SpaceMismatch, _as_rational)
from .measure import FiniteMeasureSpace, MeasurableMap, _bits
from .quotient import BooleanHom, MeasureAlgebra

TAGS = ("L0", "L2")

_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")


def _as_value(v) -> Fraction:
    return v if type(v) is Fraction else _as_rational(v, "function values")


def _over_one_den(vals: tuple):
    """Fractions as (int numerators, their lcm denominator); in lowest terms
    because each Fraction is."""
    den = lcm(*map(_denominator, vals))
    return tuple(map(operator.mul, map(_numerator, vals),
                     map(den.__floordiv__, map(_denominator, vals)))), den


class FnClass:
    """An equivalence class of functions, stored canonically.

    The value at ``space.carrier.points[i]`` is ``_nums[i] / _den``: the
    ``_nums`` are ints, ``_den`` is a positive int, ``gcd(_den, *_nums) ==
    1``, and ``_nums`` is 0 at every point of the largest measurable null
    set.  ``values`` gives the same values as a tuple of Fractions, built
    on first use; the public constructor and :func:`canonical_class` keep
    the Fractions they were given.  Int values are converted to Fraction
    and any other non-Fraction value raises TypeError.  ``_combine``'s
    ``op`` acts on the numerators over a common denominator, so it fits
    ``+ - max min`` only; ``*`` multiplies the denominators.  ``tag`` records
    which space the class is considered to live in ("L0" or "L2"); it
    changes which maps may pull the class back, not the data.
    """

    __slots__ = ("space", "_nums", "_den", "tag", "_values")

    def __init__(self, space: FiniteMeasureSpace, values: Sequence[Fraction],
                 tag: str = "L0"):
        if tag not in TAGS:
            raise ValueError(f"tag must be one of {TAGS}")
        vals = tuple(values)
        if len(vals) != space.carrier.size:
            raise ValueError("value tuple length must equal carrier size")
        if not set(map(type, vals)) <= {Fraction}:
            vals = tuple(map(_as_value, vals))
        if any(vals[i] != 0 for i in _bits(space.null_mask)):
            raise ValueError("values not canonical: nonzero on a null point")
        self.space = space
        self._nums, self._den = _over_one_den(vals)
        self.tag = tag
        self._values = vals

    @classmethod
    def _reduced(cls, space: FiniteMeasureSpace, nums: tuple, den: int,
                 tag: str) -> "FnClass":
        """The class of ``nums`` over ``den``, which are zero on the null
        set, as arithmetic on canonical classes gives; the common factor is
        divided out and the public constructor's checks are skipped."""
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(map(g.__rfloordiv__, nums))
            den //= g
        f = object.__new__(cls)
        f.space = space
        f._nums = nums
        f._den = den
        f.tag = tag
        f._values = None
        return f

    @classmethod
    def _canonical(cls, space: FiniteMeasureSpace, nums, den: int,
                   tag: str) -> "FnClass":
        """As :meth:`_reduced`, for numerators gathered from elsewhere: 0 is
        forced on the largest null set first."""
        nums = list(nums)
        for i in _bits(space.null_mask):
            nums[i] = 0
        return cls._reduced(space, tuple(nums), den, tag)

    @property
    def values(self) -> tuple:
        """The values as Fractions, aligned with ``space.carrier.points``."""
        if self._values is None:
            den = self._den
            self._values = tuple(Fraction(n, den) for n in self._nums)
        return self._values

    def value(self, label: int) -> Fraction:
        return self.values[self.space.carrier.index(label)]

    def support_mask(self) -> int:
        return sum(map((1).__lshift__, compress(count(), self._nums)))

    # -- pointwise arithmetic ------------------------------------------------

    def _tag_with(self, other: "FnClass") -> str:
        """The tag of a pointwise result: "L2" when both operands are."""
        if self.space != other.space:
            raise SpaceMismatch("operands live over different spaces")
        return self.tag if self.tag == other.tag else "L0"

    def _combine(self, other: "FnClass", op) -> "FnClass":
        """Apply ``op`` pointwise to the two numerator tuples brought over
        one common denominator.  The result is read over that denominator,
        so ``op`` must commute with scaling by it: + - max min, not *."""
        if not isinstance(other, FnClass):
            return NotImplemented
        tag = self._tag_with(other)
        a, b, den = self._nums, other._nums, self._den
        if other._den != den:
            den = lcm(den, other._den)
            a = map((den // self._den).__mul__, a)
            b = map((den // other._den).__mul__, b)
        return FnClass._reduced(self.space, tuple(map(op, a, b)), den, tag)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, FnClass):
            return NotImplemented
        tag = self._tag_with(other)
        return FnClass._reduced(self.space,
                                tuple(map(operator.mul, self._nums, other._nums)),
                                self._den * other._den, tag)

    def __rmul__(self, c):
        c = _as_value(c)
        return FnClass._reduced(self.space,
                                tuple(map(c.numerator.__mul__, self._nums)),
                                c.denominator * self._den, self.tag)

    def __neg__(self):
        return FnClass._reduced(self.space, tuple(map(operator.neg, self._nums)),
                                self._den, self.tag)

    def __abs__(self):
        return FnClass._reduced(self.space, tuple(map(abs, self._nums)),
                                self._den, self.tag)

    def __eq__(self, other):
        return (isinstance(other, FnClass)
                and self.space == other.space
                and self._den == other._den
                and self._nums == other._nums
                and self.tag == other.tag)

    def __hash__(self):
        return hash((self.space, self._nums, self._den, self.tag))

    def __repr__(self):
        return f"FnClass({[str(v) for v in self.values]}, tag={self.tag})"


def canonical_class(raw, space: FiniteMeasureSpace, tag: str = "L0") -> FnClass:
    """Build the canonical class of a raw pointwise function.

    ``raw`` may be a mapping from labels, a sequence aligned with the carrier
    points, or a callable on labels.  Values on the largest null set are
    forced to zero; everything else is converted to Fraction exactly.
    """
    pts = space.carrier.points
    if isinstance(raw, Mapping):
        vals = [_as_value(raw[p]) for p in pts]
    elif callable(raw):
        vals = [_as_value(raw(p)) for p in pts]
    else:
        seq = list(raw)
        if len(seq) != len(pts):
            raise ValueError("sequence length must equal carrier size")
        vals = [_as_value(v) for v in seq]
    for i in _bits(space.null_mask):
        vals[i] = Fraction(0)
    if tag not in TAGS:
        raise ValueError(f"tag must be one of {TAGS}")
    vals = tuple(vals)
    f = FnClass._reduced(space, *_over_one_den(vals), tag)
    f._values = vals
    return f


def indicator(space: FiniteMeasureSpace, mask: int, tag: str = "L0") -> FnClass:
    """The class of the characteristic function of a measurable set."""
    if mask not in space.sigma:
        raise ValueError("indicator needs a sigma-algebra member")
    if tag not in TAGS:
        raise ValueError(f"tag must be one of {TAGS}")
    return FnClass._canonical(space, (mask >> i & 1 for i in
                                      range(space.carrier.size)), 1, tag)


# ---------------------------------------------------------------- norms etc.

def norm2_sq(f: FnClass):
    """Exact weighted squared l2 norm; INFINITY when an infinite-weight point
    carries a nonzero value."""
    sp = f.space
    if sp._inf_mask and f.support_mask() & sp._inf_mask:
        return INFINITY
    nums = f._nums
    total = sum(map(operator.mul, sp._nums, map(operator.mul, nums, nums)))
    return Fraction(total, sp._den * f._den * f._den)


def inner(f: FnClass, g: FnClass):
    """Exact weighted inner product."""
    sp = f.space
    if sp != g.space:
        raise SpaceMismatch("inner product needs a common space")
    if sp._inf_mask and f.support_mask() & g.support_mask() & sp._inf_mask:
        return INFINITY
    total = sum(map(operator.mul, sp._nums,
                    map(operator.mul, f._nums, g._nums)))
    return Fraction(total, sp._den * f._den * g._den)


def scale(c, f: FnClass) -> FnClass:
    return _as_value(c) * f


def sup(f: FnClass, g: FnClass) -> FnClass:
    return f._combine(g, max)


def inf(f: FnClass, g: FnClass) -> FnClass:
    return f._combine(g, min)


def leq_ae(f: FnClass, g: FnClass) -> bool:
    """Pointwise-almost-everywhere order (canonical values compare directly,
    here cross-multiplied by the two positive denominators)."""
    if f.space != g.space:
        raise SpaceMismatch("order needs a common space")
    return all(map(operator.le, map(g._den.__mul__, f._nums),
                   map(f._den.__mul__, g._nums)))


# ---------------------------------------------------------------- pullback

def pullback(phi: MeasurableMap, g: FnClass) -> FnClass:
    """Composition along a point map: (T g)(x) = g(phi(x)).

    The map must be measurable.  For "L0" classes it must also be
    nonsingular (so null classes pull back to null classes); for "L2"
    classes it must be inverse-measure-preserving (so squared norms are
    carried over exactly).
    """
    flags = phi.flags
    if not flags.is_measurable:
        raise NotNonsingular("pullback needs at least a measurable map")
    if g.space != phi.target:
        raise SpaceMismatch("class lives over a different space than the map's target")
    if g.tag == "L2":
        if not flags.is_imp:
            raise NotIMP("an L2 class only pulls back along an "
                         "inverse-measure-preserving map")
    else:
        if not flags.is_nonsingular:
            raise NotNonsingular("an L0 class only pulls back along a "
                                 "nonsingular map")
    return FnClass._canonical(phi.source,
                              map(g._nums.__getitem__, phi._targets),
                              g._den, g.tag)


# ---------------------------------------------------------------- dual side

class DualElement:
    """A function class presented on the measure algebra: one exact value per
    algebra atom.  Equivalent data: the thresholds ``[[u > a]]``."""

    __slots__ = ("malg", "atom_values")

    def __init__(self, malg: MeasureAlgebra, atom_values: Sequence[Fraction]):
        if len(atom_values) != malg.algebra.atom_count:
            raise ValueError("need one value per algebra atom")
        self.malg = malg
        self.atom_values = tuple(_as_value(v) for v in atom_values)

    def threshold(self, a) -> int:
        """The algebra element [[u > a]]."""
        a = _as_value(a)
        e = 0
        for j, v in enumerate(self.atom_values):
            if v > a:
                e |= 1 << j
        return e

    def threshold_ge(self, a) -> int:
        """The algebra element [[u >= a]]."""
        a = _as_value(a)
        e = 0
        for j, v in enumerate(self.atom_values):
            if v >= a:
                e |= 1 << j
        return e

    def __eq__(self, other):
        return (isinstance(other, DualElement)
                and self.malg == other.malg
                and self.atom_values == other.atom_values)

    def __hash__(self):
        return hash((self.malg, self.atom_values))

    def __repr__(self):
        return f"DualElement({[str(v) for v in self.atom_values]})"


def dual_norm2_sq(u: DualElement):
    malg = u.malg
    inf_mask = malg.space._inf_mask
    total = Fraction(0)
    for v, a, w in zip(u.atom_values, malg.atom_point_masks, malg._atom_mu):
        if v == 0:
            continue
        if a & inf_mask:
            return INFINITY
        total += w * v * v
    return total


def covariant_op(pi: BooleanHom, u: DualElement) -> DualElement:
    """Transport a dual element along an algebra hom.

    The result v over ``pi.target`` is the unique element with
    ``[[v > a]] == pi([[u > a]])`` for every a.  A hom sends the source atoms
    to disjoint elements whose join is the unit, so each target atom lies in
    the image of exactly one source atom i, and takes u's value on that
    atom.
    """
    if not pi.is_hom:
        raise NotHom("covariant transport needs a sequentially "
                     "order-continuous homomorphism")
    if u.malg != pi.source:
        raise SpaceMismatch("dual element lives over a different algebra "
                            "than the hom's source")
    vals = [None] * pi.target.algebra.atom_count
    for v, img in zip(u.atom_values, pi._images):
        for j in _bits(img):
            vals[j] = v
    return DualElement(pi.target, vals)


def covariant_l2_op(pi: BooleanHom, u: DualElement) -> DualElement:
    """The l2 form of the transport: defined along measure-preserving homs
    only, where it is an exact isometry."""
    if not pi.is_measure_preserving:
        raise NotIMP("l2 transport needs a measure-preserving hom")
    return covariant_op(pi, u)


def duality_bridge(space: FiniteMeasureSpace, f: FnClass) -> DualElement:
    """Present a function class on the measure algebra of its space.

    Requires f to take a single value on the points of each algebra atom
    (the atom's reduced points); otherwise NonConstantOnAtom identifies the
    first offending atom.  On success the bridge is exactly invertible.
    """
    if f.space != space:
        raise SpaceMismatch("class lives over a different space")
    malg = MeasureAlgebra(space)
    nums, den = f._nums, f._den
    vals = []
    for j, pmask in enumerate(malg.atom_point_masks):
        seen = {nums[i] for i in _bits(pmask)}
        if len(seen) != 1:
            labels = space.carrier.labels_of(pmask)
            raise NonConstantOnAtom(
                f"values {sorted(str(Fraction(n, den)) for n in seen)} on "
                f"atom {j} (points {list(labels)})")
        vals.append(Fraction(seen.pop(), den))
    return DualElement(malg, vals)


def duality_bridge_inverse(space: FiniteMeasureSpace, u: DualElement,
                           tag: str = "L0") -> FnClass:
    """The canonical class determined by a dual element: each atom's value on
    the atom's points, zero on the largest null set."""
    if u.malg.space != space:
        raise SpaceMismatch("dual element belongs to a different measure algebra")
    vals = [Fraction(0)] * space.carrier.size
    for v, pmask in zip(u.atom_values, u.malg.atom_point_masks):
        for i in _bits(pmask):
            vals[i] = v
    return canonical_class(vals, space, tag)


# ---------------------------------------------------------------- direct sums

def split_direct_sum(f: FnClass) -> List[FnClass]:
    """Component classes of a class over a direct-sum space."""
    if f.space.summands is None:
        raise NotADirectSum("the class's space was not built by direct_sum")
    parts = []
    for comp, off in f.space.summands:
        parts.append(FnClass._canonical(
            comp, f._nums[off:off + comp.carrier.size], f._den, f.tag))
    return parts


def join_direct_sum(parts: Sequence[FnClass],
                    sum_space: FiniteMeasureSpace) -> FnClass:
    """Inverse of :func:`split_direct_sum` for matching components.  The sum
    is tagged "L2" only when every part is, as ``f + g`` is."""
    if sum_space.summands is None:
        raise NotADirectSum("target space was not built by direct_sum")
    if len(parts) != len(sum_space.summands):
        raise SpaceMismatch("component count mismatch")
    for part, (comp, _off) in zip(parts, sum_space.summands):
        if part.space != comp:
            raise SpaceMismatch("component class over the wrong space")
    den = lcm(*(part._den for part in parts))
    nums: List[int] = []
    for part in parts:
        nums.extend(map((den // part._den).__mul__, part._nums))
    tag = "L2" if all(part.tag == "L2" for part in parts) else "L0"
    return FnClass._canonical(sum_space, nums, den, tag)
