"""Function classes over finite measure spaces, and their two presentations.

A function class is a pointwise map canonicalized to 0 on the largest null
set, so equality of classes is plain tuple equality.  Values are exact
rationals, and squared norms and inner products stay exact.

The dual presentation (:class:`DualElement`) lives on the measure algebra:
it records one value per algebra atom, which is the same thing as the
threshold family ``[[u > a]]`` (the class of points where u exceeds a).  The
bridge between the two presentations is exact whenever the function is
constant on the points of every atom.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Mapping, Sequence

from .errors import (INFINITY, NonConstantOnAtom, NotADirectSum, NotHom,
                     NotIMP, NotNonsingular, SpaceMismatch, _as_rational)
from .measure import FiniteMeasureSpace, MeasurableMap, _bits
from .quotient import BooleanHom, MeasureAlgebra

TAGS = ("L0", "L2")


def _as_value(v) -> Fraction:
    return v if type(v) is Fraction else _as_rational(v, "function values")


class FnClass:
    """An equivalence class of functions, stored canonically.

    ``values`` is aligned with ``space.carrier.points`` and is zero at every
    point of the largest measurable null set.  Int values are converted to
    Fraction and any other non-Fraction value raises TypeError, as in
    :func:`canonical_class`.  ``tag`` records which space the class is
    considered to live in ("L0" or "L2"); it changes which maps may pull the
    class back, not the data.
    """

    __slots__ = ("space", "values", "tag")

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
        self.values = vals
        self.tag = tag

    @classmethod
    def _canonical(cls, space: FiniteMeasureSpace, vals: tuple,
                   tag: str) -> "FnClass":
        """A class from a tuple of Fractions that is already zero on the null
        set, as pointwise arithmetic on canonical classes gives; the public
        constructor's checks are skipped."""
        f = object.__new__(cls)
        f.space = space
        f.values = vals
        f.tag = tag
        return f

    def value(self, label: int) -> Fraction:
        return self.values[self.space.carrier.index(label)]

    def support_mask(self) -> int:
        m = 0
        for i, v in enumerate(self.values):
            if v != 0:
                m |= 1 << i
        return m

    # -- pointwise arithmetic ------------------------------------------------

    def _combine(self, other: "FnClass", op) -> "FnClass":
        if not isinstance(other, FnClass):
            return NotImplemented
        if self.space != other.space:
            raise SpaceMismatch("operands live over different spaces")
        tag = self.tag if self.tag == other.tag else "L0"
        return FnClass._canonical(
            self.space, tuple(op(a, b) for a, b in zip(self.values, other.values)),
            tag)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    def __rmul__(self, c):
        c = _as_value(c)
        return FnClass._canonical(self.space, tuple(c * v for v in self.values),
                                  self.tag)

    def __neg__(self):
        return FnClass._canonical(self.space, tuple(-v for v in self.values),
                                  self.tag)

    def __abs__(self):
        return FnClass._canonical(self.space, tuple(abs(v) for v in self.values),
                                  self.tag)

    def __eq__(self, other):
        return (isinstance(other, FnClass)
                and self.space == other.space
                and self.values == other.values
                and self.tag == other.tag)

    def __hash__(self):
        return hash((self.space, self.values, self.tag))

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
    return FnClass._canonical(space, tuple(vals), tag)


def indicator(space: FiniteMeasureSpace, mask: int, tag: str = "L0") -> FnClass:
    """The class of the characteristic function of a measurable set."""
    if mask not in space.sigma:
        raise ValueError("indicator needs a sigma-algebra member")
    return canonical_class([Fraction(1 if mask >> i & 1 else 0)
                            for i in range(space.carrier.size)], space, tag)


# ---------------------------------------------------------------- norms etc.

def norm2_sq(f: FnClass):
    """Exact weighted squared l2 norm; INFINITY when an infinite-weight point
    carries a nonzero value."""
    if f.support_mask() & f.space._inf_mask:
        return INFINITY
    return sum((w * v * v for w, v in zip(f.space.weights, f.values) if v),
               Fraction(0))


def inner(f: FnClass, g: FnClass):
    """Exact weighted inner product."""
    if f.space != g.space:
        raise SpaceMismatch("inner product needs a common space")
    if f.support_mask() & g.support_mask() & f.space._inf_mask:
        return INFINITY
    return sum((w * a * b for w, a, b in zip(f.space.weights, f.values, g.values)
                if a and b), Fraction(0))


def scale(c, f: FnClass) -> FnClass:
    return _as_value(c) * f


def sup(f: FnClass, g: FnClass) -> FnClass:
    return f._combine(g, max)


def inf(f: FnClass, g: FnClass) -> FnClass:
    return f._combine(g, min)


def leq_ae(f: FnClass, g: FnClass) -> bool:
    """Pointwise-almost-everywhere order (canonical values compare directly)."""
    if f.space != g.space:
        raise SpaceMismatch("order needs a common space")
    return all(a <= b for a, b in zip(f.values, g.values))


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
    return canonical_class([g.values[t] for t in phi._targets], phi.source, g.tag)


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
    vals = []
    for j, pmask in enumerate(malg.atom_point_masks):
        seen = {f.values[i] for i in _bits(pmask)}
        if len(seen) != 1:
            labels = space.carrier.labels_of(pmask)
            raise NonConstantOnAtom(
                f"values {sorted(str(v) for v in seen)} on atom {j} "
                f"(points {list(labels)})")
        vals.append(seen.pop())
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
        vals = f.values[off:off + comp.carrier.size]
        parts.append(canonical_class(vals, comp, f.tag))
    return parts


def join_direct_sum(parts: Sequence[FnClass],
                    sum_space: FiniteMeasureSpace) -> FnClass:
    """Inverse of :func:`split_direct_sum` for matching components.  The sum
    is tagged "L2" only when every part is, as ``f + g`` is."""
    if sum_space.summands is None:
        raise NotADirectSum("target space was not built by direct_sum")
    if len(parts) != len(sum_space.summands):
        raise SpaceMismatch("component count mismatch")
    vals: List[Fraction] = []
    for part, (comp, _off) in zip(parts, sum_space.summands):
        if part.space != comp:
            raise SpaceMismatch("component class over the wrong space")
        vals.extend(part.values)
    tag = "L2" if all(part.tag == "L2" for part in parts) else "L0"
    return canonical_class(vals, sum_space, tag)
