"""Finite measure spaces over explicit point carriers.

Sets are extensional: a subset of the carrier is an int bitmask in which bit
``i`` stands for ``carrier.points[i]``.  A finite sigma-algebra is the power
set of its atoms, so it is stored as its atoms: disjoint nonzero masks whose
union is the carrier.  Membership, null sets and map flags are all decided
on the atoms.

Weights are nonnegative rationals (:class:`fractions.Fraction`), with
``float("inf")`` as the one admitted infinite value.  A space holds its
finite weights as integer numerators over one common denominator, the lcm
of theirs, and its infinite-weight points as a mask.  The measure of a set
is INFINITY when it meets that mask, and otherwise the exact Fraction of
one int sum of numerators over that denominator.  A sigma-atom is null
exactly when it holds no point of nonzero weight: a space finds those atoms
once, and null atoms, positive atoms and map flags are read from its
``null_mask``, so a mass is computed only where its value is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import or_
from typing import FrozenSet, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import MapNotTotal, SpaceMismatch

INFINITY = float("inf")

Weight = Union[Fraction, float]  # Fraction, or INFINITY

#: The largest k for which a 2**k table is built (``SigmaAlgebra.members``,
#: null ideals, a measure algebra's finite part and class members, a Boolean
#: hom's ``mapping``): 65536 entries.  Carriers, atoms and the homs
#: themselves have no cap; only :func:`_unions` reads this.
MAX_CARRIER = 16


def _as_weight(value) -> Weight:
    if isinstance(value, float):
        if value == INFINITY:
            return INFINITY
        raise TypeError(
            "finite float weights are not accepted; pass Fraction or int "
            "(only float('inf') is allowed as a float)"
        )
    if type(value) is not Fraction:
        # Fraction() would also read a str or a Decimal
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"weights must be exact rationals (int or "
                            f"Fraction), not {type(value).__name__}")
        value = Fraction(value)
    if value < 0:
        raise ValueError("weights must be nonnegative")
    return value


class FiniteCarrier:
    """An ordered finite set of integer point labels.

    Labels must be strictly increasing; bit ``i`` of any subset mask refers
    to ``points[i]``.
    """

    __slots__ = ("points", "_index", "_full_mask")

    def __init__(self, points: Iterable[int]):
        pts = tuple(points)
        if any(not isinstance(p, int) or isinstance(p, bool) for p in pts):
            raise TypeError("carrier points must be ints")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("carrier points must be strictly increasing")
        self.points = pts
        self._index = {p: i for i, p in enumerate(pts)}
        self._full_mask = (1 << len(pts)) - 1

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return self._full_mask

    def index(self, label: int) -> int:
        # 1.0, Fraction(1) and True all equal 1 as dict keys, but only an
        # int that is not a bool is ever a point
        i = (self._index.get(label) if isinstance(label, int)
             and not isinstance(label, bool) else None)
        if i is None:
            raise KeyError(f"label {label!r} is not a carrier point")
        return i

    def mask_of(self, labels: Iterable[int]) -> int:
        """Bitmask of a collection of point labels."""
        m = 0
        for p in labels:
            m |= 1 << self.index(p)
        return m

    def labels_of(self, mask: int) -> Tuple[int, ...]:
        """Point labels selected by ``mask``, in increasing order."""
        if mask < 0 or mask > self.full_mask:
            raise ValueError("mask out of range for this carrier")
        return tuple(self.points[i] for i in _bits(mask))

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteCarrier)
                                 and self.points == other.points)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"FiniteCarrier({list(self.points)})"


def _bits(mask: int) -> Iterable[int]:
    """Indices of the bits set in a nonnegative ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unions(parts: Sequence, join=or_, zero=0) -> list:
    """The 2**len(parts) table whose entry ``e`` joins ``parts[j]`` over the
    bits ``j`` set in ``e``, built by peeling off the lowest bit of each
    ``e``.  The one builder of such a table: it refuses more than
    ``MAX_CARRIER`` parts before it allocates."""
    if len(parts) > MAX_CARRIER:
        raise ValueError(f"a 2**k table is built for k <= {MAX_CARRIER} only "
                         f"(k = {len(parts)})")
    out = [zero] * (1 << len(parts))
    for e in range(1, len(out)):
        low = e & -e
        out[e] = join(out[e ^ low], parts[low.bit_length() - 1])
    return out


def _refine(full: int, masks: Iterable[int]) -> Tuple[int, ...]:
    """Atoms of the sigma-algebra on ``full`` generated by ``masks``: the
    partition ``{full}`` refined by each mask, sorted."""
    blocks = [full] if full else []
    for m in masks:
        blocks = [part for b in blocks for part in (b & m, b & ~m) if part]
    return tuple(sorted(blocks))


class SigmaAlgebra:
    """A sigma-algebra stored as its sorted ``atoms``; members are the unions
    of atoms.  The constructor takes a family of members and refines
    ``{full}`` by each, giving the atoms of the algebra the family generates;
    a family holding 0 and ``full`` is closed exactly when it has
    2**len(atoms) members."""

    __slots__ = ("carrier", "atoms", "_members")

    def __init__(self, carrier: FiniteCarrier, members: Iterable[int]):
        family = frozenset(members)
        full = carrier.full_mask
        if any(m < 0 or m > full for m in family):
            raise ValueError("member mask out of carrier range")
        if 0 not in family or full not in family:
            raise ValueError("a sigma-algebra must contain the empty set and the carrier")
        atoms = _refine(full, family)
        if len(family) != 1 << len(atoms):
            raise ValueError("family not closed under complement and union")
        self.carrier = carrier
        self.atoms = atoms
        self._members = family

    @classmethod
    def _from_atoms(cls, carrier: FiniteCarrier, atoms: Tuple[int, ...]) -> "SigmaAlgebra":
        sig = cls.__new__(cls)
        sig.carrier = carrier
        sig.atoms = atoms
        sig._members = None
        return sig

    @property
    def members(self) -> FrozenSet[int]:
        """Every member mask (all 2**len(atoms) unions of atoms)."""
        if self._members is None:
            self._members = frozenset(_unions(self.atoms))
        return self._members

    def __contains__(self, mask: int) -> bool:
        """True when ``mask`` is a union of atoms."""
        if mask < 0 or mask > self.carrier.full_mask:
            return False
        for a in self.atoms:
            if mask & a and mask & a != a:
                return False
        return True

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        """2**len(atoms); ``len()`` raises OverflowError past 62 atoms."""
        return 1 << len(self.atoms)

    def __eq__(self, other):
        return self is other or (isinstance(other, SigmaAlgebra)
                                 and self.carrier == other.carrier
                                 and self.atoms == other.atoms)

    def __hash__(self):
        return hash((self.carrier, self.atoms))

    def __repr__(self):
        return f"SigmaAlgebra(|X|={self.carrier.size}, atoms={len(self.atoms)})"


def generate_sigma_algebra(carrier: FiniteCarrier,
                           generators: Iterable[Iterable[int]]) -> SigmaAlgebra:
    """Smallest sigma-algebra on ``carrier`` containing every generator.

    Generators are given as iterables of point labels.  Its atoms come from
    refining the one-block partition by each generator, in O(n) per
    generator.
    """
    masks = [carrier.mask_of(g) for g in generators]
    return SigmaAlgebra._from_atoms(carrier, _refine(carrier.full_mask, masks))


def power_set_algebra(carrier: FiniteCarrier) -> SigmaAlgebra:
    """The discrete sigma-algebra: every subset of the carrier."""
    return SigmaAlgebra._from_atoms(
        carrier, tuple(1 << i for i in range(carrier.size)))


class FiniteMeasureSpace:
    """A carrier + sigma-algebra + pointwise weight function.

    ``weights`` is a sequence aligned with ``carrier.points``, one
    nonnegative Fraction (or int) or ``INFINITY`` per point; a mapping is
    refused, and any other weight (a bool, a finite float, a string, a
    Decimal) raises TypeError.  The measure of a member mask is the sum of the weights of its
    points.  The space is point-supported by construction.  It sums
    masses over ``_den``, the lcm of the finite weights' denominators:
    ``_nums[i]`` is point ``i``'s weight times ``_den`` (0 at an infinite
    point), and ``_inf_mask`` marks the infinite-weight points.
    """

    __slots__ = ("sigma", "weights", "summands", "_null_mask",
                 "_den", "_nums", "_inf_mask")

    def __init__(self, sigma: SigmaAlgebra, weights: Sequence[object],
                 summands: Union[Tuple, None] = None):
        self.sigma = sigma
        if isinstance(weights, Mapping):
            raise TypeError("weights are a sequence aligned with the carrier "
                            "points, not a mapping")
        wseq = list(weights)
        if len(wseq) != sigma.carrier.size:
            raise ValueError("weight sequence length must equal carrier size")
        wtuple = tuple(_as_weight(w) for w in wseq)
        self.weights = wtuple
        den = lcm(*(w.denominator for w in wtuple if w is not INFINITY))
        self._den = den
        self._nums = tuple(0 if w is INFINITY else w.numerator * (den // w.denominator)
                           for w in wtuple)
        self._inf_mask = sum(1 << i for i, w in enumerate(wtuple) if w is INFINITY)
        support = sum(1 << i for i, w in enumerate(wtuple) if w)  # INFINITY too
        self._null_mask = sum(a for a in sigma.atoms if not a & support)
        #: provenance for split_direct_sum: tuple of (component_space, offset)
        self.summands = summands

    @property
    def carrier(self) -> FiniteCarrier:
        return self.sigma.carrier

    def measure(self, mask: int) -> Weight:
        """Measure of a member mask (exact; INFINITY if an infinite-weight
        point is selected)."""
        if mask not in self.sigma:
            raise ValueError("measure is defined on sigma-algebra members only")
        return self._mass(mask)

    def _mass(self, mask: int) -> Weight:
        if mask & self._inf_mask:
            return INFINITY
        nums = self._nums
        return Fraction(sum(nums[i] for i in _bits(mask)), self._den)

    @property
    def null_mask(self) -> int:
        """Union of all measurable null sets (the largest one): the
        sigma-atoms holding no point of nonzero weight, infinite weights
        included.  It is computed when the space is built."""
        return self._null_mask

    def null_ideal(self) -> FrozenSet[int]:
        """All subsets of the carrier contained in a measurable null set."""
        return frozenset(_unions([1 << i for i in _bits(self.null_mask)]))

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteMeasureSpace)
                                 and self.sigma == other.sigma
                                 and self.weights == other.weights)

    def __hash__(self):
        return hash((self.sigma, self.weights))

    def __repr__(self):
        return (f"FiniteMeasureSpace(points={list(self.carrier.points)}, "
                f"atoms={len(self.sigma.atoms)}, weights={list(self.weights)})")


def counting_space(labels: Iterable[int]) -> FiniteMeasureSpace:
    """Discrete space with unit weight at every point."""
    carrier = FiniteCarrier(labels)
    return FiniteMeasureSpace(power_set_algebra(carrier),
                              [Fraction(1)] * carrier.size)


@dataclass(frozen=True)
class MapFlags:
    is_measurable: bool
    is_nonsingular: bool
    is_imp: bool


class MeasurableMap:
    """A total point map between finite measure spaces.

    ``mapping`` sends every source label to a target label.  The three flags,
    read as ``phi.flags.is_*`` and computed on first use, are defined over
    every member of the target sigma-algebra:

    * measurable      -- every preimage is source-measurable;
    * nonsingular     -- measurable, and preimages of null sets are null;
    * imp             -- measurable, and preimages carry identical measure
                         (inverse-measure-preserving).

    ``imp`` implies ``nonsingular`` implies ``measurable``.  Members are
    disjoint unions of target atoms and masses are nonnegative and additive,
    so the flags are decided on the preimages of the target atoms alone.
    """

    __slots__ = ("source", "target", "mapping", "_targets", "_flags", "_pre")

    def __init__(self, source: FiniteMeasureSpace, target: FiniteMeasureSpace,
                 mapping: Mapping[int, int]):
        self.source = source
        self.target = target
        missing = [p for p in source.carrier.points if p not in mapping]
        if missing:
            raise MapNotTotal(f"no image for source points {missing}")
        self.mapping = {p: mapping[p] for p in source.carrier.points}
        #: target point index of each source point; raises KeyError on a bad image
        self._targets = tuple(map(target.carrier.index, self.mapping.values()))
        self._flags = None
        self._pre = None

    def __call__(self, label: int) -> int:
        return self.mapping[label]

    def preimage_mask(self, target_mask: int) -> int:
        """The source points sent into ``target_mask``: the join of the
        preimages of its points, read from an index built on first use.
        Bits past the target carrier are ignored."""
        pre = self._pre
        if pre is None:
            pre = self._pre = [0] * self.target.carrier.size
            for i, t in enumerate(self._targets):
                pre[t] |= 1 << i
        mask = target_mask & ((1 << len(pre)) - 1)
        out = 0
        while mask:  # _bits inlined: a generator costs more than tiny maps do
            low = mask & -mask
            out |= pre[low.bit_length() - 1]
            mask ^= low
        return out

    def image_mask(self) -> int:
        return sum(1 << t for t in set(self._targets))

    @property
    def flags(self) -> MapFlags:
        if self._flags is None:
            self._flags = self._classify()
        return self._flags

    def _classify(self) -> MapFlags:
        """Measurable exactly when each source atom lands inside one target
        atom; a target atom's preimage is the union of those in it."""
        src, tgt = self.source, self.target
        atom_of = [0] * tgt.carrier.size
        for j, atom in enumerate(tgt.sigma.atoms):
            for i in _bits(atom):
                atom_of[i] = j
        pres = [0] * len(tgt.sigma.atoms)
        for atom in src.sigma.atoms:
            hit = {atom_of[self._targets[i]] for i in _bits(atom)}
            if len(hit) != 1:
                return MapFlags(False, False, False)
            pres[hit.pop()] |= atom
        # nonsingular: null target atoms pull back into the source's null
        # mask; then only positive target atoms can differ in mass
        t_null, s_null = tgt.null_mask, src.null_mask
        pairs = tuple(zip(tgt.sigma.atoms, pres))
        if any(pre & ~s_null for atom, pre in pairs if atom & t_null):
            return MapFlags(True, False, False)
        return MapFlags(True, True, all(src._mass(pre) == tgt._mass(atom)
                                        for atom, pre in pairs if not atom & t_null))

    def __eq__(self, other):
        return (isinstance(other, MeasurableMap)
                and self.source == other.source
                and self.target == other.target
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.mapping.items()))))

    def __repr__(self):
        return f"MeasurableMap({self.mapping})"


def identity_map(space: FiniteMeasureSpace) -> MeasurableMap:
    return MeasurableMap(space, space, {p: p for p in space.carrier.points})


def compose_maps(psi: MeasurableMap, phi: MeasurableMap) -> MeasurableMap:
    """The composite ``psi after phi`` (apply ``phi`` first)."""
    if phi.target != psi.source:
        raise SpaceMismatch("inner map's target must equal outer map's source")
    return MeasurableMap(phi.source, psi.target,
                         {p: psi.mapping[phi.mapping[p]] for p in phi.source.carrier.points})


def atoms(space: FiniteMeasureSpace) -> List[int]:
    """Canonical atom representatives: the positive-mass atoms of the
    sigma-algebra, ordered by mask value.

    An atom of the measure is a positive-measure measurable set all of whose
    measurable subsets are either null or almost all of it.  Such sets differ
    from a positive-mass sigma-atom only by null sets, so each class is
    represented by its sigma-atom, which is its smallest member.  For a
    counting measure these are exactly the singletons.  They are the
    sigma-atoms outside ``space.null_mask``, so none is weighed.
    """
    null = space.null_mask
    return [a for a in space.sigma.atoms if not a & null]


def direct_sum(spaces: Sequence[FiniteMeasureSpace]
               ) -> Tuple[FiniteMeasureSpace, List[MeasurableMap]]:
    """Disjoint union of finitely many spaces, relabelled ``0..N-1``.

    Component ``i`` occupies the consecutive label block starting at the sum
    of the earlier components' sizes.  A set is measurable exactly when every
    component slice is; the measure is the sum of the component measures.
    Returns the sum space together with the injection of each component.
    """
    if not spaces:
        raise ValueError("direct_sum needs at least one space")
    offsets = []
    off = 0
    for sp in spaces:
        offsets.append(off)
        off += sp.carrier.size
    carrier = FiniteCarrier(range(off))
    # each block sits above the previous one, so the atoms stay sorted
    sigma = SigmaAlgebra._from_atoms(carrier, tuple(
        a << shift for sp, shift in zip(spaces, offsets) for a in sp.sigma.atoms))

    weights: List[Weight] = []
    for sp in spaces:
        weights.extend(sp.weights)

    summands = tuple((sp, off) for sp, off in zip(spaces, offsets))
    sum_space = FiniteMeasureSpace(sigma, weights, summands=summands)

    injections = []
    for sp, off in summands:
        mapping = {p: off + i for i, p in enumerate(sp.carrier.points)}
        injections.append(MeasurableMap(sp, sum_space, mapping))
    return sum_space, injections
