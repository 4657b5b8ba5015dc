"""Measure algebras: measurable sets modulo null sets.

For a point-supported finite space the largest measurable null set ``M`` is
the space's ``null_mask``, and two measurable sets are identified exactly
when they agree outside ``M``.  The atoms of the quotient are therefore the
sigma-atoms outside ``M`` (``measure.atoms``), the only ones weighed, and
each class is named by the positive atoms it contains.  Elements are
represented as atom bitmasks (bit ``j`` = atom ``j``), which makes symmetric
difference, meet and order single int operations.

A finite Boolean algebra is the power set of its atoms, so by finite Stone
duality a hom between two of them is exactly its atom images: pairwise
disjoint elements whose join is the unit, with each element sent to the
join of the images of its atoms.  A :class:`BooleanHom` is stored as those
images, so building, checking, composing and weighing a hom take O(atoms)
and no 2**k table.  Only a map that is not a hom is walked element by
element, over its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, FrozenSet, Sequence, Tuple

from .errors import DegenerateMeasure, NotHom, NotNonsingular, SpaceMismatch
from .measure import (FiniteMeasureSpace, MeasurableMap, Weight, _bits,
                      _unions, atoms)


class BooleanAlgebra:
    """The finite Boolean algebra with ``atom_count`` atoms.

    Elements are ints in ``range(1 << atom_count)`` read as atom bitmasks.
    """

    __slots__ = ("atom_count",)

    def __init__(self, atom_count: int):
        if atom_count < 0:
            raise ValueError("atom_count must be >= 0")
        self.atom_count = atom_count

    @property
    def zero(self) -> int:
        return 0

    @property
    def unit(self) -> int:
        return (1 << self.atom_count) - 1

    @property
    def elements(self) -> range:
        return range(1 << self.atom_count)

    def __eq__(self, other):
        return isinstance(other, BooleanAlgebra) and self.atom_count == other.atom_count

    def __hash__(self):
        return hash(("BooleanAlgebra", self.atom_count))

    def __repr__(self):
        return f"BooleanAlgebra(atoms={self.atom_count})"


class MeasureAlgebra:
    """Quotient of a space's sigma-algebra by its null ideal, with the
    induced measure.

    Construct it directly, or through :func:`quotient_measure_algebra`,
    which also returns the projection sending each measurable set to its
    class.  Everything in it is determined by the space, so two measure
    algebras are equal exactly when their spaces are.  It weighs each
    positive atom (``measure.atoms``) once, never a null one, and stores
    their masses, with ``_atom_bits``: each sigma-atom paired with the
    algebra bit of its class (0 for a null atom).  The measure of an
    element is the sum of its atoms' masses.
    """

    __slots__ = ("space", "algebra", "atom_point_masks", "_atom_mu",
                 "_atom_bits")

    def __init__(self, space: FiniteMeasureSpace):
        masks = tuple(atoms(space))
        # the sigma-atoms partition the carrier: no positive atom, no mass
        if not masks:
            raise DegenerateMeasure("total measure is zero; the quotient would collapse")
        null = space.null_mask
        bits = (1 << j for j in range(len(masks)))
        self.space = space
        self.atom_point_masks: Tuple[int, ...] = masks
        self.algebra = BooleanAlgebra(len(masks))
        self._atom_mu = tuple(map(space._mass, masks))
        self._atom_bits = tuple((a, 0 if a & null else next(bits))
                                for a in space.sigma.atoms)

    def _check(self, element: int) -> int:
        if not 0 <= element <= self.algebra.unit:
            raise ValueError(f"{element} is not an element of {self.algebra!r}")
        return element

    def project(self, member_mask: int) -> int:
        """The class of a measurable set: the positive atoms it contains.
        One pass over the sigma-atoms checks membership and collects them."""
        if 0 <= member_mask <= self.space.carrier.full_mask:
            e = 0
            for a, bit in self._atom_bits:
                hit = member_mask & a
                if hit == a:
                    e |= bit
                elif hit:
                    break
            else:
                return e
        raise ValueError("project is defined on sigma-algebra members only")

    def mu_bar(self, element: int) -> Weight:
        """Measure of a class (well-defined: members differ by null sets)."""
        return _weigh(self._atom_mu, self._check(element))

    @property
    def finite_part(self) -> FrozenSet[int]:
        """Elements of finite measure: unions of the finite-mass atoms."""
        inf = self.space._inf_mask
        return frozenset(_unions([1 << j for j, a in enumerate(self.atom_point_masks)
                                  if not a & inf]))

    def member_rep(self, element: int) -> int:
        """The smallest sigma-algebra member in the class ``element``: the
        union of its atoms."""
        rep = 0
        for j in _bits(self._check(element)):
            rep |= self.atom_point_masks[j]
        return rep

    def class_members(self, element: int) -> FrozenSet[int]:
        """Every sigma-algebra member belonging to the class: its
        ``member_rep`` joined with any union of null atoms."""
        rep = self.member_rep(element)
        null = self.space.null_mask
        return frozenset(rep | u for u in _unions(
            [a for a in self.space.sigma.atoms if a & null]))

    def atom_mass(self, j: int) -> Weight:
        return self._atom_mu[j]

    def __eq__(self, other):
        return self is other or (isinstance(other, MeasureAlgebra)
                                 and self.space == other.space)

    def __hash__(self):
        return hash(self.space)

    def __repr__(self):
        return f"MeasureAlgebra(atoms={self.algebra.atom_count})"


def quotient_measure_algebra(space: FiniteMeasureSpace
                             ) -> Tuple[MeasureAlgebra, Callable[[int], int]]:
    """``MeasureAlgebra(space)`` and its ``project``, which sends each
    measurable set to its class.

    Raises DegenerateMeasure when the space has total measure zero.
    """
    malg = MeasureAlgebra(space)
    return malg, malg.project


def _weigh(atom_mu: Sequence[Weight], element: int) -> Weight:
    """The summed masses of the atoms of ``element`` (INFINITY absorbs)."""
    return sum((atom_mu[j] for j in _bits(element)), Fraction(0))


def _is_partition(images: Sequence[int], unit: int) -> bool:
    """True when ``images`` are pairwise disjoint and join to ``unit``."""
    seen = 0
    for m in images:
        if m & seen:
            return False
        seen |= m
    return seen == unit


class BooleanHom:
    """A map between measure algebras, stored as its atom images, with its
    law flags.

    ``pi(e)`` joins the images of the atoms of ``e``; a hom of finite
    Boolean algebras is exactly that join-extension.  Flags:

    * ``is_hom``   -- preserves symmetric difference, meet and the unit
      (hence complement, join and zero).  It is also SOC (preserves suprema
      of monotone chains): over finite algebras that means preserving
      pairwise joins, which every hom does (``a | b == a ^ b ^ (a & b)``).
      It holds exactly when the atom images are pairwise disjoint and join
      to the unit, which is checked in one pass over them;
    * ``is_measure_preserving`` -- a hom under which each source atom
      weighs what its image weighs in the target, so that every element
      does (both measures are additive).

    The constructor takes a table indexed by source elements.  A table that
    is the join-extension of its atom entries, as every hom's is, is stored
    as those entries alone; any other table is kept as given.  The homs
    this package builds go through ``_from_images`` and hold no table;
    ``mapping`` builds theirs when it is read, for at most ``MAX_CARRIER``
    atoms.
    """

    __slots__ = ("source", "target", "_images", "_table", "_hom")

    def __init__(self, source: MeasureAlgebra, target: MeasureAlgebra,
                 mapping: Sequence[int]):
        k = source.algebra.atom_count
        if len(mapping) != 1 << k:
            raise ValueError("mapping must cover every source element")
        unit_t = target.algebra.unit
        if any(m < 0 or m > unit_t for m in mapping):
            raise ValueError("mapping image out of target range")
        table = tuple(mapping)
        self.source = source
        self.target = target
        self._images = tuple(table[1 << j] for j in range(k))
        joined = table[0] == 0 and all(table[e] == table[e & e - 1] | table[e & -e]
                                       for e in range(1, len(table)))
        self._table = None if joined else table
        self._hom = joined and _is_partition(self._images, unit_t)

    @classmethod
    def _from_images(cls, source: MeasureAlgebra, target: MeasureAlgebra,
                     images: Sequence[int]) -> "BooleanHom":
        """The map sending source atom ``j`` to ``images[j]`` and each
        element to the join of its atoms' images."""
        unit_t = target.algebra.unit
        if any(m < 0 or m > unit_t for m in images):
            raise ValueError("mapping image out of target range")
        pi = cls.__new__(cls)
        pi.source = source
        pi.target = target
        pi._images = tuple(images)
        pi._table = None
        pi._hom = _is_partition(pi._images, unit_t)
        return pi

    def __call__(self, element: int) -> int:
        element = self.source._check(element)
        if self._table is not None:
            return self._table[element]
        out = 0
        for j in _bits(element):
            out |= self._images[j]
        return out

    @property
    def mapping(self) -> Tuple[int, ...]:
        """The image of every source element, indexed by element."""
        if self._table is not None:
            return self._table
        return tuple(_unions(self._images))

    @property
    def is_hom(self) -> bool:
        return self._hom

    @property
    def is_measure_preserving(self) -> bool:
        return self.is_hom and self._preserves_mass()

    def _preserves_mass(self) -> bool:
        t_mu = self.target._atom_mu
        return all(_weigh(t_mu, m) == mu
                   for m, mu in zip(self._images, self.source._atom_mu))

    def __eq__(self, other):
        if not (isinstance(other, BooleanHom) and self.source == other.source
                and self.target == other.target):
            return False
        if self._table is None and other._table is None:
            return self._images == other._images
        return self.mapping == other.mapping

    def __hash__(self):
        # equal maps have equal atom entries, kept table or not
        return hash((self.source, self.target, self._images))

    def __repr__(self):
        return f"BooleanHom({self.source!r} -> {self.target!r})"


def identity_hom(malg: MeasureAlgebra) -> BooleanHom:
    return BooleanHom._from_images(
        malg, malg, [1 << j for j in range(malg.algebra.atom_count)])


def compose_homs(theta: BooleanHom, pi: BooleanHom) -> BooleanHom:
    """The composite ``theta after pi`` (apply ``pi`` first).  A join of
    atom images goes to the join of their images, so the composite of two
    image-stored maps is ``theta`` applied to ``pi``'s images."""
    if pi.target != theta.source:
        raise SpaceMismatch("inner hom's target must equal outer hom's source")
    if pi._table is None and theta._table is None:
        return BooleanHom._from_images(pi.source, theta.target,
                                       [theta(m) for m in pi._images])
    return BooleanHom(pi.source, theta.target, tuple(map(theta, pi.mapping)))


def induced_hom(phi: MeasurableMap) -> BooleanHom:
    """The contravariant hom of measure algebras induced by a nonsingular map.

    For ``phi : source -> target`` the result goes the other way, from the
    measure algebra of ``phi.target`` to that of ``phi.source``, sending the
    class of ``F`` to the class of the preimage of ``F``.  Nonsingularity is
    exactly what makes this well defined on classes.  Each atom's image is
    the class of its preimage.
    """
    if not phi.flags.is_nonsingular:
        raise NotNonsingular("induced homs exist only for nonsingular maps")
    src_alg = MeasureAlgebra(phi.target)
    tgt_alg = MeasureAlgebra(phi.source)
    hom = BooleanHom._from_images(src_alg, tgt_alg, [
        tgt_alg.project(phi.preimage_mask(a)) for a in src_alg.atom_point_masks])
    if not hom.is_hom:
        raise NotHom("induced mapping failed the homomorphism laws")
    return hom


@dataclass(frozen=True)
class HomLawReport:
    preserves_sym_diff: bool
    preserves_meet: bool
    preserves_unit: bool
    is_measure_preserving: bool
    failures: Tuple[str, ...]

    @property
    def is_hom(self) -> bool:
        return (self.preserves_sym_diff and self.preserves_meet
                and self.preserves_unit)


def check_hom_laws(pi: BooleanHom) -> HomLawReport:
    """Check the homomorphism laws of ``pi`` and report which hold, with a
    short description of each failure found (at most 16).

    A hom passes every law, so for a hom only measure preservation is
    checked: each source atom's mass against the summed atom masses of its
    image.  Any other map is walked over its table ``m``, each law in one
    pass over the source elements ``a``, with ``low`` the lowest atom of
    ``a``:

    * sym_diff: ``m[0] == 0`` and ``m[a] == m[a ^ low] ^ m[low]``, which
      makes ``m`` the xor of its atoms' images;
    * meet: ``m[a] == m[a | b] & m[U ^ b]`` for ``a != U`` and ``b`` the
      lowest atom missing from ``a``, which makes ``m[a]`` the meet of
      ``m[U]`` and the images of the coatoms above ``a`` (so ``m[a]`` lies
      below ``m[U]`` without a check of its own).

    Each failure names a pair of elements on which the law breaks; a law's
    pass stops once it has failed and 16 failures are held.  Joins are not
    checked apart: ``a | b == a ^ b ^ (a & b)``, so a map preserving
    sym_diff and meet preserves joins; over finite algebras that is also SOC
    (preservation of suprema of monotone chains), so ``is_hom`` covers it.
    Measure preservation of such a map compares the two measures at every
    element.
    """
    if pi.is_hom:
        preserving = pi._preserves_mass()
        return HomLawReport(True, True, True, preserving,
                            () if preserving else ("measure not preserved",))
    m = pi.mapping
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
    unit_ok = m[unit] == pi.target.algebra.unit
    if not unit_ok:
        failures.append("unit not preserved")
    t_mu, s_mu = pi.target._atom_mu, pi.source._atom_mu
    preserving = all(_weigh(t_mu, m[a]) == _weigh(s_mu, a) for a in range(len(m)))
    if not preserving:
        failures.append("measure not preserved")
    return HomLawReport(sym, meet, unit_ok, preserving, tuple(failures[:16]))
