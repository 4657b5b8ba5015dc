"""Partially defined injections between finite spaces, with dagger structure.

A partial injection is a set of (source point, target point) pairs that is
single-valued in both directions.  Composition is relational, restriction is
the partial identity on the domain, and the dagger reverses every pair.
"""

from .errors import SpaceMismatch
from .fnspace import FnClass


class PartialInjection:
    """An injective partial map given extensionally by its pairs."""

    __slots__ = ("source", "target", "pairs")

    def __init__(self, source, target, pairs):
        pairs = frozenset((x, y) for x, y in pairs)
        for x, y in pairs:
            source.carrier.index(x)
            target.carrier.index(y)
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        if len(set(xs)) != len(xs):
            raise ValueError("not single-valued: repeated source point")
        if len(set(ys)) != len(ys):
            raise ValueError("not injective: repeated target point")
        self.source = source
        self.target = target
        self.pairs = pairs

    def as_dict(self):
        return dict(self.pairs)

    def image_mask(self):
        return self.target.carrier.mask_of(y for _, y in self.pairs)

    def __eq__(self, other):
        return (isinstance(other, PartialInjection)
                and self.source == other.source
                and self.target == other.target
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.source, self.target, self.pairs))

    def __repr__(self):
        return f"PartialInjection({sorted(self.pairs)})"


def identity_injection(space):
    return PartialInjection(space, space,
                            [(p, p) for p in space.carrier.points])


def compose(g, f):
    """g after f: defined where f lands inside g's domain."""
    if f.target != g.source:
        raise SpaceMismatch("inner map's target must equal outer map's source")
    gd = g.as_dict()
    fd = f.as_dict()
    return PartialInjection(f.source, g.target,
                            [(x, gd[y]) for x, y in fd.items() if y in gd])


def restriction(f):
    """The partial identity on f's domain (an idempotent on the source)."""
    return PartialInjection(f.source, f.source,
                            [(x, x) for x, _ in f.pairs])


def dagger(f):
    """The reverse partial injection (swap every pair)."""
    return PartialInjection(f.target, f.source,
                            [(y, x) for x, y in f.pairs])


def _require_counting(space):
    if any(w != 1 for w in space.weights):
        raise SpaceMismatch("l2 transport of a partial injection is defined "
                            "over counting measures only")


def l2_partial(f, g):
    """Pull an l2 class back along a partial injection, zero off the domain.

    ``g`` lives over ``f.target``; the result lives over ``f.source`` with
    value g(f(x)) where f is defined and 0 elsewhere.  The zero-extension
    makes this a contraction rather than an isometry: the norm is preserved
    exactly when the image of f covers the support of g.  Both spaces must
    carry counting measure.
    """
    if not isinstance(g, FnClass) or g.space != f.target:
        raise SpaceMismatch("class must live over the injection's target")
    _require_counting(f.source)
    _require_counting(f.target)
    fd = f.as_dict()
    index, nums = f.target.carrier.index, g._nums
    vals = [nums[index(fd[p])] if p in fd else 0
            for p in f.source.carrier.points]
    return FnClass._canonical(f.source, vals, g._den, "L2")
