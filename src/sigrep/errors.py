"""Exception types raised across the toolkit, and the exact-scalar rule.

Every error derives from :class:`SigrepError` so callers can catch the whole
family at once.  The concrete names describe the violated precondition.

This module imports no other sigrep module, so every layer takes its rule
for exact scalars from here: an int (int subclasses such as ``IntEnum``
count) or a Fraction, never a bool.  Each caller keeps its own error text.
"""

from fractions import Fraction
from typing import Union

INFINITY = float("inf")  # the one infinite weight or tolerance

Number = Union[int, Fraction]  # an exact sample, residual or function value


def _is_int(v) -> bool:
    return isinstance(v, int) and type(v) is not bool


def _inexact(values, exact=(int, Fraction)) -> tuple:
    """The first of ``values`` that is a bool or not an ``exact`` instance,
    as a 1-tuple (None can be one), or ().  Each distinct type is checked
    once; ``values`` is read again only to find the offender."""
    bad = {t for t in set(map(type, values))
           if t is bool or not issubclass(t, exact)}
    return (next(v for v in values if type(v) in bad),) if bad else ()


def _as_rational(value, what: str) -> Fraction:
    """An int or a Fraction as a Fraction; TypeError naming ``what`` for a
    bool, float, str, Decimal or other value ``Fraction()`` might read."""
    if not (_is_int(value) or isinstance(value, Fraction)):
        raise TypeError(f"{what} must be exact rationals (int or Fraction), "
                        f"not {type(value).__name__}")
    return Fraction(value)


def _as_weight(value, what: str = "weights"):
    # a measure's weight, and a detector's tolerance
    if isinstance(value, float):
        if value == INFINITY:
            return INFINITY
        raise TypeError(f"finite float {what} are not accepted; pass Fraction "
                        "or int (only float('inf') is allowed as a float)")
    if type(value) is not Fraction:
        value = _as_rational(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative")
    return value


class SigrepError(Exception):
    """Base class for all toolkit errors."""


class MapNotTotal(SigrepError):
    """A point map leaves some source point without an image."""


class DegenerateMeasure(SigrepError):
    """The space carries total measure zero, so no measure algebra exists."""


class NotNonsingular(SigrepError):
    """A map pulls some null set back to a non-null set."""


class NotIMP(SigrepError):
    """A map claimed to be measure preserving is not."""


class NotHom(SigrepError):
    """A mapping between algebras fails the Boolean homomorphism laws."""


class NonConstantOnAtom(SigrepError):
    """A function takes more than one value on the points of some atom."""


class SpaceMismatch(SigrepError):
    """Operands live over different spaces (or algebras) and cannot combine."""


class NotADirectSum(SigrepError):
    """The space was not produced by a direct-sum construction."""


class BadBreakpoints(SigrepError):
    """A segmentation's breakpoints are not sorted, in range, and distinct."""


class IntervalMismatch(SigrepError):
    """A segment's interval does not match what an arrow or operation expects."""


class EmptySignal(SigrepError):
    """An operation that needs at least one sample received none."""


class CorruptContainer(SigrepError):
    """An encoded container is structurally invalid (magic, lengths, trailing)."""


class PolicyMismatch(SigrepError):
    """A container's declared arrow policy disagrees with its records."""
