"""VC dimension of a row's degree-threshold component family, by counting.

The ground set of a table row is its set of descriptors, and its touching
set the descriptors it shares with a reference object. For a threshold
epsilon, the component family holds the descriptor sets whose inclusion
degree in the touching set equals epsilon ("exact" mode) or is at least
epsilon ("at_least" mode); degrees are exact rationals.

A set S is shattered when every non-empty trace T of S is cut out by some
member C, i.e. C & S == T. A witness for T is T plus some touching and
some other descriptors from outside S, so whether S is shattered depends
only on how many touching and other descriptors lie inside and outside
it (_split_shattered). The VC dimension, the largest size of a shattered
set, therefore depends only on the sizes of the ground and touching sets:
vc_count takes those sizes, and vc_of_object reads them off one row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DomainError
from .tables import DecisionSystem, ObjectId, Value, ground_size

_MODES = ("exact", "at_least")


def touching_set(system: DecisionSystem, o: ObjectId, omega: Mapping[str, Value]) -> frozenset:
    """The (feature, value) pairs, or descriptors, the row for o shares with omega."""
    if omega.keys() != set(system.features):
        raise DomainError("the reference object must assign exactly the system's features")
    return frozenset(system.row(o).items() & omega.items())


def _split_shattered(s1: int, s0: int, u: int, v: int, eps: Fraction, mode: str) -> bool:
    """Whether a set with s1 touching and s0 other members is shattered.

    u touching and v other descriptors lie outside the set, and
    eps = p/(p+q) in lowest terms. The trace with a1 touching and a0 other
    members needs a witness that adds x1 <= u touching and x0 <= v other
    descriptors. at_least: q*(a1+x1) >= p*(a0+x0) is easiest with x1 = u,
    x0 = 0 and hardest for the trace (0, s0). exact, eps 0 or 1: a witness
    holds only other or only touching descriptors. exact, p, q >= 1: a
    witness holds p*m touching and q*m other descriptors, so m lies in both
    ceil(a1/p)..(a1+u)//p and ceil(a0/q)..(a0+v)//q. The traces (1, 0)
    and (s1, 0) force u >= p-1 and ceil(s1/p) <= v//q; then for every a1,
    ceil(a1/p) lies in its own range and at or below the other's top, and
    the same holds for a0, so every trace finds its m.
    """
    p = eps.numerator
    q = eps.denominator - p
    if mode == "at_least":
        return s0 == 0 or u * q >= p * s0
    if p == 0:
        return s1 == 0
    if q == 0:
        return s0 == 0
    return (s1 == 0 or (u >= p - 1 and -(-s1 // p) <= v // q)) and (
        s0 == 0 or (v >= q - 1 and -(-s0 // q) <= u // p)
    )


def _read_epsilon(epsilon) -> Fraction:
    """epsilon as the exact rational Fraction(epsilon); a bool, or a value
    Fraction cannot read, is a DomainError."""
    if isinstance(epsilon, bool):
        raise DomainError("epsilon must not be a bool")
    try:
        return Fraction(epsilon)
    except (TypeError, ValueError, ArithmeticError):
        raise DomainError(f"epsilon {epsilon!r} is not a rational number") from None


def vc_count(ground_size: int, touching_size: int, epsilon: Fraction, mode: str) -> int:
    """Largest size of a shattered subset of a ground set, from its sizes.

    Sets with the same number of touching and non-touching members behave
    identically, so the largest shattered split on the (touching+1) x
    (rest+1) grid is the VC dimension; the empty split always passes.
    epsilon is read by _read_epsilon, as PredictionConfig reads it.
    """
    epsilon = _read_epsilon(epsilon)
    if not (0 <= touching_size <= ground_size and 0 <= epsilon <= 1 and mode in _MODES):
        raise DomainError(f"need 0 <= touching <= ground, epsilon in [0, 1], mode in {_MODES}")
    rest_size = ground_size - touching_size
    return max(
        s1 + s0
        for s1 in range(touching_size + 1)
        for s0 in range(rest_size + 1)
        if _split_shattered(s1, s0, touching_size - s1, rest_size - s0, epsilon, mode)
    )


def vc_of_object(
    system: DecisionSystem,
    o: ObjectId,
    omega: Mapping[str, Value],
    epsilon: Fraction,
    mode: str = "exact",
) -> int:
    """VC dimension of the epsilon family of one row against omega, on the
    ground size that run_trial scores with."""
    touch = touching_set(system, o, omega)
    return vc_count(ground_size(system), len(touch), epsilon, mode)
