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
it. The VC dimension, the largest size of a shattered set, therefore
depends only on the sizes of the ground and touching sets: vc_count
takes those sizes, and vc_of_object reads them off one row. The tests
check vc_count against the whole grid of splits (tests/oracle.py).
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

    Take t touching and r other descriptors, eps = p/(p+q) in lowest terms
    and a set with s1 touching and s0 other members. A trace's witness adds
    at most t-s1 touching and r-s0 other descriptors from outside the set.
    at_least: the trace (0, s0) is the hardest, and its best witness adds
    only touching ones, so s0 <= (t-s1)*q//p. exact, eps 0 or 1: a witness,
    and so the set, holds only other or only touching descriptors. exact,
    p, q >= 1: a witness holds p*m touching and q*m other descriptors; the
    traces (1, 0) and (s1, 0) need t-s1 >= p-1 and q*ceil(s1/p) <= r-s0,
    (0, 1) and (0, s0) need r-s0 >= q-1 and s0 <= q*((t-s1)//p), and then
    every trace finds its m. Each clause bounds s0 from above, so the VC
    dimension is the best s1 plus its largest s0, one pass over s1 (the
    empty set always passes). Sizes must be ints; epsilon is read by
    _read_epsilon, as PredictionConfig reads it.
    """
    epsilon = _read_epsilon(epsilon)
    ints = all(isinstance(n, int) and not isinstance(n, bool) for n in (ground_size, touching_size))
    if not (ints and 0 <= touching_size <= ground_size and 0 <= epsilon <= 1 and mode in _MODES):
        raise DomainError(f"need 0 <= touching <= ground, epsilon in [0, 1], mode in {_MODES}")
    t, r = touching_size, ground_size - touching_size
    p = epsilon.numerator
    q = epsilon.denominator - p
    if mode == "at_least":
        return t + r if p == 0 else max(s1 + min(r, (t - s1) * q // p) for s1 in range(t + 1))
    if p == 0 or q == 0:
        return r if p == 0 else t
    return max(
        s1 + max(0, min(r - q + 1, q * ((t - s1) // p), r - q * -(-s1 // p)))
        for s1 in range(t + 1)
        if s1 == 0 or (s1 <= t - p + 1 and r >= q * -(-s1 // p))
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
