"""Shattering and VC dimension for degree-threshold component families.

The ground set of an information table row is its set of descriptors. A
component family collects, for a threshold epsilon, the descriptor sets
whose inclusion degree in the touching set (the descriptors a reference
row shares with the ground row) meets the threshold: exactly in "exact"
mode, at least in "at_least" mode. Degrees are exact rationals, so no
threshold comparison is ever approximate.

A set S of descriptors is shattered when every non-empty trace T of S is
cut out by some family member C, i.e. C & S == T. Whether a suitable C
exists is a counting question: C = T + x1 extra touching descriptors
outside S + x0 extra non-touching descriptors outside S, and the degree
constraint pins the feasible (x1, x0) region. The VC dimension is the
largest size of a shattered set. It depends only on the sizes of the
ground and touching sets, so vc_count works on those counts alone; the
set-level family, shattering witnesses and brute-force checkers stay as
the oracle that backs the counting route in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import FrozenSet, Hashable, Iterable, Optional

from .errors import DomainError, FamilyTooLargeError, UndefinedDegreeError
from .tables import DecisionSystem, Descriptor, NewObject, ObjectId, ground_size

GroundSet = FrozenSet[Descriptor]

_MODES = ("exact", "at_least")


def touching_set(system: DecisionSystem, o: ObjectId, omega: NewObject) -> GroundSet:
    """Descriptors on which the row for o agrees with the reference omega."""
    row = system.as_new_object(o)
    if omega.features != frozenset(system.features):
        raise DomainError(
            "the reference object must assign exactly the system's features"
        )
    return frozenset(row) & frozenset(omega)


@dataclass(frozen=True)
class ComponentFamily:
    """The epsilon-threshold family over one ground set.

    ground is the full descriptor set of a row, touching the subset shared
    with the reference object, epsilon the degree threshold and mode one
    of "exact" or "at_least".
    """

    ground: GroundSet
    touching: GroundSet
    epsilon: Fraction
    mode: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if not self.touching <= self.ground:
            raise DomainError("touching descriptors must lie inside the ground set")
        if not 0 <= self.epsilon <= 1:
            raise DomainError("epsilon must lie in [0, 1]")
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}")

    def degree(self, candidate: GroundSet) -> Fraction:
        return inclusion_degree(candidate, self.touching)

    def admits(self, candidate: GroundSet) -> bool:
        """Membership test for one non-empty subset of the ground set."""
        if not candidate <= self.ground:
            raise DomainError("candidate must be a subset of the ground set")
        d = self.degree(candidate)
        return d == self.epsilon if self.mode == "exact" else d >= self.epsilon


def inclusion_degree(candidate: Iterable[Hashable], touching: Iterable[Hashable]) -> Fraction:
    """|candidate & touching| / |candidate| as an exact rational."""
    cset = frozenset(candidate)
    if not cset:
        raise UndefinedDegreeError("the inclusion degree of an empty set is undefined")
    return Fraction(len(cset & frozenset(touching)), len(cset))


def epsilon_components(family: ComponentFamily) -> list[GroundSet]:
    """Every family member, by explicit enumeration of at most 20 descriptors."""
    ground = sorted(family.ground, key=repr)
    if len(ground) > 20:
        raise FamilyTooLargeError(
            f"enumeration over {len(ground)} descriptors exceeds the cap of "
            "20; use vc_of_object for large rows"
        )
    members = []
    for size in range(1, len(ground) + 1):
        for combo in combinations(ground, size):
            candidate = frozenset(combo)
            if family.admits(candidate):
                members.append(candidate)
    return members


def _extension_counts(
    trace_touch: int,
    trace_size: int,
    pool_touch: int,
    pool_rest: int,
    eps: Fraction,
    mode: str,
) -> Optional[tuple[int, int]]:
    """Feasible counts (x1, x0) of extra descriptors outside S, or None.

    A witness C = T + x1 touching + x0 non-touching descriptors has degree
    (trace_touch + x1) / (trace_size + x1 + x0). The exact mode needs that
    ratio to equal eps; the at_least mode needs it to be >= eps. Feasible
    pairs are searched smallest first so witnesses stay small.
    """
    p, q = eps.numerator, eps.denominator
    for x1 in range(pool_touch + 1):
        hits = trace_touch + x1
        base = trace_size + x1
        if mode == "exact":
            # hits * q == eps_num * (base + x0) fixes x0 once x1 is chosen
            if p == 0:
                if hits == 0:
                    return (x1, 0)
                continue
            numer = hits * q - p * base
            if numer < 0 or numer % p:
                continue
            x0 = numer // p
            if x0 <= pool_rest:
                return (x1, x0)
        else:
            # hits * q >= p * (base + x0) holds for all x0 up to a cutoff
            if p == 0:
                return (x1, 0)
            if hits * q >= p * base:
                return (x1, 0)
    return None


@dataclass(frozen=True)
class ShatterResult:
    shattered: bool
    witnesses: dict[GroundSet, GroundSet]
    missing: Optional[GroundSet]

    def __bool__(self) -> bool:
        return self.shattered


def shatters(family: ComponentFamily, s: GroundSet) -> ShatterResult:
    """Whether the family cuts every non-empty trace out of s.

    Returns a witness member per trace on success, or the first trace with
    no witness on failure.
    """
    s = frozenset(s)
    if not s:
        raise DomainError("shattering is checked against non-empty sets only")
    if not s <= family.ground:
        raise DomainError("the shattered set must lie inside the ground set")
    in_touch = sorted(s & family.touching, key=repr)
    out_touch = sorted(s - family.touching, key=repr)
    pool_touch = sorted(family.touching - s, key=repr)
    pool_rest = sorted((family.ground - family.touching) - s, key=repr)
    witnesses: dict[GroundSet, GroundSet] = {}
    for k1 in range(len(in_touch) + 1):
        for k0 in range(len(out_touch) + 1):
            if k1 == 0 and k0 == 0:
                continue
            counts = _extension_counts(
                k1, k1 + k0, len(pool_touch), len(pool_rest), family.epsilon, family.mode
            )
            if counts is None:
                for t_hit in combinations(in_touch, k1):
                    for t_miss in combinations(out_touch, k0):
                        return ShatterResult(
                            False, witnesses, frozenset(t_hit) | frozenset(t_miss)
                        )
            x1, x0 = counts
            extension = frozenset(pool_touch[:x1]) | frozenset(pool_rest[:x0])
            for t_hit in combinations(in_touch, k1):
                for t_miss in combinations(out_touch, k0):
                    trace = frozenset(t_hit) | frozenset(t_miss)
                    witnesses[trace] = trace | extension
    return ShatterResult(True, witnesses, None)


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


# Unbounded but small: a table with F features yields at most (F+2)^2 size
# pairs per (epsilon, mode).
@lru_cache(maxsize=None)
def vc_count(ground_size: int, touching_size: int, epsilon: Fraction, mode: str) -> int:
    """Largest size of a shattered subset of a ground set, from its sizes.

    Sets with the same number of touching and non-touching members behave
    identically, so the largest shattered split on the (touching+1) x
    (rest+1) grid is the VC dimension; the empty split always passes.
    """
    if not (0 <= touching_size <= ground_size and 0 <= epsilon <= 1 and mode in _MODES):
        raise DomainError(f"need 0 <= touching <= ground, epsilon in [0, 1], mode in {_MODES}")
    rest_size = ground_size - touching_size
    return max(
        s1 + s0
        for s1 in range(touching_size + 1)
        for s0 in range(rest_size + 1)
        if _split_shattered(s1, s0, touching_size - s1, rest_size - s0, epsilon, mode)
    )


def vc_dimension(family: ComponentFamily) -> int:
    """Largest size of a shattered subset of the ground set."""
    return vc_count(len(family.ground), len(family.touching), family.epsilon, family.mode)


def vc_of_object(
    system: DecisionSystem,
    o: ObjectId,
    omega: NewObject,
    epsilon: Fraction,
    mode: str = "exact",
) -> int:
    """VC dimension of the epsilon family of one row against omega, on the
    ground size that run_trial scores with."""
    touch = touching_set(system, o, omega)
    return vc_count(ground_size(system), len(touch), Fraction(epsilon), mode)


def shatters_bruteforce(family: ComponentFamily, s: GroundSet) -> bool:
    """Reference shattering check by explicit member enumeration."""
    s = frozenset(s)
    if not s:
        raise DomainError("shattering is checked against non-empty sets only")
    if not s <= family.ground:
        raise DomainError("the shattered set must lie inside the ground set")
    ground = sorted(family.ground, key=repr)
    index = {d: i for i, d in enumerate(ground)}
    touch_mask = sum(1 << index[d] for d in family.touching)
    s_mask = sum(1 << index[d] for d in s)
    found = set()
    p, q = family.epsilon.numerator, family.epsilon.denominator
    for c_mask in range(1, 1 << len(ground)):
        csize = c_mask.bit_count()
        hits = (c_mask & touch_mask).bit_count()
        if family.mode == "exact":
            ok = hits * q == p * csize
        else:
            ok = hits * q >= p * csize
        if ok:
            found.add(c_mask & s_mask)
    sub = s_mask
    while sub:
        if sub not in found:
            return False
        sub = (sub - 1) & s_mask
    return True


def vc_dimension_bruteforce(family: ComponentFamily) -> int:
    """Reference VC dimension by scanning every non-empty candidate set."""
    ground = sorted(family.ground, key=repr)
    best = 0
    for size in range(1, len(ground) + 1):
        hit = False
        for combo in combinations(ground, size):
            if shatters_bruteforce(family, frozenset(combo)):
                hit = True
                break
        if hit:
            best = size
        else:
            break
    return best


def component_size_bound(family: ComponentFamily) -> Optional[int]:
    """Size ceiling for exact-mode members when 0 < epsilon < 1, else None.

    A member with degree exactly eps has eps*|C| touching members, so |C|
    is capped by both the touching supply and the non-touching supply.
    """
    eps = family.epsilon
    if family.mode != "exact" or not 0 < eps < 1:
        return None
    touch_total = len(family.touching)
    rest_total = len(family.ground) - touch_total
    by_touch = Fraction(touch_total) / eps
    by_rest = Fraction(rest_total) / (1 - eps)
    return min(int(by_touch), int(by_rest))
