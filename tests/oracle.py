"""The set-level VC oracle that the tests hold the count path against.

The ground set of an information table row is its set of descriptors,
the (feature, value) pairs of its cells. A component family collects,
for a threshold epsilon, the descriptor sets whose inclusion degree in
the touching set (the descriptors a reference row shares with the
ground row) meets the threshold: exactly in "exact" mode, at least in
"at_least" mode. Degrees are exact rationals, so no threshold
comparison is ever approximate.

A set S of descriptors is shattered when every non-empty trace T of S is
cut out by some family member C, i.e. C & S == T. The brute-force
checkers here decide that by enumerating every member; split_shattered
decides it from the numbers of touching and other members inside and
outside S, and vc_count_grid takes the largest shattered split. mereovc.vc
reads the same number off in one pass, and vc_dimension is that count
route applied to a family.

check_t_norm_reference is the plain loop that lukasiewicz.check_t_norm's
whole-row comparisons are held against, and find_model_reference the
premiss-by-premiss search that syllogistic.find_model's regions are held
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import FrozenSet, Hashable, Iterable, Mapping, Optional

from mereovc.errors import DomainError, SchemaError, UndefinedDegreeError
from mereovc.lukasiewicz import grid_points
from mereovc.syllogistic import (
    _CIRCLES,
    CELL_COUNT,
    EulerModel,
    _holds,
    _mask_to_cells,
)
from mereovc.tables import Value
from mereovc.vc import _MODES, vc_count

GroundSet = FrozenSet[tuple[str, Value]]


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
        raise DomainError(
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


def vc_dimension(family: ComponentFamily) -> int:
    """Largest size of a shattered subset of the ground set, by the count route."""
    return vc_count(len(family.ground), len(family.touching), family.epsilon, family.mode)


def split_shattered(s1: int, s0: int, u: int, v: int, eps: Fraction, mode: str) -> bool:
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


def vc_count_grid(ground_size: int, touching_size: int, epsilon, mode: str) -> int:
    """Reference VC dimension from sizes: the largest split on the whole
    (touching+1) x (rest+1) grid that split_shattered passes."""
    epsilon = Fraction(epsilon)
    rest_size = ground_size - touching_size
    return max(
        s1 + s0
        for s1 in range(touching_size + 1)
        for s0 in range(rest_size + 1)
        if split_shattered(s1, s0, touching_size - s1, rest_size - s0, epsilon, mode)
    )


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


def extended(omega: Mapping[str, Value], feature: str, value: Value) -> dict[str, Value]:
    """A copy of omega with one extra feature. The feature must be new."""
    if feature in omega:
        raise SchemaError(f"feature {feature!r} already present")
    return {**omega, feature: value}


def check_t_norm_reference(op, grid_step) -> tuple:
    """The four t-norm conditions of lukasiewicz.check_t_norm, as plain
    loops that call op at every point: (ok, condition, point) of the
    first violation, in check_t_norm's order. Values within 1e-9 count as
    equal, and NaN is within 1e-9 of nothing."""
    pts = grid_points(grid_step)
    tolerance = 1e-9
    for x in pts:
        for y in pts:
            if not abs(op(x, y) - op(y, x)) <= tolerance:
                return False, "commutativity", (x, y)
    for x in pts:
        for y in pts:
            for z in pts:
                if not abs(op(op(x, y), z) - op(x, op(y, z))) <= tolerance:
                    return False, "associativity", (x, y, z)
    for x1, x2 in zip(pts, pts[1:]):
        for y in pts:
            if not op(x1, y) <= op(x2, y) + tolerance:
                return False, "monotonicity", (x1, x2, y)
    for x in pts:
        if not abs(op(x, 1.0) - x) <= tolerance:
            return False, "boundary", (x, 1.0)
        if not abs(op(x, 0.0)) <= tolerance:
            return False, "boundary", (x, 0.0)
    return True, None, None


def find_model_reference(premisses):
    """syllogistic.find_model as a test of each premiss on the extents of
    its terms, pattern by pattern: the first of the 127 inhabited-region
    patterns, in ascending order, in which every mentioned term is
    non-empty and every premiss holds, or None. Premisses must be over two
    of a, b, m."""
    mentioned = [t for t in _CIRCLES if any(t in p.terms for p in premisses)]
    for inhabited in range(1, 1 << CELL_COUNT):
        extent = {t: inhabited & _CIRCLES[t] for t in mentioned}
        if all(extent.values()) and all(
            _holds(q, extent[s], extent[p]) for q, s, p in premisses
        ):
            return EulerModel({t: _mask_to_cells(extent[t]) for t in mentioned})
    return None
