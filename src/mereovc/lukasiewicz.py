"""The Lukasiewicz operator family on [0, 1] and degree propagation.

Includes a generic t-norm contract check on a rational grid and the rules
that push rough-inclusion degrees through the algebra's connectives.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import DomainError, UsageError

Real = float


def t_norm(x: Real, y: Real) -> Real:
    return max(0.0, x + y - 1.0)


def s_norm(x: Real, y: Real) -> Real:
    return min(1.0, x + y)


def implication(x: Real, y: Real) -> Real:
    """Residuum of the t-norm: 1 exactly when x <= y, else 1 - x + y."""
    return min(1.0, 1.0 - x + y)


def negation(x: Real) -> Real:
    return 1.0 - x


def weak_and(x: Real, y: Real) -> Real:
    return min(x, y)


def weak_or(x: Real, y: Real) -> Real:
    return max(x, y)


class Connective(enum.Enum):
    SUM = "sum"
    STRONG_SUM = "strong_sum"
    PRODUCT = "product"
    STRONG_PRODUCT = "strong_product"
    IMPLICATION = "implication"
    NEGATION = "negation"


def propagate(r, s, connective: Connective):
    """Degree of a compound part given the degrees of its arguments.

    Works on floats and on Fractions alike; only order, addition and
    subtraction are used. Two degrees that do not add, such as a Decimal
    and a float, raise DomainError where the rule adds them. For NEGATION
    the second argument is ignored and may be None.
    """
    try:
        c = connective if type(connective) is Connective else Connective(connective)
    except ValueError:
        raise DomainError(f"unknown connective {connective!r}") from None
    if type(r) is not float or not 0.0 <= r <= 1.0:
        degree_in_unit_interval(r)
    if c is not Connective.NEGATION and (type(s) is not float or not 0.0 <= s <= 1.0):
        degree_in_unit_interval(s)
    if c is Connective.SUM:
        return max(r, s)
    if c is Connective.PRODUCT:
        return min(r, s)
    if c is Connective.NEGATION:
        return 1 - r
    try:
        total = r + s
    except TypeError:  # a Decimal with a float or a Fraction
        raise DomainError(f"degrees of types {type(r).__name__} and "
                          f"{type(s).__name__} do not add") from None
    if c is Connective.STRONG_SUM:
        return min(1, total)
    return max(0, total - 1)


class TNormViolation(NamedTuple):
    condition: str
    point: tuple[Real, ...]
    detail: str


class TNormCheck(NamedTuple):
    ok: bool
    violation: TNormViolation | None

    def __bool__(self) -> bool:
        return self.ok


def grid_points(grid_step: Fraction) -> list[Real]:
    # a float step is read as its shortest repr, so 0.1 means 1/10
    try:
        step = Fraction(repr(grid_step) if isinstance(grid_step, float) else grid_step)
    except (TypeError, ValueError, ArithmeticError):
        step = 0
    if isinstance(grid_step, bool) or step <= 0 or (1 / step).denominator != 1:
        raise UsageError("grid_step must be a positive rational dividing 1")
    n = int(1 / step)
    return [float(Fraction(k, n)) for k in range(n + 1)]


def check_t_norm(
    op: Callable[[Real, Real], Real],
    grid_step: Fraction = Fraction(1, 64),
) -> TNormCheck:
    """Exhaustive t-norm contract check on the grid.

    Conditions are tried in order: commutativity, associativity,
    monotonicity in the first argument, then the boundary laws
    op(x, 1) = x and op(x, 0) = 0. The first violation is returned.
    Monotonicity over consecutive grid points implies monotonicity on
    the whole grid, so only neighbours are compared. Values within 1e-9
    count as equal.

    op is evaluated once per pair of grid points, up front, and must be a
    function of its arguments' values. Associativity reads that table
    wherever an inner value op(x, y) or op(y, z) lands on the grid, and
    calls op only when it does not. A row of finite values equal to the
    row it is checked against passes whole; only the other rows are
    compared point by point. NaN is within tolerance of nothing.
    """
    pts = grid_points(grid_step)
    tolerance = 1e-9
    table = [tuple([op(x, y) for y in pts]) for x in pts]
    on_grid = {p: k for k, p in enumerate(pts)}
    grid_index = [[on_grid.get(value) for value in row] for row in table]
    # inf - inf and NaN are violations, yet such a row can equal itself;
    # a table that holds one fails commutativity point by point
    whole = all(v - v == 0 for row in table for v in row)

    for x, row, column in zip(pts, table, zip(*table)):
        if whole and row == column:
            continue
        for y, xy, yx in zip(pts, row, column):
            if not abs(xy - yx) <= tolerance:
                return TNormCheck(False, TNormViolation(
                    "commutativity", (x, y), f"op({x},{y}) != op({y},{x})"))
    # read[y](row_x) is op(x, op(y, z)) over every z, if all op(y, z) are on the grid
    read = [None if None in index else itemgetter(*index) for index in grid_index]
    for x, row_x, index_x in zip(pts, table, grid_index):
        for y, xy, k, row_y, index_y, read_y in zip(
                pts, row_x, index_x, table, grid_index, read):
            row_xy = None if k is None else table[k]
            if row_xy is not None and read_y is not None and row_xy == read_y(row_x):
                continue
            for iz, (z, yz, m) in enumerate(zip(pts, row_y, index_y)):
                xy_z = op(xy, z) if row_xy is None else row_xy[iz]
                x_yz = op(x, yz) if m is None else row_x[m]
                if not abs(xy_z - x_yz) <= tolerance:
                    return TNormCheck(False, TNormViolation(
                        "associativity", (x, y, z),
                        f"op(op({x},{y}),{z}) != op({x},op({y},{z}))"))
    for x1, x2, row1, row2 in zip(pts, pts[1:], table, table[1:]):
        for y, x1_y, x2_y in zip(pts, row1, row2):
            if not x1_y <= x2_y + tolerance:
                return TNormCheck(False, TNormViolation(
                    "monotonicity", (x1, x2, y),
                    f"op decreases from x={x1} to x={x2} at y={y}"))
    for x, row in zip(pts, table):
        if not abs(row[-1] - x) <= tolerance:
            return TNormCheck(False, TNormViolation(
                "boundary", (x, 1.0), f"op({x},1) != {x}"))
        if not abs(row[0]) <= tolerance:
            return TNormCheck(False, TNormViolation(
                "boundary", (x, 0.0), f"op({x},0) != 0"))
    return TNormCheck(True, None)


def formula_identities(grid_step: Fraction = Fraction(1, 64)):
    """Grid checks tying the derived operators to the primitive ones.

    Returns LawReport records for: negation as implication into 0, weak
    conjunction recovered from the strong ones, weak disjunction from
    nested implications, strong disjunction by De Morgan, the residuation
    boundary of the implication, and the propagation closed forms.
    Values within 1e-9 count as equal.
    """
    from .laws import _run_table

    tolerance = 1e-9

    def closed_forms(p, q):
        return (abs(propagate(p, q, Connective.SUM) - weak_or(p, q)) <= tolerance
                and abs(propagate(p, q, Connective.STRONG_SUM) - s_norm(p, q)) <= tolerance
                and abs(propagate(p, q, Connective.PRODUCT) - weak_and(p, q)) <= tolerance
                and abs(propagate(p, q, Connective.STRONG_PRODUCT) - t_norm(p, q)) <= tolerance
                and abs(propagate(p, q, Connective.IMPLICATION) - t_norm(p, q)) <= tolerance
                and abs(propagate(p, q, Connective.NEGATION) - negation(p)) <= tolerance)

    identities = (
        ("negation via implication to zero", "points",
         lambda p: abs(implication(p, 0.0) - negation(p)) <= tolerance),
        ("weak conjunction from strong operators", "pairs",
         lambda p, q: abs(t_norm(p, implication(p, q)) - weak_and(p, q)) <= tolerance),
        ("weak disjunction from nested implications", "pairs", lambda p, q: abs(
            weak_and(implication(implication(p, q), q), implication(implication(q, p), p))
            - weak_or(p, q)) <= tolerance),
        ("strong disjunction by De Morgan", "pairs", lambda p, q: abs(
            negation(t_norm(negation(p), negation(q))) - s_norm(p, q)) <= tolerance),
        ("implication residuation boundary", "pairs",
         lambda p, q: (implication(p, q) >= 1.0 - tolerance) == (p <= q + tolerance)),
        ("propagation closed forms", "pairs", closed_forms),
    )
    pts = grid_points(grid_step)
    grid = SimpleNamespace(points=[(p,) for p in pts], pairs=[(p, q) for p in pts for q in pts])
    return _run_table(identities, [grid], lambda _, args: " ".join(
        f"{name}={value}" for name, value in zip("pq", args)))


def degree_in_unit_interval(value) -> None:
    """Reject degrees outside [0, 1]: also a missing degree (None), a bool,
    and a value that cannot be compared with 0 and 1."""
    try:
        ok = not isinstance(value, bool) and 0 <= value <= 1
    except (TypeError, ValueError, ArithmeticError):
        ok = False
    if not ok:
        raise DomainError(f"degree {value!r} outside [0, 1]")
