from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from oracle import check_t_norm_reference

from mereovc.errors import DomainError, UsageError
from mereovc.lukasiewicz import (
    Connective,
    check_t_norm,
    degree_in_unit_interval,
    formula_identities,
    grid_points,
    implication,
    negation,
    propagate,
    s_norm,
    t_norm,
    weak_and,
    weak_or,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

NAN = float("nan")


class TestOperators:
    def test_strong_conjunction(self):
        assert t_norm(0.7, 0.5) == pytest.approx(0.2)
        assert t_norm(0.2, 0.3) == 0.0

    def test_strong_disjunction(self):
        assert s_norm(0.7, 0.5) == 1.0
        assert s_norm(0.2, 0.3) == pytest.approx(0.5)

    def test_implication(self):
        assert implication(0.3, 0.7) == 1.0
        assert implication(0.7, 0.3) == pytest.approx(0.6)

    def test_negation(self):
        assert negation(0.4) == pytest.approx(0.6)

    def test_weak_operators(self):
        assert weak_and(0.3, 0.8) == 0.3
        assert weak_or(0.3, 0.8) == 0.8

    @given(unit, unit)
    def test_residuation(self, x, y):
        """t_norm(x, z) <= y exactly when z <= implication(x, y)."""
        z = implication(x, y)
        assert t_norm(x, z) <= y + 1e-9
        assert (implication(x, y) >= 1.0 - 1e-9) == (x <= y + 1e-9)

    @given(unit)
    def test_boundary(self, x):
        assert t_norm(x, 1.0) == pytest.approx(x)
        assert t_norm(x, 0.0) == 0.0


class TestContractCheck:
    def test_lukasiewicz_passes(self):
        assert check_t_norm(t_norm, Fraction(1, 64))

    def test_minimum_passes(self):
        assert check_t_norm(min, Fraction(1, 16))

    def test_mean_fails_on_associativity(self):
        result = check_t_norm(lambda x, y: (x + y) / 2, Fraction(1, 8))
        assert not result
        assert result.violation.condition == "associativity"
        assert len(result.violation.point) == 3

    def test_product_passes(self):
        assert check_t_norm(lambda x, y: x * y, Fraction(1, 16))

    def test_grid_step_must_divide_one(self):
        with pytest.raises(UsageError):
            grid_points(Fraction(3, 7))
        assert grid_points(Fraction(1, 4)) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_unreadable_grid_step_is_a_usage_error(self):
        for bad in ("x", None, True, float("nan"), float("inf")):
            with pytest.raises(UsageError):
                grid_points(bad)
            with pytest.raises(UsageError):
                check_t_norm(min, grid_step=bad)
        assert grid_points("1/2") == grid_points(0.5) == [0.0, 0.5, 1.0]

    def test_float_grid_step_is_read_as_its_shortest_repr(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, which divides nothing
        assert grid_points(0.1) == grid_points("1/10") == [k / 10 for k in range(11)]
        assert grid_points(1e-2) == grid_points(Fraction(1, 100))
        assert check_t_norm(min, grid_step=0.1).ok
        assert not check_t_norm(max, grid_step=0.1).ok
        for bad in (0.3, 2.5, -0.1, 0.0, Fraction(3, 7)):
            with pytest.raises(UsageError):
                grid_points(bad)
            with pytest.raises(UsageError):
                check_t_norm(min, grid_step=bad)

    def test_an_operator_that_returns_nan_fails(self):
        # one NaN object per call, and one NaN object shared by every row
        for op in (lambda x, y: float("nan"), lambda x, y: NAN):
            result = check_t_norm(op, Fraction(1, 8))
            assert not result.ok
            assert result.violation.condition == "commutativity"
            assert result.violation.point == (0.0, 0.0)

    def test_an_operator_that_returns_nan_or_inf_at_one_point_fails(self):
        # equal rows that hold such a value must still be checked point by point
        for bad in (NAN, float("inf")):
            op = lambda x, y, bad=bad: bad if (x, y) == (0.5, 0.5) else min(x, y)
            result = check_t_norm(op, Fraction(1, 4))
            assert not result.ok
            assert (result.violation.condition, result.violation.point) == (
                "commutativity", (0.5, 0.5))


def _drastic(x, y):
    return y if x == 1.0 else x if y == 1.0 else 0.0


# Operators for the check against the plain loop; the perturbed ones take
# the grid and draw their points from it.
PLAIN_OPS = {
    "lukasiewicz": t_norm,
    "minimum": min,
    "product": lambda x, y: x * y,
    "drastic": _drastic,
    "maximum": max,
    "mean": lambda x, y: (x + y) / 2,
    "off grid": lambda x, y: min(x, y) * 0.9 + 0.1 * x * y,
}


def _perturbed(points, by):
    return lambda x, y: t_norm(x, y) + (by if (x, y) in points else 0.0)


def _replaced(points, value):
    return lambda x, y: value if (x, y) in points else t_norm(x, y)


def _moved(point, value):
    # still commutative, so associativity is checked on on-grid values
    return _replaced({point, point[::-1]}, value)


@st.composite
def t_norm_candidates(draw):
    denominator = draw(st.integers(4, 16))
    pts = grid_points(Fraction(1, denominator))
    point = st.tuples(st.sampled_from(pts), st.sampled_from(pts))
    kind = draw(st.sampled_from(
        [*PLAIN_OPS, "within tolerance", "off by 1e-6", "one nan", "one inf", "moved",
         "grid table"]))
    if kind in PLAIN_OPS:
        op = PLAIN_OPS[kind]
    elif kind == "within tolerance":
        op = _perturbed(draw(st.sets(point, min_size=1, max_size=12)), 1e-12)
    elif kind == "off by 1e-6":
        op = _perturbed({draw(point)}, 1e-6)
    elif kind == "moved":
        op = _moved(draw(point), draw(st.sampled_from(pts)))
    elif kind == "grid table":
        # any commutative operator with every value on the grid
        table = {}
        for i, x in enumerate(pts):
            for y in pts[i:]:
                table[x, y] = table[y, x] = draw(st.sampled_from(pts))
        op = lambda x, y: table[x, y]
    else:
        op = _replaced({draw(point)}, NAN if kind == "one nan" else float("inf"))
    return kind, Fraction(1, denominator), op


class TestContractCheckAgainstPlainLoops:
    @settings(max_examples=150, deadline=None)
    @given(t_norm_candidates())
    # fails associativity first at (0, 0, 1), in the last column of a row
    @example(("moved", Fraction(1, 4), _moved((0.0, 1.0), 0.25)))
    def test_same_verdict_as_the_plain_loops(self, candidate):
        kind, step, op = candidate
        result = check_t_norm(op, step)
        violation = result.violation
        got = (result.ok, *((None, None) if violation is None else violation[:2]))
        assert got == check_t_norm_reference(op, step)
        if kind in ("lukasiewicz", "minimum", "product", "drastic", "within tolerance"):
            assert result.ok, kind
        if kind in ("maximum", "mean", "one nan", "one inf"):
            assert not result.ok, kind

    def test_perturbed_rows_fall_back_to_the_tolerance_loop(self):
        # every row differs exactly from the one it is checked against, yet
        # no value is off by more than 1e-9
        points = {(x, y) for x in grid_points(Fraction(1, 8)) for y in (0.25, 0.75)}
        op = _perturbed(points, 1e-12)
        assert check_t_norm(op, Fraction(1, 8)).ok
        assert check_t_norm_reference(op, Fraction(1, 8)) == (True, None, None)


def _rejected(value) -> bool:
    try:
        degree_in_unit_interval(value)
    except DomainError:
        return True
    return False


RULES = {
    Connective.SUM: lambda r, s: max(r, s),
    Connective.STRONG_SUM: lambda r, s: min(1, r + s),
    Connective.PRODUCT: lambda r, s: min(r, s),
    Connective.STRONG_PRODUCT: lambda r, s: max(0, r + s - 1),
    Connective.IMPLICATION: lambda r, s: max(0, r + s - 1),
    Connective.NEGATION: lambda r, s: 1 - r,
}

degrees = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1.0, NAN, float("inf"), float("-inf")]),
    st.booleans(),
    st.integers(-2, 3),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.decimals(places=2),
    st.sampled_from([Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")]),
    st.none(),
    st.text(max_size=3),
)


class TestPropagation:
    @given(degrees, degrees,
           st.sampled_from([*Connective, *(c.value for c in Connective)]))
    def test_rejects_exactly_what_the_degree_check_rejects(self, r, s, connective):
        c = Connective(connective)
        read = (r,) if c is Connective.NEGATION else (r, s)
        if any(_rejected(v) for v in read):
            with pytest.raises(DomainError):
                propagate(r, s, connective)
            return
        try:
            want = RULES[c](r, s)
        except TypeError as error:  # Decimal does not mix with float or Fraction
            with pytest.raises(type(error)):
                propagate(r, s, connective)
            return
        got = propagate(r, s, connective)
        assert (type(got), repr(got)) == (type(want), repr(want))

    def test_rule_table(self):
        assert propagate(0.3, 0.8, Connective.SUM) == 0.8
        assert propagate(0.3, 0.8, Connective.STRONG_SUM) == pytest.approx(1.0)
        assert propagate(0.3, 0.8, Connective.PRODUCT) == 0.3
        assert propagate(0.7, 0.5, Connective.STRONG_PRODUCT) == pytest.approx(0.2)
        assert propagate(0.7, 0.5, Connective.IMPLICATION) == pytest.approx(0.2)
        assert propagate(0.4, None, Connective.NEGATION) == pytest.approx(0.6)

    def test_exact_fractions_stay_exact(self):
        r, s = Fraction(2, 3), Fraction(2, 3)
        assert propagate(r, s, Connective.STRONG_PRODUCT) == Fraction(1, 3)
        assert propagate(r, s, Connective.STRONG_SUM) == Fraction(1)
        assert propagate(r, None, Connective.NEGATION) == Fraction(1, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            propagate(1.5, 0.5, Connective.SUM)
        with pytest.raises(DomainError):
            propagate(0.5, -0.1, Connective.PRODUCT)

    def test_unknown_connective_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown connective"):
            propagate(0.5, 0.5, "bogus")

    def test_binary_connective_needs_a_second_degree(self):
        for connective in Connective:
            if connective is not Connective.NEGATION:
                with pytest.raises(DomainError):
                    propagate(0.5, None, connective)
        with pytest.raises(DomainError):
            propagate(0.5, None, "sum")

    def test_degrees_must_be_numbers_in_the_unit_interval(self):
        for bad in ("0.5", [1], True, False, 1j, float("nan"), Decimal("NaN")):
            with pytest.raises(DomainError):
                propagate(bad, 0.5, "sum")
            with pytest.raises(DomainError):
                propagate(0.5, bad, "sum")
        assert propagate(Decimal("0.25"), Fraction(1, 2), "sum") == Fraction(1, 2)
        assert propagate(Decimal("0.75"), None, "negation") == Decimal("0.25")
        assert propagate(0.25, 0.5, "product") == 0.25

    @given(unit, unit)
    def test_sum_dominates_product(self, r, s):
        assert propagate(r, s, Connective.SUM) >= propagate(r, s, Connective.PRODUCT)


def test_formula_identities_all_hold():
    reports = formula_identities(Fraction(1, 32))
    assert [r.name for r in reports] == [
        "negation via implication to zero",
        "weak conjunction from strong operators",
        "weak disjunction from nested implications",
        "strong disjunction by De Morgan",
        "implication residuation boundary",
        "propagation closed forms",
    ]
    assert all(r.ok for r in reports)
