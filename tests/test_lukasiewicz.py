from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mereovc.errors import DomainError, UsageError
from mereovc.lukasiewicz import (
    Connective,
    check_t_norm,
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


class TestPropagation:
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
