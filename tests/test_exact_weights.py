"""The integer-mass weights and the tabled t-norm check against the code
they replaced, which stays here as the oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mereovc import lukasiewicz
from mereovc.errors import DomainError
from mereovc.lukasiewicz import TNormCheck, TNormViolation, check_t_norm, grid_points
from mereovc.mereology import (
    WeightedUniverse,
    alg_product,
    degree_of_part,
    weight,
)


def oracle_weight(x):
    return sum((x.universe.atom_weights[a] for a in x.members), Fraction(0))


def oracle_degree_of_part(x, y):
    return oracle_weight(alg_product(x, y)) / oracle_weight(x)


def oracle_check_t_norm(op, grid_step):
    pts = grid_points(grid_step)
    tolerance = 1e-9

    for x in pts:
        for y in pts:
            if abs(op(x, y) - op(y, x)) > tolerance:
                return TNormCheck(False, TNormViolation(
                    "commutativity", (x, y), f"op({x},{y}) != op({y},{x})"))
    for x in pts:
        for y in pts:
            xy = op(x, y)
            for z in pts:
                if abs(op(xy, z) - op(x, op(y, z))) > tolerance:
                    return TNormCheck(False, TNormViolation(
                        "associativity", (x, y, z),
                        f"op(op({x},{y}),{z}) != op({x},op({y},{z}))"))
    for x1, x2 in zip(pts, pts[1:]):
        for y in pts:
            if op(x1, y) > op(x2, y) + tolerance:
                return TNormCheck(False, TNormViolation(
                    "monotonicity", (x1, x2, y),
                    f"op decreases from x={x1} to x={x2} at y={y}"))
    for x in pts:
        if abs(op(x, 1.0) - x) > tolerance:
            return TNormCheck(False, TNormViolation(
                "boundary", (x, 1.0), f"op({x},1) != {x}"))
        if abs(op(x, 0.0)) > tolerance:
            return TNormCheck(False, TNormViolation(
                "boundary", (x, 0.0), f"op({x},0) != 0"))
    return TNormCheck(True, None)


@st.composite
def universes_with_terms(draw):
    """A universe whose weights have unlike denominators, and two terms."""
    n = draw(st.integers(1, 7))
    raw = draw(st.lists(
        st.fractions(min_value=Fraction(1, 97), max_value=1, max_denominator=97),
        min_size=n, max_size=n))
    total = sum(raw)
    universe = WeightedUniverse(tuple(range(n)), {a: w / total for a, w in enumerate(raw)})
    x, y = (universe.term(draw(st.sets(st.integers(0, n - 1)))) for _ in range(2))
    return universe, x, y


@given(universes_with_terms())
def test_weight_and_degree_equal_the_fraction_sums(case):
    universe, x, y = case
    for term in (x, y, alg_product(x, y), universe.empty, universe.universe):
        assert repr(weight(term)) == repr(oracle_weight(term))
    if not x.is_empty:
        assert repr(degree_of_part(x, y)) == repr(oracle_degree_of_part(x, y))


def _swap(v):
    return {0.25: 0.5, 0.5: 0.25}.get(v, v)


def _not_monotone(x, y):
    # the minimum in the order of [0, 1] with 1/4 and 1/2 swapped: it is
    # commutative, associative and has both boundaries, but op(x, 1/4)
    # drops from 1/2 to 1/4 as x passes 1/2
    return _swap(min(_swap(x), _swap(y)))


OPS = {
    "t_norm": lukasiewicz.t_norm,
    "min": min,
    "product": lambda x, y: x * y,
    "mean": lambda x, y: (x + y) / 2,
    "first": lambda x, y: x,
    "not monotone": _not_monotone,
    "bad boundary": max,
}


@pytest.mark.parametrize("step", [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 64)])
@pytest.mark.parametrize("name", list(OPS))
def test_check_t_norm_equals_the_loop(name, step):
    op = OPS[name]
    assert check_t_norm(op, step) == oracle_check_t_norm(op, step)


def test_test_ops_cover_every_condition():
    seen = {
        name: (check_t_norm(op, Fraction(1, 8)).violation or TNormViolation("none", (), ""))
        .condition for name, op in OPS.items()
    }
    assert seen == {
        "t_norm": "none", "min": "none", "product": "none", "mean": "associativity",
        "first": "commutativity", "not monotone": "monotonicity", "bad boundary": "boundary",
    }


def test_op_is_called_once_per_grid_pair_plus_off_grid_values():
    calls = []

    def counted(op):
        def call(x, y):
            calls.append((x, y))
            return op(x, y)
        return call

    assert check_t_norm(counted(lukasiewicz.t_norm), Fraction(1, 64))
    assert len(calls) == len(set(calls)) == 65 ** 2

    calls.clear()
    assert not check_t_norm(counted(OPS["mean"]), Fraction(1, 8))
    points = set(grid_points(Fraction(1, 8)))
    assert len(set(calls[:81])) == 81 < len(calls)
    assert all(not set(args) <= points for args in calls[81:])


class TestUniverseIsFrozen:
    def test_mutating_the_source_dict_leaves_the_universe_alone(self):
        source = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        u = WeightedUniverse(("a", "b"), source)
        source["a"] = Fraction(3, 4)
        assert weight(u.universe) == 1
        assert u.atom_weights["a"] == Fraction(1, 2)

    def test_weights_are_read_only(self):
        u = WeightedUniverse.uniform("ab")
        with pytest.raises(TypeError):
            u.atom_weights["a"] = Fraction(1)


@pytest.mark.parametrize(
    "counts", [{"a": 0}, {"a": 1, "b": -1}, {"a": 2.5}, {"a": 2, "b": -1}, {"a": "1"}])
def test_from_counts_rejects_masses_that_are_not_positive_integers(counts):
    with pytest.raises(DomainError, match="positive integer"):
        WeightedUniverse.from_counts(counts)
