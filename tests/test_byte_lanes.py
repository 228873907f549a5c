"""The session's byte-lane agreement counts against _agreement_counts.

leave_one_out reads every trial's touching sizes off per-feature value
masks (predict._lane_counts). Trial i must get exactly
_agreement_counts(rows without row i, row i), which compares cells with
==: a nan object equals nothing, itself included, and 1, 1.0 and True are
one value. Lanes are one byte wide below 256 features and two bytes wide
from 256 on, so the feature counts straddle that edge.
"""

import math
from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from mereovc.predict import _agreement_counts, _lane_counts

NAN = math.nan
FEATURE_COUNTS = [0, 1, 255, 256, 300]

cells = st.one_of(
    st.sampled_from(["a", "b", 1, 1.0, True, 0, 0.0, False, NAN, None]),
    st.builds(float, st.just("nan")),  # a fresh nan object each time
    st.floats(),
)


def oracle(rows):
    return [_agreement_counts(rows[:i] + rows[i + 1:], row) for i, row in enumerate(rows)]


@st.composite
def tables(draw, features):
    """Two to five rows. A row repeats a short drawn pattern of cells, or
    copies an earlier row, across its features, and then redraws up to
    three of them, so wide rows agree on many features but not all."""
    rows = []
    for _ in range(draw(st.integers(2, 5))):
        pattern = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else None
        pattern = pattern or draw(st.lists(cells, min_size=1, max_size=7))
        row = list(islice(cycle(pattern), features))
        for j in draw(st.lists(st.integers(0, max(features - 1, 0)), max_size=3)):
            if features:
                row[j] = draw(cells)
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("features", FEATURE_COUNTS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lanes_match_agreement_counts(features, data):
    rows = data.draw(tables(features))
    assert list(_lane_counts(rows)) == oracle(rows)


@pytest.mark.parametrize("features", FEATURE_COUNTS)
@pytest.mark.parametrize("n", [2, 3, 7])
def test_equal_rows_fill_every_lane(features, n):
    # the largest count a lane holds: 255 in one byte, 300 in two
    rows = [("v",) * features] * n
    assert list(_lane_counts(rows)) == [[features] * (n - 1)] * n == oracle(rows)


def test_nan_agrees_with_nothing_and_one_is_true():
    nan = float("nan")
    rows = [(nan, 1, "x"), (nan, 1.0, "x"), (NAN, True, "y"), (float("nan"), 2, "x")]
    assert list(_lane_counts(rows)) == oracle(rows) == [[2, 1, 1], [2, 1, 1], [1, 1, 0], [1, 1, 0]]


@pytest.mark.parametrize("features", [1, 10, 256])
@pytest.mark.parametrize("copies", [1, 2, 3, 40])
def test_high_cardinality_columns(features, copies):
    # every value held by `copies` rows: 1 makes every cell a singleton,
    # which builds no mask, and 40 makes every column one value
    rows = [tuple(f"{j}:{i // copies}" for j in range(features)) for i in range(40)]
    rows[0] = ("x",) + rows[0][1:]
    assert list(_lane_counts(rows)) == oracle(rows)
