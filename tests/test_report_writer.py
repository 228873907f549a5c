"""The report writer against the stdlib's indented encoder."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from mereovc.cli import _dumps
from mereovc.errors import DomainError


def reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


# pieces that would fool a writer splitting the C encoder's output on text
TRICKY = ["\n", "{", "}", "[", "]", '"', "\\", ",", ": ", '"},\n    {"', "},\n      {", "é", "𝄞"]

strings = st.one_of(st.text(), st.lists(st.sampled_from(TRICKY)).map("".join))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    strings,
)
flat_dicts = st.dictionaries(strings, scalars, min_size=1, max_size=4)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(strings, children, max_size=4),
        st.lists(flat_dicts, max_size=4),
        st.lists(st.one_of(flat_dicts, scalars, children), max_size=4),
    )


trees = st.recursive(st.one_of(scalars, st.just({}), st.just([])), containers, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_matches_json_dumps_indent_2(obj):
    assert _dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": {}, "b": [], "c": [{}], "d": [[]]},
        [{"id": 1, "note": '"},\n    {"'}, {"id": 2, "note": "},\n      {"}],
        [{"id": 1}, {}],
        [{"id": 1}, 2, [3]],
        ("t", (1, 2), [{"x": (1,)}]),
        {1: {"x": 1}, 2.5: [1], True: {}, None: [[1]], "s": {0: 1, False: 2}},
        [[{"a": 1}], [{"b": 2}, {"c": 3.5}]],
    ],
)
def test_edge_shapes_match(obj):
    assert _dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        math.inf,
        {"flat": -math.inf},
        {"nested": {"x": [math.nan]}},
        {"records": [{"loss": 1.0}, {"loss": math.inf}]},
    ],
)
def test_non_finite_number_is_a_domain_error(obj):
    with pytest.raises(DomainError, match="not valid JSON"):
        _dumps(obj)
