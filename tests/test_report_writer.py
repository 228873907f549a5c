"""The report writer against the stdlib's indented encoder."""

import gc
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from mereovc.cli import Columns, _dumps
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


# cells json and %r could write differently: signed zero, the smallest
# subnormal, exponent forms, the largest float and an int past 2**53
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308, 0.1, -7.0]
EDGE_INTS = [0, -1, 2**53 + 1, -(2**63)]
column_keys = st.lists(
    st.one_of(strings, st.sampled_from(["%", "%r", "%%", "%(x)s", "id"])),
    min_size=1, max_size=4, unique=True,
)


@st.composite
def column_records(draw):
    keys = draw(column_keys)
    rows = draw(st.integers(0, 4))
    cells = {
        int: st.one_of(st.integers(), st.sampled_from(EDGE_INTS)),
        float: st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(EDGE_FLOATS)),
    }
    columns = tuple(
        draw(st.lists(cells[draw(st.sampled_from([int, float]))], min_size=rows, max_size=rows))
        for _ in keys
    )
    return Columns(tuple(keys), columns)


def as_dicts(table: Columns) -> list:
    return [dict(zip(table.keys, row)) for row in zip(*table.columns)]


@settings(max_examples=300, deadline=None)
@given(column_records())
def test_columns_match_json_dumps_of_their_records(table):
    rows = as_dicts(table)
    assert _dumps(table) == reference(rows)
    assert _dumps({"vc_star": 1, "per_object": table}) == reference(
        {"vc_star": 1, "per_object": rows})
    assert _dumps([{"trial": 0, "per_object": table}, {"trial": 1}]) == reference(
        [{"trial": 0, "per_object": rows}, {"trial": 1}])


@pytest.mark.parametrize("cell", EDGE_FLOATS + EDGE_INTS)
def test_edge_cell_matches(cell):
    table = Columns(("id", "x"), ((0, 1), (cell, cell)))
    assert _dumps({"per_object": table}) == reference({"per_object": as_dicts(table)})


def test_zero_rows_are_an_empty_list():
    table = Columns(("id", "loss"), ((), ()))
    assert _dumps(table) == "[]"
    assert _dumps({"per_object": table}) == reference({"per_object": []})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_cell_in_any_float_column_is_a_domain_error(bad, position):
    columns = [[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]]
    columns[position][1] = bad
    table = Columns(("forecast", "loss", "weight"), tuple(columns))
    with pytest.raises(DomainError, match="not valid JSON"):
        _dumps({"per_object": table})


@pytest.mark.parametrize("bad", [True, False, "1", None])
def test_cell_that_is_not_an_int_or_a_float_is_refused(bad):
    for column in ([bad, 1], [1, bad], [bad, 1.0]):
        table = Columns(("id", "reward"), ((0, 1), tuple(column)))
        with pytest.raises(TypeError, match="reward"):
            _dumps({"per_object": table})


def test_column_mixing_ints_and_floats_is_refused():
    with pytest.raises(TypeError, match="loss"):
        _dumps(Columns(("loss",), ((1, 1.5),)))


@pytest.mark.parametrize("table", [
    Columns(("a", "b"), ((1, 2), (1,))),
    Columns(("a", "b"), ((1,), (1, 2))),
    Columns(("a", "b"), ((1.0, 2.0), (1, 2, 3))),
    Columns(("a", "b"), ((), (1,))),
    Columns(("a", "b"), ((1, 2),)),
    Columns(("a",), ((1, 2), (3, 4))),
    Columns((), ()),
])
def test_columns_of_unequal_length_or_count_are_refused(table):
    with pytest.raises(TypeError, match="one column per key, all of one length"):
        _dumps({"trials": [{"per_object": table}]})


# Texts are cached per _dumps call and shared by every Columns record that
# has the same keys at the same depth, so a cache bug shows only across
# records: a signed zero written as the other sign, an int written as a
# float under the same template, a % in a key.
RUN_LAYOUTS = ["iiff", "fiif", "ifii", "fif", "iii", "fff", "ifif", "i", "f"]
REPEATED_INTS = st.one_of(st.sampled_from([0, 1, -1, 2**53 + 1]), st.integers())
REPEATED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e16, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def shared_key_tables(draw):
    """One to four Columns with the same keys; a table may change the kind
    of any column, so one key is an int in one table and a float in the next."""
    keys = tuple(draw(column_keys))
    kinds = [draw(st.sampled_from("if")) for _ in keys]
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            kinds = [draw(st.sampled_from("if")) for _ in keys]
        rows = draw(st.integers(0, 5))
        columns = tuple(
            tuple(draw(st.lists(REPEATED_INTS if kind == "i" else REPEATED_FLOATS,
                                min_size=rows, max_size=rows)))
            for kind in kinds
        )
        tables.append(Columns(keys, columns))
    return tables


def trials_report(tables):
    return [{"trial": i, "per_object": table} for i, table in enumerate(tables)]


def trials_reference(tables):
    return reference([{"trial": i, "per_object": as_dicts(t)} for i, t in enumerate(tables)])


@settings(max_examples=300, deadline=None)
@given(shared_key_tables())
def test_tables_sharing_keys_match_json_dumps(tables):
    assert _dumps(trials_report(tables)) == trials_reference(tables)
    assert _dumps(tables) == reference([as_dicts(t) for t in tables])


@pytest.mark.parametrize("layout", RUN_LAYOUTS)
def test_every_run_layout_matches_across_tables(layout):
    keys = ("id", "%", "%r", "a%%b", "loss", "x", "%(y)s")[:len(layout)]
    ints = [(0, 1, 2), (1, 2, 0), (0, 1, 2)]
    floats = [(0.0, -0.0, 0.5), (-0.0, 0.0, 0.0), (0.5, -0.0, 1e16)]
    tables = [
        Columns(keys, tuple((ints if kind == "i" else floats)[(t + j) % 3]
                            for j, kind in enumerate(layout)))
        for t in range(3)
    ]
    assert _dumps(trials_report(tables)) == trials_reference(tables)


def test_signed_zeros_keep_their_sign_in_one_column_and_across_tables():
    tables = [
        Columns(("loss",), ((0.0, -0.0, 0.0, -0.0),)),
        Columns(("loss",), ((-0.0,),)),
        Columns(("loss",), ((0.0,),)),
    ]
    text = _dumps(trials_report(tables))
    assert text == trials_reference(tables)
    assert text.count('"loss": -0.0') == 3
    assert text.count('"loss": 0.0') == 3


def test_one_key_as_int_then_float_keeps_each_repr():
    tables = [Columns(("x",), ((1, 0),)), Columns(("x",), ((1.0, 0.0),)), Columns(("x",), ((1,),))]
    assert _dumps(trials_report(tables)) == trials_reference(tables)


def test_writer_leaves_nothing_for_the_cyclic_gc():
    report = {
        "config": {"epsilon": "1", "delta": 3},
        "trials": trials_report([
            Columns(("id", "forecast", "reward", "loss"),
                    ((0, 1), (0.5, -0.0), (1, 0), (0.0, 2.5))),
        ] * 2),
        "mistakes": {"per_trial": [0, 1], "nested": [[1], {"a": []}]},
    }
    want = reference({**report, "trials": [
        {"trial": t["trial"], "per_object": as_dicts(t["per_object"])} for t in report["trials"]
    ]})  # json's own indented encoder leaves closures in a cycle, so it runs first
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        text = _dumps(report)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == want
