"""The report writer against the stdlib's indented encoder, and the agent
records it writes from a session's cached texts."""

import gc
import json
import math

import pytest
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from mereovc.cli import _Records, _dumps, _written
from mereovc.errors import DomainError
from mereovc.predict import PredictionConfig, _result, _run_trial, _session
from mereovc.tables import DecisionSystem


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
AGENT_KEYS = ("id", "touching_size", "vc", "radius", "forecast")
CONFIG = PredictionConfig(delta=3)


def as_dicts(keyed) -> list:
    """The agent records json.dumps is given: the trial's columns, row by row."""
    trial = _result(keyed)
    keys, columns = AGENT_KEYS, [
        trial.objects, trial.touching_sizes, trial.vcs, trial.radii, trial.forecasts]
    if trial.rewards is not None:
        keys, columns = (*keys, "reward", "loss"), [*columns, trial.rewards, trial.losses]
    return [dict(zip(keys, row)) for row in zip(*columns)]


def session_items(system, config=CONFIG):
    """(item, holdout) for each leave-one-out trial, then for a scored and an
    unscored one-trial session on the first object's row."""
    items = [(item, i) for i, item in enumerate(_session(system, config))]
    omega = system.row(system.objects[0])
    for expert in (system.decisions[system.objects[-1]], None):
        items.append((_run_trial(system, omega, expert, config), None))
    return items


def trials_report(system, items, pad=" " * 4):
    """A list of trials whose agent records one writer writes; pad is the
    indent of a per_object list, 4 in a top-level list of trials."""
    records = _Records(system, pad)
    return [{"trial": i, "per_object": records.trial(item, holdout)}
            for i, (item, holdout) in enumerate(items)]


def trials_reference(items):
    return reference([{"trial": i, "per_object": as_dicts(item)}
                      for i, (item, _) in enumerate(items)])


@st.composite
def tables(draw, decisions=st.one_of(st.floats(-1e300, 1e300), st.sampled_from(EDGE_FLOATS))):
    """Two to six rows of up to three two-letter features, with ids and
    decisions that json and %r could write differently."""
    n = draw(st.integers(2, 6))
    names = tuple(f"f{j}" for j in range(draw(st.integers(0, 3))))
    rows = [tuple(draw(st.sampled_from("ab")) for _ in names) for _ in range(n)]
    ids = draw(st.lists(st.one_of(st.integers(), st.sampled_from(EDGE_INTS)),
                        min_size=n, max_size=n, unique=True))
    values = draw(st.lists(decisions, min_size=n, max_size=n))
    return DecisionSystem.from_rows(names, rows, values, object_ids=ids)


def items_of(system, config=CONFIG):
    try:
        return session_items(system, config)
    except OverflowError:  # a plain mean of huge forecasts; no report to write
        assume(False)


@settings(max_examples=150, deadline=None)
@given(tables(), st.sampled_from([CONFIG, PredictionConfig(epsilon=Fraction(1, 2), delta=2)]))
def test_columns_match_json_dumps_of_their_records(system, config):
    """A trial's columns, written as records at three depths, are json.dumps
    of their records; a loss outside the float range is a domain error."""
    for item, holdout in items_of(system, config):
        rows = as_dicts(item)
        try:
            want = [reference(rows), reference({"vc_star": 1, "per_object": rows}),
                    reference([{"trial": 0, "per_object": rows}, {"trial": 1}])]
        except ValueError:
            with pytest.raises(DomainError, match="not valid JSON"):
                _dumps(_Records(system, "").trial(item, holdout))
            continue
        assert _dumps(_Records(system, "").trial(item, holdout)) == want[0]
        assert _dumps({"vc_star": 1, "per_object": _Records(system, "  ").trial(
            item, holdout)}) == want[1]
        assert _dumps([{"trial": 0, "per_object": _Records(system, "    ").trial(
            item, holdout)}, {"trial": 1}]) == want[2]


@pytest.mark.parametrize("cell", EDGE_FLOATS + EDGE_INTS)
def test_edge_cell_matches(cell):
    """A float cell as a decision, an int cell as an object id."""
    if isinstance(cell, float):
        system = DecisionSystem.from_rows(("x",), [("a",), ("a",), ("b",)], [cell, 0.5, -7.0])
    else:
        system = DecisionSystem.from_rows(
            ("x",), [("a",), ("a",), ("b",)], [1.0, 0.5, -7.0], object_ids=[cell, 2**70, -(2**70)])
    items = session_items(system)
    text = _dumps(trials_report(system, items))
    assert text == trials_reference(items)
    assert f": {json.dumps(cell)}," in text or f": {json.dumps(cell)}\n" in text


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_cell_in_any_float_column_is_a_domain_error(bad, position):
    """A non-finite decision, as the forecast of any record, is refused
    before a record is written."""
    decisions = [0.5, 1.5, 2.5]
    decisions[position] = bad
    system = DecisionSystem.from_rows(("x",), [("a",), ("b",), ("a",)], decisions)
    with pytest.raises(DomainError, match="not valid JSON"):
        _dumps({"per_object": _Records(system, "  ").trial(
            _run_trial(system, {"x": "a"}, 0.5, CONFIG), None)})


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_loss_outside_the_float_range_is_a_domain_error(position):
    decisions = [1.0, 2.0, 3.0]
    decisions[position] = -1e308
    system = DecisionSystem.from_rows(("x",), [("a",), ("b",), ("a",)], decisions)
    records = _Records(system, "  ")
    text = records.trial(_run_trial(system, {"x": "a"}, 1.0, CONFIG), None)
    scored_past_the_range = records.trial(_run_trial(system, {"x": "a"}, 1e308, CONFIG), None)
    assert _dumps({"per_object": text})
    with pytest.raises(DomainError, match="not valid JSON"):
        _dumps({"per_object": scored_past_the_range})
    # the loss is checked once, and the report stays refused for good
    with pytest.raises(DomainError, match="not valid JSON"):
        _dumps({"per_object": records.trial(_run_trial(system, {"x": "a"}, 1.0, CONFIG), None)})


def undecided(decisions):
    """A table whose decisions bypass from_rows, which makes them floats."""
    objects = tuple(range(len(decisions)))
    return DecisionSystem(objects, ("x",), {o: ("a",) for o in objects},
                          dict(zip(objects, decisions)))


@pytest.mark.parametrize("bad", [True, False, "1", None])
def test_cell_that_is_not_an_int_or_a_float_is_refused(bad):
    for decisions in ([bad, 1.0], [1.0, bad]):
        with pytest.raises(TypeError, match="is not a float"):
            _Records(undecided(decisions), "  ")


def test_column_mixing_ints_and_floats_is_refused():
    # an int decision would give an int loss, whose value would share a
    # cached text with the float of equal value
    with pytest.raises(TypeError, match="decision 1 of object 0 is not a float"):
        _Records(undecided([1, 1.5]), "  ")


def _short(column):
    return column[:-1]


def _long(column):
    return [*column, column[0]]


RAGGED = [
    ("keys", _short, 1.0),
    ("keys", _long, 1.0),
    ("key_rewards", _short, 1.0),
    ("key_rewards", _long, 1.0),
    ("key_losses", _short, 1.0),
    ("key_losses", _long, 1.0),
    ("keys", _short, None),
]


@pytest.mark.parametrize("table", RAGGED)
def test_columns_of_unequal_length_or_count_are_refused(table):
    """A trial without one key per agent, or without a reward and a loss per
    distinct key, is refused, where the maps that read them would stop at
    the shortest."""
    name, change, expert = table
    system = DecisionSystem.from_rows(("x",), [("a",), ("b",), ("a",)], [1.0, 2.0, 3.0])
    trial = _run_trial(system, {"x": "a"}, expert, CONFIG)
    ragged = trial._replace(**{name: change(getattr(trial, name))})
    with pytest.raises(TypeError, match="per agent"):
        _Records(system, "  ").trial(ragged, None)


# Texts are cached per writer and shared by every record it writes: heads
# across all trials, middles across trials of one (ground size, VC*) and
# scoring, losses across all. So a cache bug shows only across records: a
# signed zero written as the other sign, a float written as an equal int,
# an unscored record given a scored middle.
REPEATED_FLOATS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e16, 5e-324, 2.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(tables(decisions=REPEATED_FLOATS))
def test_tables_sharing_keys_match_json_dumps(system):
    items = items_of(system)
    assert _dumps(trials_report(system, items)) == trials_reference(items)


LAYOUT_TABLE = DecisionSystem.from_rows(
    ("x", "y"), [("a", "b"), ("a", "c"), ("d", "b"), ("d", "c"), ("a", "b")],
    [0.0, -0.0, 1.0, 0.5, -0.0],
)
LAYOUT_OMEGAS = [{"x": "a", "y": "b"}, {"x": "d", "y": "e"}, {"x": "q", "y": "r"}]


@pytest.mark.parametrize("layout", ["iiff", "fiif", "ifii", "fif", "iii", "fff", "ifif", "i", "f"])
def test_every_run_layout_matches_across_tables(layout):
    """One writer meets unscored (i) and scored (f, whose records end in a
    float loss) one-trial sessions in the layout's order, on omegas that
    give other touching sizes and VC*."""
    items = [
        (_run_trial(LAYOUT_TABLE, LAYOUT_OMEGAS[t % 3], -0.0 if kind == "f" else None, CONFIG), None)
        for t, kind in enumerate(layout)
    ]
    assert _dumps(trials_report(LAYOUT_TABLE, items)) == trials_reference(items)


def test_signed_zeros_keep_their_sign_in_one_column_and_across_tables():
    system = DecisionSystem.from_rows(
        ("x",), [("a",), ("a",), ("a",), ("a",)], [0.0, -0.0, 0.0, -0.0])
    items = [(item, i) for i, item in enumerate(_session(system, CONFIG))]
    text = _dumps(trials_report(system, items))
    assert text == trials_reference(items)
    # each object is an agent in three trials
    assert text.count('"forecast": -0.0') == 6
    assert text.count('"forecast": 0.0') == 6
    assert text.count('"loss": 0.0') == 12


def test_one_key_as_int_then_float_keeps_each_repr():
    """Equal values of int fields and float fields keep each its own text:
    id 1, size 1, reward 1 and loss 1.0; forecast 0.0 and -0.0."""
    system = DecisionSystem.from_rows(("x",), [("a",), ("a",), ("b",)], [1.0, 0.0, -0.0])
    items = session_items(system)
    text = _dumps(trials_report(system, items))
    assert text == trials_reference(items)
    for piece in ['"id": 1,', '"touching_size": 1,', '"reward": 1,', '"loss": 1.0\n',
                  '"forecast": 1.0,', '"forecast": 0.0,', '"forecast": -0.0,']:
        assert piece in text


def test_writer_leaves_nothing_for_the_cyclic_gc():
    system = DecisionSystem.from_rows(("x",), [("a",), ("a",), ("b",)], [0.5, -0.0, 2.5])
    items = session_items(system)
    want = reference({
        "config": {"epsilon": "1", "delta": 3},
        "trials": [{"trial": i, "per_object": as_dicts(item)}
                   for i, (item, _) in enumerate(items)],
        "mistakes": {"per_trial": [0, 1], "nested": [[1], {"a": []}]},
    })  # json's own indented encoder leaves closures in a cycle, so it runs first
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        text = _dumps({
            "config": {"epsilon": "1", "delta": 3},
            "trials": trials_report(system, items, " " * 6),
            "mistakes": {"per_trial": [0, 1], "nested": [[1], {"a": []}]},
        })
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == want


def test_writer_keeps_each_trials_records_by_reference():
    """The writer holds each trial's record pieces as the list the report
    holds, not as a copy, and joins them only when the text is asked for."""
    system = DecisionSystem.from_rows(("x",), [("a",), ("a",), ("b",)], [0.5, -0.0, 2.5])
    items = session_items(system)
    trials = trials_report(system, items)
    writer = _written(trials)
    assert len(writer.cuts) == len(trials)
    assert all(writer.out[cut] is trial["per_object"] for cut, trial in zip(writer.cuts, trials))
    assert "".join(writer.chunks()) == trials_reference(items)
