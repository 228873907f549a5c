"""The package's records and value types are tuples or slotted classes
whose code the bytecode cache holds, and its means are math.fsum over the
count. These tests pin what they kept: every repr, the keyword forms and
defaults, each constructor error with its check order, validation on
_make and _replace, immutability, equality and hashing, and the mean
statistics.fmean gives."""

import copy
import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mereovc.errors import DomainError, SchemaError
from mereovc.laws import LawCase, LawReport, full_selftest
from mereovc.lukasiewicz import TNormCheck, TNormViolation, check_t_norm, t_norm
from mereovc.mereology import WeightedUniverse
from mereovc.mistakes import LocalizationState, MistakeLedger, count_mistakes, localize
from mereovc.predict import PredictionConfig, _mean, leave_one_out
from mereovc.syllogistic import (
    EulerModel,
    Mood,
    MoodEntry,
    MoodVerdict,
    Premiss,
    enumerate_moods,
    find_model,
    is_valid_mood,
    lookup_mood,
    parse_mood,
)
from mereovc.tables import DecisionSystem

U = WeightedUniverse.uniform([1, 2])
T = U.term([1])
SYSTEM = DecisionSystem.from_rows(
    ("f1", "f2"), [("x", "a"), ("x", "b"), ("y", "b")], [1, 2.5, 3])
TRIALS = leave_one_out(SYSTEM, PredictionConfig(delta=2))
HISTORY = localize(SYSTEM, TRIALS[0], 2.5).history


# One instance per pinned repr, built as when it was pinned.
INSTANCES = {
    "WeightedUniverse.uniform": U,
    "WeightedUniverse.from_counts": WeightedUniverse.from_counts({"a": 1, "b": 3}),
    "LawReport": LawReport("x", 3, ["x=Term({1})"]),
    "LawReport.selftest_last": full_selftest(2, 0, 2, 0)[-1],
    "LawCase": LawCase(((T,),), ((T, T),), (), (((T,),),)),
    "DecisionSystem": SYSTEM,
    "Premiss": Premiss("A", "m", "b"),
    "Mood": lookup_mood("Barbara"),
    "EulerModel": find_model([Premiss("I", "a", "b")]),
    "EulerModel.direct": EulerModel({"a": frozenset({0, 2})}),
    "MoodVerdict.valid": is_valid_mood(lookup_mood("Barbara")),
    "MoodVerdict.invalid": is_valid_mood(parse_mood("Imb & Iam -> Aab")),
    "MoodEntry": enumerate_moods()[0],
    "TNormCheck.ok": check_t_norm(t_norm, Fraction(1, 2)),
    "TNormCheck.violation": check_t_norm(max, Fraction(1, 2)),
    "TNormViolation": check_t_norm(max, Fraction(1, 2)).violation,
    "PredictionConfig.default": PredictionConfig(),
    "PredictionConfig.read": PredictionConfig(
        epsilon="1/2", delta=3, tie_strategy="lowest", mode="at_least", rng_seed=7,
        eta=0.25, radius_tolerance=1e-3),
    "MistakeLedger": count_mistakes(TRIALS),
    "LocalizationState.first": HISTORY[0],
    "LocalizationState.last": HISTORY[-1],
}


# Each repr as the dataclasses printed it.
REPRS = {
    "WeightedUniverse.uniform": "WeightedUniverse(atoms=(1, 2), atom_weights=mappingproxy("
    "{1: Fraction(1, 2), 2: Fraction(1, 2)}))",
    "WeightedUniverse.from_counts": "WeightedUniverse(atoms=('a', 'b'), atom_weights="
    "mappingproxy({'a': Fraction(1, 4), 'b': Fraction(3, 4)}))",
    "LawReport": "LawReport(name='x', cases=3, failures=['x=Term({1})'])",
    "LawReport.selftest_last": "LawReport(name='propagation closed forms', cases=4225, "
    "failures=[])",
    "LawCase": "LawCase(terms=((Term({1}),),), pairs=((Term({1}), Term({1})),), triples=(), "
    "collections=(((Term({1}),),),))",
    "DecisionSystem": "DecisionSystem(objects=(0, 1, 2), features=('f1', 'f2'), rows={0: "
    "('x', 'a'), 1: ('x', 'b'), 2: ('y', 'b')}, decisions={0: 1.0, 1: 2.5, 2: 3.0})",
    "Premiss": "Premiss(quantifier='A', subject='m', predicate='b')",
    "Mood": "Mood(premiss1=Premiss(quantifier='A', subject='m', predicate='b'), "
    "premiss2=Premiss(quantifier='A', subject='a', predicate='m'), "
    "conclusion=Premiss(quantifier='A', subject='a', predicate='b'))",
    "EulerModel": "EulerModel(assignment={'a': frozenset({2}), 'b': frozenset({2})})",
    "EulerModel.direct": "EulerModel(assignment={'a': frozenset({0, 2})})",
    "MoodVerdict.valid": "MoodVerdict(valid=True, countermodel=None)",
    "MoodVerdict.invalid": "MoodVerdict(valid=False, countermodel=EulerModel(assignment="
    "{'a': frozenset({4}), 'b': frozenset({5}), 'm': frozenset({4, 5})}))",
    "MoodEntry": "MoodEntry(figure=1, mood=Mood(premiss1=Premiss(quantifier='A', "
    "subject='m', predicate='b'), premiss2=Premiss(quantifier='A', subject='a', "
    "predicate='m'), conclusion=Premiss(quantifier='A', subject='a', predicate='b')), "
    "name='Barbara', valid=True)",
    "TNormCheck.ok": "TNormCheck(ok=True, violation=None)",
    "TNormCheck.violation": "TNormCheck(ok=False, violation=TNormViolation("
    "condition='boundary', point=(0.0, 1.0), detail='op(0.0,1) != 0.0'))",
    "TNormViolation": "TNormViolation(condition='boundary', point=(0.0, 1.0), "
    "detail='op(0.0,1) != 0.0')",
    "PredictionConfig.default": "PredictionConfig(epsilon=Fraction(1, 1), delta=1, "
    "mode='exact', tie_strategy='random', rng_seed=0, eta=0.5, radius_tolerance=1e-06)",
    "PredictionConfig.read": "PredictionConfig(epsilon=Fraction(1, 2), delta=3, "
    "mode='at_least', tie_strategy='lowest_object_id', rng_seed=7, eta=0.25, "
    "radius_tolerance=0.001)",
    "MistakeLedger": "MistakeLedger(per_object_mistakes={0: 1, 1: 0, 2: 1}, "
    "per_trial=(1, 0, 1), total=2, covered=(True, True, True), "
    "mistake_free_objects=frozenset({1}))",
    "LocalizationState.first": "LocalizationState(round=0, survivors=frozenset({1}), "
    "radii={1: 2.0})",
    "LocalizationState.last": "LocalizationState(round=20, survivors=frozenset({1}), "
    "radii={1: 1.9073486328125e-06})",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_every_repr_is_unchanged(name):
    assert repr(INSTANCES[name]) == REPRS[name]


def test_every_converted_type_has_a_pinned_repr():
    types = {type(instance) for instance in INSTANCES.values()}
    assert types == {
        WeightedUniverse, LawReport, LawCase, DecisionSystem, Premiss, Mood, EulerModel,
        MoodVerdict, MoodEntry, TNormCheck, TNormViolation, PredictionConfig,
        MistakeLedger, LocalizationState,
    }


# -- keyword construction and defaults ------------------------------------


def test_prediction_config_defaults():
    config = PredictionConfig()
    assert (config.epsilon, config.delta, config.mode, config.tie_strategy, config.rng_seed,
            config.eta, config.radius_tolerance) == (Fraction(1), 1, "exact", "random", 0,
                                                     0.5, 1e-6)
    assert type(config.epsilon) is Fraction
    assert PredictionConfig(delta=3) == PredictionConfig(Fraction(1), 3)


def test_prediction_config_reads_epsilon_and_the_lowest_tie_strategy():
    for epsilon in ("1/2", 0.5, Fraction(1, 2)):
        assert PredictionConfig(epsilon=epsilon).epsilon == Fraction(1, 2)
        assert type(PredictionConfig(epsilon=epsilon).epsilon) is Fraction
    assert type(PredictionConfig(epsilon=1).epsilon) is Fraction
    assert PredictionConfig(tie_strategy="lowest").tie_strategy == "lowest_object_id"


def test_keyword_construction_equals_positional():
    assert DecisionSystem(objects=(0,), features=("f",), rows={0: ("x",)},
                          decisions={0: 1.0}) == DecisionSystem((0,), ("f",), {0: ("x",)},
                                                                {0: 1.0})
    assert Premiss(quantifier="A", subject="m", predicate="b") == Premiss("A", "m", "b")
    barbara = lookup_mood("Barbara")
    assert Mood(premiss1=barbara.premiss1, premiss2=barbara.premiss2,
                conclusion=barbara.conclusion) == barbara
    assert EulerModel(assignment={"a": frozenset({1})}) == EulerModel({"a": frozenset({1})})
    assert LawReport(name="m1", cases=2, failures=[]) == LawReport("m1", 2, [])
    assert TNormCheck(ok=True, violation=None) == TNormCheck(True, None)
    universe = WeightedUniverse(atoms=(1,), atom_weights={1: Fraction(1)})
    assert universe.atoms == (1,) and dict(universe.atom_weights) == {1: Fraction(1)}


# -- constructor errors, their messages and the order of the checks ---------


@pytest.mark.parametrize("kwargs, message", [
    # a bool is refused in field order, before epsilon is read
    ({"radius_tolerance": True, "epsilon": "junk"}, "radius_tolerance must not be a bool"),
    ({"delta": True, "eta": False}, "delta must not be a bool"),
    ({"epsilon": True}, "epsilon must not be a bool"),
    ({"epsilon": "junk", "delta": 0}, "epsilon 'junk' is not a rational number"),
    ({"epsilon": 2, "delta": 0}, "epsilon must lie in [0, 1]"),
    ({"delta": 0, "rng_seed": 1.5}, "delta must be a positive integer"),
    ({"delta": 1.0}, "delta must be a positive integer"),
    ({"rng_seed": 1.5, "mode": "x"}, "rng_seed must be an integer"),
    ({"mode": "x", "tie_strategy": "x"}, "mode must be 'exact' or 'at_least'"),
    ({"tie_strategy": "x", "eta": 2},
     "tie_strategy must be one of ('random', 'lowest_object_id')"),
    ({"eta": 1, "radius_tolerance": 0}, "eta must be a real number strictly between 0 and 1"),
    ({"eta": "0.5"}, "eta must be a real number strictly between 0 and 1"),
    ({"radius_tolerance": 0}, "radius_tolerance must be a positive real number"),
    ({"radius_tolerance": "1"}, "radius_tolerance must be a positive real number"),
])
def test_prediction_config_errors(kwargs, message):
    with pytest.raises(DomainError) as raised:
        PredictionConfig(**kwargs)
    assert str(raised.value) == message


@pytest.mark.parametrize("args, error, message", [
    # duplicate features are checked before duplicate objects
    (((0, 0), ("f", "f"), {0: ("x", "x")}, {0: 1.0}), SchemaError, "duplicate feature names"),
    (((0, 0), ("f",), {0: ("x",)}, {0: 1.0}), DomainError, "duplicate object ids"),
    (((0, 1), ("f",), {0: ("x",)}, {0: 1.0}), DomainError, "value table is not rectangular"),
    # a missing decision is found before a row of the same object is checked
    (((0, 1), ("f",), {0: ("x",), 1: ()}, {0: 1.0}), DomainError,
     "object 1 has no decision value"),
    (((0, 1), ("f",), {0: ("x",), 1: ()}, {0: 1.0, 1: 2.0}), DomainError,
     "value table is not rectangular"),
    (((0, 1), ("f",), {0: ("x",), 2: ("y",)}, {0: 1.0, 1: 2.0}), DomainError,
     "value table is not rectangular"),
])
def test_decision_system_errors(args, error, message):
    with pytest.raises(error) as raised:
        DecisionSystem(*args)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_syllogistic_errors_in_check_order():
    cases = [
        (lambda: Premiss("X", "", "b"), "quantifier must be one of AIEO"),
        (lambda: Premiss("A", "", "b"), "terms must be non-empty symbols"),
        (lambda: Premiss("A", "m", ""), "terms must be non-empty symbols"),
        (lambda: Mood(Premiss("A", "a", "b"), Premiss("A", "a", "b"), Premiss("A", "b", "a")),
         "the conclusion must relate a to b"),
        (lambda: Mood(Premiss("A", "a", "b"), Premiss("A", "a", "m"), Premiss("A", "a", "b")),
         "each premiss must join m with one conclusion term"),
        (lambda: Mood(Premiss("A", "m", "m"), Premiss("A", "a", "m"), Premiss("A", "a", "b")),
         "each premiss must join m with one conclusion term"),
        (lambda: Mood(Premiss("A", "m", "a"), Premiss("A", "a", "m"), Premiss("A", "a", "b")),
         "a and b must each occur in exactly one premiss"),
        (lambda: EulerModel({"a": frozenset(), "b": frozenset({9})}),
         "term 'a' denotes the empty collection"),
        (lambda: EulerModel({"a": frozenset({7})}), "term 'a' uses cells outside 0..6"),
    ]
    for build, message in cases:
        with pytest.raises(DomainError) as raised:
            build()
        assert str(raised.value) == message


@pytest.mark.parametrize("atoms, weights, message", [
    ((), {}, "a universe needs at least one atom"),
    ((1, 1), {1: Fraction(1)}, "duplicate atoms"),
    ((1, 2), {1: Fraction(1)}, "weights must cover exactly the atoms"),
    ((1, 2), {1: 0.5, 2: Fraction(-1)}, "weight of 1 is not a Fraction"),
    ((1, 2), {1: Fraction(0), 2: Fraction(1)}, "weight of 1 must be positive"),
    ((1, 2), {1: Fraction(1, 2), 2: Fraction(1, 3)}, "atom weights must sum to exactly 1"),
])
def test_weighted_universe_errors(atoms, weights, message):
    with pytest.raises(DomainError) as raised:
        WeightedUniverse(atoms, weights)
    assert str(raised.value) == message


# -- _make and _replace validate as the constructor does ---------------------


def test_replace_and_make_revalidate():
    config = PredictionConfig()
    with pytest.raises(DomainError, match="delta must not be a bool"):
        config._replace(delta=True)
    with pytest.raises(DomainError, match="epsilon must lie in"):
        config._replace(epsilon=2)
    with pytest.raises(DomainError, match="delta must be a positive integer"):
        PredictionConfig._make([Fraction(1), 0, "exact", "random", 0, 0.5, 1e-6])
    assert config._replace(epsilon="1/3").epsilon == Fraction(1, 3)
    assert config._replace(tie_strategy="lowest").tie_strategy == "lowest_object_id"
    assert PredictionConfig._make(config) == config
    with pytest.raises(SchemaError, match="duplicate feature names"):
        SYSTEM._replace(features=("f1", "f1"))
    with pytest.raises(DomainError, match="not rectangular"):
        DecisionSystem._make((SYSTEM.objects, ("f1",), SYSTEM.rows, SYSTEM.decisions))
    with pytest.raises(DomainError, match="quantifier"):
        Premiss("A", "m", "b")._replace(quantifier="X")
    with pytest.raises(DomainError, match="the conclusion must relate a to b"):
        lookup_mood("Barbara")._replace(conclusion=Premiss("A", "b", "a"))
    with pytest.raises(DomainError, match="empty collection"):
        EulerModel._make(({"a": frozenset()},))
    with pytest.raises(TypeError):
        Premiss._make(("A", "m"))


# -- immutability -------------------------------------------------------------


def test_fields_refuse_assignment():
    for instance in INSTANCES.values():
        first = getattr(instance, "_fields", ("atoms",))[0]
        with pytest.raises(AttributeError):
            setattr(instance, first, None)
        with pytest.raises(AttributeError):
            instance.not_a_field = None


def test_weighted_universe_is_read_only():
    for name in ("atoms", "atom_weights", "_masses", "other"):
        with pytest.raises(AttributeError) as raised:
            setattr(U, name, None)
        assert str(raised.value) == f"cannot assign to field {name!r}"
        with pytest.raises(AttributeError) as raised:
            delattr(U, name)
        assert str(raised.value) == f"cannot delete field {name!r}"
    with pytest.raises(TypeError):
        U.atom_weights[1] = Fraction(1)
    assert U.atoms == (1, 2)


# -- equality and hashing -----------------------------------------------------


def test_value_types_compare_and_hash_by_value():
    assert PredictionConfig(epsilon="1/2") == PredictionConfig(epsilon=Fraction(1, 2))
    assert hash(PredictionConfig(epsilon="1/2")) == hash(PredictionConfig(epsilon=0.5))
    assert PredictionConfig(tie_strategy="lowest") == PredictionConfig(
        tie_strategy="lowest_object_id")
    assert PredictionConfig(delta=2) != PredictionConfig()
    assert Premiss("A", "m", "b") == Premiss("A", "m", "b") != Premiss("I", "m", "b")
    assert len({lookup_mood("Barbara"), lookup_mood("barbara"), lookup_mood("Celarent")}) == 2
    assert len(set(entry for entry in enumerate_moods())) == 256
    assert DecisionSystem.from_rows(("f",), [("x",)], [1]) == DecisionSystem(
        (0,), ("f",), {0: ("x",)}, {0: 1.0})
    with pytest.raises(TypeError):
        hash(SYSTEM)  # its rows and decisions are dicts
    assert LawReport("m1", 2, []) == LawReport("m1", 2, [])
    assert TNormViolation("boundary", (0.0,), "d") == TNormViolation("boundary", (0.0,), "d")


def test_look_alike_universes_stay_unequal():
    twin = WeightedUniverse.uniform([1, 2])
    assert repr(twin) == repr(U)
    assert twin != U and U == U and twin == twin
    assert len({U, twin}) == 2
    assert hash(U) == hash(U)
    assert twin.term([1]) != U.term([1])
    duplicate = copy.copy(U)
    assert duplicate != U and repr(duplicate) == repr(U)


def test_law_report_ok():
    assert LawReport("m1", 4, []).ok
    assert not LawReport("m1", 4, ["x=Term({1})"]).ok
    assert all(report.ok for report in full_selftest(2, 1, 3, 0))


def test_verdicts_keep_their_truth_value():
    assert not TNormCheck(False, TNormViolation("boundary", (0.0, 1.0), "d"))
    assert TNormCheck(True, None)
    assert not is_valid_mood(parse_mood("Imb & Iam -> Aab"))
    assert is_valid_mood(lookup_mood("Barbara"))


def test_records_are_tuples():
    # the value types are tuples: they equal, and unpack like, the plain
    # tuples of their fields
    assert Premiss("A", "m", "b") == ("A", "m", "b")
    quantifier, subject, predicate = Premiss("A", "m", "b")
    assert (quantifier, subject, predicate) == ("A", "m", "b")
    assert tuple(PredictionConfig()) == (Fraction(1), 1, "exact", "random", 0, 0.5, 1e-6)
    assert PredictionConfig()._asdict()["delta"] == 1
    assert LawReport._fields == ("name", "cases", "failures")


# -- the mean that replaced statistics.fmean -----------------------------------

HUGE = 1.7976931348623157e308
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=HUGE / 4, max_value=HUGE),
    st.floats(min_value=-HUGE, max_value=-HUGE / 4),
)


def _outcome(mean, values):
    try:
        return repr(mean(values))
    except OverflowError:
        return OverflowError


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=40))
def test_mean_matches_statistics_fmean(values):
    assert _outcome(_mean, values) == _outcome(statistics.fmean, values)


def test_mean_overflows_where_fmean_does():
    # fsum overflows on a partial sum in the value order, even where the
    # exact sum is finite, so the order decides, for both alike
    for values in ([HUGE, HUGE], [HUGE, HUGE, -HUGE], [HUGE, HUGE, -HUGE, -HUGE], [1e308] * 3):
        with pytest.raises(OverflowError):
            statistics.fmean(values)
        with pytest.raises(OverflowError):
            _mean(values)
    assert repr(_mean([HUGE, -HUGE, HUGE])) == repr(statistics.fmean([HUGE, -HUGE, HUGE]))
    assert math.isfinite(_mean([HUGE, -HUGE, HUGE]))
