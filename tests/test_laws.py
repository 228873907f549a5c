import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from mereovc import laws, lukasiewicz
from mereovc.laws import (
    MAX_REPORTED_FAILURES,
    LawReport,
    exhaustive_case,
    full_selftest,
    random_universe,
    run_law_suite,
    sampled_case,
)
from mereovc.mereology import WeightedUniverse, overlap, weight


def test_exhaustive_three_atoms_all_green():
    reports = run_law_suite([exhaustive_case(WeightedUniverse.uniform("abc"))])
    assert reports, "suite produced no reports"
    bad = [r.name for r in reports if not r.ok]
    assert bad == []


def test_suite_covers_every_advertised_law():
    reports = run_law_suite([exhaustive_case(WeightedUniverse.uniform("ab"))])
    names = {r.name for r in reports}
    for i in range(1, 15):
        assert f"m{i}" in names
    assert {f"implication law {i}" for i in range(1, 8)} <= names
    assert {"class requirement 1", "class requirement 2"} <= names
    assert {"part irreflexive", "component reflexive", "part asymmetric"} <= names
    assert "component axiom" in names
    assert "degree monotone under full part" in names


def test_lopsided_weights_sampled_case():
    universe = WeightedUniverse.from_counts({"a": 1, "b": 3, "c": 9, "d": 2, "e": 1})
    rng = random.Random(7)
    reports = run_law_suite([sampled_case(universe, rng)])
    assert all(r.ok for r in reports)


def test_random_universe_shape():
    rng = random.Random(0)
    for _ in range(20):
        u = random_universe(rng, max_atoms=6)
        assert 2 <= len(u.atoms) <= 6
        assert sum(u.atom_weights.values()) == 1


def test_report_caps_recorded_failures(monkeypatch):
    monkeypatch.setattr(laws, "LAWS", (("always false", "terms", lambda x: False),))
    universe = WeightedUniverse.uniform("abcd")
    (report,) = run_law_suite([exhaustive_case(universe)])
    assert not report.ok
    assert report.cases == 15 > MAX_REPORTED_FAILURES
    assert report.failures == [f"x={t!r}" for t in universe.all_terms()][:MAX_REPORTED_FAILURES]


def test_every_check_runs_on_every_tuple_after_the_report_is_full(monkeypatch):
    calls = []

    def always_false(x, y):
        calls.append((x, y))
        return False

    monkeypatch.setattr(laws, "LAWS", (("always false", "pairs", always_false),))
    universe = WeightedUniverse.uniform("abc")
    (report,) = run_law_suite([exhaustive_case(universe), exhaustive_case(universe)])
    assert len(calls) == report.cases == 2 * 7 ** 2
    assert calls == 2 * [(x, y) for x in universe.all_terms() for y in universe.all_terms()]
    assert len(report.failures) == MAX_REPORTED_FAILURES


def test_an_exception_from_a_later_tuple_propagates(monkeypatch):
    calls = 0

    def fails_then_raises(x):
        nonlocal calls
        calls += 1
        if calls == 2 * MAX_REPORTED_FAILURES:
            raise ZeroDivisionError("raised on a tuple after the report is full")
        return False

    monkeypatch.setattr(laws, "LAWS", (("raises late", "terms", fails_then_raises),))
    with pytest.raises(ZeroDivisionError, match="after the report is full"):
        run_law_suite([exhaustive_case(WeightedUniverse.uniform("abcd"))])
    assert calls == 2 * MAX_REPORTED_FAILURES


def test_every_case_count_is_positive():
    reports = run_law_suite([exhaustive_case(WeightedUniverse.uniform("abcd"))])
    assert all(r.cases > 0 for r in reports)


def test_component_axiom_is_linear_in_the_atoms_of_its_first_term(monkeypatch):
    # Walking every component of a 40-atom term would take 2**40 calls.
    universe = WeightedUniverse.uniform(range(60))
    a, b = universe.term(range(40)), universe.term(range(50))
    calls = 0
    real_exterior = laws.exterior

    def counted_exterior(x, y):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("component axiom walks too many components")
        return real_exterior(x, y)

    monkeypatch.setattr(laws, "exterior", counted_exterior)
    assert laws._component_axiom(a, b)
    assert laws._component_axiom(universe.term(range(45, 55)), b)
    assert calls <= 50


def every_component_overlaps_a_member(collection, cls):
    # Reference for class requirement 2: walk all 2**n - 1 non-empty
    # components of the class.
    atoms = sorted(cls.members, key=repr)
    return all(
        any(overlap(cls.universe.term(combo), b) for b in collection)
        for size in range(1, len(atoms) + 1)
        for combo in combinations(atoms, size)
    )


def with_stray_atom(real_class_of, stray):
    # A faulty class: the sum of the collection plus one atom outside it.
    def class_of(collection):
        cls = real_class_of(collection)
        return cls.universe.term(cls.members | {stray})

    return class_of


def test_class_requirement_2_equals_the_walk_over_all_components(monkeypatch):
    cases = [
        collection
        for k in range(2, 6)
        for (collection,) in exhaustive_case(WeightedUniverse.uniform(range(k))).collections
    ]
    real_class_of = laws.class_of
    for collection in cases:
        expected = every_component_overlaps_a_member(collection, real_class_of(collection))
        assert (laws._class_requirement_2(collection), expected) == (True, True)
    faulty_cases = 0
    for collection in cases:
        cls = real_class_of(collection)
        outside = sorted(set(cls.universe.atoms) - cls.members)
        if not outside:
            continue
        faulty = with_stray_atom(real_class_of, outside[0])
        monkeypatch.setattr(laws, "class_of", faulty)
        expected = every_component_overlaps_a_member(collection, faulty(collection))
        assert (laws._class_requirement_2(collection), expected) == (False, False)
        faulty_cases += 1
    assert faulty_cases > 0


# Two members of a 60-atom universe whose class has 40 atoms.
U60 = WeightedUniverse.uniform(range(60))
COLLECTION_40 = (U60.term(range(20)), U60.term(range(15, 40)))


def test_class_requirement_2_catches_one_stray_atom_in_a_large_class(monkeypatch):
    # Only the component made of the stray atom alone overlaps no member,
    # so 300 sampled components of a 41-atom class rarely find it.
    assert laws._class_requirement_2(COLLECTION_40)
    monkeypatch.setattr(laws, "class_of", with_stray_atom(laws.class_of, 59))
    assert not laws._class_requirement_2(COLLECTION_40)


def test_class_requirement_2_is_linear_in_the_atoms_of_the_class(monkeypatch):
    calls = 0
    real_overlap = laws.overlap

    def counted_overlap(x, y):
        nonlocal calls
        calls += 1
        return real_overlap(x, y)

    monkeypatch.setattr(laws, "overlap", counted_overlap)
    assert laws._class_requirement_2(COLLECTION_40)
    assert 0 < calls <= 40 * len(COLLECTION_40)


def eager_selftest(atoms, random_universes, max_atoms, seed):
    # full_selftest with every case built up front, in one list
    rng = random.Random(seed)
    cases = [exhaustive_case(WeightedUniverse.uniform(range(1, atoms + 1)))]
    for _ in range(random_universes):
        cases.append(sampled_case(random_universe(rng, max_atoms), rng))
    reports = run_law_suite(cases)
    violation = lukasiewicz.check_t_norm(lukasiewicz.t_norm).violation
    failures = [] if violation is None else [f"{violation.condition} at {violation.point}"]
    reports.append(LawReport("t-norm contract", 1, failures))
    reports.extend(lukasiewicz.formula_identities())
    return reports


SELFTEST_ARGUMENTS = [(2, 0, 2, 0), (2, 30, 3, 4), (3, 25, 6, 1), (4, 12, 12, 9)]


@pytest.mark.parametrize("arguments", SELFTEST_ARGUMENTS)
def test_streamed_selftest_equals_the_eager_one(arguments):
    reports = full_selftest(*arguments)
    assert reports == eager_selftest(*arguments)
    assert all(r.ok for r in reports)


def test_streamed_selftest_reports_the_same_counterexamples(monkeypatch):
    # a false law fails on terms from several sampled universes
    heavy = ("weight at most one half", "terms", lambda x: weight(x) <= Fraction(1, 2))
    monkeypatch.setattr(laws, "LAWS", (*laws.LAWS, heavy))
    reports = full_selftest(2, 40, 5, 3)
    assert reports == eager_selftest(2, 40, 5, 3)
    failed = [r for r in reports if not r.ok]
    assert [r.name for r in failed] == ["weight at most one half"]
    assert len(failed[0].failures) == MAX_REPORTED_FAILURES


def traced_peak(*arguments):
    tracemalloc.start()
    try:
        full_selftest(*arguments)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_selftest_memory_does_not_grow_with_the_sampled_universes():
    # the sampled cases are built one at a time and freed once checked
    small = traced_peak(2, 50, 10, 0)
    large = traced_peak(2, 400, 10, 0)
    assert large < 1.5 * small, (small, large)
