import random

from mereovc import laws
from mereovc.laws import (
    MAX_REPORTED_FAILURES,
    exhaustive_case,
    random_universe,
    run_law_suite,
    sampled_case,
)
from mereovc.mereology import WeightedUniverse


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
        assert 1 <= len(u.atoms) <= 6
        assert sum(u.atom_weights.values()) == 1


def test_report_caps_recorded_failures(monkeypatch):
    monkeypatch.setattr(laws, "LAWS", (("always false", "terms", lambda x: False),))
    universe = WeightedUniverse.uniform("abcd")
    (report,) = run_law_suite([exhaustive_case(universe)])
    assert not report.ok
    assert report.cases == 15 > MAX_REPORTED_FAILURES
    assert report.failures == [f"x={t!r}" for t in universe.all_terms()][:MAX_REPORTED_FAILURES]


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
