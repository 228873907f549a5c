import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from conftest import load_csv
from mereovc.errors import DomainError, UndefinedDegreeError
from mereovc.predict import PredictionConfig, run_trial
from mereovc.vc import touching_set, vc_of_object
from oracle import (
    ComponentFamily,
    component_size_bound,
    epsilon_components,
    inclusion_degree,
    shatters_bruteforce,
    vc_dimension,
    vc_dimension_bruteforce,
)


def D(feature):
    return (feature, "v")


def family(ground, touching, eps, mode="exact"):
    return ComponentFamily(
        frozenset(map(D, ground)), frozenset(map(D, touching)), Fraction(eps), mode
    )


def names(sets):
    return sorted(tuple(sorted(feature for feature, _ in s)) for s in sets)


class TestTouchingSet:
    def test_agreement_descriptors(self):
        s = load_csv("f1,f2,f3,d\n1,9,3,4\n")
        omega = {"f1": "1", "f2": "2", "f3": "3"}
        touch = touching_set(s, 0, omega)
        assert touch == {("f1", "1"), ("f3", "3")}
        assert touching_set(s, 0, MappingProxyType(omega)) == touch

    def test_full_and_empty(self):
        s = load_csv("f1,f2,d\nx,y,4\n")
        same = {"f1": "x", "f2": "y"}
        other = {"f1": "p", "f2": "q"}
        assert len(touching_set(s, 0, same)) == 2
        assert touching_set(s, 0, other) == frozenset()

    def test_feature_mismatch(self):
        s = load_csv("f1,f2,d\nx,y,4\n")
        with pytest.raises(DomainError):
            touching_set(s, 0, {"f1": "x"})
        with pytest.raises(DomainError):
            touching_set(s, 0, {"f1": "x", "f2": "y", "f3": "z"})


class TestComponentFamily:
    def test_degree_is_exact(self):
        assert inclusion_degree({1, 2, 3}, {1}) == Fraction(1, 3)
        with pytest.raises(UndefinedDegreeError):
            inclusion_degree(set(), {1})

    def test_validation(self):
        with pytest.raises(DomainError):
            family("ab", "abc", Fraction(1))
        with pytest.raises(DomainError):
            family("abc", "a", Fraction(3, 2))
        with pytest.raises(DomainError):
            ComponentFamily(frozenset(), frozenset(), Fraction(1), "sometimes")

    def test_half_degree_members(self):
        fam = family("abc", "a", Fraction(1, 2))
        assert names(epsilon_components(fam)) == [("a", "b"), ("a", "c")]

    def test_degree_one_members_are_touching_subsets(self):
        fam = family("abc", "ab", 1)
        assert names(epsilon_components(fam)) == [("a",), ("a", "b"), ("b",)]

    def test_degree_zero_members_avoid_touching(self):
        fam = family("abc", "a", 0)
        assert names(epsilon_components(fam)) == [("b",), ("b", "c"), ("c",)]

    def test_at_least_mode_is_a_superset(self):
        exact = set(epsilon_components(family("abcd", "ab", Fraction(1, 2))))
        relaxed = set(epsilon_components(family("abcd", "ab", Fraction(1, 2), "at_least")))
        assert exact <= relaxed

    def test_enumeration_cap(self):
        wide = family("abcdefghijklmnopqrstu", "a", 1)
        with pytest.raises(DomainError, match="vc_of_object"):
            epsilon_components(wide)


class TestShattering:
    def test_singleton_inside_fixture(self):
        fam = family("abc", "a", Fraction(1, 2))
        assert shatters_bruteforce(fam, frozenset({D("b")}))

    def test_pair_fails_in_fixture(self):
        fam = family("abc", "a", Fraction(1, 2))
        assert not shatters_bruteforce(fam, frozenset({D("b"), D("c")}))

    def test_full_touching_set_shatters_under_degree_one(self):
        fam = family("abc", "ab", 1)
        assert shatters_bruteforce(fam, frozenset({D("a"), D("b")}))

    def test_rejects_bad_s(self):
        fam = family("abc", "a", 1)
        with pytest.raises(DomainError):
            shatters_bruteforce(fam, frozenset())
        with pytest.raises(DomainError):
            shatters_bruteforce(fam, frozenset({D("z")}))


class TestVcDimension:
    def test_fixture_value(self):
        fam = family("abc", "a", Fraction(1, 2))
        assert vc_dimension(fam) == 1
        assert vc_dimension_bruteforce(fam) == 1

    def test_extremes(self):
        assert vc_dimension(family("abcde", "ab", 1)) == 2
        assert vc_dimension(family("abcde", "ab", 0)) == 3

    def test_empty_family_means_zero(self):
        # degree one of an empty touching set is unachievable
        assert vc_dimension(family("abc", "", 1)) == 0

    def test_mode_monotonicity(self):
        rng = random.Random(3)
        letters = "abcdefgh"
        for _ in range(50):
            n = rng.randint(1, 8)
            ground = letters[:n]
            touch = "".join(c for c in ground if rng.random() < 0.5)
            eps = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)])
            lo = vc_dimension(family(ground, touch, eps))
            hi = vc_dimension(family(ground, touch, eps, "at_least"))
            assert lo <= hi

    def test_counting_matches_bruteforce(self):
        rng = random.Random(11)
        letters = "abcdefgh"
        for _ in range(60):
            n = rng.randint(1, 8)
            ground = letters[:n]
            touch = "".join(c for c in ground if rng.random() < 0.5)
            eps = rng.choice([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
            mode = rng.choice(["exact", "at_least"])
            fam = family(ground, touch, eps, mode)
            assert vc_dimension(fam) == vc_dimension_bruteforce(fam), (
                ground, touch, eps, mode)

    def test_size_bound_caps_members_and_vc(self):
        fam = family("abcdef", "ab", Fraction(1, 2))
        bound = component_size_bound(fam)
        assert bound == min(int(2 / Fraction(1, 2)), int(4 / Fraction(1, 2)))
        assert all(len(c) <= bound for c in epsilon_components(fam))
        assert vc_dimension(fam) <= bound

    def test_size_bound_only_for_interior_exact(self):
        assert component_size_bound(family("abc", "ab", 1)) is None
        assert component_size_bound(family("abc", "ab", 0)) is None
        assert component_size_bound(family("abc", "ab", Fraction(1, 2), "at_least")) is None


class TestSystemLevel:
    def test_vc_of_object_and_star(self):
        s = load_csv("f1,f2,f3,d\n1,2,3,4\n1,2,9,5\n7,8,9,6\n")
        omega = {"f1": "1", "f2": "2", "f3": "3"}
        vcs = [vc_of_object(s, o, omega, Fraction(1)) for o in s.objects]
        assert vcs == [3, 2, 0]
        assert run_trial(s, omega, config=PredictionConfig(epsilon=Fraction(1))).vc_star == 3

    def test_identical_rows_reach_full_dimension(self):
        s = load_csv("f1,f2,d\nx,y,4\nx,y,5\n")
        omega = {"f1": "x", "f2": "y"}
        assert run_trial(s, omega, config=PredictionConfig(epsilon=Fraction(1))).vc_star == 2
