import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mereovc.errors import (
    DomainError,
    EmptyTermError,
    UndefinedDegreeError,
    UniverseMismatchError,
)
from mereovc.mereology import (
    WeightedUniverse,
    alg_complement,
    alg_product,
    alg_sum,
    class_of,
    component,
    degree_of_part,
    exterior,
    implication,
    is_valid,
    overlap,
    proper_part,
    relative_exterior,
    weight,
)

U4 = WeightedUniverse.uniform("abcd")
LOPSIDED = WeightedUniverse.from_counts({"a": 1, "b": 2, "c": 5})


def T(universe, atoms):
    return universe.term(atoms)


class TestUniverseConstruction:
    def test_uniform_weights(self):
        assert U4.atom_weights["a"] == Fraction(1, 4)
        assert sum(U4.atom_weights.values()) == 1

    def test_from_counts_normalizes(self):
        assert LOPSIDED.atom_weights["c"] == Fraction(5, 8)

    def test_needs_atoms(self):
        with pytest.raises(DomainError):
            WeightedUniverse.uniform([])

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError, match="sum"):
            WeightedUniverse(("a", "b"), {"a": Fraction(1, 2), "b": Fraction(1, 3)})
        with pytest.raises(DomainError, match="positive"):
            WeightedUniverse(("a", "b"), {"a": Fraction(0), "b": Fraction(1)})
        with pytest.raises(DomainError, match="Fraction"):
            WeightedUniverse(("a",), {"a": 1.0})
        with pytest.raises(DomainError, match="cover"):
            WeightedUniverse(("a", "b"), {"a": Fraction(1)})

    def test_term_rejects_stray_atoms(self):
        with pytest.raises(DomainError):
            U4.term({"z"})

    def test_all_terms_counts(self):
        assert sum(1 for _ in U4.all_terms()) == 15
        assert sum(1 for _ in U4.all_terms(include_empty=True)) == 16


class TestCopies:
    """A copied or unpickled universe is a new universe with the same atoms
    and weights; terms copied together share one new universe."""

    @staticmethod
    def assert_new_universe(original, terms, copies):
        new = copies[0].universe
        assert new is not original
        assert all(t.universe is new for t in copies)
        assert new.atoms == original.atoms
        assert dict(new.atom_weights) == dict(original.atom_weights)
        assert [t.members for t in copies] == [t.members for t in terms]
        assert weight(copies[1]) == weight(terms[1])
        assert degree_of_part(copies[1], copies[2]) == degree_of_part(terms[1], terms[2])

    def test_pickled_terms_share_one_new_universe(self):
        terms = [T(LOPSIDED, "a"), T(LOPSIDED, "bc"), T(LOPSIDED, "ac"), LOPSIDED.empty]
        copies = pickle.loads(pickle.dumps(terms))
        self.assert_new_universe(LOPSIDED, terms, copies)
        with pytest.raises(UniverseMismatchError):
            alg_sum(copies[0], terms[0])
        with pytest.raises(AttributeError):
            copies[0].universe.atoms = ()

    def test_deepcopied_terms_share_one_new_universe(self):
        terms = [T(U4, "ab"), T(U4, "bcd"), T(U4, "a")]
        self.assert_new_universe(U4, terms, copy.deepcopy(terms))

    def test_copy_and_pickle_of_a_universe(self):
        for duplicate in (copy.copy(U4), copy.deepcopy(U4), pickle.loads(pickle.dumps(U4))):
            assert duplicate is not U4 and duplicate != U4
            assert repr(duplicate) == repr(U4)
            assert duplicate.term("ab").universe is duplicate


class TestRelations:
    def test_proper_part_is_strict(self):
        assert proper_part(T(U4, "a"), T(U4, "ab"))
        assert not proper_part(T(U4, "ab"), T(U4, "ab"))
        assert not proper_part(U4.empty, T(U4, "ab"))

    def test_component_allows_equality(self):
        assert component(T(U4, "ab"), T(U4, "ab"))
        assert component(T(U4, "a"), T(U4, "ab"))
        assert not component(T(U4, "abc"), T(U4, "ab"))

    def test_overlap_and_exterior_need_import(self):
        assert overlap(T(U4, "ab"), T(U4, "bc"))
        assert exterior(T(U4, "ab"), T(U4, "cd"))
        with pytest.raises(EmptyTermError):
            overlap(U4.empty, T(U4, "a"))
        with pytest.raises(EmptyTermError):
            exterior(T(U4, "a"), U4.empty)

    def test_relative_exterior(self):
        # disjoint proper parts of a common whole
        whole = T(U4, "abc")
        assert relative_exterior(T(U4, "a"), T(U4, "c"), whole)
        assert not relative_exterior(T(U4, "ab"), T(U4, "bc"), whole)
        assert not relative_exterior(T(U4, "a"), whole, whole)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            component(T(U4, "a"), T(LOPSIDED, "a"))


class TestAlgebra:
    def test_class_is_union(self):
        cls = class_of([T(U4, "a"), T(U4, "bc")])
        assert cls.members == frozenset("abc")

    def test_class_needs_members(self):
        with pytest.raises(DomainError):
            class_of([])
        with pytest.raises(EmptyTermError):
            class_of([U4.empty])

    def test_boolean_operators(self):
        x, y = T(U4, "ab"), T(U4, "bc")
        assert alg_sum(x, y).members == frozenset("abc")
        assert alg_product(x, y).members == frozenset("b")
        assert alg_complement(x).members == frozenset("cd")
        assert implication(x, y).members == frozenset("bcd")

    def test_validity_means_whole_universe(self):
        x = T(U4, "ab")
        assert is_valid(implication(x, x))
        assert not is_valid(implication(U4.universe, x))

    def test_weight_adds_up(self):
        assert weight(T(LOPSIDED, "ab")) == Fraction(3, 8)
        assert weight(LOPSIDED.universe) == 1
        assert weight(LOPSIDED.empty) == 0

    def test_degree_worked_values(self):
        # uniform weights reduce the degree to a counting ratio
        assert degree_of_part(T(U4, "ab"), T(U4, "a")) == Fraction(1, 2)
        assert degree_of_part(T(U4, "ab"), T(U4, "cd")) == 0
        assert degree_of_part(T(LOPSIDED, "ac"), T(LOPSIDED, "c")) == Fraction(5, 6)

    def test_degree_of_empty_undefined(self):
        with pytest.raises(UndefinedDegreeError):
            degree_of_part(U4.empty, T(U4, "a"))


# hypothesis fuel: subsets of a fixed lopsided 5-atom universe

U5 = WeightedUniverse.from_counts({"a": 1, "b": 1, "c": 2, "d": 3, "e": 9})
subsets = st.sets(st.sampled_from("abcde"))
terms = subsets.map(lambda s: U5.term(s))
nonempty_terms = st.sets(st.sampled_from("abcde"), min_size=1).map(lambda s: U5.term(s))


@given(nonempty_terms, terms)
def test_degree_lies_in_unit_interval(x, y):
    d = degree_of_part(x, y)
    assert 0 <= d <= 1
    assert isinstance(d, Fraction)


@given(nonempty_terms, nonempty_terms)
def test_degree_one_characterizes_component(x, y):
    assert (degree_of_part(x, y) == 1) == component(x, y)


@given(nonempty_terms, nonempty_terms)
def test_implication_weight_identity(x, y):
    """Whenever y contains x, the implication's weight is 1 - w(x) + w(y)."""
    if component(y, x):
        assert weight(implication(x, y)) == 1 - weight(x) + weight(y)


@given(terms, terms)
def test_de_morgan(x, y):
    lhs = alg_complement(alg_sum(x, y))
    rhs = alg_product(alg_complement(x), alg_complement(y))
    assert lhs.members == rhs.members


@given(nonempty_terms, nonempty_terms, nonempty_terms)
def test_part_transitivity(x, y, z):
    if proper_part(x, y) and proper_part(y, z):
        assert proper_part(x, z)
