"""Mask terms, one integer operation per Boolean operation and relation,
against the dataclass terms and frozenset operations they replaced, which
stay here as the oracle."""

from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import given, strategies as st
from test_exact_weights import oracle_degree_of_part, oracle_weight, universes_with_terms

from mereovc import mereology
from mereovc.errors import (
    DomainError,
    EmptyTermError,
    UndefinedDegreeError,
    UniverseMismatchError,
)
from mereovc.mereology import (
    Term,
    WeightedUniverse,
    alg_complement,
    alg_product,
    alg_sum,
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


@dataclass(frozen=True)
class OldTerm:
    universe: WeightedUniverse
    members: frozenset

    @property
    def is_empty(self):
        return not self.members

    def __repr__(self):
        return f"Term({{{', '.join(map(repr, sorted(self.members, key=repr)))}}})"


def _same_universe(*terms):
    u = terms[0].universe
    for t in terms[1:]:
        if t.universe is not u:
            raise UniverseMismatchError("terms belong to different universes")
    return u


def _import_required(*terms):
    for t in terms:
        if t.is_empty:
            raise EmptyTermError("the empty term has no existential import")


def old_proper_part(x, y):
    _same_universe(x, y)
    return bool(x.members) and x.members < y.members


def old_component(x, y):
    _same_universe(x, y)
    return bool(x.members) and x.members <= y.members


def old_overlap(x, y):
    _same_universe(x, y)
    _import_required(x, y)
    return bool(x.members & y.members)


def old_exterior(x, y):
    return not old_overlap(x, y)


def old_relative_exterior(a, m, b):
    _same_universe(a, m, b)
    _import_required(a, m)
    return old_proper_part(a, b) and old_proper_part(m, b) and old_exterior(a, m)


def old_alg_sum(x, y):
    return OldTerm(_same_universe(x, y), x.members | y.members)


def old_alg_product(x, y):
    return OldTerm(_same_universe(x, y), x.members & y.members)


def old_alg_complement(x):
    return OldTerm(x.universe, frozenset(x.universe.atoms) - x.members)


def old_implication(x, y):
    return old_alg_sum(old_alg_complement(x), y)


def old_is_valid(x):
    return x.members == frozenset(x.universe.atoms)


UNARY = [
    (alg_complement, old_alg_complement),
    (is_valid, old_is_valid),
    (weight, oracle_weight),
]
BINARY = [
    (alg_sum, old_alg_sum),
    (alg_product, old_alg_product),
    (implication, old_implication),
    (proper_part, old_proper_part),
    (component, old_component),
    (overlap, old_overlap),
    (exterior, old_exterior),
]


def outcome(op, *args):
    """A term's universe and members, another value's repr, or the error's type."""
    try:
        value = op(*args)
    except DomainError as error:
        return type(error)
    if isinstance(value, (Term, OldTerm)):
        return value.universe, value.members
    return repr(value)


@given(universes_with_terms())
def test_every_operation_equals_the_oracle(case):
    universe, drawn_x, drawn_y = case
    new = [drawn_x, drawn_y, universe.empty, universe.universe]
    old = [OldTerm(universe, t.members) for t in new]
    for op, old_op in UNARY:
        for x, ox in zip(new, old):
            assert outcome(op, x) == outcome(old_op, ox), op.__name__
    for op, old_op in BINARY:
        for (x, ox), (y, oy) in product(zip(new, old), repeat=2):
            assert outcome(op, x, y) == outcome(old_op, ox, oy), op.__name__
    for (x, ox), (y, oy) in product(zip(new, old), repeat=2):
        if not x.is_empty:
            assert repr(degree_of_part(x, y)) == repr(oracle_degree_of_part(ox, oy))
    for (a, oa), (m, om), (b, ob) in product(zip(new, old), repeat=3):
        assert outcome(relative_exterior, a, m, b) == outcome(old_relative_exterior, oa, om, ob)


LEFT = WeightedUniverse.uniform("ab")
RIGHT = WeightedUniverse.uniform("ab")
PAIR_FUNCTIONS = [
    alg_sum, alg_product, implication, proper_part, component, overlap, exterior,
    degree_of_part,
]


@pytest.mark.parametrize("op", PAIR_FUNCTIONS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("x_atoms", ["", "a", "ab"])
@pytest.mark.parametrize("y_atoms", ["", "b"])
def test_a_universe_mismatch_is_found_first(op, x_atoms, y_atoms):
    with pytest.raises(UniverseMismatchError):
        op(LEFT.term(x_atoms), RIGHT.term(y_atoms))
    with pytest.raises(UniverseMismatchError):
        op(RIGHT.term(y_atoms), LEFT.term(x_atoms))


@pytest.mark.parametrize("odd", range(3))
@pytest.mark.parametrize("empty", [False, True])
def test_relative_exterior_finds_a_mismatch_in_any_place(odd, empty):
    args = [LEFT.empty if empty else LEFT.term("a"), LEFT.term("b"), LEFT.universe]
    args[odd] = RIGHT.term("a")
    with pytest.raises(UniverseMismatchError):
        relative_exterior(*args)


@pytest.mark.parametrize("op", [overlap, exterior], ids=lambda op: op.__name__)
def test_overlap_and_exterior_need_import_on_either_side(op):
    for x, y in [(LEFT.empty, LEFT.term("a")), (LEFT.term("a"), LEFT.empty),
                 (LEFT.empty, LEFT.empty)]:
        with pytest.raises(EmptyTermError):
            op(x, y)


def test_relative_exterior_needs_import_of_its_first_two_terms():
    a, whole = LEFT.term("a"), LEFT.universe
    for args in [(LEFT.empty, a, whole), (a, LEFT.empty, whole)]:
        with pytest.raises(EmptyTermError):
            relative_exterior(*args)
    assert relative_exterior(a, LEFT.term("b"), LEFT.empty) is False


def test_degree_of_an_empty_term_is_undefined():
    for y in (LEFT.empty, LEFT.term("a"), LEFT.universe):
        with pytest.raises(UndefinedDegreeError):
            degree_of_part(LEFT.empty, y)


def test_hot_operations_build_no_frozenset_and_implication_one_term(monkeypatch):
    u = WeightedUniverse.uniform("abcd")
    x, y, z = u.term("ab"), u.term("bc"), u.term("abc")
    frozensets, tuples = [], []

    def counting_frozenset(*args):
        frozensets.append(args)
        return frozenset(*args)

    def counting_new(*args):
        tuples.append(args)
        return tuple.__new__(*args)

    # Term(universe, members) would build a frozenset of its members
    monkeypatch.setattr(mereology, "frozenset", counting_frozenset, raising=False)
    monkeypatch.setattr(mereology, "_new", counting_new)
    values = [
        alg_sum(x, y), alg_product(x, y), alg_complement(x), implication(x, y),
        mereology.class_of([x, y]), is_valid(x), proper_part(x, y), component(x, y),
        overlap(x, y), exterior(x, y), relative_exterior(x, y, z),
        weight(x), degree_of_part(x, y), u.empty, u.universe,
    ]
    assert frozensets == []
    assert [args[0] for args in tuples] == [Term] * 7
    assert [args[1][1] for args in tuples] == [0b0111, 0b0010, 0b1100, 0b1110, 0b0111, 0, 0b1111]
    assert all(type(t) is Term and t.universe is u for t in values[:5])
    tuples.clear()
    assert implication(x, y).members == {"b", "c", "d"}
    assert tuples == [(Term, (u, 0b1110))]


A = WeightedUniverse.uniform("abc")
LOOK_ALIKE = WeightedUniverse.uniform("abc")
atom_sets = st.sets(st.sampled_from("abc"))


@given(st.sampled_from([A, LOOK_ALIKE]), atom_sets, st.sampled_from([A, LOOK_ALIKE]), atom_sets)
def test_terms_are_equal_and_hash_alike_exactly_on_universe_object_and_members(u, s, v, t):
    x, y = u.term(s), v.term(t)
    same = u is v and s == t
    assert (x == y) is same
    if same:
        assert hash(x) == hash(y)


def test_look_alike_universes_give_unequal_terms_with_one_repr():
    x, y = A.term("ba"), LOOK_ALIKE.term("ab")
    assert x != y
    assert repr(x) == repr(y) == "Term({'a', 'b'})"
    assert repr(A.empty) == "Term({})"


def test_a_term_is_the_pair_of_its_universe_and_mask():
    # bit i stands for atoms[i]; the members are decoded when read
    x = A.term("ca")
    assert tuple(x) == (x.universe, x.mask) == (A, 0b101)
    assert x.members == frozenset("ac")
    assert x != (A, frozenset("ac"))
    assert x == Term(A, "ac") == Term._make((A, 0b101))
    assert hash(x) == hash(Term._make((A, 0b101)))
    assert Term(A, []) == A.empty and Term(A, "abc") == A.universe
    with pytest.raises(DomainError, match=r"atoms not in this universe: \['d'\]"):
        Term(A, "ad")
