import pytest

from conftest import load_csv
from mereovc.errors import (
    DecisionParseError,
    DomainError,
    SchemaError,
    StructuralError,
    UsageError,
)
from mereovc.tables import (
    DecisionSystem,
    Descriptor,
    NewObject,
    consistentize,
    find_inconsistency,
    indiscernibility_class,
    is_consistent,
    load_decision_system,
)
from oracle import extended


class TestLoader:
    def test_header_and_shape(self, toy_system):
        assert toy_system.features == ("color", "shape", "size")
        assert toy_system.objects == (0, 1, 2)
        assert toy_system.decisions == {0: 4.0, 1: 5.0, 2: 7.0}

    def test_cells_are_verbatim_strings(self):
        # no numeric coercion outside the decision column
        s = load_csv("f1,d\n01,4\n1.50,5\n")
        assert s.value(0, "f1") == "01"
        assert s.value(1, "f1") == "1.50"

    def test_decision_column_by_name(self):
        s = load_csv("d,f1\n4,x\n5,y\n", decision_column="d")
        assert s.features == ("f1",)
        assert s.decisions[1] == 5.0

    def test_default_decision_is_last_column(self):
        s = load_csv("a,b\nx,1\n")
        assert s.features == ("a",)

    def test_unknown_decision_column(self):
        with pytest.raises(UsageError, match="nope"):
            load_csv("f1,d\nx,4\n", decision_column="nope")

    def test_duplicate_header(self):
        with pytest.raises(SchemaError, match="duplicate"):
            load_csv("f1,f1,d\nx,y,4\n")

    def test_ragged_row_points_at_line(self):
        with pytest.raises(StructuralError, match="row 3 has 2 cells but the header has 3"):
            load_csv("f1,f2,d\na,b,4\na,5\n")

    def test_rows_are_numbered_by_physical_line(self):
        with pytest.raises(StructuralError, match="row 6 has 1 cells"):
            load_csv('f1,d\n"a\nb",4\n"c\nd",5\nx\n')

    def test_bad_decision_cell(self):
        with pytest.raises(DecisionParseError, match="row 2.*'d'.*'four'"):
            load_csv("f1,d\nx,four\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_decision_cell(self, raw):
        with pytest.raises(DecisionParseError, match=f"row 3.*{raw!r} is not a finite"):
            load_csv(f"f1,d\nx,4\ny,{raw}\n")

    def test_empty_input(self):
        with pytest.raises(StructuralError, match="header"):
            load_csv("")

    def test_blank_lines_skipped(self):
        s = load_csv("f1,d\nx,4\n\ny,5\n")
        assert s.objects == (0, 1)


class TestDecisionSystem:
    def test_value_lookup_errors(self, toy_system):
        with pytest.raises(KeyError, match="unknown object id"):
            toy_system.value(9, "color")
        with pytest.raises(KeyError, match="unknown feature"):
            toy_system.value(0, "weight")

    def test_row_round_trip(self, toy_system):
        assert toy_system.row(1) == {"color": "red", "shape": "square", "size": "small"}

    def test_without_object_keeps_ids(self, toy_system):
        rest = toy_system.without_object(1)
        assert rest.objects == (0, 2)
        assert rest.decisions == {0: 4.0, 2: 7.0}
        with pytest.raises(KeyError):
            toy_system.without_object(9)

    def test_from_rows_length_mismatch(self):
        with pytest.raises(DomainError):
            DecisionSystem.from_rows(("f",), [("x",)], [1.0, 2.0])

    def test_duplicate_object_ids(self):
        with pytest.raises(DomainError, match="duplicate object ids"):
            DecisionSystem.from_rows(("f",), [("x",), ("y",)], [1, 2], object_ids=[0, 0])

    def test_duplicate_features(self):
        with pytest.raises(SchemaError):
            DecisionSystem.from_rows(("f", "f"), [("x", "y")], [1])


class TestNewObject:
    def test_one_descriptor_per_feature(self):
        with pytest.raises(DomainError):
            NewObject(frozenset({Descriptor("f", 1), Descriptor("f", 2)}))

    def test_mapping_round_trip(self):
        obj = NewObject.from_mapping({"f2": "b", "f1": "a"})
        assert obj.as_mapping() == {"f1": "a", "f2": "b"}
        assert obj.features == {"f1", "f2"}
        assert obj.value("f1") == "a"
        with pytest.raises(KeyError):
            obj.value("f3")

    def test_extended_rejects_collision(self):
        obj = NewObject.from_mapping({"f1": "a"})
        grown = extended(obj, "f2", "b")
        assert grown.features == {"f1", "f2"}
        with pytest.raises(SchemaError):
            extended(obj, "f1", "z")

    def test_iteration_yields_descriptors(self):
        obj = NewObject.from_mapping({"f1": "a", "f2": "b"})
        assert set(obj) == {Descriptor("f1", "a"), Descriptor("f2", "b")}
        assert len(obj) == 2


class TestIndiscernibility:
    def test_class_on_single_feature(self, toy_system):
        assert indiscernibility_class(toy_system, 0, ["color"]) == {0, 1}
        assert indiscernibility_class(toy_system, 0, ["shape"]) == {0, 2}
        assert indiscernibility_class(toy_system, 0, ["color", "shape"]) == {0}

    def test_empty_feature_set_rejected(self, toy_system):
        with pytest.raises(DomainError):
            indiscernibility_class(toy_system, 0, [])

    def test_class_always_contains_the_object(self, toy_system):
        for o in toy_system.objects:
            assert o in indiscernibility_class(toy_system, o, toy_system.features)


class TestConsistency:
    def test_consistent_system(self, toy_system):
        assert is_consistent(toy_system)
        assert find_inconsistency(toy_system) is None

    def test_clash_is_reported_as_a_pair(self, inconsistent_system):
        assert not is_consistent(inconsistent_system)
        pair = find_inconsistency(inconsistent_system)
        assert pair == (0, 1)

    def test_consistentize_repairs(self, inconsistent_system):
        fixed = consistentize(inconsistent_system)
        assert is_consistent(fixed)
        assert fixed.features == ("f1", "f2", "d")
        # the new column holds the decision value as a token
        assert fixed.value(0, "d") != fixed.value(1, "d")
        assert fixed.decisions == inconsistent_system.decisions

    def test_consistentize_name_collision(self):
        s = load_csv("d,dec\nx,4\nx,5\n", decision_column="dec")
        with pytest.raises(SchemaError):
            consistentize(s)
        fixed = consistentize(s, feature="d2")
        assert is_consistent(fixed)

    def test_consistentize_keeps_consistent_system_consistent(self, toy_system):
        fixed = consistentize(toy_system)
        assert is_consistent(fixed)
        assert len(fixed.features) == len(toy_system.features) + 1
