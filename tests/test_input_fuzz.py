"""Any table or omega text gives a result or a defined input/usage error."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from mereovc.cli import _load_table, _parse_omega
from mereovc.errors import InputError, UsageError
from mereovc.tables import DecisionSystem, load_decision_system

FUZZ = settings(max_examples=200, deadline=None)

# CSV structure, the toy features, decision spellings, NUL and a BOM,
# mixed with arbitrary characters
csv_text = st.text(
    st.one_of(st.sampled_from(list(',"=\n\r x y d 1.5e-inf\x00\ufeff')), st.characters())
)
# a lone surrogate from st.characters() becomes bytes that are not UTF-8
file_bytes = st.one_of(
    st.binary(), csv_text.map(lambda text: text.encode("utf-8", "surrogatepass"))
)

SYSTEM = load_decision_system(io.StringIO("x,y,d\na,b,1\nc,d,2\n"))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    # _parse_omega reads a source with "=" as inline pairs, not as a path
    assert "=" not in str(path)
    return path


@FUZZ
@given(csv_text)
def test_loader_gives_a_table_or_a_defined_error(text):
    try:
        assert isinstance(load_decision_system(io.StringIO(text, newline="")), DecisionSystem)
    except (InputError, UsageError):
        pass


@FUZZ
@given(file_bytes)
def test_table_file_gives_a_table_or_a_defined_error(input_path, data):
    input_path.write_bytes(data)
    try:
        assert isinstance(_load_table(str(input_path), None), DecisionSystem)
    except (InputError, UsageError):
        pass


@FUZZ
@given(csv_text.map(lambda text: text + "="))
def test_inline_omega_gives_an_object_or_a_defined_error(source):
    try:
        _, mapping = _parse_omega(source, SYSTEM)
        assert list(mapping) == ["x", "y"]
    except (InputError, UsageError):
        pass


@FUZZ
@given(file_bytes)
def test_omega_file_gives_an_object_or_a_defined_error(input_path, data):
    input_path.write_bytes(data)
    try:
        _, mapping = _parse_omega(str(input_path), SYSTEM)
        assert list(mapping) == ["x", "y"]
    except (InputError, UsageError):
        pass
