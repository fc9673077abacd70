"""The file boundary: any file content loads or fails with a ParseError,
reports are written with the bytes of the json module, and the bundled
hotel example in data/ agrees with its independent copies."""

import csv
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from electre_score import files
from electre_score.files import (
    LoadedModel,
    ParseError,
    load_model,
    load_performances_csv,
    load_target_csv,
    write_report,
)
from electre_score.suites import HOTEL_DECK, HOTEL_SCORES

from oracle import (
    HOTEL_ORACLE_ACTIONS,
    HOTEL_ORACLE_CRITERIA,
    HOTEL_ORACLE_LEVELS,
    engine_criterion_to_dict,
)

DATA = Path(__file__).resolve().parent.parent / "data"
HOTEL_MODEL = json.loads((DATA / "hotel_model.json").read_text())
HOTEL_CRITERIA = load_model(DATA / "hotel_model.json").criteria


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _loads_or_parse_error(load, path):
    try:
        return load(path)
    except ParseError:
        return None


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_arbitrary_bytes(scratch, data):
    scratch.write_bytes(data)
    model = _loads_or_parse_error(load_model, scratch)
    assert model is None or isinstance(model, LoadedModel)
    _loads_or_parse_error(lambda p: load_performances_csv(p, HOTEL_CRITERIA), scratch)
    target = _loads_or_parse_error(load_target_csv, scratch)
    assert target is None or isinstance(target, dict)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_after_valid_header(scratch, data):
    # past the header the CSV loaders read every row and cell
    header = ",".join(["id"] + [c.name for c in HOTEL_CRITERIA]).encode() + b"\n"
    scratch.write_bytes(header + data)
    _loads_or_parse_error(lambda p: load_performances_csv(p, HOTEL_CRITERIA), scratch)
    _loads_or_parse_error(load_target_csv, scratch)


def test_deeply_nested_model_is_parse_error(scratch):
    scratch.write_text("[" * 100_000)
    with pytest.raises(ParseError):
        load_model(scratch)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, prefix + (i,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_paths(HOTEL_MODEL))[1:]), JSON_VALUES)
def test_hotel_model_with_one_value_replaced(scratch, path, value):
    raw = json.loads(json.dumps(HOTEL_MODEL))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scratch.write_text(json.dumps(raw))
    model = _loads_or_parse_error(load_model, scratch)
    assert model is None or isinstance(model, LoadedModel)


class TestBundledHotelData:
    """data/ holds the only packaged copy of the hotel example; it must
    equal the literal re-entered in tests/oracle.py, and the deck-example
    notice's constants must equal its deck block and scores."""

    def test_criteria(self, hotel):
        assert [engine_criterion_to_dict(c) for c in hotel["criteria"]] == HOTEL_ORACLE_CRITERIA

    def test_performances_in_row_order(self, hotel):
        assert list(hotel["table"].rows.items()) == list(HOTEL_ORACLE_ACTIONS.items())

    def test_profiles(self, hotel):
        assert [list(ref.profiles) for ref in hotel["refs"].sets] == HOTEL_ORACLE_LEVELS

    def test_deck_example_constants(self):
        deck = HOTEL_MODEL["deck_of_cards"]
        assert HOTEL_DECK.blank_cards == tuple(deck["blank_cards"])
        assert HOTEL_DECK.anchors == tuple(deck["anchors"])
        assert HOTEL_SCORES == tuple(s["score"] for s in HOTEL_MODEL["reference_sets"])


def _reference_report(value) -> str:
    """The writer's specification: a rounded copy through json.dumps."""

    def round6(value):
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, dict):
            return {k: round6(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [round6(v) for v in value]
        return value

    return json.dumps(round6(value), indent=2, allow_nan=False) + "\n"


def _written(report) -> str:
    """The text ``write_report`` streams for ``report``, its chunks joined."""
    chunks = []
    write_report(report, chunks.append)
    return "".join("".join(chunk) for chunk in chunks)


STRINGS = st.text(max_size=8) | st.sampled_from(
    ["", "\"quoted\"", "back\\slash", "\x00\x1f\n\t\x7f", "\u00e9\u4e2d\U0001f600", "\u2028\ud800"]
)
REPORTS = st.recursive(
    st.none() | st.booleans() | STRINGS
    | st.integers() | st.integers(min_value=-10**4000, max_value=10**4000)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e20, 1e-7, 5e-7, 0.1234565, 2.675, 1.0000005, 123456.7654321]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(REPORTS)
def test_report_writer_matches_json_dumps(report):
    assert _written(report) == _reference_report(report)


@settings(max_examples=500, deadline=None)
@given(REPORTS)
def test_streamed_report_writer_matches_json_dumps(report):
    # eight pieces a chunk, so most reports are written in several chunks
    chunks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "CHUNK_PIECES", 8)
        assert write_report(report, chunks.append) is None
    assert "".join("".join(chunk) for chunk in chunks) == _reference_report(report)
    assert all(len(chunk) == 8 for chunk in chunks[:-1])
    assert 1 <= len(chunks[-1]) <= 8


def test_large_report_streams_in_full_chunks():
    report = {"actions": [{"action": f"a{i}", "lower": i / 7} for i in range(2000)]}
    chunks = []
    write_report(report, chunks.append)
    assert len(chunks) > 1 and all(len(chunk) == files.CHUNK_PIECES for chunk in chunks[:-1])
    assert "".join("".join(chunk) for chunk in chunks) == _reference_report(report)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_report_writer_refuses_non_finite(value):
    report = {"actions": [{"lower": 1.5, "upper": (value,)}]}
    with pytest.raises(ValueError):
        _reference_report(report)
    with pytest.raises(ValueError):
        _written(report)


def _as_iterators(value):
    """``value`` with every list and tuple a one-pass generator."""
    if isinstance(value, dict):
        return {k: _as_iterators(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (_as_iterators(v) for v in value)
    return value


@settings(max_examples=300, deadline=None)
@given(REPORTS)
@example([])
@example({"actions": [], "nested": [[], {}]})
def test_iterators_are_written_as_their_lists(report):
    assert _written(_as_iterators(report)) == _reference_report(report)
    chunks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "CHUNK_PIECES", 8)
        write_report(_as_iterators(report), chunks.append)
    assert "".join("".join(chunk) for chunk in chunks) == _reference_report(report)
    assert all(len(chunk) == 8 for chunk in chunks[:-1])


def _past_the_read_buffer(path, header: str, row: str, tail: bytes) -> int:
    """Write ``header``, numbered copies of ``row`` to more than 64 KB,
    then ``tail``; return the line number of ``tail``."""
    rows = [header] + [row.format(i) for i in range(65 * 1024 // len(row) + 1)]
    path.write_bytes("".join(rows).encode() + tail)
    return len(rows) + 1


PERF_HEADER = ",".join(["id"] + [c.name for c in HOTEL_CRITERIA]) + "\n"
PERF_ROW = "a{}," + ",".join(["1"] * len(HOTEL_CRITERIA)) + "\n"


def _utf8_error(path, what) -> str:
    """The message of a loader that reads every row before it checks one."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            return f"{what} {path} is not valid UTF-8: {exc}"
    raise AssertionError(f"{path} is valid UTF-8")


class TestLoadersPastTheReadBuffer:
    """A bad byte after more than 64 KB of valid rows, beyond the first
    reads of the file, fails with the message it gave when every row was
    read before the first was checked."""

    def test_performance_file_bad_utf8(self, tmp_path):
        path = tmp_path / "perf.csv"
        _past_the_read_buffer(path, PERF_HEADER, PERF_ROW, b"z,1,1,1\xff,1,1\n")
        with pytest.raises(ParseError) as info:
            load_performances_csv(path, HOTEL_CRITERIA)
        assert str(info.value) == _utf8_error(path, "performance file")

    def test_performance_file_nul_byte(self, tmp_path):
        # csv reads a NUL as text, so the cell is not a number
        path = tmp_path / "perf.csv"
        line = _past_the_read_buffer(path, PERF_HEADER, PERF_ROW, b"z,1,1,1\x00,1,1\n")
        with pytest.raises(ParseError) as info:
            load_performances_csv(path, HOTEL_CRITERIA)
        assert str(info.value) == f"{path}:{line}: column 'RECRU': not a number: '1\\x00'"

    def test_target_file_bad_utf8(self, tmp_path):
        path = tmp_path / "target.csv"
        _past_the_read_buffer(path, "profile,a1,a2\n", "b{},a,\n", b"z,\xff,\n")
        with pytest.raises(ParseError) as info:
            load_target_csv(path)
        assert str(info.value) == _utf8_error(path, "target file")

    def test_target_file_nul_byte(self, tmp_path):
        path = tmp_path / "target.csv"
        line = _past_the_read_buffer(path, "profile,a1,a2\n", "b{},a,\n", b"z,\x00,\n")
        with pytest.raises(ParseError) as info:
            load_target_csv(path)
        assert str(info.value) == f"{path}:{line}: cell must be 'a', 'b' or empty, got '\\x00'"


class TestErrorsNamePhysicalLines:
    """A quoted cell may hold a newline; an error names the line its row
    starts on in the file, not the row's count."""

    def test_performance_file(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text(PERF_HEADER + '"a\n1",1,1,1,1,1\na2,1,1,1,1,x\n', encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_performances_csv(path, HOTEL_CRITERIA)
        assert str(info.value) == f"{path}:4: column 'ACCES': not a number: 'x'"

    def test_target_file(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text('profile,a1,a2\n"b\n1",a,\n\nb2,a,c\n', encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_target_csv(path)
        assert str(info.value) == f"{path}:5: cell must be 'a', 'b' or empty, got 'c'"


@pytest.mark.parametrize("cell, message", [
    ("1_000", "not a number: '1_000'"),
    ("nan", "non-finite number 'nan'"),
    ("inf", "non-finite number 'inf'"),
    ("1e999", "non-finite number '1e999'"),
    ("x", "not a number: 'x'"),
    ("", "not a number: ''"),
])
def test_performance_cell_errors_name_the_cell(tmp_path, cell, message):
    # a row that float() reads whole, or fails on, is checked cell by cell
    # before it is refused, so the error names the line and the column
    path = tmp_path / "perf.csv"
    path.write_text(PERF_HEADER + f"a1,1,1,1,1,1\na2,1,1,1,1,1\na3,1,1,1,1,{cell}\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_performances_csv(path, HOTEL_CRITERIA)
    assert str(info.value) == f"{path}:4: column 'ACCES': {message}"
