"""The input boundary: any file content loads or fails with a ParseError."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electre_score.files import (
    LoadedModel,
    ParseError,
    load_model,
    load_performances_csv,
    load_target_csv,
)
from electre_score.hotel import hotel_criteria

DATA = Path(__file__).resolve().parent.parent / "data"
HOTEL_MODEL = json.loads((DATA / "hotel_model.json").read_text())


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
    _loads_or_parse_error(lambda p: load_performances_csv(p, hotel_criteria()), scratch)
    target = _loads_or_parse_error(load_target_csv, scratch)
    assert target is None or isinstance(target, dict)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_after_valid_header(scratch, data):
    # past the header the CSV loaders read every row and cell
    header = ",".join(["id"] + [c.name for c in hotel_criteria()]).encode() + b"\n"
    scratch.write_bytes(header + data)
    _loads_or_parse_error(lambda p: load_performances_csv(p, hotel_criteria()), scratch)
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
