"""The JSON loaders fail only with FormatError, whatever the input.

Mutated catalog dicts go straight to ``algebra_from_dict`` and
``extension_data_from_dict``; mutated serializations and raw bytes go through
a file to ``load_algebra`` and ``load_extension_data``.  Each call either
returns or raises ``FormatError``: any other exception fails the test.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from gonil.catalog import EXAMPLE_NAMES, build_example, de5_data, de7_lorentz_data
from gonil.io import (
    FormatError,
    algebra_from_dict,
    algebra_to_dict,
    extension_data_from_dict,
    extension_data_to_dict,
    load_algebra,
    load_extension_data,
)

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALGEBRAS = [algebra_to_dict(build_example(name).algebra) for name in EXAMPLE_NAMES]
EXTENSIONS = [extension_data_to_dict(make()[1]) for make in (de5_data, de7_lorentz_data)]
DOCUMENTS = ALGEBRAS + EXTENSIONS

# Values a JSON document can hold, with the awkward ones a loader meets in practice;
# rationals come often, so a mutation also reaches the Jacobi, symmetry and rank checks.
RATIONALS = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 3)),
    st.sampled_from(["1e5", "2.5", " 7 ", "-0", "9" * 1001]),
)
SCALARS = st.one_of(
    *[RATIONALS] * 6,
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**80, 1.5, math.inf, "0,1", "1,0", "-1,2", "x"]),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
BIG_INTEGER = b"1" * 5000  # past the default int digit limit of json.loads


def _mutate(draw, value, root=True):
    """value with one node below the root replaced, deleted or given a new entry; nested nodes are likelier."""
    if isinstance(value, (dict, list)) and value and (root or draw(st.integers(0, 3)) < 3):
        keys = list(value) if isinstance(value, dict) else range(len(value))
        nested = [k for k in keys if isinstance(value[k], (dict, list)) and value[k]]
        key = draw(st.sampled_from(nested if nested and draw(st.integers(0, 3)) < 3 else keys))
        out = dict(value) if isinstance(value, dict) else list(value)
        action = draw(st.sampled_from(["descend", "descend", "descend", "replace", "delete"]))
        if action == "descend":
            out[key] = _mutate(draw, value[key], root=False)
        elif action == "replace":
            out[key] = draw(VALUES)
        else:
            del out[key]
        return out
    if isinstance(value, dict) and draw(st.booleans()):
        return {**value, draw(st.text(max_size=4)): draw(VALUES)}
    return draw(VALUES)


def _only_format_errors(call, arg):
    try:
        call(arg)
    except FormatError:
        pass


@seed(20261018)
@SETTINGS
@given(
    case=st.sampled_from(
        [(algebra_from_dict, doc) for doc in ALGEBRAS] + [(extension_data_from_dict, doc) for doc in EXTENSIONS]
    ),
    rounds=st.integers(1, 3),
    data=st.data(),
)
def test_loaders_raise_only_format_error_on_mutated_dicts(case, rounds, data):
    load, doc = case
    for _ in range(rounds):
        doc = _mutate(data.draw, doc)
    _only_format_errors(load, doc)


@st.composite
def raw_files(draw):
    """Random bytes, or a catalog serialization with bytes inserted, overwritten or cut off."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    raw = bytearray(json.dumps(draw(st.sampled_from(DOCUMENTS))).encode())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(raw)))
        piece = draw(st.binary(min_size=1, max_size=4) | st.sampled_from([BIG_INTEGER, b"\xff", b"[" * 3000]))
        action = draw(st.sampled_from(["insert", "overwrite", "truncate"]))
        if action == "insert":
            raw[at:at] = piece
        elif action == "overwrite":
            raw[at : at + len(piece)] = piece
        else:
            del raw[at:]
    return bytes(raw)


@seed(20261018)
@SETTINGS
@given(raw=raw_files())
def test_file_loaders_raise_only_format_error_on_mutated_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(raw)
    _only_format_errors(load_algebra, path)
    _only_format_errors(load_extension_data, path)


@pytest.mark.parametrize(
    "raw",
    [b'{"dim": ' + BIG_INTEGER + b"}", b"\xff" + json.dumps(DOCUMENTS[0]).encode(), b'{"dim": 1}\xff'],
    ids=["integer-past-digit-limit", "leading-0xff", "trailing-0xff"],
)
def test_file_loaders_map_value_and_decode_errors_to_format_error(tmp_path, raw):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    for load in (load_algebra, load_extension_data):
        with pytest.raises(FormatError, match="not valid JSON"):
            load(path)
