"""Fuzz tests for the two readers: datum JSON and matrix text.

Every input gives either a valid object or a ``ValueError`` (exit 2 from
the command line), never another exception.  Inputs are arbitrary values
and texts, and valid serializations with one part replaced or dropped.
JSON integers are unbounded: the readers refuse any n over ``MAX_N``
before they size anything by it.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from dgorbits.canonical import canonical_point
from dgorbits.cli import main
from dgorbits.linalg import Field, QQ
from dgorbits.poset import enumerate_orbits
from dgorbits.serialize import (
    datum_from_json,
    datum_to_json,
    format_matrix_text,
    parse_matrix_text,
)
from dgorbits.young import OrbitDatum, validate


FUZZ = settings(max_examples=60, deadline=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(-10, 10) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

DATA = enumerate_orbits(4, 2, 2)
MATRICES = [
    format_matrix_text(*canonical_point(datum, field))
    for datum in DATA[::40]
    for field in (QQ, Field(5))
]


def mutated(data, obj):
    """``obj`` with one part, at a drawn depth, replaced by an arbitrary
    JSON value or (in an object) dropped."""
    move = data.draw(st.integers(0, 3))
    if not isinstance(obj, (dict, list)) or not obj or move == 0:
        return data.draw(JSON)
    obj = obj.copy()
    keys = sorted(obj) if isinstance(obj, dict) else range(len(obj))
    key = data.draw(st.sampled_from(keys))
    if isinstance(obj, dict) and move == 1:
        del obj[key]
    else:
        obj[key] = mutated(data, obj[key])
    return obj


def datum_json(data):
    if data.draw(st.booleans()):
        return data.draw(JSON)
    datum = data.draw(st.sampled_from(DATA))
    derived = data.draw(st.booleans())
    return mutated(data, datum_to_json(datum, derived=derived))


def matrix_text(data):
    if data.draw(st.booleans()):
        return data.draw(st.text(max_size=40))
    text = data.draw(st.sampled_from(MATRICES))
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, min(len(text), start + 6)))
    patch = data.draw(st.text("0123456789-/.e \nQfield", max_size=6))
    return text[:start] + patch + text[stop:]


def run_cli(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(st.data())
def test_datum_json_fuzz(data):
    try:
        datum = datum_from_json(datum_json(data))
    except ValueError:
        return
    assert isinstance(datum, OrbitDatum) and validate(datum) == []


@FUZZ
@given(st.data())
def test_matrix_text_fuzz(data):
    try:
        U, W = parse_matrix_text(matrix_text(data))
    except ValueError:
        return
    assert U.n == W.n and U.field == W.field


@FUZZ
@given(st.data())
def test_cli_dim_fuzz(data):
    if data.draw(st.booleans()):
        text = json.dumps(datum_json(data))
    else:
        text = data.draw(st.text(max_size=40))
    code, out, err = run_cli(["dim"], text)
    assert code in (0, 2)
    if code == 0:
        assert set(json.loads(out)) == {"dim", "rank", "stratum"}
    else:
        assert out == "" and err.startswith("error: ")


@FUZZ
@given(st.data())
def test_cli_canonical_fuzz(data):
    code, out, err = run_cli(["canonical", "-"], matrix_text(data))
    assert code in (0, 2)
    if code == 0:
        assert isinstance(datum_from_json(json.loads(out)), OrbitDatum)
    else:
        assert out == "" and err.startswith("error: ")


def test_fuzz_seeds_are_valid():
    # the unmutated seeds are accepted, so the fuzz reaches past the readers
    for text in MATRICES:
        assert run_cli(["canonical", "-"], text)[0] == 0
