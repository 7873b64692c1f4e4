"""The CLI's documents: stdout and ``--output`` files are ``json.dumps(indent=2)``
plus a newline."""

import argparse
import contextlib
import enum
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsep.cli import _emit, cli_main


def oracle(obj) -> str:
    return json.dumps(obj, indent=2)


_EDGE_FLOATS = [-0.0, 0.0, 1e300, -1e-300, 5e-324, math.nan, math.inf, -math.inf]
_EDGE_STRINGS = ['"', "\\", "\x00", "\x1f\x7f", " ", "café", "\U0001f600", "a\"b\\c\n"]

scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10**300, max_value=10**300)
           | st.floats() | st.sampled_from(_EDGE_FLOATS)
           | st.text() | st.sampled_from(_EDGE_STRINGS))
keys = (st.text() | st.sampled_from(_EDGE_STRINGS) | st.integers() | st.floats()
        | st.sampled_from(_EDGE_FLOATS) | st.booleans() | st.none())
rows = (st.lists(st.integers() | st.booleans(), max_size=8)
        | st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), max_size=8)
        | st.lists(st.text(max_size=4), max_size=8))


def matrices(element):
    return st.integers(0, 4).flatmap(lambda d: st.lists(
        st.lists(element, min_size=d, max_size=d), min_size=1, max_size=4))


json_values = st.recursive(
    scalars | rows | matrices(st.integers()) | matrices(st.integers() | st.booleans()),
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(keys, inner, max_size=5)),
    max_leaves=40)


def emitted(doc: dict) -> tuple[str, str]:
    """What ``_emit`` prints for doc, and what it writes to an ``--output`` file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc, argparse.Namespace(output=None))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        _emit(doc, argparse.Namespace(output=path))
        with open(path) as fh:
            return out.getvalue(), fh.read()


class TestAgainstIndentEncoder:
    """stdout and an ``--output`` file hold the same text: the indent
    encoding of the document and one newline."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_same_text(self, value):
        doc = {"value": value}
        assert emitted(doc) == (oracle(doc) + "\n",) * 2

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[], {}], ({},)],
        [1, True, 2], [True, False], [0.5, math.nan], [1.0, 2], [10**400 // 10**100],
        [[1, 2], [3, 4]], [[1, 2], [3]], [[1], [True]], [[]], [[], []], [[-(10**300)]],
        [[1, 2], (3, 4)], [[0.5], [1.5]],
        {1: 2, 1.5: 3, None: 4, False: 5, "": 6, math.inf: 7},
    ])
    def test_edge_cases(self, value):
        doc = {"value": value}
        assert emitted(doc) == (oracle(doc) + "\n",) * 2

    def test_subclasses_keep_json_rules(self):
        class Text(str):
            pass

        class Level(enum.IntEnum):
            LOW = 1

        class Doc(dict):
            pass

        doc = Doc(a=[Text("x"), Level.LOW, np.float64(0.25), (Level.LOW, 2)], b=Doc())
        assert emitted(doc) == (oracle(doc) + "\n",) * 2

    @pytest.mark.parametrize("value", [np.int64(3), [1, np.int64(2)], {"m": [[np.int64(1)]]},
                                       {(1, 2): 0}, {1, 2}, object()],
                             ids=["int64", "int64-in-row", "int64-nested", "tuple-key", "set",
                                  "object"])
    def test_unencodable_value_raises_type_error(self, value, tmp_path, capsys):
        # the document is encoded before the file is opened: nothing is written
        doc, path = {"value": value}, tmp_path / "doc.json"
        with pytest.raises(TypeError):
            oracle(doc)
        for output in (None, str(path)):
            with pytest.raises(TypeError):
                _emit(doc, argparse.Namespace(output=output))
        assert capsys.readouterr().out == "" and not path.exists()


@pytest.mark.parametrize("argv", [
    "pipeline --family G --n 11", "pipeline --family H --n 11",
    "alpha --graph G11 --node-budget 2000", "report --family G --p 41",
    "report --family H --p 41", "channel-sim --family G --n 11",
    "channel-sim --family H --n 11", "orthorep --family H --n 11", "pack --family G --n 11",
    "haemers --family G --n 11", "hadamard --size 12", "clique --family H --n 11",
])
def test_stdout_is_the_indent_encoding(capsys, argv):
    assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out
    assert out == oracle(json.loads(out)) + "\n"


def test_g15_certificate_file_is_the_indent_encoding(tmp_path):
    target = tmp_path / "g15.json"
    assert cli_main(["cert", "--family", "G", "--n", "15", "--output", str(target)]) == 0
    text = target.read_text()
    assert text == oracle(json.loads(text)) + "\n"
