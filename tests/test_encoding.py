"""The CLI's JSON encoder: ``cli._dumps`` against ``json.dumps(indent=2)`` as the oracle."""

import enum
import json
import math
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.cli import _dumps, cli_main


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
# Lists of one scalar type take the one-join path, and equal-length int
# rows the one-format matrix path; a bool, NaN or infinity among them, or a
# ragged row, must send the list back to the per-item path.
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


class TestAgainstIndentEncoder:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_same_text(self, value):
        assert _dumps(value) == oracle(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[], {}], ({},)],
        [1, True, 2], [True, False], [0.5, math.nan], [1.0, 2], [10**400 // 10**100],
        [[1, 2], [3, 4]], [[1, 2], [3]], [[1], [True]], [[]], [[], []], [[-(10**300)]],
        [[1, 2], (3, 4)], [[0.5], [1.5]],
        {1: 2, 1.5: 3, None: 4, False: 5, "": 6, math.inf: 7},
    ])
    def test_edge_cases(self, value):
        assert _dumps(value) == oracle(value)

    def test_subclasses_keep_json_rules(self):
        class Text(str):
            pass

        class Level(enum.IntEnum):
            LOW = 1

        class Doc(dict):
            pass

        value = Doc(a=[Text("x"), Level.LOW, np.float64(0.25), (Level.LOW, 2)], b=Doc())
        assert _dumps(value) == oracle(value)

    @pytest.mark.parametrize("value", [np.int64(3), [1, np.int64(2)], {"m": [[np.int64(1)]]},
                                       {(1, 2): 0}, {1, 2}, object()],
                             ids=["int64", "int64-in-row", "int64-nested", "tuple-key", "set",
                                  "object"])
    def test_unencodable_value_raises_type_error(self, value):
        with pytest.raises(TypeError):
            oracle(value)
        with pytest.raises(TypeError):
            _dumps(value)


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


def _g15_cert_doc(tmp_path) -> str:
    target = tmp_path / "g15.json"
    assert cli_main(["cert", "--family", "G", "--n", "15", "--output", str(target)]) == 0
    return target.read_text()


def test_g15_certificate_file_is_the_indent_encoding(tmp_path):
    text = _g15_cert_doc(tmp_path)
    assert text == oracle(json.loads(text)) + "\n"


def test_faster_than_the_indent_encoder():
    # Both encoders run on the same document in this process, alternately,
    # so the ratio does not depend on the machine's speed. The document is
    # what ``orthorep --family G --n 15`` prints (1.2 MB as text): a large
    # nested document.
    doc = capsep.OrthoRep(capsep.build_G(15)).to_json()
    assert _dumps(doc) == oracle(doc)
    ours, theirs = [], []
    for _ in range(5):
        theirs.append(timeit.timeit(lambda: oracle(doc), number=1))
        ours.append(timeit.timeit(lambda: _dumps(doc), number=1))
    assert min(theirs) >= 1.5 * min(ours), (min(theirs), min(ours))
