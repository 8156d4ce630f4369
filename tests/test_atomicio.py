"""``replace_json`` writes exactly what ``json.dump`` would, atomically."""

import itertools
import json

import pytest

from repro.atomicio import replace_json

PAYLOAD = {
    "zeta": [1, 2.5, -0.0, 1e-300, 12345678901234567890, None],
    "alpha": {"b": True, "a": False, "nested": {"y": [], "x": {}}},
    "text": "µops — \"quoted\"\n\ttab",
    "ipc": 1.2345678901234567,
    "nan": float("nan"),
    "inf": float("-inf"),
}


@pytest.mark.parametrize(
    "indent, sort_keys, trailing_newline",
    list(itertools.product((None, 2), (False, True), (False, True))))
def test_bytes_equal_json_dump(tmp_path, indent, sort_keys,
                               trailing_newline):
    expected = tmp_path / "expected.json"
    with open(expected, "w") as stream:
        json.dump(PAYLOAD, stream, indent=indent, sort_keys=sort_keys)
        if trailing_newline:
            stream.write("\n")
    got = tmp_path / "got.json"
    replace_json(got, PAYLOAD, indent=indent, sort_keys=sort_keys,
                 trailing_newline=trailing_newline)
    assert got.read_bytes() == expected.read_bytes()


def test_unserialisable_payload_leaves_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    replace_json(path, {"ok": 1})
    with pytest.raises(TypeError):
        replace_json(path, {"bad": object()})
    assert json.loads(path.read_text()) == {"ok": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
