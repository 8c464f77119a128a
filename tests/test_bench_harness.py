"""The bench harness never drops recorded rows (benchmarks/_harness)."""

import json

import pytest

from benchmarks._harness import emit_json


def test_missing_file_is_created(tmp_path):
    path = tmp_path / "BENCH_new.json"
    emit_json(path, [{"metric": "a", "value": 1}])
    assert json.loads(path.read_text()) == [{"metric": "a", "value": 1}]


def test_valid_array_is_appended_to(tmp_path):
    path = tmp_path / "BENCH_rows.json"
    path.write_text(json.dumps([{"metric": "a", "value": 1}]))
    emit_json(path, [{"metric": "b", "value": 2}])
    assert json.loads(path.read_text()) == [{"metric": "a", "value": 1},
                                            {"metric": "b", "value": 2}]


@pytest.mark.parametrize("content", ['[{"metric": "a", "val',
                                     '{"metric": "a", "value": 1}'])
def test_corrupt_file_raises_and_is_left_untouched(tmp_path, content):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(content)
    with pytest.raises(ValueError, match="BENCH_bad.json"):
        emit_json(path, [{"metric": "b", "value": 2}])
    assert path.read_text() == content
