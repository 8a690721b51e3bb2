"""bench/record.py writes a BENCH file from a perfbench result line."""

import importlib.util
import json
import platform
import subprocess
from importlib.metadata import version
from pathlib import Path

RESULT = ('{"correct": true, "attempted": 12, "failed": 0, "metrics": '
          '{"reduce_s": {"value": 0.43, "unit": "s"}}}')


def _recorder():
    path = Path(__file__).resolve().parent.parent / "bench" / "record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_writes_the_result_line_and_the_machine(tmp_path, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("the writer starts no child process")

    monkeypatch.setattr(subprocess, "run", no_child)
    monkeypatch.setattr(subprocess, "Popen", no_child)
    record = _recorder()
    entry = record.record("label-dense", RESULT + "\n", "abc123")
    path = record.write_record(tmp_path, entry)
    assert path == tmp_path / "BENCH_label-dense.json"
    written = json.loads(path.read_text())
    assert written == entry
    assert written["result"] == json.loads(RESULT)
    assert (written["workload"], written["commit"]) == ("label-dense", "abc123")
    assert written["python"] == platform.python_version()
    assert written["numpy"] == version("numpy")
    assert written["orjson"] == version("orjson")
    assert type(written["nproc"]) is int and written["nproc"] >= 1
