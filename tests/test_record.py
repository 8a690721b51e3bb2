"""bench/record.py writes a BENCH file from a perfbench result line;
bench/pairs.py summarizes alternating parent/change runs."""

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


def _pairs():
    path = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(setup_s, reduce_s=None, failed=0):
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    if reduce_s is not None:
        metrics["reduce_s"] = {"value": reduce_s, "unit": "s"}
    return json.dumps({"correct": True, "attempted": 12, "failed": failed,
                       "metrics": metrics})


def _metric(name, better="lower", bound=0.25):
    return {"name": name, "unit": "s", "better": better, "bound": bound}


def test_pairs_reads_the_last_line_as_the_result():
    pairs = _pairs()
    stdout = "input corpus.jsonl: 3 lines, sha256 ab\n" + _result(0.2) + "\n"
    assert pairs.result_of(stdout) == json.loads(_result(0.2))
    for no_result in ("", "input corpus.jsonl: 3 lines\n",
                      _result(0.2) + "\nTraceback (most recent call last)\n",
                      '{"correct": true}\n', "[1, 2]\n"):
        assert pairs.result_of(no_result) is None


def test_pairs_summary_counts_lower_changes_and_skips_failed_runs():
    pairs = _pairs()
    parse = pairs.result_of
    runs = [(parse(_result(0.24, 1.3)), parse(_result(0.21, 1.4))),
            (parse(_result(0.23, 1.2)), parse(_result(0.22, 1.1))),
            (parse(_result(0.26, 1.5)), None),
            (parse(_result(0.25, 1.4, failed=1)), parse(_result(0.20, 1.0)))]
    assert [pairs.run_ok(run) for pair in runs for run in pair] == [
        True, True, True, True, True, False, False, True]
    rows = {row["metric"]: row for row in pairs.summarize(
        [_metric("setup_s"), _metric("reduce_s"), _metric("label_s")], runs)}
    setup = rows["setup_s"]
    assert (setup["pairs"], setup["change_lower"]) == (2, 2)
    assert setup["parent_median"] == 0.24
    assert setup["change_median"] == 0.21
    assert abs(setup["parent_iqr"] - 0.015) < 1e-12
    assert (rows["reduce_s"]["pairs"], rows["reduce_s"]["change_lower"]) == (
        2, 1)
    assert rows["label_s"] == {"metric": "label_s", "pairs": 0,
                               "change_lower": 0, "parent_median": None,
                               "change_median": None, "parent_iqr": None,
                               "change_pct": None, "bound": 0.25,
                               "worse": False}


def test_pairs_marks_a_change_worse_than_its_bound_in_its_direction():
    """The change's median against the parent's, in %, is WORSE past the
    metric's bound in its `better` direction, and only there."""
    pairs = _pairs()
    runs = [(pairs.result_of(_result(p)), pairs.result_of(_result(c)))
            for p, c in ((0.20, 0.26), (0.20, 0.24), (0.20, 0.25))]
    cases = {("lower", 0.3): False, ("lower", 0.2): True,
             ("higher", 0.05): False}
    for (better, bound), worse in cases.items():
        (row,) = pairs.summarize([_metric("setup_s", better, bound)], runs)
        assert abs(row["change_pct"] - 25.0) < 1e-9
        assert (row["bound"], row["worse"]) == (bound, worse)
        line = pairs.describe_summary([row])[1].split()
        assert line[5:] == ["+25.00%", f"{bound * 100:g}%"] + (
            ["WORSE"] if worse else [])
    falling = [(pairs.result_of(_result(p)), pairs.result_of(_result(c)))
               for p, c in ((0.20, 0.14), (0.20, 0.15))]
    (row,) = pairs.summarize([_metric("setup_s", "higher", 0.25)], falling)
    assert abs(row["change_pct"] + 27.5) < 1e-9 and row["worse"]
    (row,) = pairs.summarize([_metric("setup_s", "lower", 0.25)], falling)
    assert not row["worse"]


def test_pairs_alternates_sides_and_fails_on_a_missing_result(monkeypatch,
                                                              capsys):
    pairs = _pairs()
    order = []
    canned = iter([_result(0.24), _result(0.21), _result(0.20), "",
                   _result(0.25), _result(0.22)])

    def fake_run(checkout, bench, workload):
        order.append(checkout.name)
        return pairs.result_of(next(canned))

    monkeypatch.setattr(pairs, "run_once", fake_run)
    code = pairs.main(["p", "c", "--workload", "eval-100k", "--pairs", "3"])
    out = capsys.readouterr().out
    assert order == ["p", "c", "c", "p", "p", "c"]
    assert code == 1
    assert "pair 2 parent: FAILED, no result line" in out
    setup = next(line for line in out.splitlines()
                 if line.startswith("setup_s "))
    assert setup.split() == ["setup_s", "0.2450", "0.2100", "0.0050", "2/2",
                             "-14.29%", "25%"]
