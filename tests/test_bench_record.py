"""The committed BENCH_<workload>.json files and tools/bench_record.py: every
entry keeps one schema and names its protocol. No test checks a timing."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_every_workload_has_a_bench_file():
    assert {p.stem.removeprefix("BENCH_") for p in BENCH_FILES} == WORKLOADS


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_entries_keep_the_schema(path):
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    workload = path.stem.removeprefix("BENCH_")
    for entry in entries:
        bench_record.check_entry(entry)
        assert f"--workload {workload} " in entry["protocol"]["command"]


def _result(workload, seed, values, correct=True, failed=0):
    """A result.json as perfbench/run.py writes it, cut to what is read."""
    return {"workload": workload, "seed": seed, "seconds": 40.0, "trace": 0,
            "correct": correct, "failed": failed,
            "metrics": {name: {"value": v, "unit": "MB" if name ==
                               "peak_rss_mb" else "s"}
                        for name, v in values.items()}}


def _write(tmp_path, name, result):
    path = tmp_path / name
    path.write_text(json.dumps(result))
    return str(path)


def test_an_entry_from_pairs(tmp_path):
    parent = [_write(tmp_path, f"p{i}.json", _result(
        "sm-wide", 2, {"detect_s": 0.06 + i / 1000, "peak_rss_mb": 86.0}))
        for i in range(4)]
    change = [_write(tmp_path, f"c{i}.json", _result(
        "sm-wide", 2, {"detect_s": 0.05 + i / 100, "peak_rss_mb": 86.0},
        failed=int(i == 3))) for i in range(4)]
    args = ["--pr", "7", "--commit", "b" * 40, "--parent", "a" * 40,
            "--parent-runs", *parent, "--change-runs", *change,
            "--out", str(tmp_path)]
    assert bench_record.main(args) == 0
    assert bench_record.main(args) == 0
    entries = json.loads((tmp_path / "BENCH_sm-wide.json").read_text())
    assert len(entries) == 2 and entries[0] == entries[1]
    entry = entries[0]
    bench_record.check_entry(entry)
    assert entry["protocol"] == {
        "command": "python3 perfbench/run.py --workload sm-wide --seed 2 "
                   "--seconds 40 --trace 0",
        "seconds": 40.0, "seeds": [2], "trace": 0, "pairs": 4,
        "first": "parent"}
    detect = entry["metrics"]["detect_s"]
    # change 0.05, 0.06, 0.07, 0.08 against parent 0.060 ... 0.063
    assert detect["pairs_won"] == 2
    assert detect["parent"]["median"] == pytest.approx(0.0615)
    assert detect["change"] == pytest.approx(
        {"median": 0.065, "q1": 0.0575, "q3": 0.0725})
    assert entry["metrics"]["peak_rss_mb"]["pairs_won"] == 0
    assert [(r["pair"], r["side"], r["failed"]) for r in entry["runs"]][-2:] \
        == [(4, "parent", 0), (4, "change", 1)]


@pytest.mark.parametrize("change, error", [
    ([("sm-wide", 1)], "as many parent runs"),
    ([("sm-wide", 1), ("lewis-bulk", 1)], "workload"),
    ([("sm-wide", 1), ("sm-wide", 2)], "pair 2 mixes seeds"),
])
def test_mismatched_runs_are_refused(tmp_path, capsys, change, error):
    parent = [_write(tmp_path, f"p{i}.json",
                     _result("sm-wide", 1, {"detect_s": 0.06}))
              for i in range(2)]
    change = [_write(tmp_path, f"c{i}.json",
                     _result(workload, seed, {"detect_s": 0.05}))
              for i, (workload, seed) in enumerate(change)]
    assert bench_record.main([
        "--commit", "b", "--parent", "a", "--parent-runs", *parent,
        "--change-runs", *change, "--out", str(tmp_path)]) == 2
    assert error in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_an_entry_without_its_protocol_is_refused():
    entry = json.loads(BENCH_FILES[0].read_text())[0]
    del entry["protocol"]["first"]
    with pytest.raises(ValueError, match="protocol"):
        bench_record.check_entry(entry)
