import json
from pathlib import Path

import pytest

import run
from run import Tally, end_to_end, run_command, run_pass

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_a_clean_pass_has_no_failures(tiny):
    config_path, checker = tiny
    tally = Tally()
    times = run_pass(config_path, checker, tally)
    assert list(times) == list(run.COMMANDS)
    assert len(times["fit-wernicke"]) == run.FIT_SLOTS == 4
    assert (tally.attempted, tally.failed, tally.correct) \
        == (7 + 2 * (run.FIT_SLOTS - 1), 0, True)


def test_a_corrupted_artifact_is_a_failed_operation(tiny):
    config_path, checker = tiny
    run_pass(config_path, checker, Tally())
    path = checker.out / "wernicke.json"
    doc = json.loads(path.read_text())
    hist = next(iter(doc["table"].values()))
    label = next(iter(hist))
    hist[label] += 1
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    tally = Tally()
    tally.record("fit-wernicke", True, checker.check("fit-wernicke"))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert any("brute-force" in p for p in tally.problems)


def test_a_dataset_token_out_of_vocab_fails_its_check(tiny):
    config_path, checker = tiny
    run_pass(config_path, checker, Tally())
    path = checker.out / "dataset.jsonl"
    lines = path.read_text().split("\n")
    rec = json.loads(lines[1])
    rec["message"] = ["z"]
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines))
    problems = checker.check("collect")
    assert any("differs from the first pass" in p for p in problems)
    assert any("record 0: message" in p for p in problems)


def test_a_failing_command_is_a_failed_operation(tiny):
    config_path, checker = tiny
    run_pass(config_path, checker, Tally())
    (checker.out / "dataset.jsonl").unlink()
    seconds, ok = run_command("fit-broca", config_path)
    assert not ok and seconds > 0
    tally = Tally()
    tally.record("fit-broca", ok, [])
    assert (tally.failed, tally.correct) == (1, True)


def test_metrics_match_the_benchmark_file():
    doc = json.loads(BENCHMARK.read_text())
    first = {c: [0.5] for c in run.COMMANDS}
    first["fit-broca"] = [0.5, 0.1, 0.9]
    first["fit-wernicke"] = [0.5] * 3
    second = dict(first, collect=[1.5], **{"fit-broca": [0.1]},
                  **{"fit-wernicke": [0.1]})
    got = end_to_end([first, second], [0.8, 0.9, 1.0, 5.0])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == {name: m["unit"] for name, m in got.items()}
    assert got["collect_s"]["value"] == 1.0       # (0.5 + 1.5) / 2
    assert got["fit_s"]["value"] == 0.8           # (3.0 + 0.2) / 4
    assert got["pipeline_s"]["value"] == pytest.approx(3.8)
    assert got["setup_s"]["value"] == 0.95
    assert [w["name"] for w in doc["workloads"]] == sorted(run.WORKLOADS)


def test_without_the_package_the_benchmark_exits_nonzero(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "sm-wide", "--seed", "0",
                     "--seconds", "1"]) != 0
