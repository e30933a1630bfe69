import json
from pathlib import Path

import cooplang.community
import cooplang.games
import cooplang.semantics

from run import run_pass, Tally
from tracing import PER_LAYER, Tracer, layer_metrics

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_a_synthetic_span_tree():
    # A [0, 10] holds B [1, 3] and C [4, 8]; C holds D [5, 6]
    tr = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    tr.enter("A")
    tr.enter("B")
    tr.exit()
    tr.enter("C")
    tr.enter("D")
    tr.exit()
    tr.exit()
    tr.exit()
    assert dict(tr.self_s) == {"A": 4, "B": 2, "C": 3, "D": 1}
    assert tr.spans == [["A", 0, 10, -1], ["B", 1, 3, 0],
                        ["C", 4, 8, 0], ["D", 5, 6, 2]]


def test_span_cap_keeps_counts_and_times():
    tr = Tracer(clock=fake_clock([0, 1, 2, 4]), span_cap=1)
    for _ in range(2):
        tr.enter("leaf")
        tr.exit()
    assert tr.calls["leaf"] == 2
    assert tr.self_s["leaf"] == 3
    assert len(tr.spans) == 1


def test_install_wraps_every_binding_and_restores_it():
    step, linprog = cooplang.games.step, cooplang.semantics.linprog
    with Tracer().installed():
        assert cooplang.games.step is not step
        assert cooplang.community.step is cooplang.games.step
        assert cooplang.semantics.linprog is not linprog
    assert cooplang.games.step is step
    assert cooplang.community.step is step
    assert cooplang.semantics.linprog is linprog


def test_traced_counts_repeat_between_two_passes(tiny):
    config_path, checker = tiny
    tally = Tally()
    counts = []
    for _ in range(2):
        tr = Tracer()
        run_pass(config_path, checker, tally, tr)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        counts.append({k: v for k, v in layer_metrics(tr).items()
                       if units[k] != "s"})
    assert tally.failed == 0
    assert counts[0] == counts[1]
    assert counts[0]["games.step.calls"] > 0
    assert counts[0]["semantics.lp.solves"] > 0


def test_benchmark_file_lists_the_traced_metrics():
    doc = json.loads(BENCHMARK.read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == [(name, unit, better)
                      for name, unit, better, _ in PER_LAYER]
