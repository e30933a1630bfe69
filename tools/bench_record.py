"""Append one entry to BENCH_<workload>.json from a set of alternating pairs.

    python3 tools/bench_record.py --pr 29 [--commit C] --parent P \\
        --parent-runs p1.json p2.json ... --change-runs c1.json c2.json ...

Each argument is a copy of the result.json that one untraced or traced
`perfbench/run.py` run wrote. perfbench overwrites
.perfbench-runs/<workload>-seed<s>-trace<t>/result.json on every run, so
copy each run's file aside before the next run and pass the copies: the
i-th parent run and the i-th change run make pair i. All runs must share a
workload, a --seconds and a --trace, and the two runs of a pair a seed.

An entry holds the commit, its parent and the PR number (a commit cannot
name itself, so an entry committed with the change it measures has a
null commit: the commit that adds it); the protocol
(command, seconds, seeds, trace, number of pairs, which side ran first);
per metric, each side's median and quartiles and the pairs the change
won; and per run, `correct` and the failed-operation count. The entry is
appended to BENCH_<workload>.json in --out (the repository root by
default). `check_entry` is the one schema every entry of every BENCH file
keeps; a backfilled entry, rebuilt from medians published without their
runs, may leave what was not published null: its seeds, pairs, first
side, quartiles and pairs won, and its runs empty.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PROTOCOL_KEYS = {"command", "seconds", "seeds", "trace", "pairs", "first"}
STATS = ("median", "q1", "q3")


def directions() -> dict[str, str]:
    """Each benchmark metric's better direction, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def summary(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return dict.fromkeys(STATS, values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def build_entry(parent_runs: list[dict], change_runs: list[dict], *,
                commit: str | None, parent: str, pr: int | None,
                first: str) -> tuple[str, dict]:
    """The workload and the entry of pairs (parent_runs[i], change_runs[i])."""
    if not parent_runs or len(parent_runs) != len(change_runs):
        raise ValueError("need as many parent runs as change runs, at "
                         "least one")
    runs = parent_runs + change_runs
    for key in ("workload", "seconds", "trace"):
        if len({run[key] for run in runs}) != 1:
            raise ValueError(f"the runs differ in {key!r}")
    for i, (a, b) in enumerate(zip(parent_runs, change_runs), 1):
        if a["seed"] != b["seed"]:
            raise ValueError(f"pair {i} mixes seeds {a['seed']} and "
                             f"{b['seed']}")
    workload, seconds, trace = (runs[0][k]
                                for k in ("workload", "seconds", "trace"))
    better = directions()
    metrics = {}
    for name in sorted(set.intersection(*(set(r["metrics"]) for r in runs))):
        values = {side: [r["metrics"][name]["value"] for r in side_runs]
                  for side, side_runs in zip(SIDES, (parent_runs,
                                                     change_runs))}
        sign = 1 if better[name] == "lower" else -1
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "better": better[name],
            **{side: summary(values[side]) for side in SIDES},
            "pairs_won": sum(sign * (b - a) < 0 for a, b in
                             zip(values["parent"], values["change"])),
        }
    seeds = sorted({run["seed"] for run in runs})
    seed = str(seeds[0]) if len(seeds) == 1 else "S"
    entry = {
        "pr": pr, "commit": commit, "parent": parent, "backfilled": False,
        "protocol": {
            "command": (f"python3 perfbench/run.py --workload {workload} "
                        f"--seed {seed} --seconds {seconds:g} "
                        f"--trace {trace}"),
            "seconds": seconds, "seeds": seeds, "trace": trace,
            "pairs": len(parent_runs), "first": first,
        },
        "metrics": metrics,
        "runs": [{"pair": i, "side": side, "seed": run["seed"],
                  "correct": run["correct"], "failed": run["failed"]}
                 for i, pair in enumerate(zip(parent_runs, change_runs), 1)
                 for side, run in zip(SIDES, pair)],
    }
    check_entry(entry)
    return workload, entry


def check_entry(entry: dict) -> None:
    """Raise ValueError unless `entry` keeps the BENCH schema."""
    def need(ok, what):
        if not ok:
            raise ValueError(f"BENCH entry: {what}")

    need(set(entry) == {"pr", "commit", "parent", "backfilled", "protocol",
                        "metrics", "runs"}, f"keys {sorted(entry)}")
    backfilled = entry["backfilled"]
    need(isinstance(backfilled, bool), "backfilled is not a bool")

    def unknown(value):
        return backfilled and value is None

    need(entry["pr"] is None or (isinstance(entry["pr"], int)
                                 and entry["pr"] >= 0), "bad pr")
    need(entry["commit"] is None or isinstance(entry["commit"], str)
         and entry["commit"], "bad commit")
    need(isinstance(entry["parent"], str) and entry["parent"], "no parent")
    protocol = entry["protocol"]
    need(isinstance(protocol, dict) and set(protocol) == PROTOCOL_KEYS,
         "the protocol must name " + ", ".join(sorted(PROTOCOL_KEYS)))
    need(isinstance(protocol["command"], str)
         and "perfbench/run.py" in protocol["command"], "bad command")
    need(unknown(protocol["seeds"]) or protocol["seeds"] and all(
        isinstance(s, int) for s in protocol["seeds"]), "bad seeds")
    need(unknown(protocol["first"]) or protocol["first"] in SIDES
         + ("alternating",), "bad first")
    need(protocol["trace"] in (0, 1), "bad trace")
    need(isinstance(protocol["seconds"], (int, float)), "bad seconds")
    need(unknown(protocol["pairs"]) or isinstance(protocol["pairs"], int)
         and protocol["pairs"] > 0, "bad pairs")
    need(isinstance(entry["metrics"], dict) and entry["metrics"], "no metrics")
    for name, metric in entry["metrics"].items():
        need(set(metric) == {"unit", "better", "pairs_won", *SIDES},
             f"{name}: keys {sorted(metric)}")
        need(metric["better"] in ("lower", "higher"), f"{name}: bad better")
        for side in SIDES:
            stats = metric[side]
            need(set(stats) == set(STATS), f"{name}: {side} keys")
            need(isinstance(stats["median"], (int, float)),
                 f"{name}: no {side} median")
            for key in ("q1", "q3"):
                need(isinstance(stats[key], (int, float))
                     or unknown(stats[key]),
                     f"{name}: bad {side} {key}")
        won = metric["pairs_won"]
        need(unknown(won) or isinstance(won, int)
             and 0 <= won <= (protocol["pairs"] or 0), f"{name}: bad pairs_won")
    runs = entry["runs"]
    need(isinstance(runs, list) and (
        len(runs) == 2 * (protocol["pairs"] or 0) or backfilled and not runs),
        "one run per side of every pair")
    for run in runs:
        need(set(run) == {"pair", "side", "seed", "correct", "failed"}
             and run["side"] in SIDES and isinstance(run["correct"], bool)
             and isinstance(run["failed"], int) and run["failed"] >= 0
             and run["seed"] in (protocol["seeds"] or ()), f"bad run {run}")


def append(path: Path, entry: dict) -> None:
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commit", help="the change's commit; left out "
                        "(null) for the commit that adds the entry")
    parser.add_argument("--parent", required=True)
    parser.add_argument("--pr", type=int)
    parser.add_argument("--first", choices=SIDES + ("alternating",),
                        default="parent",
                        help="the side that ran first in each pair")
    parser.add_argument("--parent-runs", nargs="+", required=True)
    parser.add_argument("--change-runs", nargs="+", required=True)
    parser.add_argument("--out", default=str(ROOT),
                        help="directory of the BENCH files")
    args = parser.parse_args(argv)
    read = [[json.loads(Path(p).read_text()) for p in paths]
            for paths in (args.parent_runs, args.change_runs)]
    try:
        workload, entry = build_entry(*read, commit=args.commit,
                                      parent=args.parent, pr=args.pr,
                                      first=args.first)
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    path = Path(args.out) / f"BENCH_{workload}.json"
    append(path, entry)
    print(f"{path}: entry {len(json.loads(path.read_text()))}, "
          f"{entry['protocol']['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
