"""Benchmark of the cooplang CLI pipeline, run in-process.

    python3 perfbench/run.py --workload lewis-bulk --seed 1 --seconds 40 --trace 0

One pass calls the seven pipeline commands through `cooplang.cli.main`
with `--canonical`, checks each command's artifacts (checks.py) and times
each command. A run makes one small untimed warm-up pass, then samples
set-up time in fresh interpreters and makes timed passes until the next
pass would end more than half a pass past --seconds (at least one). While
it measures, it probes the machine's speed (speed.py) and rescales each
command's time to a reference speed. It reports each stage's mean rescaled
time over all its timed runs, and the median of the set-up samples. With
--trace 1 the passes run under the tracer (tracing.py) and the run reports
per-layer metrics instead. The last line of standard output is the result
as one JSON object; the full record, with the machine block and the times
as measured, goes to
.perfbench-runs/<workload>-seed<seed>-trace<0|1>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

sys.path.insert(0, str(HERE))

from checks import ARTIFACTS, Checker  # noqa: E402
from speed import PROBE_REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WARMUP, WORKLOADS, experiment_config  # noqa: E402

COMMANDS = ("gen-community", "collect", "fit-broca", "fit-wernicke",
            "eval-speaker", "eval-listener", "detect")
STAGES = {
    "collect_s": ("collect",),
    "fit_s": ("fit-broca", "fit-wernicke"),
    "eval_s": ("eval-speaker", "eval-listener"),
    "detect_s": ("detect",),
}
# The machine's speed changes within seconds, so one timing of the short fit
# stage (0.05-0.4 s) catches a single speed. An untraced pass therefore runs
# the stage again after each later stage (the commands are idempotent), so
# that its timings spread over the pass as a long stage's time does.
FIT = STAGES["fit_s"]
UNTRACED_PASS = (COMMANDS[:4] + COMMANDS[4:5] + FIT + COMMANDS[5:6] + FIT
                 + COMMANDS[6:] + FIT)
FIT_SLOTS = UNTRACED_PASS.count(FIT[0])
SETUP_SAMPLES = 5


class Tally:
    """Operations attempted and failed; a failed check makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, command: str, ok: bool, problems: list[str]) -> None:
        self.attempted += 1
        if not ok or problems:
            self.failed += 1
            self.problems += problems or [f"{command}: command failed"]
        if problems:
            self.correct = False


def write_config(config: dict, run_dir: Path) -> Path:
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def run_command(command: str, config_path: Path, tracer=None):
    """(seconds, exited 0) for one in-process CLI call."""
    from cooplang import cli

    argv = [command, "--config", str(config_path), "--canonical"]
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    ok = False
    with contextlib.redirect_stdout(io.StringIO()), traced:
        start = time.perf_counter()
        try:
            ok = cli.main(argv) == 0
        except Exception as exc:  # a raw traceback is a failed operation
            print(f"{command}: {exc!r}", file=sys.stderr)
        except SystemExit as exc:
            print(f"{command}: exit {exc.code}", file=sys.stderr)
        seconds = time.perf_counter() - start
    return seconds, ok


def run_pass(config_path: Path, checker: Checker, tally: Tally,
             tracer=None, probe: SpeedProbe | None = None) -> dict:
    """Run the pipeline once; return each command's (start, end, seconds).

    A traced pass runs each command once; an untraced one runs the fit
    stage FIT_SLOTS times (UNTRACED_PASS). With a probe, the machine is
    probed just before and just after each command, and the seconds leave
    out the time the probe spent inside the command.
    """
    for names in ARTIFACTS.values():
        for name in names:
            (checker.out / name).unlink(missing_ok=True)
    gc.collect()
    spans = {command: [] for command in COMMANDS}
    for command in COMMANDS if tracer else UNTRACED_PASS:
        if probe:
            probe.sample()
            probed = probe.spent
        start = time.perf_counter()
        seconds, ok = run_command(command, config_path, tracer)
        end = time.perf_counter()
        if probe:
            seconds -= probe.spent - probed
            probe.sample()
        spans[command].append((start, end, seconds))
        tally.record(command, ok, checker.check(command) if ok else [])
    return spans


def seconds_of(spans: dict, probe: SpeedProbe | None = None) -> dict:
    """Each command's seconds, as measured or rescaled by the probe."""
    return {command: probe.rescale(runs) if probe else [s for _, _, s in runs]
            for command, runs in spans.items()}


def mean_seconds(passes: list[dict], commands) -> float:
    """Mean seconds of one run of the commands, over all runs in the passes."""
    total = sum(sum(p[c]) for p in passes for c in commands)
    return total / sum(len(p[commands[0]]) for p in passes)


def pipeline_seconds(passes: list[dict]) -> float:
    return mean_seconds(passes, ("gen-community",)) + sum(
        mean_seconds(passes, commands) for commands in STAGES.values())


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing cooplang."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cooplang"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    values = {"pipeline_s": pipeline_seconds(passes)}
    for metric, commands in STAGES.items():
        values[metric] = mean_seconds(passes, commands)
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units.get(k, "s")}
            for k, v in values.items()}


def per_layer(tracers: list) -> tuple[dict, bool]:
    """Counts from the first traced pass, median self times over all."""
    from tracing import layer_metrics, layer_units

    runs = [layer_metrics(t) for t in tracers]
    units = layer_units()
    counts_repeat = True
    out = {}
    for name, unit in units.items():
        values = [r[name] for r in runs]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            counts_repeat &= len(set(values)) == 1
        out[name] = {"value": value, "unit": unit}
    return out, counts_repeat


def measure(workload: str, seed: int, seconds: float, trace: int,
            run_dir: Path) -> dict:
    tally = Tally()
    warm = experiment_config(WARMUP[0], seed, str(run_dir / "warmup"),
                             n_episodes=WARMUP[1])
    run_pass(write_config(warm, run_dir / "warmup"), Checker(warm), tally)

    config = experiment_config(workload, seed, str(run_dir / "out"))
    config_path = write_config(config, run_dir)
    checker = Checker(config)
    deadline = time.perf_counter() + seconds
    probe = None if trace else SpeedProbe()
    setup = [] if trace else [setup_seconds() for _ in range(SETUP_SAMPLES)]

    # stop where the run ends nearest the deadline, so that a run of a slow
    # workload does not lose a whole pass to a small slowdown
    tracers, spans = [], []
    last = 0.0
    with probe.running() if probe else contextlib.nullcontext():
        while not spans or time.perf_counter() + last / 2 <= deadline:
            tracer = None
            if trace:
                from tracing import Tracer
                tracer = Tracer()
                tracers.append(tracer)
            start = time.perf_counter()
            spans.append(run_pass(config_path, checker, tally, tracer, probe))
            last = time.perf_counter() - start

    measured = [seconds_of(p) for p in spans]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine(), "config": config,
        "passes": measured, "setup_samples": setup,
        "attempted": tally.attempted, "failed": tally.failed,
        "correct": tally.correct, "problems": tally.problems[:20],
    }
    if trace:
        record["metrics"], record["counts_repeat"] = per_layer(tracers)
        record["pipeline_s_traced"] = [pipeline_seconds([p]) for p in measured]
        with open(run_dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(tracers[0].to_json_dict(), fh)
    else:
        rescaled = [seconds_of(p, probe) for p in spans]
        record["metrics"] = end_to_end(rescaled, setup)
        record["metrics_as_measured"] = end_to_end(measured, setup)
        record["passes_rescaled"] = rescaled
        record["probes"] = {"reference_s": PROBE_REFERENCE_S,
                            "median_s": statistics.median(probe.seconds),
                            "at": probe.at, "seconds": probe.seconds}
        record["spans"] = spans
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cooplang" / "__init__.py").is_file():
        print(f"error: no cooplang package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     run_dir)
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed}: {len(record['passes'])} passes, "
          f"{record['attempted']} operations, {record['failed']} failed")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
