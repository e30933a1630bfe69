"""`semantics.json`: the entries of S that `collect` solved by LP, which
`eval-listener` and `detect` load instead of solving them again.

The file is an optimisation only: with it, without it, and with any stale
or broken one, the readers write the same bytes and never fail. A file is
used whole or not at all, a loaded entry has the bits of its LP, and a
fresh reader on an LP game that finds a matching file imports no scipy.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cooplang.cli import EXIT_OK, ExperimentConfig, main
from cooplang.community import build_community
from cooplang.semantics import (
    DistanceConfig,
    _solver_version,
    distances,
    load_semantics,
)
from cooplang.tables import listener_table

from test_artifacts import CONFIGS, PIPELINE, SM_2X2

ROOT = Path(__file__).resolve().parent.parent
# the commands that load the file, and what each writes
READERS = [("detect", ["report.json"]),
           ("eval-listener", ["report.json", "report.csv"])]
# the `_broken` files that the readers are run on; the load test takes all
READ_BROKEN = ("solver", "format_version", "truncated", "nan", "negative",
               "out of range", "point-mass pair")


def _argv(config: dict, tmp_path: Path) -> list:
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path), "--out", str(tmp_path / "out"),
            "--canonical"]


def _run(argv: list, commands) -> None:
    for command in commands:
        assert main([command, *argv]) == EXIT_OK


def _collect(config: dict, tmp_path: Path) -> bytes:
    """The `semantics.json` that `collect` writes for a config."""
    argv = _argv(config, tmp_path)
    _run(argv, ["collect"])
    return (tmp_path / "out" / "semantics.json").read_bytes()


def _outputs(argv: list, out: Path) -> dict:
    """The bytes each reader writes."""
    outputs = {}
    for command, files in READERS:
        _run(argv, [command])
        for name in files:
            outputs[f"{command}/{name}"] = (out / name).read_bytes()
    return outputs


def _first_table(config_path: str):
    """The first listener's table of a config's community, which the
    readers load the file into."""
    cfg = ExperimentConfig.load(config_path)
    community = build_community(cfg.community, cfg.run["seed"])
    return listener_table(community.listeners[0], cfg.game)


def _dump(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _broken(doc: dict, table) -> dict:
    """Files that differ from a saved document in one way each, every one
    of which `load_semantics` must ignore whole."""
    n = len(table.P)
    entries = doc["entries"]
    a, b, value = entries[-1] if entries else (0, 1, 0.5)

    def last(*entry):
        """The document with its last entry replaced by `entry`."""
        return _dump({**doc, "solver": _solver_version(),
                      "entries": entries[:-1] + [list(entry)]})

    def added(*entry):
        """The document with `entry` after its entries."""
        return _dump({**doc, "solver": _solver_version(),
                      "entries": entries + [list(entry)]})

    files = {
        "solver": _dump({**doc, "solver": "scipy 0.0.0"}),
        "no solver": _dump({**doc, "solver": None}),
        "format_version": _dump({**doc, "format_version": 2}),
        "format_version true": _dump({**doc, "format_version": True}),
        "game": _dump({**doc, "game": "0" * 16}),
        "lift": _dump({**doc, "lift": "total_variation"}),
        "p_sha256": _dump({**doc, "p_sha256": "0" * 64}),
        "no entries key": _dump({k: v for k, v in doc.items()
                                 if k != "entries"}),
        "not an object": _dump([doc]),
        "truncated": _dump(doc)[:len(_dump(doc)) // 2],
        "not utf-8": b"\xff" + _dump(doc),
        "nan": last(a, b, float("nan")),
        "infinite": last(a, b, float("inf")),
        "negative": last(a, b, -0.25),
        "integer value": last(a, b, 1),
        "string value": last(a, b, "0.5"),
        "b < a": last(b, a, value) if a < b else last(1, 0, 0.5),
        "a == b": added(n - 1, n - 1, 0.0),
        "out of range": added(n - 1, n, 0.5),
        "negative index": last(-1, b, value),
        "duplicate": added(a, b, value),
        "short entry": added(n - 2, n - 1),
    }
    if len(entries) >= 2:
        files["unsorted"] = _dump({**doc, "entries": entries[::-1]})
    points = np.flatnonzero(table.nnz == 1).tolist()
    if len(points) >= 2:
        files["point-mass pair"] = _dump({
            **doc, "solver": _solver_version(),
            "entries": [[points[0], points[1], 0.5]]})
    return files


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_readers_write_the_same_bytes_whatever_the_file(name, tmp_path):
    """With the file `collect` wrote, without it, and with a stale or
    broken one, `detect` and `eval-listener` write the same bytes."""
    config = CONFIGS[name]
    argv = _argv(config, tmp_path / "run")
    out = tmp_path / "run" / "out"
    _run(argv, [command for command, _ in PIPELINE])
    path = out / "semantics.json"
    saved = path.read_bytes()
    want = _outputs(argv, out)

    eps03 = copy.deepcopy(config)
    eps03["community"]["epsilon"] = 0.3
    if "codebook_k" in config["community"]:  # at most 36 LPs on the 3x3
        eps03["community"]["codebook_k"] = min(
            config["community"]["codebook_k"], 8)
    seed = copy.deepcopy(config)
    seed["run"]["seed"] += 1
    game = copy.deepcopy(config)
    game["game"] = (SM_2X2 if config["game"]["kind"] == "lewis"
                    else CONFIGS["lewis4-eps0.1"]["game"])
    game["community"].pop("codebook_k", None)
    files = {"none": None}
    for label, other in (("eps 0.3", eps03), ("other seed", seed),
                         ("other game", game)):
        files[label] = _collect(other, tmp_path / label)
    broken = _broken(json.loads(saved), _first_table(argv[1]))
    files.update({label: broken[label] for label in READ_BROKEN
                  if label in broken})

    got = {}
    for label, text in files.items():
        if text is None:
            path.unlink()
        else:
            path.write_bytes(text)
        got[label] = _outputs(argv, out)
    assert got == {label: want for label in files}


@pytest.mark.parametrize("name,loads", [("sm2x2-eps0.1", 1),
                                        ("sm2x2-eps0.1-tv", 0)])
def test_detect_loads_the_file_only_under_its_lift(name, loads, tmp_path,
                                                   monkeypatch):
    """The file holds Wasserstein-1 entries, so a `detect` whose listening
    test lifts by total variation does not read it."""
    import cooplang.cli

    argv = _argv(CONFIGS[name], tmp_path)
    _run(argv, ["collect"])
    calls = []

    def counting(*args):
        calls.append(args)
        return load_semantics(*args)

    monkeypatch.setattr(cooplang.cli, "load_semantics", counting)
    _run(argv, ["detect"])
    assert len(calls) == loads


@pytest.mark.parametrize("name", ["sm2x2-eps0.1", "sm3x3-eps0"])
def test_a_bad_file_loads_nothing(name, tmp_path):
    argv = _argv(CONFIGS[name], tmp_path)
    doc = json.loads(_collect(CONFIGS[name], tmp_path))
    path = tmp_path / "semantics.json"
    for label, text in _broken(doc, _first_table(argv[1])).items():
        path.write_bytes(text)
        table = _first_table(argv[1])
        load_semantics(table, path)
        assert table.S == {}, label


def test_a_missing_file_loads_nothing(tmp_path):
    argv = _argv(CONFIGS["sm2x2-eps0.1"], tmp_path)
    table = _first_table(argv[1])
    load_semantics(table, tmp_path / "semantics.json")
    load_semantics(table, tmp_path)  # a directory
    assert table.S == {}


def test_saved_entries_are_the_lp_entries_with_their_bits(tmp_path):
    """sm2x2 at ε 0.1: `collect` reads all 36 pairs of the 9 behaviour
    rows, each an LP, and a loaded S has the bits of one computed alone."""
    argv = _argv(CONFIGS["sm2x2-eps0.1"], tmp_path)
    doc = json.loads(_collect(CONFIGS["sm2x2-eps0.1"], tmp_path))
    pairs = [entry[:2] for entry in doc["entries"]]
    assert pairs == [[a, b] for a in range(9) for b in range(a + 1, 9)]
    assert doc["solver"] == _solver_version()

    loaded = _first_table(argv[1])
    load_semantics(loaded, tmp_path / "out" / "semantics.json")
    computed = _first_table(argv[1])
    rows = np.arange(9)
    distances(computed, rows[:, None], rows, DistanceConfig())
    assert (loaded.S["wasserstein1"].tobytes()
            == computed.S["wasserstein1"].tobytes())


def test_point_masses_store_no_entry(tmp_path):
    """At ε 0 every behaviour is one atom, so S is read from D and the
    file holds no entry and names no solver."""
    doc = json.loads(_collect(CONFIGS["sm3x3-eps0"], tmp_path))
    assert doc["entries"] == [] and doc["solver"] is None
    assert sorted(os.listdir(tmp_path / "out")) == [
        "dataset.index.json", "dataset.jsonl",
        "semantics.json"]  # no temporary file is left


def test_fresh_readers_import_no_scipy(tmp_path):
    """Each command in a fresh interpreter: with the file, `eval-listener`
    and `detect` on sm2x2 at ε 0.1 solve no LP, so scipy is never imported;
    without it they import it to solve theirs."""
    argv = _argv(CONFIGS["sm2x2-eps0.1"], tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys\nfrom cooplang.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('scipy' in sys.modules)\n")

    def imports_scipy(command: str) -> bool:
        result = subprocess.run([sys.executable, "-c", code, command, *argv],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1] == "True"

    assert [imports_scipy(command) for command in
            ("collect", "fit-wernicke", "eval-listener", "detect")] == [
        True, False, False, False]
    (tmp_path / "out" / "semantics.json").unlink()
    assert [imports_scipy(command) for command in
            ("eval-listener", "detect")] == [True, True]
