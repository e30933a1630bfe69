"""`dataset.index.json`: the dataset's columns as ids into its game's table,
which `collect` writes beside `dataset.jsonl` and the fits and `detect`
build the dataset from instead of parsing the file.

The index is an optimisation only: with it, without it, and with any stale
or broken one, the readers write the same bytes, and a broken dataset
raises the error it raises without an index. An index is used whole or not
at all, and the dataset it gives is the one `data.load` gives, made of the
same objects.
"""

import base64
import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cooplang import GameSpec, data
from cooplang.cli import EXIT_MODULE, EXIT_OK, main
from cooplang.errors import DatasetParseError

from test_artifacts import CONFIGS

ROOT = Path(__file__).resolve().parent.parent
# the commands that load the dataset, and what each writes
READERS = [("fit-broca", ["broca.json"]), ("fit-wernicke", ["wernicke.json"]),
           ("detect", ["report.json"])]


def _workload_configs() -> dict:
    """The benchmark's three workloads, at seed 1."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: workloads.experiment_config(name, 1, "out")
            for name in workloads.WORKLOADS}


ALL_CONFIGS = {**CONFIGS, **_workload_configs()}


def _argv(config: dict, tmp_path: Path) -> list:
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path), "--out", str(tmp_path / "out"),
            "--canonical"]


def _run(argv: list, commands) -> None:
    for command in commands:
        assert main([command, *argv]) == EXIT_OK


def _collected(config: dict, tmp_path: Path):
    """(game, dataset path, index path) after `collect`."""
    _run(_argv(config, tmp_path), ["collect"])
    out = tmp_path / "out"
    return (GameSpec.from_json_dict(config["game"]), out / "dataset.jsonl",
            out / "dataset.index.json")


def _sharing(bodies) -> list:
    """Per field, each body's number of its object in order of first
    appearance, so identical objects share a number."""
    columns = []
    for field in zip(*bodies):
        numbers: dict[int, int] = {}
        columns.append([numbers.setdefault(id(v), len(numbers))
                        for v in field])
    return columns


def _assert_same(got, want) -> None:
    assert got.bodies == want.bodies
    assert _sharing(got.bodies) == _sharing(want.bodies)
    assert got.body_ids == want.body_ids
    assert got.episode_seeds == want.episode_seeds
    assert got.meta == want.meta
    assert got.game_fingerprint == want.game_fingerprint
    assert list(map(type, got.body_ids + got.episode_seeds)) == [int] * (
        2 * len(got))


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_indexed_load_equals_load(name, tmp_path, capsys):
    game, path, index = _collected(ALL_CONFIGS[name], tmp_path)
    got = data.load_index(path, index, game)
    assert got is not None
    want = data.load(path, game)
    _assert_same(got, want)
    table = game.table
    for message, tau, target, _, _ in got.bodies:
        assert message is table.messages[table.message_ids[
            message.canonical()]]
        assert tau is table.trajs[table.key_index[tau.canonical_key]]
        assert target is table.trajs[table.key_index[target.canonical_key]]


def _dump(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _packed(values) -> str:
    return base64.b64encode(np.array(values, "<i8").tobytes()).decode()


def _broken(doc: dict, game: GameSpec) -> dict:
    """Index files that differ from a saved one in one way each, every one
    of which `load_index` must ignore whole."""
    table = game.table
    ids = list(np.frombuffer(base64.b64decode(doc["body_ids"]), "<i8"))
    seeds = list(np.frombuffer(base64.b64decode(doc["episode_seeds"]), "<i8"))

    def entry(key, i, value):
        """The document with entry i of column key replaced by value."""
        column = list(doc[key])
        column[i] = value
        return _dump({**doc, key: column})

    def swapped(a, b) -> str:
        """body_ids with bodies a and b trading places, so b appears
        before a."""
        return _packed([{a: b, b: a}.get(i, i) for i in ids])

    return {
        "format_version": _dump({**doc, "format_version": 2}),
        "format_version true": _dump({**doc, "format_version": True}),
        "format_version float": _dump({**doc, "format_version": 1.0}),
        "game": _dump({**doc, "game": "0" * 16}),
        "dataset_sha256": _dump({**doc, "dataset_sha256": "0" * 64}),
        "no sha256": _dump({k: v for k, v in doc.items()
                            if k != "dataset_sha256"}),
        "no message column": _dump({k: v for k, v in doc.items()
                                    if k != "message"}),
        "not an object": _dump([doc]),
        "truncated": _dump(doc)[:len(_dump(doc)) // 2],
        "not utf-8": b"\xff" + _dump(doc),
        "nested too deep": b"[" * 100_000 + b"]" * 100_000,
        "message out of range": entry("message", -1, len(table.messages)),
        "negative message": entry("message", 0, -1),
        "bool message": entry("message", 0, True),
        "float message": entry("message", 0, 1.0),
        "trajectory out of range": entry("trajectory", 0, len(table.trajs)),
        "null trajectory": entry("trajectory", 0, None),
        "target out of range": entry("hidden_target", -1, len(table.trajs)),
        "string target": entry("hidden_target", 0, "0"),
        "speaker not a string": entry("speaker_id", 0, 0),
        "listener null": entry("listener_id", -1, None),
        "unequal columns": _dump({**doc, "listener_id":
                                  doc["listener_id"][:-1]}),
        "repeated body": _dump({**doc, **{
            key: doc[key] + doc[key][:1] for key in data._BODY},
            "body_ids": _packed(ids + [len(doc["message"])]),
            "episode_seeds": _packed(seeds + [len(seeds)])}),
        "fewer seeds": _dump({**doc, "episode_seeds": _packed(seeds[:-1])}),
        "more body ids": _dump({**doc, "body_ids": _packed(ids + [0])}),
        "body id out of range": _dump({**doc, "body_ids": _packed(
            ids[:-1] + [len(doc["message"])])}),
        "negative body id": _dump({**doc, "body_ids": _packed(
            ids[:-1] + [-1])}),
        "body 1 first": _dump({**doc, "body_ids": swapped(0, 1)}),
        "body 2 before body 1": _dump({**doc, "body_ids": swapped(1, 2)}),
        "a body never used": _dump({**doc, "body_ids": _packed(
            [0] * len(ids))}),
        "negative seed": _dump({**doc, "episode_seeds": _packed(
            seeds[:-1] + [-1])}),
        "seeds a list": _dump({**doc, "episode_seeds": list(
            map(int, seeds))}),
        "not base64": _dump({**doc, "body_ids": "*" + doc["body_ids"][1:]}),
        "not 8-byte words": _dump({**doc, "body_ids": base64.b64encode(
            base64.b64decode(doc["body_ids"])[:-1]).decode()}),
    }


def _stale_datasets(path: Path) -> dict:
    """Datasets edited after `collect`: one byte changed, one line dropped,
    one line appended."""
    raw = path.read_bytes()
    lines = raw.split(b"\n")[:-1]
    last = raw.rindex(b'"episode_seed":') + len('"episode_seed":')
    return {
        "byte": raw[:last] + bytes([raw[last] ^ 1]) + raw[last + 1:],
        "dropped": b"\n".join(lines[:-1]) + b"\n",
        "appended": raw + lines[-1] + b"\n",
    }


@pytest.mark.parametrize("name", ["lewis4-eps0.1", "sm2x2-eps0.1",
                                  "sm3x3-eps0", "sm2x2-eps0.5-greedy"])
def test_a_bad_index_is_ignored(name, tmp_path, capsys):
    game, path, index = _collected(CONFIGS[name], tmp_path)
    doc = json.loads(index.read_bytes())
    for label, text in _broken(doc, game).items():
        index.write_bytes(text)
        assert data.load_index(path, index, game) is None, label
    index.unlink()
    assert data.load_index(path, index, game) is None
    assert data.load_index(path, tmp_path, game) is None  # a directory


@pytest.mark.parametrize("name", ["lewis4-eps0.1", "sm3x3-eps0.1-3s2l"])
def test_a_stale_dataset_is_loaded_from_its_lines(name, tmp_path, capsys):
    """An edited dataset does not match its index, so the readers parse
    it: a record edited or appended loads as its lines say, and a broken
    line raises the error it raises without an index."""
    game, path, index = _collected(CONFIGS[name], tmp_path)
    for label, raw in _stale_datasets(path).items():
        path.write_bytes(raw)
        assert data.load_index(path, index, game) is None, label
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:len(lines[2]) // 2]
    path.write_bytes(b"\n".join(lines))
    assert data.load_index(path, index, game) is None
    with pytest.raises(DatasetParseError) as want:
        data.load(path, game)
    argv = _argv(CONFIGS[name], tmp_path)
    for command, _ in READERS:
        capsys.readouterr()
        assert main([command, *argv]) == EXIT_MODULE
        assert capsys.readouterr().err == f"error: {want.value}\n"


def test_a_header_the_dataset_loader_rejects_is_left_to_it(tmp_path):
    """An index whose key matches a file with a bad header serves nothing
    (`load` raises on it with its own message)."""
    game, path, index = _collected(CONFIGS["lewis4-eps0.1"], tmp_path)
    doc = json.loads(index.read_bytes())
    for raw in (b"", b"no newline", b'{"format_version":2}\n'):
        path.write_bytes(raw)
        index.write_bytes(_dump({
            **doc, "dataset_sha256": hashlib.sha256(raw).hexdigest()}))
        assert data.load_index(path, index, game) is None


def _outputs(argv: list, out: Path) -> dict:
    """The bytes each reader writes."""
    outputs = {}
    for command, files in READERS:
        _run(argv, [command])
        for name in files:
            outputs[f"{command}/{name}"] = (out / name).read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_readers_write_the_same_bytes_whatever_the_index(name, tmp_path,
                                                        capsys):
    """With the index `collect` wrote, without it, with its sha256 altered,
    and with the index of another run, the fits and `detect` write the
    same bytes."""
    config = CONFIGS[name]
    argv = _argv(config, tmp_path / "run")
    out = tmp_path / "run" / "out"
    _run(argv, ["gen-community", "collect"])
    index = out / "dataset.index.json"
    saved = index.read_bytes()
    want = _outputs(argv, out)

    other = json.loads(json.dumps(config))
    other["run"]["seed"] += 1
    _run(_argv(other, tmp_path / "other"), ["collect"])
    files = {
        "none": None,
        "sha256 altered": _dump({**json.loads(saved),
                                 "dataset_sha256": "f" * 64}),
        "other seed": (tmp_path / "other" / "out"
                       / "dataset.index.json").read_bytes(),
    }
    got = {}
    for label, text in files.items():
        if text is None:
            index.unlink()
        else:
            index.write_bytes(text)
        got[label] = _outputs(argv, out)
    assert got == {label: want for label in files}


def test_collect_writes_the_index_on_every_run(tmp_path, capsys):
    """A matching index already there is written again, and a broken one
    is replaced."""
    game, path, index = _collected(CONFIGS["sm2x2-eps0.1"], tmp_path)
    saved = index.read_bytes()
    index.write_bytes(b"{}")
    _run(_argv(CONFIGS["sm2x2-eps0.1"], tmp_path), ["collect"])
    assert index.read_bytes() == saved


def test_save_returns_the_sha256_of_its_bytes(tmp_path, capsys):
    game, path, _ = _collected(CONFIGS["lewis4-eps0.1"], tmp_path)
    dataset = data.load(path, game)
    copy = tmp_path / "copy.jsonl"
    assert data.save(dataset, copy) == hashlib.sha256(
        path.read_bytes()).hexdigest()
    assert copy.read_bytes() == path.read_bytes()


fuzz = settings(max_examples=150, derandomize=True, deadline=None,
                database=None, suppress_health_check=[
                    HealthCheck.too_slow,
                    HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """(config path, game, dataset bytes, index bytes) of a Lewis run."""
    tmp = tmp_path_factory.mktemp("collected")
    argv = _argv(CONFIGS["lewis4-eps0.1"], tmp)
    _run(argv, ["collect"])
    out = tmp / "out"
    return (argv, GameSpec.from_json_dict(CONFIGS["lewis4-eps0.1"]["game"]),
            (out / "dataset.jsonl").read_bytes(),
            (out / "dataset.index.json").read_bytes())


@fuzz
@given(data_=st.data())
def test_fuzzed_index_bytes_never_raise(collected, data_):
    """Index bytes flipped, cut, or spliced: `load_index` returns a dataset
    or None, and a reader exits 0."""
    argv, game, dataset, index = collected
    how = data_.draw(st.sampled_from(["flip", "cut", "splice"]))
    at = data_.draw(st.integers(0, len(index) - 1))
    if how == "flip":
        mutated = index[:at] + bytes([index[at] ^ data_.draw(
            st.integers(1, 255))]) + index[at + 1:]
    elif how == "cut":
        mutated = index[:at] + index[at + data_.draw(st.integers(1, 40)):]
    else:
        mutated = index[:at] + data_.draw(st.binary(max_size=12)) + index[at:]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        (out / "dataset.jsonl").write_bytes(dataset)
        (out / "dataset.index.json").write_bytes(mutated)
        got = data.load_index(out / "dataset.jsonl",
                              out / "dataset.index.json", game)
        assert got is None or len(got) == 200
        assert main(["fit-broca", *argv[:2], "--out", str(out),
                     "--canonical"]) == EXIT_OK
