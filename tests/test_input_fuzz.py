"""A fuzz of the files the pipeline reads back: dataset lines and model
documents. Each test fits a small pipeline once, breaks one part of one
file, and checks that the failure is typed and that the CLI never ends
in a traceback (exit 1)."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cooplang import GameSpec, data, lewis_game
from cooplang.cli import EXIT_CONFIG, EXIT_MODULE, EXIT_OK, main
from cooplang.errors import (
    ConfigError,
    DatasetParseError,
    FingerprintMismatchError,
)
from cooplang.inference import BrocaModel, WernickeModel

SUPERMARKET = {
    "kind": "supermarket", "vocab": ["a", "b", "c"], "max_msg_len": 2,
    "horizon": 2, "gamma": 1.0,
    "reward_params": {"step_penalty": -0.05, "item_reward": 1.0},
    "layout": {"width": 2, "height": 2, "items": {"milk": [1, 1]},
               "shopping_list": ["milk"], "start": [0, 0]},
}
GAMES = {"lewis": lewis_game(n_candidates=3, vocab=("a", "b"),
                             max_msg_len=2).to_json_dict(),
         "supermarket": SUPERMARKET}
FILES = ("dataset.jsonl", "broca.json", "wernicke.json")
DELETE = object()

scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                    st.floats(), st.text(max_size=3))
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)
fuzz = settings(max_examples=100, derandomize=True, deadline=None,
                database=None, suppress_health_check=[
                    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

RECORD_PATHS = [
    (), ("message",), ("message", 0), ("trajectory",),
    ("trajectory", "steps"), ("trajectory", "steps", 0),
    ("trajectory", "steps", 0, 0), ("trajectory", "steps", 0, 1),
    ("trajectory", "steps", 0, 2), ("trajectory", "canonical_key"),
    ("hidden_target",), ("hidden_target", "steps", -1, 1),
    ("episode_seed",), ("speaker_id",), ("listener_id",),
]
MODEL_PATHS = {
    "broca.json": [(), ("format_version",), ("kind",), ("game_fingerprint",),
                   ("table",), ("table", 0), ("table", 0, 0),
                   ("backoff_table",), ("backoff_table", 0),
                   ("backoff_table", 0, 0)],
    "wernicke.json": [(), ("format_version",), ("kind",),
                      ("game_fingerprint",), ("alpha",), ("backoff",),
                      ("table",), ("table", 0), ("table", 0, 0)],
}


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """Per game kind: its config and the files a fitted pipeline wrote."""
    made = {}
    for kind, game in GAMES.items():
        out = tmp_path_factory.mktemp(kind)
        config = out / "config.json"
        config.write_text(json.dumps({
            "game": game, "community": {"epsilon": 0.1, "codebook_k": 4},
            "run": {"n_episodes": 40, "seed": 2, "out": str(out)}}))
        for cmd in ("collect", "fit-broca", "fit-wernicke"):
            assert main([cmd, "--config", str(config), "--canonical"]) == 0
        made[kind] = Pipeline(config, {f: (out / f).read_bytes()
                                       for f in FILES})
    return made


class Pipeline(tuple):
    """(config path, {file name: bytes}), shown briefly in fuzz reports."""

    def __new__(cls, config, files):
        return super().__new__(cls, (config, files))

    def __repr__(self):
        return f"Pipeline({self[0]})"


def _mutate(draw, doc, path):
    """doc with the value at path replaced or deleted; an int step picks
    the key or item at that position, and a missing step ends the path."""
    if not path:
        return draw(values)
    node = doc
    *steps, last = path
    for step in steps:
        node = _child(node, step)
        if node is None:
            return doc
    if isinstance(node, dict) and isinstance(last, int):
        keys = list(node)
        last = keys[last] if keys and draw(st.booleans()) else draw(
            st.text(max_size=3))
    elif not (isinstance(node, list) and -len(node) <= last < len(node)
              if isinstance(last, int) else isinstance(node, dict)):
        return doc
    value = draw(st.one_of(st.sampled_from([DELETE, {}, []]), values))
    if value is DELETE:
        if isinstance(node, dict):
            node.pop(last, None)
        else:
            del node[last]
    else:
        node[last] = value
    return doc


def _child(node, step):
    if isinstance(node, dict):
        if isinstance(step, int):
            keys = list(node)
            return node[keys[step]] if keys else None
        return node.get(step)
    if isinstance(node, list) and isinstance(step, int) \
            and -len(node) <= step < len(node):
        return node[step]
    return None


def _run(config, out, files, commands):
    """Exit codes of the commands on a copy of the pipeline's files."""
    out.mkdir()
    for name, content in files.items():
        (out / name).write_bytes(content)
    return [main([cmd, "--config", str(config), "--out", str(out),
                  "--canonical"]) for cmd in commands]


@fuzz
@given(kind=st.sampled_from(sorted(GAMES)), data_=st.data())
def test_fuzzed_dataset_lines_fail_as_parse_errors(pipelines, kind, data_):
    config, files = pipelines[kind]
    lines = files["dataset.jsonl"].decode().split("\n")[:-1]
    lineno = data_.draw(st.one_of(st.just(1), st.integers(2, len(lines))))
    how = data_.draw(st.sampled_from(["json", "text", "bytes"]))
    raw = [line.encode() for line in lines]
    if how == "json":
        doc = json.loads(lines[lineno - 1])
        paths = RECORD_PATHS if lineno > 1 else [
            (), ("format_version",), ("game_fingerprint",), ("meta",)]
        doc = _mutate(data_.draw, doc, data_.draw(st.sampled_from(paths)))
        # the canonical form starts a record with `{"episode_seed":`, so
        # load reads the mutated line through its per-body memo
        dumps = data_.draw(st.sampled_from([json.dumps, data._dumps]))
        raw[lineno - 1] = dumps(doc).encode()
    elif how == "text":
        raw[lineno - 1] = data_.draw(st.text(max_size=20)).replace(
            "\n", " ").encode()
    else:
        raw[lineno - 1] = data_.draw(st.binary(max_size=12)).replace(
            b"\n", b" ")
    content = b"\n".join(raw) + b"\n"
    spec = GameSpec.from_json_dict(json.loads(config.read_text())["game"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.jsonl"
        path.write_bytes(content)
        try:
            data.load(path, game=spec).public()
        except FingerprintMismatchError:
            header = json.loads(content.split(b"\n")[0])
            assert header["game_fingerprint"] != spec.fingerprint
        except DatasetParseError as exc:
            assert exc.line_number == lineno
        codes = _run(config, Path(tmp) / "out",
                     {**files, "dataset.jsonl": content},
                     ("fit-broca", "fit-wernicke"))
        assert set(codes) <= {EXIT_OK, EXIT_CONFIG, EXIT_MODULE}


@fuzz
@given(kind=st.sampled_from(sorted(GAMES)),
       name=st.sampled_from(sorted(MODEL_PATHS)), data_=st.data())
def test_fuzzed_model_documents_fail_as_config_errors(pipelines, kind, name,
                                                      data_):
    config, files = pipelines[kind]
    spec = GameSpec.from_json_dict(json.loads(config.read_text())["game"])
    doc = json.loads(files[name])
    for _ in range(data_.draw(st.integers(1, 2))):
        doc = _mutate(data_.draw, doc,
                      data_.draw(st.sampled_from(MODEL_PATHS[name])))
    model = BrocaModel if name == "broca.json" else WernickeModel
    try:
        model.from_json_dict(doc, spec)
    except FingerprintMismatchError:
        assert doc.get("game_fingerprint") != spec.fingerprint
    except ConfigError:
        pass
    command = "eval-speaker" if name == "broca.json" else "eval-listener"
    with tempfile.TemporaryDirectory() as tmp:
        codes = _run(config, Path(tmp) / "out",
                     {**files, name: json.dumps(doc).encode()}, (command,))
    assert set(codes) <= {EXIT_OK, EXIT_CONFIG, EXIT_MODULE}
