"""A fuzz of the files the pipeline reads back: dataset lines and model
documents. Each test fits a small pipeline once, breaks one part of one
file, and checks that the failure is typed and that the CLI never ends
in a traceback (exit 1)."""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cooplang import GameSpec, data, lewis_game, load
from cooplang.cli import EXIT_CONFIG, EXIT_MODULE, EXIT_OK, main
from cooplang.errors import (
    ConfigError,
    DatasetParseError,
    FingerprintMismatchError,
)
from cooplang.inference import BrocaModel, WernickeModel
from reference import load_line_by_line

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


# --- record bodies that load's memo of bodies must read as each line alone ----

# pieces of field texts: separators, quotes, escapes and non-ASCII
PIECES = ["}", "{", ",", ":", '"', "\\", " ", "a", "é", "\u2028",
          ',"listener_id":', ',"message":', ',"speaker_id":',
          ',"trajectory":', ',"trajectory":{}}', '"}']
words = st.lists(st.sampled_from(PIECES), max_size=4).map("".join)
LEWIS = lewis_game(n_candidates=3, vocab=("a", "b"), max_msg_len=2)
TAUS = [data._traj_to_json(tau) for tau in LEWIS.table.trajs]
HEADER = data._dumps({"format_version": data.DATASET_FORMAT_VERSION,
                      "game_fingerprint": LEWIS.fingerprint, "meta": {}})
# objects keyed by field names, such as {"a":1,"listener_id":"x"}: their
# texts hold the separators a body in save's layout is cut at
keyed = st.dictionaries(
    st.sampled_from(["a", "hidden_target", "listener_id", "message",
                     "speaker_id", "trajectory"]),
    st.sampled_from([1, "x", None, ["a"], {}]), min_size=1, max_size=3)


@st.composite
def trajectories(draw):
    """A trajectory document: the Lewis game's own, or steps of arbitrary
    texts whose key matches them. At times it has keys named as fields,
    before or after its own, which load ignores."""
    if draw(st.integers(0, 3)):
        doc = draw(st.sampled_from(TAUS))
    else:
        start, actions = draw(words), draw(st.lists(words, max_size=2))
        steps = [[start if k == 0 else draw(words), action,
                  draw(st.sampled_from([-0.05, 0.0, -0.0, 1.0]))]
                 for k, action in enumerate(actions)]
        doc = {"steps": steps,
               "canonical_key": start + "::" + ",".join(actions)}
    if draw(st.integers(0, 3)) == 0:
        extra = draw(keyed)
        doc = {**doc, **extra} if draw(st.booleans()) else {**extra, **doc}
    return doc


@st.composite
def record_lines(draw, bodies):
    """A record line `{"episode_seed":N,` + body: a body seen before, or one
    in save's layout, or with its keys reordered or spaced, built from field
    texts with drawn separators and string escapes. At times one field has
    a value of the wrong type, such as an object keyed by field names."""
    doc = {"hidden_target": draw(st.one_of(st.none(), trajectories())),
           "listener_id": draw(words),
           "message": draw(st.lists(st.sampled_from("ab"), min_size=1,
                                    max_size=2)),
           "speaker_id": draw(words),
           "trajectory": draw(trajectories())}
    if draw(st.integers(0, 7)) == 0:  # a token of the pieces, not the game
        doc["message"][-1] = draw(words)
    broken = draw(st.sampled_from([None] * 15 + sorted(doc)))
    if broken:
        doc[broken] = draw(st.one_of(
            st.sampled_from([0, None, "a", [], ["a", 1], {}]), keyed))
    keys = sorted(doc)
    layout = draw(st.sampled_from(["seen", "save", "save", "spaced",
                                   "reordered", "repeated"]))
    if layout == "seen" and bodies:
        body = draw(st.sampled_from(bodies))
    else:
        if layout == "reordered":
            keys = draw(st.permutations(keys))
        space = draw(st.sampled_from([" ", "\t"])) if layout == "spaced" \
            else ""
        texts = {key: json.dumps(
            value, ensure_ascii=draw(st.booleans()),
            separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
            for key, value in doc.items()}
        items = [(key, texts[key]) for key in keys]
        if layout == "repeated":  # a key twice: the later value wins
            k = draw(st.integers(0, len(items) - 1))
            items.insert(k, (items[k][0], json.dumps(draw(st.sampled_from(
                [None, "a", ["a"], TAUS[0]])))))
        body = ",".join(f'"{key}":{space}{text}' for key, text in items) \
            + space + "}"
        bodies.append(body)
    return f'{{"episode_seed":{draw(st.integers(0, 9))},{body}'


def _loaded(path, game, loader=load):
    """load's records and the bytes save writes of them, or its error as
    (line number, reason)."""
    try:
        dataset = loader(path, game=game)
    except DatasetParseError as exc:
        return exc.line_number, str(exc)
    data.save(dataset, path.with_suffix(".saved"))
    return dataset.records, path.with_suffix(".saved").read_bytes()


def _check_loads_as_each_line_alone(path, lines, game):
    """A file of these record lines loads as the parse of each line alone
    does, or fails on the same line with the same reason."""
    path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
    assert _loaded(path, game) == _loaded(path, game, load_line_by_line)


@fuzz
@given(data_=st.data(), with_game=st.booleans())
def test_adversarial_bodies_load_as_each_line_alone(data_, with_game):
    """Memoized or not, a body loads to what a parse of its line alone
    gives, or fails on the same line with the same reason."""
    bodies = []
    lines = [data_.draw(record_lines(bodies)) for _ in range(
        data_.draw(st.integers(1, 3)))]
    with tempfile.TemporaryDirectory() as tmp:
        _check_loads_as_each_line_alone(Path(tmp) / "d.jsonl", lines,
                                        LEWIS if with_game else None)


def test_a_line_of_repeated_separators_fails_fast(tmp_path):
    """A body of thousands of field separators and no closing brace is one
    linear failed parse, not a search over ways to cut it."""
    seps = ',"listener_id":,"message":,"speaker_id":,"trajectory":'
    line = '{"episode_seed":1,"hidden_target":' + seps * 2000
    path = tmp_path / "d.jsonl"
    path.write_text(HEADER + "\n" + line + "\n", encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(DatasetParseError) as exc:
        load(path)
    assert exc.value.line_number == 2
    assert time.perf_counter() - start < 2.0
