"""The config rule tables: the checks they drive, the README reference
table that documents them, and a fuzz of whole config documents."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cooplang import CommunityConfig, DistanceConfig, lewis_game
from cooplang import schema
from cooplang.cli import (
    EXIT_CONFIG,
    EXIT_MODULE,
    EXIT_OK,
    INFERENCE_DEFAULTS,
    RUN_DEFAULTS,
    ExperimentConfig,
    main,
)
from cooplang.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


class TestVocab:
    def test_empty_token_is_rejected(self):
        # the null message's key "" would get a plan of its own
        with pytest.raises(ConfigError, match="game.vocab"):
            lewis_game(vocab=("", "a", "b"))

    def test_token_with_whitespace_is_rejected(self):
        # "a b" would be the same message as the two tokens a, b
        with pytest.raises(ConfigError, match="game.vocab"):
            lewis_game(vocab=("a b", "a", "b"), max_msg_len=2)


def reference_rows():
    """(section.key, type, range, default) for every settable key."""
    defaults = {
        "community": {f.name: f.default
                      for f in dataclasses.fields(CommunityConfig)},
        "distances": {f.name: f.default
                      for f in dataclasses.fields(DistanceConfig)},
        "inference": INFERENCE_DEFAULTS,
        "run": RUN_DEFAULTS,
    }
    tables = {"game": schema.GAME}
    for kind in schema.LAYOUT:
        tables[f"game.layout ({kind})"] = schema.LAYOUT[kind]
        tables[f"game.reward_params ({kind})"] = schema.REWARD_PARAMS[kind]
    tables.update(schema.SECTIONS)
    for section, rules in tables.items():
        for key, ((_, type_text), _, range_text) in rules.items():
            default = defaults.get(section, {}).get(key, "required")
            yield section, key, type_text, range_text, default


def test_readme_reference_table_matches_the_rules():
    text = README.read_text(encoding="utf-8")
    for section, key, type_text, range_text, default in reference_rows():
        name, _, kind = section.partition(" ")
        shown = "required" if default == "required" else json.dumps(default)
        row = (f"| `{name}.{key}` {kind} | {type_text} | {range_text} "
               f"| {shown} |").replace("  ", " ")
        assert row in text, row


# --- fuzz ---------------------------------------------------------------

SUPERMARKET = {
    "kind": "supermarket", "vocab": ["a", "b", "c"], "max_msg_len": 2,
    "horizon": 2, "gamma": 1.0,
    "reward_params": {"step_penalty": -0.05, "item_reward": 1.0},
    "layout": {"width": 2, "height": 2, "items": {"milk": [1, 1]},
               "shopping_list": ["milk"], "start": [0, 0]},
}
GAMES = {"lewis": lewis_game().to_json_dict(), "supermarket": SUPERMARKET}
DELETE = object()

# small ints keep every game the fuzz builds small
scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                    st.floats(), st.text(max_size=3))
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)


def key_paths(kind):
    """Every section.key a config on this game kind can set."""
    paths = [f"config.{name}" for name in schema.CONFIG]
    paths += [f"game.{key}" for key in schema.GAME]
    paths += [f"game.layout.{key}" for key in schema.LAYOUT[kind]]
    paths += [f"game.reward_params.{key}"
              for key in schema.REWARD_PARAMS[kind]]
    paths += [f"{name}.{key}" for name, rules in schema.SECTIONS.items()
              for key in rules]
    return paths


@st.composite
def config_docs(draw):
    kind = draw(st.sampled_from(sorted(GAMES)))
    doc = {"game": json.loads(json.dumps(GAMES[kind])),
           "community": {"epsilon": 0.1}, "run": {"n_episodes": 30}}
    for path in draw(st.lists(st.sampled_from(key_paths(kind)), max_size=3)):
        *sections, key = path.removeprefix("config.").split(".")
        node = doc
        for name in sections:
            node = node.setdefault(name, {})
            if not isinstance(node, dict):
                break
        else:
            value = draw(st.one_of(st.just(DELETE), values))
            if value is DELETE:
                node.pop(key, None)
            else:
                node[key] = value
    return doc


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_docs())
def test_fuzzed_configs_fail_only_as_config_errors(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        try:
            ExperimentConfig.load(str(path))
        except ConfigError:
            pass
        code = main(["gen-community", "--config", str(path),
                     "--out", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_MODULE)
