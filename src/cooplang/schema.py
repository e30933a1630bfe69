"""The rules every config value must meet, one table per config section.

A table maps each key to a Rule: the type of its value and the range it
must lie in, each with its text for errors and the README. Checks that
relate keys (the target among the candidates) stay with their objects.
"""

import sys
from collections.abc import Callable, Mapping
from numbers import Integral, Real
from typing import NamedTuple

from .errors import ConfigError

# a type is (test, text); a bool is not a number, and a number is finite
INTEGER = (lambda v: isinstance(v, Integral) and not isinstance(v, bool),
           "an integer")
NUMBER = (lambda v: isinstance(v, Real) and not isinstance(v, bool)
          and abs(v) <= sys.float_info.max, "a finite number")
BOOLEAN = (lambda v: isinstance(v, bool), "true or false")
STRING = (lambda v: isinstance(v, str), "a string")
LIST = (lambda v: isinstance(v, (list, tuple)), "a list")
OBJECT = (lambda v: isinstance(v, Mapping), "an object")


class Rule(NamedTuple):
    type: tuple
    ok: Callable = lambda v: True
    range: str = ""


def _one_of(*choices) -> Rule:
    return Rule(STRING, lambda v: v in choices, " or ".join(map(repr, choices)))


def _cell(v) -> bool:
    return LIST[0](v) and len(v) == 2 and all(map(INTEGER[0], v))


def _tokens(v) -> bool:
    return (bool(v) and all(STRING[0](t) and t.split() == [t] for t in v)
            and len(set(v)) == len(v))


COUNT = Rule(INTEGER, lambda v: v >= 1, ">= 1")
INDEX = Rule(INTEGER, lambda v: v >= 0, ">= 0")
POSITIVE = Rule(NUMBER, lambda v: v > 0, "> 0")
UNIT = Rule(NUMBER, lambda v: 0 <= v <= 1, "in [0, 1]")

GAME = {
    "kind": _one_of("lewis", "supermarket"),
    "vocab": Rule(LIST, _tokens, "distinct non-empty strings without "
                                 "whitespace, at least one"),
    "max_msg_len": COUNT,
    "horizon": INDEX,
    "gamma": UNIT,
    "reward_params": Rule(OBJECT),
    "layout": Rule(OBJECT),
}
# game.layout and game.reward_params, per game kind
LAYOUT = {
    "lewis": {"candidates": Rule(LIST, bool, "non-empty"), "target": INDEX},
    "supermarket": {
        "width": COUNT,
        "height": COUNT,
        "items": Rule(OBJECT, lambda v: all(map(_cell, v.values())),
                      "item names mapped to [x, y] cells"),
        "shopping_list": Rule(LIST, lambda v: all(map(STRING[0], v)),
                              "item names"),
        "start": Rule(LIST, _cell, "an [x, y] cell"),
    },
}
REWARD_PARAMS = {
    "lewis": {"pick_reward": Rule(NUMBER)},
    "supermarket": {"step_penalty": Rule(NUMBER), "item_reward": Rule(NUMBER)},
}
COMMUNITY = {
    "n_speakers": COUNT,
    "n_listeners": COUNT,
    "epsilon": UNIT,
    "temp_msg": POSITIVE,
    "temp_target": POSITIVE,
    "greedy_msg": Rule(BOOLEAN),
    "greedy_target": Rule(BOOLEAN),
    "codebook_k": COUNT,
}
DISTANCES = {
    "dist_lift": _one_of("wasserstein1", "total_variation"),
    "listening_epsilon": POSITIVE,
    "signalling_alpha": Rule(NUMBER, lambda v: 0 < v < 1, "in (0, 1)"),
    "permutations": Rule(INTEGER, lambda v: v >= 100, ">= 100"),
    "wasserstein_support_cap": COUNT,
}
INFERENCE = {
    "alpha": POSITIVE,
    "variant": _one_of("literal", "expected"),
    "backoff": UNIT,
}
RUN = {"n_episodes": COUNT, "seed": INDEX, "out": Rule(STRING)}
# the sections a config may hold besides game, each optional
SECTIONS = {"community": COMMUNITY, "inference": INFERENCE,
            "distances": DISTANCES, "run": RUN}
CONFIG = dict.fromkeys(("game", *SECTIONS), Rule(OBJECT))


def check(section: str, rules: dict, doc, required: bool = False) -> None:
    """ConfigError unless doc meets the rules, and if required has every key."""
    if not OBJECT[0](doc):
        raise ConfigError(f"{section} must be an object, got {doc!r}")
    unknown = sorted(f"{section}.{key}" for key in doc.keys() - rules.keys())
    if unknown:
        raise ConfigError(f"unknown keys: {unknown}")
    missing = sorted(f"{section}.{key}" for key in rules.keys() - doc.keys())
    if missing and required:
        raise ConfigError(f"missing keys: {missing}")
    for key, value in doc.items():
        (is_type, type_text), ok, range_text = rules[key]
        if not (is_type(value) and ok(value)):
            what = range_text if is_type(value) else type_text
            raise ConfigError(
                f"{key} must be {what}, got {value!r} ({section}.{key})")


def values_of(obj, rules: dict) -> dict:
    """The attributes of obj that a rule table names, in table order."""
    return {key: getattr(obj, key) for key in rules}
