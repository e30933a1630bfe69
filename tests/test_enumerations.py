"""Each CLI command enumerates its game's trajectories at most once.

Every `cooplang.*` binding of `enumerate_trajectories` is wrapped, so a
module that enumerates the game itself, instead of reading `game.table`,
is counted.
"""

import json
import sys

import pytest

import cooplang.cli  # noqa: F401  (imports every module of the package)
from cooplang import games
from cooplang.cli import EXIT_OK, main
from test_artifacts import CONFIGS, PIPELINE

COMMANDS = [command for command, _ in PIPELINE] + ["oracle-check"]


@pytest.fixture
def enumerated(monkeypatch):
    """The games enumerated while the test runs, one entry per call."""
    calls = []
    original = games.enumerate_trajectories

    def counted(game, *args, **kwargs):
        calls.append(game)
        return original(game, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "cooplang" or name.startswith("cooplang."))
                and getattr(module, "enumerate_trajectories", None)
                is original):
            monkeypatch.setattr(module, "enumerate_trajectories", counted)
    return calls


def test_each_command_enumerates_once(tmp_path, enumerated, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS["lewis4-eps0.1"]))
    counts = {}
    for command in COMMANDS:
        enumerated.clear()
        assert main([command, "--config", str(path), "--out",
                     str(tmp_path / "out"), "--canonical"]) == EXIT_OK
        counts[command] = len(enumerated)
    assert counts["gen-community"] == 1  # the wrapper is in the call path
    # oracle-check's brute-force reference reads the game table's trajectories
    assert counts["oracle-check"] == 1
    assert {c: n for c, n in counts.items() if n > 1} == {}
