import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from checks import Checker  # noqa: E402
from run import write_config  # noqa: E402
from workloads import experiment_config  # noqa: E402


@pytest.fixture
def tiny(tmp_path):
    """A small lewis-bulk config: (config path, checker)."""
    config = experiment_config("lewis-bulk", 3, str(tmp_path / "out"),
                               n_episodes=40)
    return write_config(config, tmp_path), Checker(config)
