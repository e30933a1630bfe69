"""Drive the full command-line pipeline inside a temporary directory.

Writes an experiment config, then runs gen-community, collect, fit-broca,
fit-wernicke, eval-speaker, eval-listener, detect, and oracle-check in
order, printing each one-line summary. The --canonical flag keeps every
artifact byte-reproducible. A failing command stops the pipeline, and the
demo exits with that command's exit code.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from cooplang import lewis_game

COMMANDS = ("gen-community", "collect", "fit-broca", "fit-wernicke",
            "eval-speaker", "eval-listener", "detect", "oracle-check")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = {
            "game": lewis_game().to_json_dict(),
            "community": {"temp_msg": 0.5},
            "inference": {"alpha": 2.0},
            "run": {"n_episodes": 200, "seed": 0, "out": str(out)},
        }
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config, indent=2))

        for cmd in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "cooplang.cli", cmd,
                 "--config", str(cfg_path), "--canonical"],
                capture_output=True, text=True)
            print(f"$ cooplang {cmd}")
            print(f"  {proc.stdout.strip()}")
            if proc.returncode != 0:
                print(f"  exit code {proc.returncode}: {proc.stderr.strip()}")
                return proc.returncode

        print()
        print("artifacts written:")
        for path in sorted(out.iterdir()):
            print(f"  {path.name} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
