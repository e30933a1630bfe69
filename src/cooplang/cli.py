"""Command-line front door for reproducible experiment runs.

Every command reads a JSON experiment config (--config, or the
COOPLANG_CONFIG environment variable) plus a few overrides, writes its
artifact under --out with a fixed name, and prints a one-line summary.
One flat parser serves every command, so the options may come before or
after the command name.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 module
error during execution.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data
from .community import CommunityConfig, build_community, save_community
from .errors import ConfigError, CoopLangError
from .evaluation import eval_listener, eval_speaker, report_csv
from .games import NULL_MESSAGE, GameSpec, trajectory_return
from .inference import (
    BrocaModel,
    MapConfig,
    WernickeModel,
    fit_broca,
    fit_wernicke,
    map_target,
)
from .schema import CONFIG, SECTIONS, check
from .semantics import (
    DistanceConfig,
    load_semantics,
    positive_listening_test,
    positive_signalling_test_by_body,
    save_semantics,
    trajectory_distance,
)
from .tables import listener_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MODULE = 4

CONFIG_ENV_VAR = "COOPLANG_CONFIG"

INFERENCE_DEFAULTS = {"alpha": 1.0, "variant": "literal", "backoff": 0.5}
RUN_DEFAULTS = {"n_episodes": 100, "seed": 0, "out": "out"}

ARTIFACTS = {
    "community": "community.json",
    "dataset": "dataset.jsonl",
    "dataset_index": "dataset.index.json",
    "semantics": "semantics.json",
    "broca": "broca.json",
    "wernicke": "wernicke.json",
    "report_json": "report.json",
    "report_csv": "report.csv",
}


@dataclass
class ExperimentConfig:
    game: GameSpec
    community: CommunityConfig
    inference: dict
    distances: DistanceConfig
    run: dict

    @classmethod
    def load(cls, path: str, flags: dict | None = None) -> "ExperimentConfig":
        """Read and check a config file. flags maps a section to the values
        given on the command line, which replace the file's unless None."""
        doc = _read_json(path)
        check("config", CONFIG, doc)
        for name, given in (flags or {}).items():
            doc[name] = {**doc.get(name, {}),
                         **{k: v for k, v in given.items() if v is not None}}
        for name, rules in SECTIONS.items():
            check(name, rules, doc.setdefault(name, {}))
        game = GameSpec.from_json_dict(doc.get("game"))
        # one GameSpec object, so a command builds one table per game
        return cls(game=game,
                   community=CommunityConfig(game=game, **doc["community"]),
                   inference={**INFERENCE_DEFAULTS, **doc["inference"]},
                   distances=DistanceConfig(**doc["distances"]),
                   run={**RUN_DEFAULTS, **doc["run"]})


def _read_json(path):
    """The JSON document in a file; a ConfigError naming it otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from None


def _write_json(path: Path, doc) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.run["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file where the directory or a parent goes
        raise ConfigError(f"run.out: cannot make directory {out}: "
                          f"{exc.strerror}") from None
    return out


def _timestamp(args) -> str:
    if args.canonical:
        return ""
    return datetime.now(timezone.utc).isoformat()


def _load_dataset(out: Path, game: GameSpec):
    """The dataset `collect` wrote, built from its index if the index
    matches the file and the game, else parsed by `data.load`."""
    path = out / ARTIFACTS["dataset"]
    if not path.is_file():
        raise ConfigError(f"cannot read {path}: no such file")
    dataset = data.load_index(path, out / ARTIFACTS["dataset_index"], game)
    return data.load(path, game=game) if dataset is None else dataset


def _load_semantics(out: Path, community, game: GameSpec) -> None:
    """Give the first listener's table, which the speakers and the
    listening test read, the LP entries of S that `collect` saved."""
    load_semantics(listener_table(community.listeners[0], game),
                   out / ARTIFACTS["semantics"])


def cmd_gen_community(cfg: ExperimentConfig, args) -> str:
    out = _out_dir(cfg)
    community = build_community(cfg.community, cfg.run["seed"])
    save_community(community, out / ARTIFACTS["community"])
    return (f"community with {len(community.codebook)} codebook entries "
            f"-> {out / ARTIFACTS['community']}")


def cmd_collect(cfg: ExperimentConfig, args) -> str:
    """Write the dataset, its index (`data.save_index`, which the fits and
    `detect` build the dataset from) and the LP entries of S that the
    first listener's table solved (`save_semantics`). Both side files are
    written on every run."""
    out = _out_dir(cfg)
    community = build_community(cfg.community, cfg.run["seed"])
    dataset = data.collect(community, cfg.run["n_episodes"], cfg.run["seed"],
                           timestamp=_timestamp(args))
    sha256 = data.save(dataset, out / ARTIFACTS["dataset"])
    data.save_index(dataset, cfg.game, sha256,
                    out / ARTIFACTS["dataset_index"])
    save_semantics(listener_table(community.listeners[0], cfg.game),
                   out / ARTIFACTS["semantics"])
    return f"{len(dataset)} records -> {out / ARTIFACTS['dataset']}"


def cmd_fit_broca(cfg: ExperimentConfig, args) -> str:
    out = _out_dir(cfg)
    dataset = _load_dataset(out, cfg.game)
    model = fit_broca(dataset, cfg.game)
    path = _write_json(out / ARTIFACTS["broca"], model.to_json_dict())
    return f"broca table with {len(model.table)} trajectory keys -> {path}"


def cmd_fit_wernicke(cfg: ExperimentConfig, args) -> str:
    out = _out_dir(cfg)
    dataset = _load_dataset(out, cfg.game)
    map_cfg = MapConfig(alpha=cfg.inference["alpha"],
                        variant=cfg.inference["variant"])
    listener_model = None
    if map_cfg.variant == "expected":
        community = build_community(cfg.community, cfg.run["seed"])
        listener_model = listener_table(community.listeners[0], cfg.game)
    model = fit_wernicke(dataset, cfg.game, map_cfg,
                         backoff=cfg.inference["backoff"],
                         listener_model=listener_model)
    path = _write_json(out / ARTIFACTS["wernicke"], model.to_json_dict())
    return f"wernicke table with {len(model.table)} message keys -> {path}"


def cmd_detect(cfg: ExperimentConfig, args) -> str:
    out = _out_dir(cfg)
    dataset = _load_dataset(out, cfg.game)
    community = build_community(cfg.community, cfg.run["seed"])
    if cfg.distances.dist_lift == "wasserstein1":  # the lift of its entries
        _load_semantics(out, community, cfg.game)
    signalling = positive_signalling_test_by_body(
        dataset.bodies, dataset.body_ids, cfg.distances)
    listening = positive_listening_test(
        community.listeners[0], cfg.game, cfg.game.table.messages[1:],
        cfg.distances,
    )
    path = _write_json(out / ARTIFACTS["report_json"], {
        "positive_signalling": asdict(signalling),
        "positive_listening": asdict(listening)})
    return (f"signalling detected={signalling.detected} "
            f"(p={signalling.p_value:.4f}), listening "
            f"detected={listening.detected} -> {path}")


def _write_report(out: Path, report) -> Path:
    path = _write_json(out / ARTIFACTS["report_json"], asdict(report))
    with open(out / ARTIFACTS["report_csv"], "w", encoding="utf-8") as fh:
        fh.write(report_csv(report))
    return path


def cmd_eval_speaker(cfg: ExperimentConfig, args) -> str:
    out = _out_dir(cfg)
    community = build_community(cfg.community, cfg.run["seed"])
    model = BrocaModel.from_json_dict(_read_json(out / ARTIFACTS["broca"]),
                                      cfg.game)
    report = eval_speaker(model, community, cfg.run["n_episodes"], cfg.run["seed"])
    path = _write_report(out, report)
    return f"speaker success_rate={report.success_rate:.4f} -> {path}"


def cmd_eval_listener(cfg: ExperimentConfig, args) -> str:
    out = _out_dir(cfg)
    community = build_community(cfg.community, cfg.run["seed"])
    model = WernickeModel.from_json_dict(
        _read_json(out / ARTIFACTS["wernicke"]), cfg.game)
    _load_semantics(out, community, cfg.game)
    report = eval_listener(model, community, cfg.run["n_episodes"], cfg.run["seed"])
    path = _write_report(out, report)
    return f"listener recovery_rate={report.recovery_rate:.4f} -> {path}"


def cmd_oracle_check(cfg: ExperimentConfig, args) -> str:
    """Brute-force equivalence checks for the MAP estimator and normalizers."""
    game = cfg.game
    trajs = game.table.trajs
    rng = np.random.default_rng(cfg.run["seed"])
    passed = failed = 0
    for _ in range(100):
        observed = trajs[int(rng.integers(len(trajs)))]
        alpha = float(10 ** rng.uniform(-3, 3))
        map_cfg = MapConfig(alpha=alpha, variant="literal")
        record = data.InteractionRecord(
            message=NULL_MESSAGE, trajectory=observed, hidden_target=None,
            episode_seed=0, speaker_id="", listener_id="")
        got = map_target(record, game, map_cfg)
        scores = [
            (trajectory_return(t, game.gamma)
             - alpha * trajectory_distance(t, observed),
             trajectory_return(t, game.gamma), t.canonical_key)
            for t in trajs
        ]
        want = min(scores, key=lambda s: (-s[0], -s[1], s[2]))[2]
        if got.canonical_key == want:
            passed += 1
        else:
            failed += 1
    return f"oracle-check: {passed} passed, {failed} failed"


COMMANDS = {
    "gen-community": cmd_gen_community,
    "collect": cmd_collect,
    "fit-broca": cmd_fit_broca,
    "fit-wernicke": cmd_fit_wernicke,
    "detect": cmd_detect,
    "eval-speaker": cmd_eval_speaker,
    "eval-listener": cmd_eval_listener,
    "oracle-check": cmd_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command is a positional beside
    the options that every command shares."""
    parser = argparse.ArgumentParser(
        prog="cooplang",
        description="Referential-game communities and cooperative language "
                    "acquisition estimators.",
        epilog="Exit codes: 0 success, 2 usage error, 3 configuration error, "
               "4 module error.",
    )
    parser.add_argument("command", choices=COMMANDS,
                        help="the pipeline step to run")
    parser.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR),
                        help="experiment config JSON (or $COOPLANG_CONFIG)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    parser.add_argument("--n", type=int, default=None,
                        help="override the episode count")
    parser.add_argument("--alpha", type=float, default=None,
                        help="override the inference alpha")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    parser.add_argument("--canonical", action="store_true",
                        help="omit timestamps for byte-identical outputs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        print("error: no config given (--config or $COOPLANG_CONFIG)",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = ExperimentConfig.load(args.config, {
            "run": {"seed": args.seed, "n_episodes": args.n, "out": args.out},
            "inference": {"alpha": args.alpha}})
        summary = COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CoopLangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODULE
    print(summary)
    if args.command == "oracle-check" and " 0 failed" not in summary:
        return EXIT_MODULE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
