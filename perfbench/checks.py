"""Output checks for every CLI command of a pass, made apart from cooplang.

Nothing here imports the package. The game rules, the edit distance, the
discounted return and the literal MAP label are restated from the
package's documentation, so a check compares the program with a second
computation or with a property the method must have, never with a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

ARTIFACTS = {
    "gen-community": ("community.json",),
    "collect": ("dataset.jsonl",),
    "fit-broca": ("broca.json",),
    "fit-wernicke": ("wernicke.json",),
    "eval-speaker": ("report.json", "report.csv"),
    "eval-listener": ("report.json", "report.csv"),
    "detect": ("report.json",),
}

# the documented report column orders (README "Command line")
SPEAKER_COLUMNS = [
    "n", "success_rate", "mean_return", "oracle_success_rate",
    "oracle_mean_return", "random_success_rate", "random_mean_return",
]
LISTENER_COLUMNS = [
    "n", "recovery_rate", "mean_distance", "mean_target_value",
    "literal_recovery_rate", "literal_mean_distance",
    "literal_mean_target_value",
]

# a mean of n values each within [min V, max V] may round past either end
MEAN_SLACK = 1e-9

_MOVES = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}


class IllegalStep(ValueError):
    pass


class Game:
    """The Lewis and supermarket rules, from a game's JSON form."""

    def __init__(self, doc: dict):
        self.kind = doc["kind"]
        self.vocab = set(doc["vocab"])
        self.max_msg_len = doc["max_msg_len"]
        self.horizon = doc["horizon"]
        self.gamma = doc["gamma"]
        self.rewards = doc["reward_params"]
        layout = doc["layout"]
        if self.kind == "lewis":
            self.actions = tuple(f"pick{k}"
                                 for k in range(len(layout["candidates"])))
            self.target = layout["target"]
            self.start_digest = "start"
        else:
            self.actions = ("N", "E", "S", "W", "pick")
            self.width, self.height = layout["width"], layout["height"]
            self.items = {name: tuple(c) for name, c in layout["items"].items()}
            self.listed = set(layout["shopping_list"])
            self.start = tuple(layout["start"])
            self.start_digest = f"{self.start[0]},{self.start[1]}|"

    def initial(self):
        return None if self.kind == "lewis" else (*self.start, frozenset())

    def terminal(self, state) -> bool:
        if self.kind == "lewis":
            return state is not None
        return self.listed <= state[2]

    def step(self, state, action):
        if action not in self.actions or self.terminal(state):
            raise IllegalStep(f"action {action!r} is not legal here")
        if self.kind == "lewis":
            k = int(action[4:])
            return k, (self.rewards["pick_reward"] if k == self.target else 0.0)
        x, y, got = state
        penalty = self.rewards["step_penalty"]
        if action in _MOVES:
            dx, dy = _MOVES[action]
            return (min(max(x + dx, 0), self.width - 1),
                    min(max(y + dy, 0), self.height - 1), got), penalty
        here = sorted(name for name, cell in self.items.items()
                      if cell == (x, y) and name in self.listed
                      and name not in got)
        if here:
            return (x, y, got | {here[0]}), self.rewards["item_reward"]
        return state, penalty

    def replay(self, actions) -> list[float]:
        """Rewards along an action sequence; IllegalStep if it is not legal."""
        if len(actions) > self.horizon:
            raise IllegalStep(f"{len(actions)} actions exceed H={self.horizon}")
        state, rewards = self.initial(), []
        for a in actions:
            state, r = self.step(state, a)
            rewards.append(r)
        return rewards

    def key(self, actions) -> str:
        return self.start_digest + "::" + ",".join(actions)

    def value(self, actions) -> float:
        total, weight = 0.0, 1.0
        for r in self.replay(actions):
            total += weight * r
            weight *= self.gamma
        return total

    def trajectories(self) -> list[tuple[str, ...]]:
        """Every action sequence run to the horizon or to a terminal state."""
        out = []

        def expand(state, actions):
            if len(actions) == self.horizon or self.terminal(state):
                out.append(tuple(actions))
                return
            for a in self.actions:
                expand(self.step(state, a)[0], actions + [a])

        expand(self.initial(), [])
        return out


def levenshtein(a, b) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def edit_distance(a, b) -> float:
    """Edit distance normalized by the longer sequence (0 for equal ones)."""
    if tuple(a) == tuple(b):
        return 0.0
    return levenshtein(a, b) / max(len(a), len(b), 1)


def literal_map(game: Game, candidates, alpha: float, observed) -> str:
    """Key of argmax V(c) - alpha * d(c, observed); ties to higher V, then key."""
    best = None
    for cand in candidates:
        value = game.value(cand)
        rank = (-(value - alpha * edit_distance(cand, observed)), -value,
                game.key(cand))
        if best is None or rank < best:
            best = rank
    return best[2]


def _message_ok(game: Game, tokens) -> bool:
    return (1 <= len(tokens) <= game.max_msg_len
            and all(t in game.vocab for t in tokens))


def _in(lo: float, x, hi: float) -> bool:
    return isinstance(x, (int, float)) and lo <= x <= hi


class Checker:
    """Checks a command's artifacts in the output directory of a config."""

    def __init__(self, config: dict):
        self.game = Game(config["game"])
        self.n = config["run"]["n_episodes"]
        self.seed = config["run"]["seed"]
        self.alpha = config["inference"]["alpha"]
        self.permutations = config["distances"]["permutations"]
        self.codebook_k = config["community"].get("codebook_k", 64)
        self.out = Path(config["run"]["out"])
        self.candidates = self.game.trajectories()
        values = [self.game.value(c) for c in self.candidates]
        self.v_lo, self.v_hi = min(values) - MEAN_SLACK, max(values) + MEAN_SLACK
        self.records = None          # (message, actions) from the last dataset
        self.digests = {}            # (command, artifact) -> first sha256
        self._labels = {}            # observed actions -> literal MAP key

    def check(self, command: str) -> list[str]:
        """Problems with the artifacts `command` just wrote (empty if none)."""
        problems = []
        for name in ARTIFACTS[command]:
            path = self.out / name
            if not path.is_file():
                return [f"{command}: {name} was not written"]
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.digests.setdefault((command, name), digest)
            if digest != first:
                problems.append(f"{command}: {name} differs from the first pass")
        check = getattr(self, "_" + command.replace("-", "_"))
        try:
            problems += check()
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{command}: malformed output ({exc!r})")
        return problems

    def _json(self, name: str):
        with open(self.out / name, encoding="utf-8") as fh:
            return json.load(fh)

    def _gen_community(self) -> list[str]:
        doc = self._json("community.json")
        codebook = doc["codebook"]
        want = len(self.candidates)
        if self.game.kind != "lewis":
            want = min(self.codebook_k, want)
        problems = []
        if doc["seed"] != self.seed:
            problems.append(f"community seed {doc['seed']} != {self.seed}")
        if len(codebook) != want:
            problems.append(f"codebook has {len(codebook)} plans, want {want}")
        plans = [tuple(p) for p in codebook.values()]
        if len(set(plans)) != len(plans):
            problems.append("codebook plans are not distinct")
        for msg, plan in codebook.items():
            if not _message_ok(self.game, msg.split(" ")):
                problems.append(f"codebook message {msg!r} is out of bounds")
            try:
                self.game.replay(plan)
            except IllegalStep as exc:
                problems.append(f"codebook plan {plan}: {exc}")
        return problems

    def _collect(self) -> list[str]:
        problems, records = [], []
        with open(self.out / "dataset.jsonl", encoding="utf-8") as fh:
            next(fh)  # header
            for i, line in enumerate(fh):
                rec = json.loads(line)
                tokens = rec["message"]
                steps = rec["trajectory"]["steps"]
                actions = tuple(a for _, a, _ in steps)
                records.append((" ".join(tokens), actions))
                if rec["episode_seed"] != i:
                    problems.append(f"record {i}: episode seed "
                                    f"{rec['episode_seed']}")
                if not _message_ok(self.game, tokens):
                    problems.append(f"record {i}: message {tokens} is out of "
                                    f"vocab or length bounds")
                if rec["trajectory"]["canonical_key"] != self.game.key(actions):
                    problems.append(f"record {i}: canonical key does not match "
                                    f"its actions")
                try:
                    self.game.replay(actions)
                except IllegalStep as exc:
                    problems.append(f"record {i}: {exc}")
        if len(records) != self.n:
            problems.append(f"{len(records)} records, want {self.n}")
        self.records = records
        return problems[:10]

    def _need_records(self):
        if self.records is None:
            raise ValueError("no dataset was collected to check against")
        return self.records

    def _fit_broca(self) -> list[str]:
        doc = self._json("broca.json")
        exact = Counter((actions, msg) for msg, actions in self._need_records())
        want = {}
        for (actions, msg), count in exact.items():
            want.setdefault(self.game.key(actions), {})[msg] = count
        problems = []
        if doc["table"] != want:
            problems.append("broca exact table differs from the dataset counts")
        for name in ("table", "backoff_table"):
            total = sum(sum(h.values()) for h in doc[name].values())
            if total != self.n:
                problems.append(f"broca {name} counts sum to {total}, "
                                f"want {self.n}")
        return problems

    def _fit_wernicke(self) -> list[str]:
        doc = self._json("wernicke.json")
        want: dict[str, dict[str, int]] = {}
        for msg, actions in self._need_records():
            label = self._labels.get(actions)
            if label is None:
                label = literal_map(self.game, self.candidates, self.alpha,
                                    actions)
                self._labels[actions] = label
            hist = want.setdefault(msg, {})
            hist[label] = hist.get(label, 0) + 1
        problems = []
        total = sum(sum(h.values()) for h in doc["table"].values())
        if total != self.n:
            problems.append(f"wernicke counts sum to {total}, want {self.n}")
        if doc["table"] != want:
            problems.append("wernicke counts differ from the brute-force "
                            "literal MAP counts")
        return problems

    def _report(self, columns, flat: dict, rates, values, distances):
        problems = []
        if flat["n"] != self.n:
            problems.append(f"report n={flat['n']}, want {self.n}")
        for name in rates + distances:
            if not _in(0.0, flat[name], 1.0):
                problems.append(f"{name}={flat[name]} is outside [0, 1]")
        for name in values:
            if not _in(self.v_lo, flat[name], self.v_hi):
                problems.append(f"{name}={flat[name]} is outside "
                                f"[min V, max V]")
        with open(self.out / "report.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 2 or rows[0] != columns:
            return problems + ["report CSV header is not the documented one"]
        got = [int(rows[1][0])] + [float(x) for x in rows[1][1:]]
        if got != [flat[c] for c in columns]:
            problems.append("report CSV row differs from the JSON report")
        return problems

    def _eval_speaker(self) -> list[str]:
        doc = self._json("report.json")
        flat = {"n": doc["n"], "success_rate": doc["success_rate"],
                "mean_return": doc["mean_return"]}
        for arm in ("oracle", "random"):
            for key, val in doc["baselines"][arm].items():
                flat[f"{arm}_{key}"] = val
        return self._report(
            SPEAKER_COLUMNS, flat,
            rates=["success_rate", "oracle_success_rate",
                   "random_success_rate"],
            values=["mean_return", "oracle_mean_return", "random_mean_return"],
            distances=[])

    def _eval_listener(self) -> list[str]:
        doc = self._json("report.json")
        flat = {"n": doc["n"], "recovery_rate": doc["recovery_rate"],
                "mean_distance": doc["mean_distance"],
                "mean_target_value": doc["mean_target_value"]}
        for key, val in doc["literal_baseline"].items():
            flat[f"literal_{key}"] = val
        return self._report(
            LISTENER_COLUMNS, flat,
            rates=["recovery_rate", "literal_recovery_rate"],
            values=["mean_target_value", "literal_mean_target_value"],
            distances=["mean_distance", "literal_mean_distance"])

    def _detect(self) -> list[str]:
        doc = self._json("report.json")
        sig, lis = doc["positive_signalling"], doc["positive_listening"]
        problems = []
        scaled = sig["p_value"] * (self.permutations + 1)
        exceed = round(scaled)
        if abs(scaled - exceed) > 1e-6 or not 1 <= exceed <= self.permutations + 1:
            problems.append(f"signalling p-value {sig['p_value']} is not "
                            f"k / {self.permutations + 1} for k >= 1")
        if not _in(0.0, lis["statistic"], 1.0):
            problems.append(f"listening statistic {lis['statistic']} is "
                            f"outside [0, 1]")
        if lis["detected"] is not True:
            problems.append("listening was not detected for a codebook listener")
        return problems
