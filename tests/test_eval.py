import math

import pytest

from cooplang import (
    CommunityConfig,
    MapConfig,
    build_community,
    collect,
    eval_listener,
    eval_speaker,
    fit_broca,
    fit_wernicke,
    report_csv,
)
from cooplang.errors import ConfigError


@pytest.fixture
def fitted_noiseless(noiseless_lewis_community):
    com = noiseless_lewis_community
    dataset = collect(com, 200, master_seed=0)
    broca = fit_broca(dataset, com.game)
    wernicke = fit_wernicke(dataset, com.game, MapConfig(alpha=1000.0))
    return com, broca, wernicke


class TestEvalSpeaker:
    def test_noiseless_round_trip_is_perfect(self, fitted_noiseless):
        com, broca, _ = fitted_noiseless
        report = eval_speaker(broca, com, n=200, seed=1)
        assert report.success_rate == 1.0

    def test_matches_oracle_baseline_exactly(self, fitted_noiseless):
        com, broca, _ = fitted_noiseless
        report = eval_speaker(broca, com, n=200, seed=1)
        oracle = report.baselines["oracle"]
        assert report.success_rate == oracle["success_rate"]
        assert report.mean_return == oracle["mean_return"]

    def test_random_baseline_near_chance(self, fitted_noiseless):
        com, broca, _ = fitted_noiseless
        n = 3000
        report = eval_speaker(broca, com, n=n, seed=2)
        p = 1 / 3
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(report.baselines["random"]["success_rate"] - p) <= 3 * sigma

    def test_zero_episodes_rejected(self, fitted_noiseless):
        com, broca, _ = fitted_noiseless
        with pytest.raises(ConfigError):
            eval_speaker(broca, com, n=0, seed=0)

    def test_deterministic_reports(self, fitted_noiseless):
        com, broca, _ = fitted_noiseless
        a = eval_speaker(broca, com, n=100, seed=5)
        b = eval_speaker(broca, com, n=100, seed=5)
        assert a == b

    def test_emits_once_per_target(self, fitted_noiseless, monkeypatch):
        import cooplang.evaluation

        com, broca, _ = fitted_noiseless
        emitted = []
        real = cooplang.evaluation.broca_emit

        def counting(model, target):
            emitted.append(target.canonical_key)
            return real(model, target)

        monkeypatch.setattr(cooplang.evaluation, "broca_emit", counting)
        eval_speaker(broca, com, n=300, seed=5)
        assert 0 < len(emitted) == len(set(emitted)) <= len(com.game.table.trajs)


class TestEvalListener:
    def test_noiseless_recovery_is_perfect(self, fitted_noiseless):
        com, _, wernicke = fitted_noiseless
        report = eval_listener(wernicke, com, n=200, seed=1)
        assert report.recovery_rate == 1.0
        assert report.literal_baseline["recovery_rate"] == 1.0

    def test_zero_distance_iff_full_recovery(self, fitted_noiseless):
        com, _, wernicke = fitted_noiseless
        report = eval_listener(wernicke, com, n=200, seed=1)
        assert (report.mean_distance == 0.0) == (report.recovery_rate == 1.0)

    def test_deterministic_reports(self, fitted_noiseless):
        com, _, wernicke = fitted_noiseless
        a = eval_listener(wernicke, com, n=100, seed=5)
        b = eval_listener(wernicke, com, n=100, seed=5)
        assert a == b

    def test_noisy_decoder_not_worse_than_literal(self, lewis3):
        cfg = CommunityConfig(game=lewis3, temp_msg=1.0)
        com = build_community(cfg, 42)
        dataset = collect(com, 500, master_seed=42)
        wernicke = fit_wernicke(dataset, lewis3, MapConfig(alpha=1.0))
        report = eval_listener(wernicke, com, n=500, seed=42)
        assert report.recovery_rate \
            >= report.literal_baseline["recovery_rate"]


class TestReportCsv:
    def test_speaker_csv_shape(self, fitted_noiseless):
        com, broca, _ = fitted_noiseless
        text = report_csv(eval_speaker(broca, com, n=50, seed=0))
        header, row = text.strip().split("\n")
        assert header.split(",")[0] == "n"
        assert len(header.split(",")) == len(row.split(","))

    def test_listener_csv_shape(self, fitted_noiseless):
        com, _, wernicke = fitted_noiseless
        text = report_csv(eval_listener(wernicke, com, n=50, seed=0))
        header, row = text.strip().split("\n")
        assert "recovery_rate" in header
        assert len(header.split(",")) == len(row.split(","))
