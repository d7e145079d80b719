"""The chaos campaign core and what every plug-in inherits from it.

The core tests drive a toy plug-in with no world.  The per-surface
tests check the four real plug-ins through ``repro chaos``: an unknown
profile fails before any dataset is built, and an exception escaping
one seed's chaos run is a recorded violation, so the next seed still
runs, the report is still written and the command exits 1.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.core.chaos import CampaignConfig, ChaosCampaign
from repro.rollouts.chaos import RolloutChaosHarness
from repro.service.chaos import ChaosHarness
from repro.service.sharding.chaos import ShardChaosHarness
from repro.training.chaos import TrainChaosHarness


class ToyCampaign(ChaosCampaign[CampaignConfig]):
    """Seed ``s`` yields ``s - 2``: seed 0 escapes, negatives violate."""

    label = "toy chaos"
    invariants = ("positive_ok",)

    def reference(self, verdict, work):
        return 2

    def chaos(self, seed, reference):
        if seed == 0:
            raise RuntimeError("boom")
        return seed - reference

    def judge(self, verdict, reference, outcome):
        verdict.fields["outcome"] = outcome
        if outcome is not None:
            verdict.check("positive_ok", outcome > 0, f"outcome {outcome} <= 0")

    def header(self, runs):
        return {"outcomes": [run["outcome"] for run in runs]}

    @staticmethod
    def describe(run):
        return f"outcome {run['outcome']}"


class TestCore:
    def test_needs_a_seed(self):
        with pytest.raises(ValueError, match="need at least one seed"):
            CampaignConfig(seeds=())

    def test_profile_resolves_at_construction(self):
        def lookup(name):
            if name != "known":
                raise ValueError(f"unknown profile {name!r}")

        class Config(CampaignConfig):
            profile_lookups = (lookup,)

        assert Config(profile="known").profile == "known"
        with pytest.raises(ValueError, match="unknown profile 'typo'"):
            Config(profile="typo")

    def test_escape_is_a_violation_and_later_seeds_run(self, tmp_path):
        out = tmp_path / "report.json"
        report = ToyCampaign(CampaignConfig(profile="toy", seeds=(0, 3, 1))).run(
            out_path=out
        )
        first, second, third = report["runs"]
        # An unchecked invariant reads true; only the escape is recorded.
        assert first["no_escape"] is False and first["positive_ok"] is True
        assert second == {
            "seed": 3,
            "ok": True,
            "positive_ok": True,
            "no_escape": True,
            "outcome": 1,
            "violations": [],
        }
        assert third["no_escape"] is True and third["positive_ok"] is False
        assert report["ok"] is False
        assert report["violations"] == [
            "seed 0: exception escaped the toy chaos run (RuntimeError: boom)",
            "seed 1: outcome -1 <= 0",
        ]
        assert report["profile"] == "toy"
        assert report["seeds"] == [0, 3, 1]
        assert report["outcomes"] == [None, 1, -1]
        assert json.loads(out.read_text()) == report

    def test_progress_names_each_seed(self):
        messages = []
        ToyCampaign(CampaignConfig(profile="toy", seeds=(3, 4))).run(messages.append)
        assert messages == [
            "toy chaos seed 3 under 'toy'...",
            "toy chaos seed 4 under 'toy'...",
        ]

    def test_line(self):
        assert ToyCampaign.line({"seed": 3, "ok": True, "outcome": 1}) == (
            "seed 3: outcome 1, OK"
        )
        assert ToyCampaign.line({"seed": 1, "ok": False, "outcome": -1}) == (
            "seed 1: outcome -1, VIOLATED"
        )


@pytest.mark.parametrize(
    "harness_type, profile, world_module",
    [
        pytest.param(ChaosHarness, "sever", "repro.service.chaos", id="service"),
        pytest.param(ShardChaosHarness, "shard-typo", "repro.service.chaos", id="shard"),
        pytest.param(
            RolloutChaosHarness, "worker-typo", "repro.rollouts.chaos", id="worker"
        ),
        pytest.param(TrainChaosHarness, "train-typo", "repro.training.chaos", id="train"),
    ],
)
def test_unknown_profile_fails_before_any_dataset_build(
    harness_type, profile, world_module, monkeypatch, capsys
):
    def build_dataset(spec):
        raise AssertionError("a dataset was built for an unknown profile")

    monkeypatch.setattr(f"{world_module}.build_dataset", build_dataset)
    with pytest.raises(ValueError, match="unknown"):
        harness_type(harness_type.config_type(profile=profile))
    assert main(["chaos", "--profile", profile, "--quick"]) == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize(
    "harness_type, profile",
    [
        pytest.param(ChaosHarness, "severe", id="service"),
        pytest.param(ShardChaosHarness, "shard-blackout", id="shard"),
        pytest.param(RolloutChaosHarness, "worker-kill", id="worker"),
        pytest.param(TrainChaosHarness, "train-none", id="train"),
    ],
)
def test_escape_on_seed_0_keeps_the_campaign(
    harness_type, profile, monkeypatch, tmp_path, capsys
):
    real_chaos = harness_type.chaos

    def chaos(self, seed, reference):
        if seed == 0:
            raise RuntimeError("injected escape")
        return real_chaos(self, seed, reference)

    monkeypatch.setattr(harness_type, "chaos", chaos)
    if harness_type is TrainChaosHarness:
        # Two baseline/clean training pairs would dominate the test's
        # time, and nothing under test reads them.
        def reference(self, verdict, work):
            verdict.fields["baseline_rates"] = []
            return pathlib.Path(work) / "chaos"

        monkeypatch.setattr(harness_type, "reference", reference)

    out = tmp_path / "report.json"
    argv = ["chaos", "--profile", profile, "--quick", "--seeds", "0,1", "--out", str(out)]
    assert main(argv) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False
    assert report["violations"][0].startswith("seed 0: exception escaped ")
    assert report["violations"][0].endswith("(RuntimeError: injected escape)")
    first, second = report["runs"]
    assert first["seed"] == 0 and first["no_escape"] is False
    assert second["seed"] == 1 and second["no_escape"] is True
    assert second["ok"], second["violations"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("seed 0: ") and printed[0].endswith(", VIOLATED")
    assert printed[1].startswith("seed 1: ") and printed[1].endswith(", OK")
    assert printed[2] == f"wrote {out}"
