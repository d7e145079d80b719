"""Training chaos harness: fault-composed self-healing runs, judged.

``repro chaos --profile train-*`` runs, per seed:

1. a **baseline** — plain ``train_mobirescue``, sentinel off;
2. a **clean sentinel run** — must be *bit-identical* to the baseline
   (weights, Adam state, replay buffer, RNG state, reward trace);
3. a **chaos run** — the profile's training faults injected mid-episode
   through the same observer tap that screens them.

The chaos run is then held to the harness invariants:

* **detection**: every applied fault has a matching anomaly in the same
  ``(episode, attempt)`` window (bitrot: matched per rotten checkpoint,
  detected by rollback quarantine or the final sweep);
* **recovery floor**: a recovered (non-aborted) run's mean service rate
  stays within ``recovery_floor`` of the baseline's;
* **checkpoint hygiene**: every checkpoint still committed after the
  run loads cleanly and passes the full sentinel screens — no anomaly
  ever escapes into a committed artifact;
* **blackout**: a persistent-fault profile must *abort* with a
  manifest-complete forensics bundle instead of committing progress.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Any, ContextManager

import numpy as np

from repro.core.artifacts import verify_artifact_dir
from repro.core.chaos import CampaignConfig, ChaosCampaign, SeedVerdict
from repro.core.config import MobiRescueConfig
from repro.core.training import train_mobirescue
from repro.data import DatasetSpec, build_dataset
from repro.data.charlotte import CharlotteScenario
from repro.faults.models import TrainingFaultInjector
from repro.faults.profiles import get_train_profile
from repro.mobility.generator import TraceBundle
from repro.training.health import (
    KIND_CHECKPOINT_BITROT,
    SentinelConfig,
    TrainingSentinel,
)
from repro.training.loop import (
    FORENSICS_FORMAT,
    SentinelTrainingResult,
    sentinel_training,
)

#: Which anomaly kinds legitimately betray each injected fault family.
#: (A NaN weight shows up as a NaN loss *or* a NaN parameter scan; a
#: reward spike as a replay-bound hit or the divergence it seeds.)
DETECTION_MAP: dict[str, tuple[str, ...]] = {
    "nan-gradient": ("nan-loss", "nan-param", "grad-explosion", "q-explosion"),
    "corrupt-replay": ("replay-corrupt", "nan-loss", "nan-param", "grad-explosion"),
    "reward-spike": (
        "replay-reward-bound", "td-divergence", "q-explosion", "grad-explosion",
    ),
}


#: The storm the campaign trains on, and its fleet's team capacity.
STORM = "michael"
TEAM_CAPACITY = 5


@dataclass(frozen=True)
class TrainChaosConfig(CampaignConfig):
    """One training-chaos campaign."""

    profile: str = "train-severe"
    seeds: tuple[int, ...] = (0,)
    episodes: int = 3
    population_size: int = 300
    num_teams: int = 10
    #: Mean chaos service rate must reach this fraction of baseline.
    recovery_floor: float = 0.5
    #: Persist run directories (checkpoints, journals, forensics) under
    #: this path instead of a throwaway tempdir — CI uploads them.
    work_dir: str | None = None
    profile_lookups = (get_train_profile,)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.episodes < 1:
            raise ValueError("episodes must be positive")
        if self.population_size < 1 or self.num_teams < 1:
            raise ValueError("population/teams must be positive")
        if not (0.0 < self.recovery_floor <= 1.0):
            raise ValueError("recovery_floor must be in (0, 1]")


def _agent_states_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _matches(applied: dict, anomaly: dict) -> bool:
    if applied["kind"] == "checkpoint-bitrot":
        return (
            anomaly["kind"] == KIND_CHECKPOINT_BITROT
            and anomaly["value"] == float(applied["checkpoint"])
        )
    return (
        anomaly["kind"] in DETECTION_MAP[str(applied["kind"])]
        and anomaly["episode"] == applied["episode"]
        and anomaly["attempt"] == applied["attempt"]
    )


class TrainChaosHarness(ChaosCampaign[TrainChaosConfig]):
    """The training plug-in: one small world, each seed judged against it."""

    config_type = TrainChaosConfig
    label = "training chaos"
    invariants = ("clean_identical",)

    def __init__(
        self,
        config: TrainChaosConfig | None = None,
        dataset: tuple[CharlotteScenario, TraceBundle] | None = None,
    ) -> None:
        super().__init__(config)
        if dataset is None:
            dataset = build_dataset(
                DatasetSpec(storm=STORM, population_size=self.config.population_size)
            )
        self.scenario, self.bundle = dataset
        self.profile = get_train_profile(self.config.profile)

    # -- per-seed runs --------------------------------------------------------

    def workspace(self, seed: int) -> ContextManager[Any]:
        if self.config.work_dir is None:
            return tempfile.TemporaryDirectory(prefix="train-chaos-")
        work = pathlib.Path(self.config.work_dir) / f"seed-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        return contextlib.nullcontext(work)

    def _sentinel_run(
        self,
        seed: int,
        checkpoint_dir: pathlib.Path,
        injector: TrainingFaultInjector | None,
    ) -> SentinelTrainingResult:
        c = self.config
        return sentinel_training(
            self.scenario,
            self.bundle,
            MobiRescueConfig(seed=seed),
            episodes=c.episodes,
            num_teams=c.num_teams,
            team_capacity=TEAM_CAPACITY,
            checkpoint_dir=checkpoint_dir,
            # Nothing may be pruned away before the hygiene sweep judges it.
            keep_checkpoints=c.episodes + 2,
            injector=injector,
        )

    def reference(self, verdict: SeedVerdict, work: str | pathlib.Path) -> pathlib.Path:
        """The sentinel-off baseline and the fault-free sentinel run."""
        c, seed, work = self.config, verdict.seed, pathlib.Path(work)
        baseline = train_mobirescue(
            self.scenario,
            self.bundle,
            MobiRescueConfig(seed=seed),
            episodes=c.episodes,
            num_teams=c.num_teams,
            team_capacity=TEAM_CAPACITY,
        )
        verdict.fields["baseline_rates"] = list(baseline.episode_service_rates)
        clean = self._sentinel_run(seed, work / "clean", injector=None)
        if clean.trained is None:
            verdict.check(
                "clean_identical", False, "clean sentinel run did not produce a model"
            )
        else:
            verdict.check(
                "clean_identical",
                _agent_states_equal(
                    baseline.agent.get_state(), clean.trained.agent.get_state()
                )
                and baseline.episode_service_rates
                == clean.trained.episode_service_rates,
                "clean sentinel run diverged from sentinel-off baseline",
            )
        if clean.anomalies:
            verdict.violate(f"clean run raised {len(clean.anomalies)} false anomalies")
        return work / "chaos"

    def chaos(self, seed: int, chaos_dir: pathlib.Path) -> SentinelTrainingResult:
        injector = TrainingFaultInjector(self.profile, seed=seed)
        return self._sentinel_run(seed, chaos_dir, injector=injector)

    # -- invariants -----------------------------------------------------------

    def _check_detection(
        self, verdict: SeedVerdict, chaos: SentinelTrainingResult
    ) -> None:
        for applied in chaos.applied:
            if not any(_matches(applied, a) for a in chaos.anomalies):
                verdict.violate(
                    f"undetected fault: {applied['kind']} at episode "
                    f"{applied['episode']} attempt {applied['attempt']}"
                )

    def _check_recovery_floor(self, verdict: SeedVerdict) -> None:
        floor = self.config.recovery_floor
        baseline_rates = verdict.fields["baseline_rates"]
        chaos_rates = verdict.fields["chaos_rates"]
        base = float(np.mean(baseline_rates)) if baseline_rates else 0.0
        if base <= 0.0:
            return
        chaos = float(np.mean(chaos_rates)) if chaos_rates else 0.0
        if chaos < floor * base:
            verdict.violate(
                f"recovered service rate {chaos:.3f} below floor "
                f"{floor:.2f} x baseline {base:.3f}"
            )

    def _check_checkpoint_hygiene(
        self, verdict: SeedVerdict, checkpoint_dir: pathlib.Path
    ) -> None:
        """Every *surviving* checkpoint must load and pass full screens."""
        from repro.core import persistence
        from repro.core.rl_dispatcher import make_agent

        paths = persistence.list_checkpoints(checkpoint_dir)
        verdict.fields["committed_checkpoints"] = len(paths)
        for path in paths:
            try:
                checkpoint = persistence.load_checkpoint(path)
            except Exception as exc:  # repro: allow-broad-except -- any load failure is a violation
                verdict.violate(f"committed checkpoint {path.name} does not load: {exc}")
                continue
            agent = make_agent(checkpoint.config)
            agent.set_state(checkpoint.agent_state)
            probe = TrainingSentinel(SentinelConfig())
            probe.begin_attempt(-1, -1)
            probe.screen_params(agent)
            probe.screen_replay(agent.buffer)
            leaked = probe.drain()
            for anomaly in leaked:
                verdict.violate(
                    f"anomaly escaped into {path.name}: {anomaly.kind} "
                    f"({anomaly.detail})"
                )

    def _check_forensics(
        self, verdict: SeedVerdict, result: SentinelTrainingResult
    ) -> None:
        verdict.fields["forensics_complete"] = False
        path = result.forensics_path
        if path is None:
            verdict.violate("aborted without a forensics bundle")
            return
        try:
            verify_artifact_dir(path)
        except Exception as exc:  # repro: allow-broad-except -- any defect fails the bundle
            verdict.violate(f"forensics bundle incomplete: {exc}")
            return
        with open(path / "incidents.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        agent_state_ok = (path / "agent_state.npz").exists()
        if payload.get("format") != FORENSICS_FORMAT or not agent_state_ok:
            verdict.violate("forensics bundle malformed")
            return
        verdict.fields["forensics_complete"] = True

    # -- the judge ------------------------------------------------------------

    def judge(
        self,
        verdict: SeedVerdict,
        chaos_dir: pathlib.Path,
        chaos: SentinelTrainingResult | None,
    ) -> None:
        applied = list(chaos.applied) if chaos else []
        anomalies = list(chaos.anomalies) if chaos else []
        trained = chaos.trained if chaos else None
        verdict.fields.update(
            profile=self.config.profile,
            aborted=bool(chaos and chaos.aborted),
            forensics_complete=None,
            applied=applied,
            applied_count=len(applied),
            anomalies=anomalies,
            anomaly_kinds=dict(Counter(str(a["kind"]) for a in anomalies)),
            recoveries=list(chaos.recoveries) if chaos else [],
            chaos_rates=list(trained.episode_service_rates) if trained else [],
            committed_checkpoints=0,
        )
        if chaos is None:
            return
        self._check_detection(verdict, chaos)
        self._check_checkpoint_hygiene(verdict, chaos_dir)
        if self.profile.nan_gradient.persistent:
            if not chaos.aborted:
                verdict.violate("persistent-fault profile completed instead of aborting")
            self._check_forensics(verdict, chaos)
        elif chaos.aborted:
            verdict.violate("transient-fault profile aborted")
        else:
            self._check_recovery_floor(verdict)

    def header(self, runs: list[dict[str, Any]]) -> dict[str, Any]:
        c = self.config
        return {
            "episodes": c.episodes,
            "population_size": c.population_size,
            "num_teams": c.num_teams,
            "recovery_floor": c.recovery_floor,
            "applied_total": sum(run["applied_count"] for run in runs),
            "anomaly_total": sum(len(run["anomalies"]) for run in runs),
        }

    @staticmethod
    def describe(run: dict[str, Any]) -> str:
        return (
            f"{run['applied_count']} faults applied, "
            f"{len(run['anomalies'])} anomalies, "
            f"{len(run['recoveries'])} recoveries"
            f"{', ABORTED' if run['aborted'] else ''}"
        )
