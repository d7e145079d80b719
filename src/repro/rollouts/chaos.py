"""Worker-chaos harness: kill real rollout workers, prove the invariants.

:class:`RolloutChaosHarness` is the rollout plug-in over the campaign
core (:mod:`repro.core.chaos`).  Per seed it runs one parallel campaign
of real dispatch simulations under a ``worker-*`` fault profile —
actual process deaths mid-episode, heartbeat-starving stalls,
checksum-breaking corruptions — and judges the outcome against explicit
invariants rather than vibes:

* **zero lost episodes** — every episode is merged or quarantined;
* **equivalence** — the merged output over non-quarantined episodes is
  bit-identical to the serial seed path (same fingerprint);
* **quarantine accounting** — every quarantined episode has a full
  incident record, and under ``worker-kill`` the quarantined set equals
  the injector's poison set exactly (no over- or under-quarantine);
* **chaos bit** — when the profile schedules kills, workers really died
  (a chaos run that didn't hurt proves nothing).

The CLI (``repro chaos --profile worker-*``) turns violations into a
nonzero exit so CI can gate on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.chaos import (
    CampaignConfig,
    ChaosCampaign,
    SeedVerdict,
    eval_window,
)
from repro.data import DatasetSpec, build_dataset
from repro.faults.models import WorkerFaultInjector
from repro.faults.profiles import get_worker_profile
from repro.rollouts.executor import (
    RolloutConfig,
    RolloutExecutor,
    RolloutReport,
    run_rollouts_serial,
)
from repro.rollouts.spec import EpisodeSpec
from repro.rollouts.tasks import EvalRolloutTask

#: Seed of the episode specs (the campaign identity); the per-run chaos
#: seed drives only the fault injector.
CAMPAIGN_SEED = 7
#: Supervision tuned for CI-sized campaigns: a killed worker is noticed
#: within seconds, and the restart budget covers every scheduled kill.
HEARTBEAT_TIMEOUT_S = 3.0
BEAT_INTERVAL_S = 0.05
MAX_WORKER_RESTARTS = 64


@dataclass(frozen=True)
class RolloutChaosConfig(CampaignConfig):
    """One worker-chaos campaign: profile, seeds, world size, topology."""

    profile: str = "worker-kill"
    episodes: int = 8
    num_workers: int = 2
    population_size: int = 250
    num_teams: int = 10
    window_days: float = 0.25
    profile_lookups = (get_worker_profile,)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.episodes < 1:
            raise ValueError("episodes must be positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be positive")
        if self.window_days <= 0:
            raise ValueError("evaluation window must be positive")


class RolloutChaosHarness(ChaosCampaign[RolloutChaosConfig]):
    """The rollout plug-in: one eval world, seeded parallel campaigns."""

    config_type = RolloutChaosConfig
    label = "worker chaos"
    invariants = ("zero_lost_ok", "equivalence_ok", "quarantine_ok", "chaos_bit_ok")

    def __init__(self, config: RolloutChaosConfig | None = None) -> None:
        super().__init__(config)
        cfg = self.config
        scenario, bundle = build_dataset(
            DatasetSpec(storm="florence", population_size=cfg.population_size)
        )
        t0_s, t1_s, requests = eval_window(scenario, bundle, cfg.window_days)
        self.task = EvalRolloutTask(
            scenario=scenario,
            requests=tuple(requests),
            t0_s=t0_s,
            t1_s=t1_s,
            num_teams=cfg.num_teams,
        )
        self.specs = [
            EpisodeSpec(i, self.task.kind, seed=CAMPAIGN_SEED)
            for i in range(cfg.episodes)
        ]
        self.executor_config = RolloutConfig(
            num_workers=cfg.num_workers,
            heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S,
            beat_interval_s=BEAT_INTERVAL_S,
            max_worker_restarts=MAX_WORKER_RESTARTS,
        )
        # The serial reference depends only on the campaign, not on the
        # chaos seed: compute it once for every seed's judgment.
        self.serial = run_rollouts_serial(self.task, self.specs)

    def reference(self, verdict: SeedVerdict, work: None) -> WorkerFaultInjector:
        """The seed's fault injector: the serial reference is per campaign."""
        return WorkerFaultInjector(
            get_worker_profile(self.config.profile), seed=verdict.seed
        )

    def chaos(self, seed: int, injector: WorkerFaultInjector) -> RolloutReport:
        return RolloutExecutor(
            self.task,
            self.executor_config,
            seed=CAMPAIGN_SEED,
            fault_injector=injector,
        ).run(self.specs)

    def judge(
        self,
        verdict: SeedVerdict,
        injector: WorkerFaultInjector,
        report: RolloutReport | None,
    ) -> None:
        episode_ids = [s.episode_id for s in self.specs]
        expected_poison = sorted(eid for eid in episode_ids if injector.poisoned(eid))
        verdict.fields.update(
            worker_deaths=0,
            quarantined_ids=[],
            expected_poison=expected_poison,
            chaos={},
        )
        if report is None:
            return
        quarantined = list(report.quarantined_ids)
        verdict.fields.update(
            worker_deaths=report.worker_deaths,
            quarantined_ids=quarantined,
            chaos=report.summary(),
        )
        lost = report.total - report.completed - len(quarantined)
        verdict.check("zero_lost_ok", report.zero_lost, f"{lost} episodes lost")

        reference = self.serial.merged.restrict(
            eid for eid in episode_ids if eid not in quarantined
        )
        verdict.check(
            "equivalence_ok",
            reference.fingerprint() == report.merged.fingerprint(),
            "merged output diverges from the serial path",
        )

        recorded = {
            i.episode_id
            for i in report.incidents
            if i.kind == "quarantine" and i.episode_id is not None
        }
        verdict.check(
            "quarantine_ok",
            set(quarantined) <= recorded,
            f"quarantined episodes {sorted(set(quarantined) - recorded)} "
            "lack incident records",
        )
        if self.config.profile == "worker-kill":
            verdict.check(
                "quarantine_ok",
                quarantined == expected_poison,
                f"quarantined {quarantined} != injected poison set "
                f"{expected_poison}",
            )

        attempts = self.executor_config.retry.max_attempts
        if injector.schedules_kills(episode_ids, attempts):
            verdict.check(
                "chaos_bit_ok",
                report.worker_deaths > 0,
                "kills were scheduled but no worker died",
            )

    def header(self, runs: list[dict[str, Any]]) -> dict[str, Any]:
        cfg = self.config
        return {
            "episodes": cfg.episodes,
            "num_workers": cfg.num_workers,
            "serial_fingerprint": self.serial.merged.fingerprint(),
        }

    @staticmethod
    def describe(run: dict[str, Any]) -> str:
        return (
            f"worker deaths {run['worker_deaths']}, "
            f"quarantined {run['quarantined_ids']}"
        )
