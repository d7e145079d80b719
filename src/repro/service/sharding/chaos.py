"""Shard-level chaos: kill shards mid-run, then prove the invariants.

:class:`ShardChaosHarness` is the sharded-topology plug-in over the
campaign core (:mod:`repro.core.chaos`), in the same world as the
service plug-in.  Per seed it runs:

1. a **clean unsharded service run** — the PR 5 reference;
2. a **clean sharded run** — asserted **bit-identical** to (1), so the
   whole sharding layer demonstrably costs nothing when healthy;
3. a **shard-chaos run** under a named shard-fault profile (kill /
   stall / hot-shard skew windows from :mod:`repro.faults`).

The chaos run is judged against explicit invariants: no exception
escaped, every dispatch tick completed (a dead shard never stalls the
loop), every failover re-covered its keyspace within the supervisor's
budget, per-shard record accounting reconciles exactly, and the served
count stayed within the degradation factor of the clean run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, cast

from repro.core.chaos import ChaosCampaign, SeedVerdict
from repro.faults.models import ShardFaultInjector
from repro.faults.profiles import get_shard_profile
from repro.service.chaos import ChaosConfig, ServiceWorld, check_served
from repro.service.loop import ServiceReport
from repro.service.sharding.service import (
    ShardedDispatchService,
    ShardedServiceReport,
    ShardingConfig,
)


@dataclass(frozen=True)
class ShardChaosConfig(ChaosConfig):
    """A shard chaos campaign: the service campaign plus the topology.

    ``profile`` names a :data:`~repro.faults.profiles.SHARD_PROFILES`
    entry.
    """

    profile: str = "shard-blackout"
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    profile_lookups = (get_shard_profile,)


class ShardChaosHarness(ChaosCampaign[ShardChaosConfig]):
    """The shard plug-in: unsharded/sharded/shard-chaos triples."""

    config_type = ShardChaosConfig
    label = "shard chaos"
    invariants = (
        "equivalence_ok",
        "ticks_ok",
        "failover_budget_ok",
        "reconciliation_ok",
        "degradation_ok",
    )

    def __init__(self, config: ShardChaosConfig | None = None) -> None:
        super().__init__(config)
        self.world = ServiceWorld(self.config)

    def sharded_service(
        self, seed: int, shard_faults: ShardFaultInjector | None = None
    ) -> ShardedDispatchService:
        return cast(
            ShardedDispatchService,
            self.world.service(
                seed,
                ShardedDispatchService,
                sharding=self.config.sharding,
                shard_faults=shard_faults,
            ),
        )

    def reference(
        self, verdict: SeedVerdict, work: None
    ) -> tuple[ServiceReport, ShardedServiceReport]:
        unsharded = self.world.service(verdict.seed).run()
        sharded = self.sharded_service(verdict.seed).run()
        verdict.check(
            "equivalence_ok",
            unsharded.result == sharded.result,
            "clean sharded run diverged from the unsharded service run "
            f"(served {sharded.result.num_served} "
            f"vs {unsharded.result.num_served})",
        )
        if not sharded.all_ticks_completed:
            verdict.violate(
                f"clean sharded run skipped ticks "
                f"({sharded.ticks_completed}/{sharded.ticks_expected})"
            )
        return unsharded, sharded

    def chaos(
        self, seed: int, reference: Any
    ) -> tuple[ShardedDispatchService, ShardedServiceReport]:
        world = self.world
        service = self.sharded_service(
            seed,
            ShardFaultInjector(
                get_shard_profile(self.config.profile),
                world.t0_s,
                world.t1_s,
                seed=seed,
            ),
        )
        return service, service.run()

    def judge(
        self,
        verdict: SeedVerdict,
        reference: tuple[ServiceReport, ShardedServiceReport],
        outcome: tuple[ShardedDispatchService, ShardedServiceReport] | None,
    ) -> None:
        unsharded, sharded = reference
        clean_served = unsharded.result.num_served
        verdict.fields.update(
            clean_served=clean_served,
            chaos_served=0,
            clean=sharded.summary(),
            chaos={},
        )
        if outcome is None:
            return
        service, report = outcome
        chaos_served = report.result.num_served
        verdict.fields.update(chaos_served=chaos_served, chaos=report.summary())
        verdict.check(
            "ticks_ok",
            report.all_ticks_completed,
            f"shard chaos run skipped ticks "
            f"({report.ticks_completed}/{report.ticks_expected})",
        )
        supervisor = service.supervisor
        verdict.check(
            "failover_budget_ok",
            supervisor.within_failover_budget(),
            f"keyspace went uncovered for {supervisor.max_uncovered_cycles()} "
            f"cycles (budget {supervisor.config.failover_budget_cycles})",
        )
        verdict.check(
            "reconciliation_ok",
            service.sharded_guard.reconciles(),
            "per-shard record accounting does not reconcile "
            "(accepted+transferred != "
            "drained+queued+shed+transferred_out+lost)",
        )
        check_served(
            verdict,
            self.config.degradation_factor,
            clean_served,
            chaos_served,
            self.label,
        )

    def header(self, runs: list[dict[str, Any]]) -> dict[str, Any]:
        cfg = self.config
        return {
            "population_size": cfg.population_size,
            "num_teams": cfg.num_teams,
            "window_days": cfg.window_days,
            "degradation_factor": cfg.degradation_factor,
            "num_shards": cfg.sharding.num_shards,
        }

    @staticmethod
    def describe(run: dict[str, Any]) -> str:
        return (
            f"clean served {run['clean_served']}, "
            f"shard chaos served {run['chaos_served']}"
        )
