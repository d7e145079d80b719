"""Composable chaos harness: break everything, then prove the invariants.

:class:`ChaosHarness` is the service plug-in over the campaign core
(:mod:`repro.core.chaos`).  Per seed it runs:

1. a **plain engine run** of a fresh MobiRescue system — the golden
   baseline;
2. a **clean service run** (all guards wired, zero faults) of an
   identically-built system — asserted **bit-identical** to the baseline,
   so the armour demonstrably costs nothing when nothing is broken;
3. a **chaos run** composing the environment fault profile from
   :mod:`repro.faults` (GPS dropouts, comm loss, breakdowns, closures,
   dispatch-center failures) with the component-level profile (predictor
   exceptions, policy latency spikes, corrupt-record storms).

The chaos run is then judged against explicit invariants rather than
vibes: every dispatch tick completed, no exception escaped the service,
and the served count stayed within ``degradation_factor`` of the clean
run.  Any violation is reported with the seed and detail; the CLI turns
violations into a nonzero exit so CI can gate on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.chaos import (
    CampaignConfig,
    ChaosCampaign,
    SeedVerdict,
    eval_window,
)
from repro.core.config import MobiRescueConfig
from repro.core.positions import PopulationFeed
from repro.core.predictor import RequestPredictor, TrainingSet
from repro.core.rl_dispatcher import MobiRescueDispatcher, make_agent
from repro.data import DatasetSpec, build_dataset
from repro.faults.models import ComponentFaultInjector, FaultInjector
from repro.faults.profiles import get_component_profile, get_profile
from repro.mobility.cleaning import clean_trace
from repro.mobility.mapmatch import map_match
from repro.service.loop import DispatchService, ServiceReport
from repro.sim.engine import RescueSimulator, SimulationConfig, SimulationResult


@dataclass(frozen=True)
class ChaosConfig(CampaignConfig):
    """One chaos campaign: profile, seeds, window, pass criteria."""

    profile: str = "severe"
    population_size: int = 500
    num_teams: int = 15
    window_days: float = 0.5
    #: Chaos must serve at least ``clean_served / degradation_factor``
    #: requests (checked only when the clean run served any).
    degradation_factor: float = 3.0
    profile_lookups = (get_profile, get_component_profile)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window_days <= 0:
            raise ValueError("evaluation window must be positive")
        if self.degradation_factor < 1.0:
            raise ValueError("degradation factor must be >= 1")


class ServiceWorld:
    """One small world the service campaigns run every seed in.

    The world is the test-scale Florence dataset (evaluation) plus the
    Michael scenario (the predictor's training storm, matching the
    paper's train-on-Michael / evaluate-on-Florence split); each run
    gets a freshly-built agent so runs are independent and reproducible.
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.num_teams = config.num_teams
        self.scenario, bundle = build_dataset(
            DatasetSpec(storm="florence", population_size=config.population_size)
        )
        michael_scenario, _ = build_dataset(
            DatasetSpec(storm="michael", population_size=config.population_size)
        )
        part = self.scenario.partition
        cleaned, _ = clean_trace(bundle.trace, part.width_m, part.height_m)
        self._matched = map_match(cleaned, self.scenario.network)
        self.known_persons = frozenset(int(p) for p in self._matched.persons())
        self.t0_s, self.t1_s, self.requests = eval_window(
            self.scenario, bundle, config.window_days
        )
        # The predictor is shared read-only across runs: SVM inference is
        # stateless, so reuse cannot leak state between triples.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 3))
        y = (x.sum(axis=1) > 0).astype(int)
        self.predictor = (
            RequestPredictor(michael_scenario, flood_gated=False)
            .fit(TrainingSet(x=x, y=y))
            .clone_for(self.scenario)
        )

    def sim_config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(
            t0_s=self.t0_s, t1_s=self.t1_s, num_teams=self.num_teams, seed=seed
        )

    def dispatcher(self) -> MobiRescueDispatcher:
        """A fresh MobiRescue system; fresh agent => bit-reproducible runs."""
        mcfg = MobiRescueConfig(seed=5)
        return MobiRescueDispatcher(
            self.scenario,
            self.predictor,
            PopulationFeed(self._matched, cache_size=8),
            make_agent(mcfg),
            mcfg,
            training=False,
        )

    def service(
        self,
        seed: int,
        service_type: type[DispatchService] = DispatchService,
        **options: Any,
    ) -> DispatchService:
        """A guarded service over a fresh system; ``options`` arm its faults."""
        return service_type(
            self.scenario,
            list(self.requests),
            self.dispatcher(),
            self.sim_config(seed),
            known_persons=self.known_persons,
            **options,
        )


def check_served(
    verdict: SeedVerdict, factor: float, clean_served: int, chaos_served: int, label: str
) -> None:
    """The degradation invariant: chaos serves at least clean / ``factor``.

    Checked only when the clean run served any request.
    """
    if clean_served > 0:
        verdict.check(
            "degradation_ok",
            chaos_served * factor >= clean_served,
            f"{label} served {chaos_served} < {clean_served}/{factor:g}",
        )


class ChaosHarness(ChaosCampaign[ChaosConfig]):
    """The service plug-in: baseline/clean/chaos triples in one world."""

    config_type = ChaosConfig
    invariants = ("equivalence_ok", "ticks_ok", "degradation_ok")

    def __init__(self, config: ChaosConfig | None = None) -> None:
        super().__init__(config)
        self.world = ServiceWorld(self.config)

    def reference(
        self, verdict: SeedVerdict, work: None
    ) -> tuple[SimulationResult, ServiceReport]:
        world, seed = self.world, verdict.seed
        baseline = RescueSimulator(
            world.scenario, list(world.requests), world.dispatcher(), world.sim_config(seed)
        ).run()
        clean = world.service(seed).run()
        verdict.check(
            "equivalence_ok",
            clean.result == baseline,
            "clean service run diverged from the plain engine run "
            f"(served {clean.result.num_served} vs {baseline.num_served})",
        )
        if not clean.all_ticks_completed:
            verdict.violate(
                f"clean run skipped ticks "
                f"({clean.ticks_completed}/{clean.ticks_expected})"
            )
        return baseline, clean

    def chaos(self, seed: int, reference: Any) -> ServiceReport:
        world, profile = self.world, self.config.profile
        return world.service(
            seed,
            faults=FaultInjector(
                get_profile(profile), world.t0_s, world.t1_s, seed=seed
            ),
            component_faults=ComponentFaultInjector(
                get_component_profile(profile), seed=seed
            ),
        ).run()

    def judge(
        self,
        verdict: SeedVerdict,
        reference: tuple[SimulationResult, ServiceReport],
        report: ServiceReport | None,
    ) -> None:
        baseline, clean = reference
        verdict.fields.update(
            clean_served=baseline.num_served,
            chaos_served=0,
            clean=clean.summary(),
            chaos={},
        )
        if report is None:
            return
        verdict.fields.update(
            chaos_served=report.result.num_served, chaos=report.summary()
        )
        verdict.check(
            "ticks_ok",
            report.all_ticks_completed,
            f"chaos run skipped ticks "
            f"({report.ticks_completed}/{report.ticks_expected})",
        )
        check_served(
            verdict,
            self.config.degradation_factor,
            baseline.num_served,
            report.result.num_served,
            self.label,
        )

    def header(self, runs: list[dict[str, Any]]) -> dict[str, Any]:
        cfg = self.config
        return {
            "population_size": cfg.population_size,
            "num_teams": cfg.num_teams,
            "window_days": cfg.window_days,
            "degradation_factor": cfg.degradation_factor,
        }

    @staticmethod
    def describe(run: dict[str, Any]) -> str:
        return (
            f"clean served {run['clean_served']}, "
            f"chaos served {run['chaos_served']}"
        )
