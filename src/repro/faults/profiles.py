"""Named fault profiles for reproducible robustness experiments.

A profile bundles one parameterisation of every fault family.  The four
shipped severities:

``none``
    Every family disabled.  The engine skips the fault layer entirely, so
    results are bit-identical to a run without an injector.

``mild``
    Early-disaster degradation: scattered GPS outages, occasional radio
    drops, a rare breakdown.  Dispatching should degrade by a few percent.

``severe``
    Peak-disaster degradation: a third of phones dark for hours, frequent
    radio loss, breakdowns and surprise closures, the dispatch software
    failing one cycle in twenty.

``blackout``
    Infrastructure collapse: most phones dark, most radio traffic lost
    with heavy latency, widespread closures, the dispatcher failing every
    fifth cycle.  A stress ceiling, not a realistic operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeVar

from repro.faults.models import (
    CheckpointBitrotFault,
    CommLossFault,
    ComponentFaultProfile,
    CorruptRecordFault,
    CorruptReplaySampleFault,
    DispatcherFailureFault,
    FaultInjector,
    GpsDropoutFault,
    HotShardSkewFault,
    NaNGradientFault,
    PolicyLatencyFault,
    PredictorExceptionFault,
    RewardSpikeFault,
    RoadClosureFault,
    ShardFaultProfile,
    ShardKillFault,
    ShardStallFault,
    TeamBreakdownFault,
    TrainingFaultProfile,
    WorkerCorruptResultFault,
    WorkerCrashFault,
    WorkerFaultProfile,
    WorkerStallFault,
)

_P = TypeVar("_P")


@dataclass(frozen=True)
class FaultProfile:
    """One parameterisation of all five fault families."""

    name: str
    gps: GpsDropoutFault = field(default_factory=GpsDropoutFault)
    comm: CommLossFault = field(default_factory=CommLossFault)
    breakdown: TeamBreakdownFault = field(default_factory=TeamBreakdownFault)
    closure: RoadClosureFault = field(default_factory=RoadClosureFault)
    dispatcher: DispatcherFailureFault = field(default_factory=DispatcherFailureFault)

    @property
    def is_null(self) -> bool:
        return not (
            self.gps.enabled
            or self.comm.enabled
            or self.breakdown.enabled
            or self.closure.enabled
            or self.dispatcher.enabled
        )


PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "mild": FaultProfile(
        name="mild",
        gps=GpsDropoutFault(p_affected=0.10, outages_per_person=1.0, mean_outage_s=2 * 3_600.0),
        comm=CommLossFault(p_affected=0.10, outages_per_team=1.0, mean_outage_s=1 * 3_600.0),
        breakdown=TeamBreakdownFault(
            p_affected=0.05, breakdowns_per_team=1.0, mean_repair_s=0.5 * 3_600.0
        ),
        closure=RoadClosureFault(
            p_affected=0.02, closures_per_segment=1.0, mean_closure_s=3 * 3_600.0
        ),
        dispatcher=DispatcherFailureFault(p_fail_per_cycle=0.01),
    ),
    "severe": FaultProfile(
        name="severe",
        gps=GpsDropoutFault(p_affected=0.35, outages_per_person=1.5, mean_outage_s=5 * 3_600.0),
        comm=CommLossFault(
            p_affected=0.30,
            outages_per_team=2.0,
            mean_outage_s=2 * 3_600.0,
            extra_latency_s=30.0,
        ),
        breakdown=TeamBreakdownFault(
            p_affected=0.15, breakdowns_per_team=1.0, mean_repair_s=1.5 * 3_600.0
        ),
        closure=RoadClosureFault(
            p_affected=0.08, closures_per_segment=1.5, mean_closure_s=5 * 3_600.0
        ),
        dispatcher=DispatcherFailureFault(p_fail_per_cycle=0.05),
    ),
    "blackout": FaultProfile(
        name="blackout",
        gps=GpsDropoutFault(p_affected=0.80, outages_per_person=2.0, mean_outage_s=10 * 3_600.0),
        comm=CommLossFault(
            p_affected=0.70,
            outages_per_team=3.0,
            mean_outage_s=4 * 3_600.0,
            extra_latency_s=120.0,
        ),
        breakdown=TeamBreakdownFault(
            p_affected=0.30, breakdowns_per_team=1.5, mean_repair_s=2 * 3_600.0
        ),
        closure=RoadClosureFault(
            p_affected=0.20, closures_per_segment=2.0, mean_closure_s=8 * 3_600.0
        ),
        dispatcher=DispatcherFailureFault(p_fail_per_cycle=0.20),
    ),
}


#: Component-level fault severities mirroring the environment profiles.
#: The chaos harness composes one of these with the matching environment
#: :data:`PROFILES` entry: ``none`` keeps the service loop bit-identical
#: to a plain engine run; ``severe`` trips every breaker repeatedly.
COMPONENT_PROFILES: dict[str, ComponentFaultProfile] = {
    "none": ComponentFaultProfile(name="none"),
    "mild": ComponentFaultProfile(
        name="mild",
        predictor=PredictorExceptionFault(p_fail_per_cycle=0.02),
        policy_latency=PolicyLatencyFault(p_spike_per_cycle=0.02, spike_s=10.0),
        corrupt_records=CorruptRecordFault(p_storm_per_cycle=0.05, corrupt_fraction=0.10),
    ),
    "severe": ComponentFaultProfile(
        name="severe",
        predictor=PredictorExceptionFault(p_fail_per_cycle=0.15),
        policy_latency=PolicyLatencyFault(p_spike_per_cycle=0.10, spike_s=30.0),
        corrupt_records=CorruptRecordFault(p_storm_per_cycle=0.25, corrupt_fraction=0.50),
    ),
    "blackout": ComponentFaultProfile(
        name="blackout",
        predictor=PredictorExceptionFault(p_fail_per_cycle=0.40),
        policy_latency=PolicyLatencyFault(p_spike_per_cycle=0.30, spike_s=120.0),
        corrupt_records=CorruptRecordFault(p_storm_per_cycle=0.50, corrupt_fraction=0.90),
    ),
}


#: Shard-level fault severities for the sharded ingest topology.  Names
#: are prefixed ``shard-`` so the chaos CLI can route them to the shard
#: harness; ``shard-blackout`` composes every family at once and is the
#: profile the failover acceptance gate runs under.
SHARD_PROFILES: dict[str, ShardFaultProfile] = {
    "shard-none": ShardFaultProfile(name="shard-none"),
    "shard-kill": ShardFaultProfile(
        name="shard-kill",
        kill=ShardKillFault(p_affected=1.0, kills_per_shard=1.0, mean_dead_s=3_600.0),
    ),
    "shard-stall": ShardFaultProfile(
        name="shard-stall",
        stall=ShardStallFault(
            p_affected=1.0,
            stalls_per_shard=1.0,
            mean_stall_window_s=3_600.0,
            stall_s=30.0,
        ),
    ),
    "shard-skew": ShardFaultProfile(
        name="shard-skew",
        skew=HotShardSkewFault(
            p_affected=1.0,
            skews_per_shard=1.0,
            mean_skew_s=2 * 3_600.0,
            capacity_divisor=64,
        ),
    ),
    "shard-blackout": ShardFaultProfile(
        name="shard-blackout",
        kill=ShardKillFault(p_affected=0.75, kills_per_shard=1.0, mean_dead_s=2_700.0),
        stall=ShardStallFault(
            p_affected=0.50,
            stalls_per_shard=1.5,
            mean_stall_window_s=2_700.0,
            stall_s=30.0,
        ),
        skew=HotShardSkewFault(
            p_affected=0.50,
            skews_per_shard=1.0,
            mean_skew_s=2 * 3_600.0,
            capacity_divisor=64,
        ),
    ),
}


#: Rollout-worker fault severities.  Names are prefixed ``worker-`` so
#: the chaos CLI can route them to the rollout harness.  ``worker-kill``
#: is the acceptance profile: real process deaths mid-episode, a slice of
#: poison episodes that must be quarantined, and zero lost episodes.
WORKER_PROFILES: dict[str, WorkerFaultProfile] = {
    "worker-none": WorkerFaultProfile(name="worker-none"),
    "worker-kill": WorkerFaultProfile(
        name="worker-kill",
        crash=WorkerCrashFault(
            p_affected=0.5, max_crashes=1, p_poison=0.2, crash_after_beats=3
        ),
    ),
    "worker-stall": WorkerFaultProfile(
        name="worker-stall",
        stall=WorkerStallFault(p_affected=0.5, max_stalls=1, stall_s=5.0),
    ),
    "worker-blackout": WorkerFaultProfile(
        name="worker-blackout",
        crash=WorkerCrashFault(
            p_affected=0.4, max_crashes=1, p_poison=0.1, crash_after_beats=3
        ),
        stall=WorkerStallFault(p_affected=0.3, max_stalls=1, stall_s=5.0),
        corrupt=WorkerCorruptResultFault(p_affected=0.3, max_corruptions=1),
    ),
}


#: Training fault profiles exercise the self-healing loop
#: (docs/TRAINING_HEALTH.md).  ``train-mild`` throws only transient
#: single-attempt faults — a pure rollback-and-replay must absorb every
#: one.  ``train-severe`` repeats faults across attempts (climbing the
#: re-perturbation and learning-rate rungs) and rots checkpoints on
#: disk.  ``train-blackout`` blows up on *every* attempt: the only
#: correct outcome is an abort with a forensics bundle.
TRAIN_PROFILES: dict[str, TrainingFaultProfile] = {
    "train-none": TrainingFaultProfile(name="train-none"),
    "train-mild": TrainingFaultProfile(
        name="train-mild",
        nan_gradient=NaNGradientFault(p_affected=0.4, max_attempts=1),
        corrupt_replay=CorruptReplaySampleFault(p_affected=0.25, max_attempts=1),
        reward_spike=RewardSpikeFault(p_affected=0.3, max_attempts=1),
    ),
    "train-severe": TrainingFaultProfile(
        name="train-severe",
        nan_gradient=NaNGradientFault(p_affected=0.5, max_attempts=2),
        corrupt_replay=CorruptReplaySampleFault(p_affected=0.4, max_attempts=2),
        reward_spike=RewardSpikeFault(p_affected=0.4, max_attempts=3),
        checkpoint_bitrot=CheckpointBitrotFault(p_affected=0.35),
    ),
    "train-blackout": TrainingFaultProfile(
        name="train-blackout",
        nan_gradient=NaNGradientFault(p_affected=1.0, max_attempts=1, persistent=True),
    ),
}


def _lookup(table: dict[str, _P], name: str, family: str) -> _P:
    """One shipped profile by name; unknown names list the choices."""
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(
            f"unknown {family} profile {name!r} (choose from: {known})"
        ) from None


def get_train_profile(name: str) -> TrainingFaultProfile:
    """Look up a shipped training fault profile by name."""
    return _lookup(TRAIN_PROFILES, name, "training-fault")


def get_worker_profile(name: str) -> WorkerFaultProfile:
    """Look up a shipped rollout-worker fault profile by name."""
    return _lookup(WORKER_PROFILES, name, "worker-fault")


def get_shard_profile(name: str) -> ShardFaultProfile:
    """Look up a shipped shard-fault profile by name."""
    return _lookup(SHARD_PROFILES, name, "shard-fault")


def get_component_profile(name: str) -> ComponentFaultProfile:
    """Look up a shipped component-fault profile by name."""
    return _lookup(COMPONENT_PROFILES, name, "component-fault")


def get_profile(name: str) -> FaultProfile:
    """Look up a shipped profile by name."""
    return _lookup(PROFILES, name, "fault")


def make_injector(
    profile: str | FaultProfile, t0_s: float, t1_s: float, seed: int = 0
) -> FaultInjector | None:
    """Build an injector for a profile, or ``None`` for a null profile.

    Returning ``None`` for ``none`` keeps the engine's fault layer
    zero-cost when disabled — the hot loop never even branches on it.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    if profile.is_null:
        return None
    return FaultInjector(profile, t0_s, t1_s, seed=seed)
