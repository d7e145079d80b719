"""The layer boundaries the traced run wraps, and how per-layer metrics
are read off the trace.

Each target is a public function or method at a layer boundary.  Span
names follow ``<layer>.<function>``; a per-layer metric is the span name
plus a stat (``calls``, ``s`` for total seconds, ``self_s`` for self
seconds) or a counter a target's ``count`` hook adds.

Composite entry points (``data.build``, ``training.train``,
``system.deploy``, ``sim.build``, ...) are spans too, so the trace root's
self time -- the ``trace.unattributed_share`` -- is only what runs
outside every wrapped call, and each composite's own self time names the
work inside it that no finer span covers.
"""

from __future__ import annotations

import os

from tracer import Target


def _dir_bytes(path: object) -> int:
    total = 0
    for root, _dirs, files in os.walk(str(path)):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _sim_counts(_result: object, args: tuple, _kwargs: dict) -> dict[str, float]:
    sim = args[0]
    if not hasattr(sim, "events_processed"):  # the seed fixed-step engine
        return {}
    return {
        "sim.events": sim.events_processed,
        "sim.ticks": sim.ticks_processed,
        "sim.grid_ticks": sim.num_grid_ticks,
    }


TARGETS: list[Target] = [
    # -- dataset build (setup) ----------------------------------------------
    Target("repro.data.datasets", "build_dataset", "data.build"),
    Target("repro.data.charlotte", "build_charlotte_scenario", "data.scenario"),
    Target("repro.mobility.population", "generate_population", "mobility.population"),
    Target(
        "repro.mobility.generator", "MobilityTraceGenerator.__init__",
        "mobility.trace_tables",
    ),
    Target(
        "repro.mobility.generator", "MobilityTraceGenerator.generate", "mobility.trace",
        lambda r, a, k: {"mobility.trace.fixes": len(r.trace)},
    ),
    # -- stage 1: cleaning and map matching ----------------------------------
    Target(
        "repro.mobility.cleaning", "clean_trace", "mobility.clean",
        lambda r, a, k: {
            "mobility.clean.input": r[1].input_fixes,
            "mobility.clean.kept": r[1].output_fixes,
        },
    ),
    Target("repro.mobility.mapmatch", "map_match", "mobility.mapmatch"),
    # -- training ------------------------------------------------------------
    Target("repro.core.training", "train_mobirescue", "training.train"),
    Target("repro.core.training", "prepare_training", "training.prepare"),
    Target("repro.core.predictor", "build_training_set", "predictor.training_set"),
    Target("repro.core.predictor", "RequestPredictor.__init__", "predictor.init"),
    Target("repro.ml.svm", "SVC.fit", "svm.fit"),
    Target("repro.core.training", "pretrain_agent", "training.pretrain"),
    Target("repro.core.training", "run_training_episode", "training.episode"),
    Target(
        "repro.training.loop", "supervised_sentinel_training", "training.sentinel",
        lambda r, a, k: {"sentinel.anomalies": len(r.anomalies)},
    ),
    Target("repro.training.health", "TrainingSentinel.observe", "sentinel.observe"),
    Target("repro.training.health", "TrainingSentinel.screen_params", "sentinel.screen"),
    Target("repro.training.health", "TrainingSentinel.screen_replay", "sentinel.screen"),
    Target("repro.training.health", "TrainingSentinel.screen_rewards", "sentinel.screen"),
    Target(
        "repro.core.persistence", "save_checkpoint", "persistence.checkpoint",
        lambda r, a, k: {"persistence.checkpoint.bytes": _dir_bytes(r)},
    ),
    # -- evaluation setup ----------------------------------------------------
    Target("repro.core.system", "MobiRescueSystem.deploy", "system.deploy"),
    Target("repro.sim.requests", "remap_to_operable", "sim.requests"),
    Target("repro.sim.kernel.engine", "build_simulator", "sim.build"),
    # -- simulation kernel ---------------------------------------------------
    Target("repro.sim.kernel.engine", "EventKernelSimulator.run", "sim.run", _sim_counts),
    Target("repro.sim.engine", "RescueSimulator.run", "sim.run", _sim_counts),
    # -- dispatch cycle ------------------------------------------------------
    Target(
        "repro.dispatch.base", "DispatchGuard.dispatch", "dispatch.guard",
        lambda r, a, k: {"dispatch.guard.fallbacks": r[1] is not None},
    ),
    Target(
        "repro.core.rl_dispatcher", "MobiRescueDispatcher.dispatch", "dispatch.mobirescue"
    ),
    Target("repro.dispatch.rescue_ts", "RescueTsDispatcher.dispatch", "dispatch.rescue"),
    Target("repro.dispatch.schedule", "ScheduleDispatcher.dispatch", "dispatch.schedule"),
    Target(
        "repro.dispatch.assignment", "solve_assignment", "dispatch.assignment",
        lambda r, a, k: {"dispatch.assignment.cells": a[0].size},
    ),
    Target("repro.roadnet.matrix", "TravelTimeOracle.__init__", "routing.oracle"),
    Target("repro.core.positions", "PopulationFeed.__call__", "positions.feed"),
    Target("repro.mobility.mapmatch", "MatchedTrajectories.nodes_at_time", "mapmatch.nodes_at_time"),
    Target(
        "repro.core.predictor", "RequestPredictor.predict_request_distribution",
        "predictor.distribution",
        lambda r, a, k: {"predictor.distribution.persons": len(a[1])},
    ),
    Target(
        "repro.weather.service", "WeatherService.factor_vectors", "weather.factor_vectors",
        lambda r, a, k: {"weather.factor_vectors.points": len(a[1])},
    ),
    Target(
        "repro.ml.svm", "SVC.predict", "svm.predict",
        lambda r, a, k: {"svm.predict.rows": len(a[1])},
    ),
    Target("repro.geo.flood", "FloodModel.waterline_m", "flood.waterline"),
    Target("repro.core.state", "build_context", "state.build_context"),
    Target("repro.ml.dqn", "DQNAgent.act", "dqn.act"),
    Target("repro.ml.dqn", "DQNAgent.learn", "dqn.learn"),
    Target("repro.ml.dqn", "DQNAgent.remember", "dqn.remember"),
    # -- routing -------------------------------------------------------------
    Target("repro.perf.routing_cache", "RoutingCache.route", "routing.route"),
    Target("repro.sim.kernel.routing", "PrefilteredRouter.route", "routing.route"),
    Target(
        "repro.perf.routing_cache", "RoutingCache.route_to_segment", "routing.route_to_segment"
    ),
    Target("repro.perf.routing_cache", "RoutingCache.time_to", "routing.time_to"),
    Target("repro.sim.kernel.routing", "PrefilteredRouter._search", "routing.search"),
    Target("repro.roadnet.routing", "dijkstra_tree", "routing.search"),
    Target("repro.sim.kernel.routing", "HospitalField.__init__", "routing.hospital_field"),
    Target("repro.sim.kernel.routing", "HospitalField.route", "routing.hospital_route"),
    Target("repro.sim.kernel.routing", "FloodClosureIndex.closed_at", "routing.closed_at"),
]

#: Metrics derived from other metrics rather than read off one span.
_DERIVED = {
    "mobility.clean.kept_ratio": lambda stats, counters: (
        counters.get("mobility.clean.kept", 0.0)
        / max(1.0, counters.get("mobility.clean.input", 0.0))
    ),
    "routing.trees": lambda stats, counters: stats.get("routing.search", [0])[0],
}

_STATS = {"calls": 0, "s": 1, "self_s": 2}


def layer_metric(
    stats: dict[str, list[float]], counters: dict[str, float], name: str
) -> float:
    """One per-layer metric from a trace's span stats and counters: a span
    stat, a counter or a derived value (0 for a layer the run never hit)."""
    if name in _DERIVED:
        return float(_DERIVED[name](stats, counters))
    if name in counters:
        return float(counters[name])
    span, _, stat = name.rpartition(".")
    if stat in _STATS and span in stats:
        return float(stats[span][_STATS[stat]])
    return 0.0
