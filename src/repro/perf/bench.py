"""The ``repro bench`` microbenchmark suite.

Times the four hot paths the system leans on continuously — routing,
request prediction, full simulation ticks and DQN training steps — each
with its seed implementation next to its optimized one, and emits a
durable ``BENCH_<date>.json`` through the atomic artifact layer.

The suite is deliberately self-checking: the routing and full-tick
workloads assert on the fly that the cached path produced exactly the
results the seed path produced, so a benchmark run can never report a
speedup earned by changing the answer.

This module lives outside the deterministic-simulation reprolint scope:
wall-clock reads (``time.perf_counter``) and peak-RSS sampling are its
whole point and are legitimate *only* here and in the supervision layers.
"""

from __future__ import annotations

import datetime
import platform
import resource
import sys
import time
from typing import Any, Callable

import numpy as np

from repro.core.artifacts import atomic_write_json

BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1

#: Benchmarks whose regression the gate test guards (the optimized paths).
HOT_PATHS = (
    "routing_cached",
    "prediction_batched",
    "full_tick_cached",
    "full_tick_event",
    "training_step",
    "training_sentinel_overhead",
    "rollout_parallel_2w",
)

#: name -> (speedup key, seed benchmark, optimized benchmark)
_SPEEDUP_PAIRS = (
    ("routing", "routing_seed", "routing_cached"),
    ("prediction", "prediction_per_person", "prediction_batched"),
    ("full_tick", "full_tick_seed", "full_tick_cached"),
    ("event_kernel", "full_tick_cached", "full_tick_event"),
    # Inverted reading: sentinel-ON over sentinel-OFF learn steps, so
    # ~1.0 is ideal and the gate test caps it at 1.10x overhead.
    ("sentinel_overhead", "training_sentinel_overhead", "training_step_sentinel_off"),
)


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _record(seconds_total: float, iterations: int) -> dict[str, float | int]:
    return {
        "iterations": int(iterations),
        "seconds_total": float(seconds_total),
        "seconds_per_op": float(seconds_total / max(1, iterations)),
    }


# -- individual benchmarks ---------------------------------------------------


def _bench_routing(quick: bool) -> dict[str, dict[str, float | int]]:
    """Seed per-call Dijkstra vs the closure-aware routing cache.

    The workload mirrors one engine dispatch cycle: a handful of team
    positions, each needing a full cost row (nearest hospital) plus
    point-to-point routes to many destinations, twice per closed-set.
    """
    from repro.perf.routing_cache import DirectRouter, RoutingCache
    from repro.roadnet.generator import RoadNetworkConfig, generate_road_network
    from repro.geo.regions import charlotte_regions

    part = charlotte_regions(70_000.0, 45_000.0)
    network = generate_road_network(part, RoadNetworkConfig())
    rng = np.random.default_rng(0)
    nodes = np.array(network.landmark_ids())
    seg_ids = np.array(network.segment_ids())
    closed = frozenset(
        int(s) for s in rng.choice(seg_ids, size=len(seg_ids) // 20, replace=False)
    )
    sources = [int(n) for n in rng.choice(nodes, size=6, replace=False)]
    n_dsts = 40 if quick else 200
    dsts = [int(n) for n in rng.choice(nodes, size=n_dsts)]

    def workload(router: Any) -> list[float]:
        out: list[float] = []
        for src in sources:
            row = router.time_from(src, closed=closed)
            out.append(float(sum(row.values())))
            for dst in dsts:
                r = router.route(src, dst, closed=closed)
                out.append(-1.0 if r is None else r.travel_time_s)
        return out

    queries = len(sources) * (1 + n_dsts)
    repeats = 2 if quick else 3
    seed_router = DirectRouter(network)
    seed_s = _best_of(lambda: workload(seed_router), repeats)
    expected = workload(seed_router)
    # Fresh cache per run: the measured time *includes* building the trees.
    cached_s = _best_of(lambda: workload(RoutingCache(network)), repeats)
    if workload(RoutingCache(network)) != expected:
        raise AssertionError("routing cache diverged from seed Dijkstra")
    return {
        "routing_seed": _record(seed_s, queries),
        "routing_cached": _record(cached_s, queries),
    }


def _bench_prediction(quick: bool) -> dict[str, dict[str, float | int]]:
    """Per-person SVM prediction vs one whole-population batched call."""
    from repro.ml.svm import SVC

    rng = np.random.default_rng(1)
    x = rng.normal(size=(400, 3))
    y = (x @ np.array([1.5, -1.0, 0.5]) + rng.normal(0, 0.3, 400) > 0).astype(int)
    clf = SVC(kernel="rbf", gamma=0.5, c=2.0).fit(x, y)
    n = 2_000 if quick else 10_000
    population = rng.normal(size=(n, 3))

    def per_person() -> np.ndarray:
        return np.concatenate([clf.predict(row) for row in population])

    def batched() -> np.ndarray:
        return clf.predict(population, block_rows=8_192)

    if not np.array_equal(per_person(), batched()):
        raise AssertionError("batched prediction diverged from per-person")
    repeats = 2 if quick else 3
    return {
        "prediction_per_person": _record(_best_of(per_person, repeats), n),
        "prediction_batched": _record(_best_of(batched, repeats), n),
    }


def _bench_full_tick(quick: bool) -> dict[str, Any]:
    """One evaluation window of the simulation engine, three ways: seed
    per-call routing, cached routing, and the event-driven kernel.

    The workload is the regime the event kernel exists for — the paper's
    100-team fleet stepped at sub-second fidelity — and it is
    self-checking: all three engines must produce bit-identical pickup
    and delivery traces or the benchmark raises.  Returns the per-tick
    records plus the ``events_per_sim_hour`` summary for the kernel run.
    """
    from repro.data.charlotte import build_charlotte_scenario
    from repro.dispatch.nearest import NearestDispatcher
    from repro.perf.routing_cache import DirectRouter, RoutingCache
    from repro.sim.engine import RescueSimulator, SimulationConfig
    from repro.sim.kernel import EventKernelSimulator
    from repro.sim.requests import RescueRequest
    from repro.weather.storms import FLORENCE

    scenario = build_charlotte_scenario(FLORENCE)
    network = scenario.network
    rng = np.random.default_rng(2)
    seg_ids = np.array(network.segment_ids())
    t0 = scenario.timeline.storm_start_s
    hours = 1.0 if quick else 2.0
    t1 = t0 + hours * 3_600.0
    requests = []
    for i, seg in enumerate(rng.choice(seg_ids, size=30 if quick else 80)):
        segment = network.segment(int(seg))
        requests.append(
            RescueRequest(
                request_id=i,
                person_id=i,
                time_s=float(t0 + rng.uniform(0.0, (t1 - t0) * 0.8)),
                segment_id=int(seg),
                node_id=segment.u,
            )
        )
    config = SimulationConfig(t0_s=t0, t1_s=t1, num_teams=100, seed=0, step_s=0.25)
    ticks = int((t1 - t0) / config.step_s) + 1

    def run(sim: RescueSimulator) -> tuple[Any, ...]:
        result = sim.run()
        return (
            tuple((p.request_id, p.team_id, p.t_s) for p in result.pickups),
            tuple((d.request_id, d.t_s) for d in result.deliveries),
            tuple(result.serving_samples),
        )

    def seed_sim(router: Any = None) -> RescueSimulator:
        return RescueSimulator(
            scenario, list(requests), NearestDispatcher(), config, router=router
        )

    expected = run(seed_sim(DirectRouter(network)))
    seed_s = _best_of(lambda: run(seed_sim(DirectRouter(network))), 1)
    if run(seed_sim(RoutingCache(network))) != expected:
        raise AssertionError("cached full-tick run diverged from seed run")

    def kernel_sim() -> EventKernelSimulator:
        return EventKernelSimulator(
            scenario, list(requests), NearestDispatcher(), config
        )

    # The event_kernel gate is the cached/event ratio.  The two engines
    # alternate inside one loop, best-of-N on both sides, so a burst of
    # load on the host hits both sides rather than one lone run.
    cached_s = event_s = float("inf")
    for _ in range(2 if quick else 3):
        cached_s = min(cached_s, _best_of(lambda: run(seed_sim(RoutingCache(network))), 1))
        event_s = min(event_s, _best_of(lambda: run(kernel_sim()), 1))
    kernel = kernel_sim()
    if run(kernel) != expected:
        raise AssertionError("event-kernel run diverged from seed run")
    return {
        "benchmarks": {
            "full_tick_seed": _record(seed_s, ticks),
            "full_tick_cached": _record(cached_s, ticks),
            "full_tick_event": _record(event_s, ticks),
        },
        "events_per_sim_hour": {
            "events": int(kernel.events_processed),
            "ticks_processed": int(kernel.ticks_processed),
            "grid_ticks": int(kernel.num_grid_ticks),
            "sim_hours": float(hours),
            "per_hour": float(kernel.events_processed / hours),
        },
    }


def _bench_training_step(quick: bool) -> dict[str, dict[str, float | int]]:
    """One DQN learn step over a warm replay buffer."""
    from repro.ml.dqn import DQNAgent, DQNConfig

    agent = DQNAgent(DQNConfig(state_dim=27, num_actions=9, batch_size=64, seed=0))
    rng = np.random.default_rng(3)
    for _ in range(256):
        agent.remember(
            rng.normal(size=27), int(rng.integers(9)), 1.0, rng.normal(size=27), False
        )
    steps = 50 if quick else 300

    def run() -> None:
        for _ in range(steps):
            agent.learn()

    return {"training_step": _record(_best_of(run, 2 if quick else 3), steps)}


def _bench_sentinel_overhead(quick: bool) -> dict[str, dict[str, float | int]]:
    """Sentinel-on vs sentinel-off DQN learn steps, self-checked.

    The training sentinel (``docs/TRAINING_HEALTH.md``) screens every
    learn step through the agent's observer hook; this pair of workloads
    prices that screen.  Self-checking: before timing, a fresh agent
    pair — one observed, one not — runs the same steps and must end
    bit-identical, so the measured overhead can never come from the
    sentinel changing what is learned.
    """
    from repro.ml.dqn import DQNAgent, DQNConfig
    from repro.training.health import SentinelConfig, TrainingSentinel

    def make_agent(observed: bool) -> "DQNAgent":
        agent = DQNAgent(DQNConfig(state_dim=27, num_actions=9, batch_size=64, seed=0))
        rng = np.random.default_rng(3)
        for _ in range(256):
            agent.remember(
                rng.normal(size=27), int(rng.integers(9)), 1.0,
                rng.normal(size=27), False,
            )
        if observed:
            sentinel = TrainingSentinel(SentinelConfig())
            sentinel.begin_attempt(0, 0)
            agent.q_net.grad_stats_enabled = True
            agent.observer = sentinel.observe
        return agent

    plain, observed = make_agent(False), make_agent(True)
    for _ in range(20):
        plain.learn()
        observed.learn()
    a, b = plain.get_state(), observed.get_state()
    if set(a) != set(b) or any(not np.array_equal(a[k], b[k]) for k in a):
        raise RuntimeError("sentinel-on learn steps diverged from sentinel-off")

    # The gate caps the on/off *ratio* at 1.10 — a ~5% measurement that
    # plain back-to-back timing cannot deliver on a noisy machine (CPU
    # frequency drift between the two blocks swamps the signal).  So the
    # two agents alternate single learn steps inside one loop: any drift
    # hits both sides of the ratio equally.  The per-step clock reads
    # cost ~100ns against a ~400us step.
    steps = 120 if quick else 300
    repeats = 6
    off_agent, on_agent = make_agent(False), make_agent(True)
    best = {"off": float("inf"), "on": float("inf")}
    for _ in range(repeats):
        total_off = total_on = 0.0
        for _ in range(steps):
            t0 = time.perf_counter()
            off_agent.learn()
            t1 = time.perf_counter()
            on_agent.learn()
            total_on += time.perf_counter() - t1
            total_off += t1 - t0
        best["off"] = min(best["off"], total_off)
        best["on"] = min(best["on"], total_on)
    return {
        "training_step_sentinel_off": _record(best["off"], steps),
        "training_sentinel_overhead": _record(best["on"], steps),
    }


def _bench_rollouts(quick: bool) -> dict[str, Any]:
    """Serial vs parallel episode rollouts over one evaluation window.

    Self-checking like the routing workloads: each parallel campaign's
    merged fingerprint must equal the serial one, so a reported
    throughput can never come from dropping or reordering episodes.
    Returns both the per-episode records and the ``episodes_per_minute``
    summary the bench artifact carries.
    """
    import os

    from repro.data.charlotte import build_charlotte_scenario
    from repro.rollouts.executor import (
        RolloutConfig,
        RolloutExecutor,
        run_rollouts_serial,
    )
    from repro.rollouts.spec import EpisodeSpec
    from repro.rollouts.tasks import EvalRolloutTask
    from repro.sim.requests import RescueRequest
    from repro.weather.storms import FLORENCE

    scenario = build_charlotte_scenario(FLORENCE)
    network = scenario.network
    rng = np.random.default_rng(4)
    seg_ids = np.array(network.segment_ids())
    t0 = scenario.timeline.storm_start_s
    t1 = t0 + (1.0 if quick else 2.0) * 3_600.0
    requests = []
    for i, seg in enumerate(rng.choice(seg_ids, size=30 if quick else 120)):
        segment = network.segment(int(seg))
        requests.append(
            RescueRequest(
                request_id=i,
                person_id=i,
                time_s=float(t0 + rng.uniform(0.0, (t1 - t0) * 0.8)),
                segment_id=int(seg),
                node_id=segment.u,
            )
        )
    task = EvalRolloutTask(
        scenario=scenario,
        requests=tuple(requests),
        t0_s=t0,
        t1_s=t1,
        num_teams=10,
    )
    episodes = 4 if quick else 8
    specs = [EpisodeSpec(i, task.kind, seed=0) for i in range(episodes)]
    n_workers = max(2, min(4, (os.cpu_count() or 2)))

    def run_parallel(workers: int) -> str:
        config = RolloutConfig(num_workers=workers, beat_interval_s=0.05)
        report = RolloutExecutor(task, config, seed=0).run(specs)
        return report.merged.fingerprint()

    t = time.perf_counter()
    expected = run_rollouts_serial(task, specs).merged.fingerprint()
    serial_s = time.perf_counter() - t
    t = time.perf_counter()
    fp_2w = run_parallel(2)
    par2_s = time.perf_counter() - t
    t = time.perf_counter()
    fp_nw = run_parallel(n_workers)
    parn_s = time.perf_counter() - t
    if fp_2w != expected or fp_nw != expected:
        raise AssertionError("parallel rollout diverged from serial path")
    return {
        "benchmarks": {
            "rollout_serial": _record(serial_s, episodes),
            "rollout_parallel_2w": _record(par2_s, episodes),
            "rollout_parallel_nw": _record(parn_s, episodes),
        },
        "episodes_per_minute": {
            "serial": float(episodes * 60.0 / serial_s),
            "workers_2": float(episodes * 60.0 / par2_s),
            "workers_n": float(episodes * 60.0 / parn_s),
            "n_workers": int(n_workers),
            "episodes": int(episodes),
        },
    }


# -- suite -------------------------------------------------------------------


def run_bench(quick: bool = False) -> dict[str, Any]:
    """Run the full microbenchmark suite; returns the BENCH payload."""
    benchmarks: dict[str, dict[str, float | int]] = {}
    benchmarks.update(_bench_routing(quick))
    benchmarks.update(_bench_prediction(quick))
    full_tick = _bench_full_tick(quick)
    benchmarks.update(full_tick["benchmarks"])
    benchmarks.update(_bench_training_step(quick))
    benchmarks.update(_bench_sentinel_overhead(quick))
    rollouts = _bench_rollouts(quick)
    benchmarks.update(rollouts["benchmarks"])
    speedups = {
        key: float(
            benchmarks[seed]["seconds_per_op"] / benchmarks[fast]["seconds_per_op"]
        )
        for key, seed, fast in _SPEEDUP_PAIRS
    }
    return {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "date": datetime.date.today().isoformat(),
        "quick": bool(quick),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "peak_rss_kib": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "benchmarks": benchmarks,
        "speedups": speedups,
        "episodes_per_minute": rollouts["episodes_per_minute"],
        "events_per_sim_hour": full_tick["events_per_sim_hour"],
    }


def validate_bench_payload(payload: Any) -> list[str]:
    """Schema check of a BENCH payload; returns a list of problems."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("format") != BENCH_FORMAT:
        problems.append(f"format must be {BENCH_FORMAT!r}")
    if payload.get("version") != BENCH_VERSION:
        problems.append(f"version must be {BENCH_VERSION}")
    for key in ("date", "python", "platform"):
        if not isinstance(payload.get(key), str):
            problems.append(f"{key} must be a string")
    if not isinstance(payload.get("quick"), bool):
        problems.append("quick must be a boolean")
    if not isinstance(payload.get("peak_rss_kib"), int) or (
        isinstance(payload.get("peak_rss_kib"), int) and payload["peak_rss_kib"] <= 0
    ):
        problems.append("peak_rss_kib must be a positive integer")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        problems.append("benchmarks must be a non-empty object")
        benchmarks = {}
    for name, rec in benchmarks.items():
        if not isinstance(rec, dict):
            problems.append(f"benchmark {name} is not an object")
            continue
        for field in ("iterations", "seconds_total", "seconds_per_op"):
            value = rec.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"benchmark {name}.{field} must be positive")
    for name in HOT_PATHS:
        if name not in benchmarks:
            problems.append(f"hot path {name} missing from benchmarks")
    speedups = payload.get("speedups")
    if not isinstance(speedups, dict):
        problems.append("speedups must be an object")
    else:
        for key, _, _ in _SPEEDUP_PAIRS:
            value = speedups.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"speedups.{key} must be positive")
    epm = payload.get("episodes_per_minute")
    if not isinstance(epm, dict):
        problems.append("episodes_per_minute must be an object")
    else:
        for key in ("serial", "workers_2", "workers_n"):
            value = epm.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"episodes_per_minute.{key} must be positive")
        for key in ("n_workers", "episodes"):
            value = epm.get(key)
            if not isinstance(value, int) or value <= 0:
                problems.append(
                    f"episodes_per_minute.{key} must be a positive integer"
                )
    eph = payload.get("events_per_sim_hour")
    if not isinstance(eph, dict):
        problems.append("events_per_sim_hour must be an object")
    else:
        for key in ("events", "ticks_processed", "grid_ticks"):
            value = eph.get(key)
            if not isinstance(value, int) or value <= 0:
                problems.append(
                    f"events_per_sim_hour.{key} must be a positive integer"
                )
        for key in ("sim_hours", "per_hour"):
            value = eph.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"events_per_sim_hour.{key} must be positive")
    return problems


def default_output_path(payload: dict[str, Any]) -> str:
    return f"BENCH_{payload['date']}.json"


def write_bench(payload: dict[str, Any], path: str) -> None:
    """Persist a BENCH payload through the durable artifact layer."""
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError("invalid BENCH payload: " + "; ".join(problems))
    atomic_write_json(path, payload)


def format_bench_table(payload: dict[str, Any]) -> str:
    """Human-readable summary of one BENCH payload."""
    lines = [
        f"repro bench — {payload['date']}  "
        f"(quick={payload['quick']}, python {payload['python']})",
        f"{'benchmark':<24} {'iters':>7} {'s/op':>12} {'total s':>9}",
    ]
    for name, rec in payload["benchmarks"].items():
        lines.append(
            f"{name:<24} {rec['iterations']:>7} "
            f"{rec['seconds_per_op']:>12.6f} {rec['seconds_total']:>9.3f}"
        )
    lines.append("")
    for key, seed, fast in _SPEEDUP_PAIRS:
        lines.append(
            f"speedup {key:<12} {payload['speedups'][key]:>7.1f}x  ({seed} -> {fast})"
        )
    epm = payload["episodes_per_minute"]
    lines.append(
        f"episodes/min: serial {epm['serial']:.0f}, "
        f"2 workers {epm['workers_2']:.0f}, "
        f"{epm['n_workers']} workers {epm['workers_n']:.0f}  "
        f"({epm['episodes']} episodes)"
    )
    eph = payload["events_per_sim_hour"]
    lines.append(
        f"event kernel: {eph['events']} events over {eph['sim_hours']:.1f} sim h "
        f"({eph['per_hour']:.0f} events/sim-h), "
        f"{eph['ticks_processed']}/{eph['grid_ticks']} grid ticks processed"
    )
    lines.append(f"peak RSS: {payload['peak_rss_kib'] / 1024.0:.1f} MiB")
    return "\n".join(lines)
