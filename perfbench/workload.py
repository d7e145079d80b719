"""One round of one benchmark workload, in a process of its own.

Usage (from the repository root)::

    python3 perfbench/workload.py --workload simulate --seed 0 --trace 0 \
        --work-dir .perfbench/work

Prints one JSON object as the last line of standard output: the phase
times, every dispatch-cycle time, the per-episode outcome digests and the
correctness checks, plus the span stats when ``--trace 1``.  The round is
a closed loop with one caller: the simulator drives dispatch cycles on
simulated time and each stage starts after the previous one finishes.

The workload seed becomes the dataset population and trace seeds
(``DatasetSpec`` defaults plus the seed) and the run seed, so seed 0 gives
the inputs the command-line interface builds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import sys
import tempfile
import time
from contextlib import contextmanager

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402
from layers import TARGETS  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: Workload sizes: the command-line defaults (``BENCH_POPULATION`` for
#: ``baselines``), except that ``simulate`` trains for 2 episodes instead
#: of 4 so that a traced run (two rounds) stays well inside its time limit.
#: The evaluation fleet is fixed at the size the command picks for seed 0
#: (one team per Sep 16 request for ``simulate``, the paper's max-daily
#: rule for ``baselines``): a seed then changes who needs rescue, not how
#: many teams every dispatch cycle decides for, which would swing the
#: cycle-time tail from seed to seed.
SIZES = {
    "simulate": {"population": 800, "episodes": 2, "teams": 80},
    "baselines": {"population": 1_500, "teams": 141},
    "train": {"population": 800, "episodes": 4},
}

#: The paper's bound on one RL dispatch decision (Fig. 13), seconds.
DECISION_BOUND_S = 0.5

#: Modules whose ``from x import f`` aliases must exist before the tracer
#: installs, so that it can wrap them.
_ENTRY_MODULES = (
    "repro.core",
    "repro.core.system",
    "repro.core.training",
    "repro.eval.harness",
    "repro.training",
    "repro.training.loop",
    "repro.sim.kernel",
)


class Probe:
    """What every round records, traced or not: dispatch-cycle times and
    failures, and each simulated episode's outcome."""

    def __init__(self, speed: SpeedProbe) -> None:
        self.hold = speed.deferred
        #: (start, end) of every dispatch cycle, raw clock readings.
        self.cycles: list[tuple[float, float]] = []
        self.failed = 0
        self.results: list[object] = []

    def install(self) -> tracing.Patch:
        from repro.dispatch.base import DispatchGuard
        from repro.sim.engine import RescueSimulator
        from repro.sim.kernel.engine import EventKernelSimulator

        patch = tracing.Patch("repro")
        guarded = DispatchGuard.dispatch

        def dispatch(guard, obs):  # noqa: ANN001, ANN202
            before = getattr(guard.dispatcher, "prediction_failures", 0)
            with self.hold():
                start = time.perf_counter()
                commands, incident = guarded(guard, obs)
                end = time.perf_counter()
            self.cycles.append((start, end))
            if (
                incident is not None
                or end - start > DECISION_BOUND_S
                or getattr(guard.dispatcher, "prediction_failures", 0) != before
            ):
                self.failed += 1
            return commands, incident

        patch.set(DispatchGuard, "dispatch", dispatch)
        for cls in (RescueSimulator, EventKernelSimulator):
            patch.set(cls, "run", self._recording(vars(cls)["run"]))
        return patch

    def _recording(self, run):  # noqa: ANN001, ANN202
        def recorded(sim):  # noqa: ANN001, ANN202
            result = run(sim)
            self.results.append(result)
            return result

        return recorded

    def episodes(self) -> list[dict]:
        from repro.sim.metrics import SimulationMetrics

        out = []
        for result in self.results:
            h = hashlib.sha256()
            for p in result.pickups:
                h.update(f"{p.request_id},{p.team_id},{p.t_s!r};".encode())
            out.append({
                "requests": len(result.requests),
                "served": result.num_served,
                "timely": int(SimulationMetrics(result).total_timely_served),
                "digest": h.hexdigest()[:16],
            })
        return out


class Phases:
    """``with phase("train"):`` records the block's (start, end)."""

    def __init__(self) -> None:
        self.intervals: dict[str, list[tuple[float, float]]] = {}

    @contextmanager
    def __call__(self, name: str):  # noqa: ANN204
        start = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.setdefault(name, []).append((start, time.perf_counter()))


def _dataset(storm: str, population: int, seed: int):  # noqa: ANN202
    from repro.data import DatasetSpec, build_dataset

    defaults = DatasetSpec(storm=storm)
    return build_dataset(
        DatasetSpec(
            storm=storm,
            population_size=population,
            population_seed=defaults.population_seed + seed,
            trace_seed=defaults.trace_seed + seed,
        )
    )


def run_simulate(seed: int, phase: Phases, checks: dict, work_dir: str) -> None:
    """``repro simulate``: train on Michael, deploy on Florence for Sep 16."""
    from repro.core import MobiRescueSystem
    from repro.core.config import MobiRescueConfig
    from repro.sim import SimulationConfig
    from repro.sim.kernel import build_simulator
    from repro.sim.requests import remap_to_operable, requests_from_rescues
    from repro.weather.storms import SECONDS_PER_DAY, day_index

    size = SIZES["simulate"]
    with phase("setup"):
        florence = _dataset("florence", size["population"], seed)
        michael = _dataset("michael", size["population"], seed)
    with phase("train"):
        system = MobiRescueSystem.train(
            *michael, config=MobiRescueConfig(seed=seed), episodes=size["episodes"]
        )
    with phase("eval"):
        eval_scen, eval_bundle = florence
        day = day_index(eval_scen.timeline, "Sep 16")
        t0, t1 = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
        requests = remap_to_operable(
            requests_from_rescues(eval_bundle.rescues, t0, t1),
            eval_scen.network, eval_scen.flood,
        )
        dispatcher = system.deploy(eval_scen, eval_bundle)
        sim = build_simulator(
            eval_scen, requests, dispatcher,
            SimulationConfig(t0_s=t0, t1_s=t1, num_teams=size["teams"], seed=seed),
        )
        sim.run()
    checks["eval day has requests"] = len(requests) > 0


def run_baselines(seed: int, phase: Phases, checks: dict, work_dir: str) -> None:
    """``repro compare`` without MobiRescue: Rescue, then Schedule, on Sep 16."""
    from repro.eval.harness import ExperimentHarness, HarnessConfig

    size = SIZES["baselines"]
    with phase("setup"):
        florence = _dataset("florence", size["population"], seed)
    with phase("eval"):
        # Rescue and Schedule never touch the training storm's data.
        harness = ExperimentHarness(
            florence, florence, HarnessConfig(num_teams=size["teams"], seed=seed)
        )
        for name in ("Rescue", "Schedule"):
            harness.run_method(name)
    checks["eval day has requests"] = len(harness.eval_requests()) > 0


def run_train(seed: int, phase: Phases, checks: dict, work_dir: str) -> None:
    """``repro train``: sentinel-guarded, supervised, one checkpoint per episode."""
    from repro.core import persistence
    from repro.core.config import MobiRescueConfig
    from repro.core.runner import RetryPolicy, Supervisor
    from repro.training import supervised_sentinel_training

    size = SIZES["train"]
    episodes = size["episodes"]
    saved: list[pathlib.Path] = []
    save = persistence.save_checkpoint

    def counted_save(root, checkpoint):  # noqa: ANN001, ANN202
        path = save(root, checkpoint)
        saved.append(path)
        return path

    persistence.save_checkpoint = counted_save
    try:
        with phase("setup"):
            michael = _dataset("michael", size["population"], seed)
        with phase("train"):
            ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=work_dir)
            supervisor = Supervisor(
                policy=RetryPolicy(max_attempts=3), name="train-sentinel", seed=seed
            )
            result = supervised_sentinel_training(
                *michael,
                MobiRescueConfig(seed=seed),
                checkpoint_dir=ckpt_dir,
                episodes=episodes,
                supervisor=supervisor,
            )
    finally:
        persistence.save_checkpoint = save
    listed = [p.name for p in persistence.list_checkpoints(ckpt_dir)]
    # Pruning keeps the newest three (sentinel_training's keep_checkpoints).
    kept = [persistence.checkpoint_path(ckpt_dir, e).name for e in range(episodes + 1)][-3:]
    checks["training finished"] = result.ok
    checks["zero sentinel anomalies"] = not result.anomalies
    checks["one supervisor attempt"] = not supervisor.incidents
    checks["one checkpoint per episode"] = [p.name for p in saved] == [
        persistence.checkpoint_path(ckpt_dir, e).name for e in range(episodes + 1)
    ]
    checks["checkpoints visible to list_checkpoints"] = listed == kept


WORKLOADS = {
    "simulate": run_simulate,
    "baselines": run_baselines,
    "train": run_train,
}


def run_round(workload: str, seed: int, trace: bool, work_dir: str) -> dict:
    """Run one round in this process and return its record."""
    import importlib

    for module in _ENTRY_MODULES:
        importlib.import_module(module)
    # Traced or not, a round samples the machine's speed.  The tracer's
    # clock stops while the reference runs, so no span includes it.
    speed = SpeedProbe()
    probe = Probe(speed)
    patches = [probe.install()]
    tracer = tracing.Tracer(speed.clock)
    if trace:
        patches.append(tracing.install(tracer, TARGETS, "repro"))
    phase = Phases()
    checks: dict[str, bool] = {}
    with speed:
        start = time.perf_counter()
        root = tracer.begin("workload")
        try:
            WORKLOADS[workload](seed, phase, checks, work_dir)
        finally:
            tracer.end(root)
            end = time.perf_counter()
            for patch in reversed(patches):
                patch.restore()
    checks["tracer wrappers removed"] = not tracing.wrappers_left("repro")
    episodes = probe.episodes()
    checks["served <= requests"] = all(e["served"] <= e["requests"] for e in episodes)
    scale = speed.scale()

    def raw(a: float, b: float) -> float:
        return b - a - scale.paused(a, b)

    def phases(measure) -> dict[str, float]:  # noqa: ANN001
        return {
            name: sum(measure(a, b) for a, b in spans)
            for name, spans in phase.intervals.items()
        }

    record = {
        "workload": workload,
        "seed": seed,
        "wall_s": scale.normalized(start, end),
        "phases": phases(scale.normalized),
        "cycle_s": [scale.normalized(a, b) for a, b in probe.cycles],
        "raw": {"wall_s": raw(start, end), "phases": phases(raw)},
        "speed_samples": len(speed.samples),
        "failed": probe.failed,
        "episodes": episodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
    }
    if trace:
        spans = pathlib.Path(work_dir).parent / f"trace-{workload}-seed{seed}.json"
        tracer.write(str(spans))
        record["spans_file"] = str(spans)
        record["stats"] = tracer.stats
        record["counters"] = tracer.counters
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    record = run_round(args.workload, args.seed, bool(args.trace), args.work_dir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
