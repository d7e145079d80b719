"""The repository benchmark: one command per workload run.

Usage, from the repository root::

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``simulate`` -- ``repro simulate``: build Michael and Florence, train
  MobiRescue on Michael, deploy it on Florence for the Sep 16 day;
* ``baselines`` -- ``repro compare`` without MobiRescue: Rescue, then
  Schedule, on Florence for Sep 16;
* ``train`` -- ``repro train``: sentinel-guarded, supervised training on
  Michael with a checkpoint per episode.

Each round of a workload runs in a fresh process (``workload.py``), one
after another, never two at once.  Untraced (``--trace 0``), the run is one
round, which alone takes longer than ``--seconds``; the end-to-end metrics
are its own, and the cycle percentiles are taken over its every dispatch
cycle.  Times are seconds at a fixed machine speed, measured against a
reference computation sampled through the round (``speed.py``), because
the shared host's own speed drifts by up to a third; the measured wall time
is printed beside them.  Traced (``--trace 1``), one untraced round is
followed by one traced round, and the per-layer metrics come from the
traced one.

Every round must pass its own correctness checks, and a traced run's two
rounds must produce the same per-episode outcome digests (a hash over each
pickup's request, team and time), which are printed so that two commits
can be compared seed by seed.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (dispatch
cycles), ``failed`` (cycles that fell back, lost their prediction stage or
overran the paper's 0.5 s decision bound) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Both rounds of a traced run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

sys.path.insert(0, str(HERE))

from layers import layer_metric  # noqa: E402


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def highest_percentile(samples: int) -> float | None:
    """The highest of ``PERCENTILES`` with at least ``MIN_BEYOND`` of
    ``samples`` beyond it, or None when even the median has too few."""
    for p in PERCENTILES:
        if samples * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return None


def child_env() -> dict[str, str]:
    """The round's environment: BLAS capped at the machine's core count."""
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)
    return env


def run_round(workload: str, seed: int, trace: bool, work_dir: pathlib.Path,
              deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for another round")
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--work-dir", str(work_dir),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            timeout=timeout, check=False, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} round overran the run limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} round exited with code {done.returncode}")
    return json.loads(lines[-1])


def outcome(rounds: list[dict]) -> tuple[bool, list[str]]:
    """(correct, problems) over every round of one run."""
    problems = []
    for i, r in enumerate(rounds):
        problems += [f"round {i}: check failed: {name}" for name, ok in r["checks"].items()
                     if not ok]
    digests = {tuple(e["digest"] for e in r["episodes"]) for r in rounds}
    if len(digests) != 1:
        problems.append(f"outcome digests differ between rounds: {sorted(digests)}")
    return not problems, problems


def end_to_end(r: dict, names: list[str]) -> dict[str, float]:
    """Every end-to-end metric of one untraced round."""
    cycles = [s * 1e3 for s in r["cycle_s"]]
    supported = highest_percentile(len(cycles))
    if supported is None or supported < 95.0:
        raise BenchmarkError(f"{len(cycles)} cycles are too few for a p95")
    setup = r["phases"]["setup"]
    requests = sum(e["requests"] for e in r["episodes"])
    if not requests:
        raise BenchmarkError("degenerate input: the seed gives no rescue requests")
    values = {
        "wall_s": r["wall_s"],
        "setup_s": setup,
        "run_s": r["wall_s"] - setup,
        "cycle_p50_ms": float(np.percentile(cycles, 50.0)),
        "cycle_p95_ms": float(np.percentile(cycles, 95.0)),
        "peak_rss_mb": r["peak_rss_mb"],
        "served_share": sum(e["served"] for e in r["episodes"]) / requests,
        "timely_share": sum(e["timely"] for e in r["episodes"]) / requests,
    }
    return {name: values[name] for name in names}


def per_layer(untraced: dict, traced: dict, names: list[str]) -> dict[str, float]:
    stats, counters = traced["stats"], traced["counters"]
    _calls, total, self_s = stats["workload"]
    out = {}
    for name in names:
        if name == "trace.overhead":
            # At reference speed: the host's speed swings the measured
            # wall time of one round by far more than the tracer costs.
            out[name] = traced["wall_s"] / untraced["wall_s"]
        elif name == "trace.unattributed_share":
            out[name] = self_s / total
        elif name.startswith("phase."):
            out[name] = untraced["phases"].get(name.split(".")[1], 0.0)
        else:
            out[name] = layer_metric(stats, counters, name)
    return out


def layer_table(traced: dict) -> list[str]:
    """The traced round's spans by self time, with their share of the run."""
    wall = traced["stats"]["workload"][1]
    rows = sorted(traced["stats"].items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':34s} {'calls':>9s} {'s':>9s} {'self_s':>9s} {'self%':>6s}"]
    for name, (calls, total, self_s) in rows:
        lines.append(
            f"{name:34s} {int(calls):9d} {total:9.3f} {self_s:9.3f} {100 * self_s / wall:6.1f}"
        )
    return lines


def _terminate(signum: int, _frame: object) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running round, and through the work directory's cleanup.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to the benchmark; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} (choose from {workloads})",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        rounds = [run_round(args.workload, args.seed, False, work_dir, deadline)]
        if args.trace:
            rounds.append(run_round(args.workload, args.seed, True, work_dir, deadline))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct, problems = outcome(rounds)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    episodes = rounds[0]["episodes"]
    digest = hashlib.sha256(" ".join(e["digest"] for e in episodes).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: outcome digest {digest[:16]}")
    for i, e in enumerate(episodes):
        print(f"episode {i}: requests {e['requests']} served {e['served']} "
              f"timely {e['timely']} digest {e['digest']}")
    for i, r in enumerate(rounds):
        print(f"round {i}: wall {r['raw']['wall_s']:.3f} s measured, "
              f"{r['wall_s']:.3f} s at reference speed ({r['speed_samples']} speed samples)")
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(rounds[0], rounds[1], names)
        print("\n".join(layer_table(rounds[1])))
        print(f"spans written to {rounds[1]['spans_file']}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        try:
            values = end_to_end(rounds[0], names)
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    for name in names:
        print(f"{name:34s} {values[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r["cycle_s"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
