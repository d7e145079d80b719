"""Record the benchmark's baseline: every workload over many seeds.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 0-9 --out perfbench/BASELINE.json

Runs ``run.py`` untraced once per workload and seed, one run at a time,
then traced once per workload on the first seed.  Writes each end-to-end
metric's per-seed values, median, quartiles and spread (the distance
between the quartiles as a share of the median), each run's outcome
digests, the traced run's heaviest and lightest layers by share of the
run, which end-to-end metric each layer should move, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Which end-to-end metric each layer's metrics should move, and where.
LAYER_MOVES = {
    "data, mobility (data.scenario, mobility.population, mobility.trace)":
        "setup_s on all three workloads; largest on baselines (population 1,500)",
    "mobility stage 1 (mobility.clean, mobility.mapmatch)":
        "run_s on train and simulate (training set-up and deploy)",
    "core.positions (positions.feed, mapmatch.nodes_at_time)":
        "cycle_p50_ms on simulate and train; absent on baselines",
    "core.predictor, weather, geo.flood, ml.svm (predictor.distribution, "
    "weather.factor_vectors, svm.predict, svm.fit, flood.waterline)":
        "cycle metrics on simulate and train; flood.waterline also run_s on baselines",
    "core.state (state.build_context)": "cycle_p50_ms on simulate and train",
    "ml.dqn (dqn.act, dqn.learn, dqn.remember)":
        "run_s on train and simulate; cycle_p95_ms (learning runs inside cycles)",
    "dispatch (dispatch.guard, dispatch.mobirescue/rescue/schedule, dispatch.assignment)":
        "cycle metrics on baselines and simulate",
    "routing (routing.*)": "run_s on baselines (largest), then simulate",
    "sim.kernel (sim.run self time, sim.events, sim.ticks)": "run_s on baselines",
    "core.training (training.pretrain, training.episode)": "run_s on simulate and train",
    "training sentinel (sentinel.*)": "run_s on train only; no change expected on simulate",
    "core.persistence (persistence.checkpoint)": "run_s on train only",
    "trace (trace.unattributed_share, trace.overhead)": "none; they check the trace itself",
}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    import numpy

    blas = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": f"capped at nproc ({os.cpu_count()}) unless set: {blas}",
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record the benchmark's baseline.")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    record: dict = {"machine": machine(), "layer_moves": LAYER_MOVES, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, stdout = bench(workload, seed, seconds, 0)
            digests = re.findall(r"digest ([0-9a-f]+)", stdout)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "digests": digests,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        traced, stdout = bench(workload, seeds[0], seconds, 1)
        # The layer table run.py prints: span, calls, s, self_s, self%.
        table = re.findall(r"^(\S+) +\d+ +[\d.]+ +[\d.]+ +([\d.]+)$", stdout, re.M)
        shares = {name: float(pct) / 100.0 for name, pct in table}
        record["workloads"][workload] = {
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]] for r in runs])
                for m in spec["end_to_end"]
            },
            "runs": runs,
            "traced_seed": seeds[0],
            "traced_correct": traced["correct"],
            "heavy_layers": {k: v for k, v in shares.items() if v >= 0.05},
            "light_layers": {k: v for k, v in shares.items() if v < 0.01},
            "self_time_share": shares,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
