"""Extension example — the resilient dispatch service under chaos.

The robustness layer (``examples/fault_injection.py``) degrades the
*world*; this example degrades the *software* as well and shows the
service shell absorbing both.  ``repro.service`` validates every GPS
record at ingest, puts circuit breakers with degraded fallbacks around
the SVM predictor and the RL policy, and holds each stage to a slice of
a per-tick deadline.  The chaos harness (the service plug-in over the
campaign core in ``repro.core.chaos``) runs, per seed, a plain-engine
baseline, a clean guarded run (asserted bit-identical — the guards add
armour, never behavior), and a fault-composed chaos run, then checks the
invariants: no tick skipped, no exception escapes, served-under-chaos
within the degradation factor.  The result is one ``SeedVerdict``:
invariant booleans in ``checks``, the run record in ``fields``.

Run:  python examples/chaos_run.py
"""

from __future__ import annotations

from repro.service.chaos import ChaosConfig, ChaosHarness

PROFILE = "severe"
SEED = 0


def main() -> None:
    config = ChaosConfig(
        profile=PROFILE,
        seeds=(SEED,),
        population_size=500,
        num_teams=10,
        window_days=0.25,
    )
    print(f"Building Florence/Michael worlds (population {config.population_size})...")
    harness = ChaosHarness(config)
    print(f"Running the baseline/clean/chaos triple for seed {SEED} "
          f"under the {PROFILE!r} profile...\n")
    verdict = harness.run_seed(SEED)

    clean, chaos = verdict.fields["clean"], verdict.fields["chaos"]
    print(f"{'':<28}{'clean':>10}{'chaos':>10}")
    rows = [
        ("served requests", verdict.fields["clean_served"], verdict.fields["chaos_served"]),
        ("ticks completed/expected",
         f"{clean['ticks_completed']}/{clean['ticks_expected']}",
         f"{chaos['ticks_completed']}/{chaos['ticks_expected']}"),
        ("service incidents", clean["service_incidents"], chaos["service_incidents"]),
        ("records quarantined",
         clean["ingest"]["rejected_total"], chaos["ingest"]["rejected_total"]),
        ("predictor fallback serves",
         clean["predictor_fallback_serves"], chaos["predictor_fallback_serves"]),
        ("policy fallback cycles",
         clean["policy_fallback_cycles"], chaos["policy_fallback_cycles"]),
    ]
    for label, a, b in rows:
        print(f"{label:<28}{a!s:>10}{b!s:>10}")

    print("\nchaos quarantine reasons:")
    for reason, count in sorted(chaos["ingest"]["rejected_by_reason"].items()):
        print(f"  {reason:<26}{count:>6}")
    print("\nchaos service incident kinds:")
    for kind, count in sorted(chaos["service_incident_kinds"].items()):
        print(f"  {kind:<26}{count:>6}")

    print("\ninvariants:")
    for name, held in verdict.checks.items():
        print(f"  {name:<26}{'held' if held else 'BROKEN':>6}")
    print(f"verdict: {'ALL HELD' if verdict.ok else 'VIOLATED'}")
    for violation in verdict.violations:
        print(f"  VIOLATION: {violation}")


if __name__ == "__main__":
    main()
