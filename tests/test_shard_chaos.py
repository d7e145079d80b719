"""Shard chaos integration: the unsharded/sharded/shard-chaos triple.

The acceptance bar for the sharded topology: the clean sharded run is
bit-identical to the unsharded PR 5 service run, and under the
shard-blackout profile every tick still completes, failover re-covers
dead keyspace within the supervisor's budget, and the per-shard record
ledger reconciles exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.service.sharding import (
    ShardChaosConfig,
    ShardChaosHarness,
    ShardingConfig,
)


@pytest.fixture(scope="module")
def shard_verdict():
    """One unsharded/sharded/chaos triple on the shared small world."""
    harness = ShardChaosHarness(
        ShardChaosConfig(
            profile="shard-blackout",
            seeds=(0,),
            population_size=250,
            num_teams=10,
            window_days=0.25,
            sharding=ShardingConfig(num_shards=4),
        )
    )
    return harness.run_seed(0), harness


class TestCleanShardedEquivalence:
    def test_clean_sharded_run_is_bit_identical_to_unsharded(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.checks["equivalence_ok"], verdict.violations

    def test_equivalence_holds_on_a_fresh_pair(self, shard_verdict):
        """Belt and braces: rebuild both services and compare directly."""
        _, harness = shard_verdict
        unsharded = harness.world.service(0).run()
        sharded = harness.sharded_service(0).run()
        assert unsharded.result == sharded.result

    def test_clean_sharded_run_is_silent(self, shard_verdict):
        verdict, _ = shard_verdict
        clean = verdict.fields["clean"]
        assert clean["ticks_completed"] == clean["ticks_expected"] > 0
        assert clean["ingest"]["rejected_total"] == 0
        assert clean["ingest"]["lost"] == 0
        assert clean["supervisor"]["failovers"] == []


class TestShardChaosInvariants:
    def test_verdict_passes(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.ok, verdict.violations

    def test_no_tick_skipped_despite_shard_deaths(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.checks["ticks_ok"]
        chaos = verdict.fields["chaos"]
        assert chaos["ticks_completed"] == chaos["ticks_expected"]

    def test_shard_faults_actually_fired(self, shard_verdict):
        """A chaos run that killed nothing proves nothing."""
        verdict, _ = shard_verdict
        supervisor = verdict.fields["chaos"]["supervisor"]
        assert supervisor["failovers"], "no shard ever failed over"

    def test_failover_stayed_within_budget(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.checks["failover_budget_ok"]
        supervisor = verdict.fields["chaos"]["supervisor"]
        assert (
            supervisor["max_uncovered_cycles"]
            <= supervisor["failover_budget_cycles"]
        )

    def test_ledger_reconciles_under_chaos(self, shard_verdict):
        verdict, _ = shard_verdict
        assert verdict.checks["reconciliation_ok"]

    def test_report_is_json_ready(self, shard_verdict):
        verdict, _ = shard_verdict
        encoded = json.dumps(verdict.as_json())
        assert '"failover_budget_ok"' in encoded
