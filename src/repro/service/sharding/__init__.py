"""Sharded ingest topology: isolation, failover, and load generation.

The single guarded loop of PR 5 scaled out: the GPS ingest stream is
partitioned geographically across N isolated shards
(:mod:`~repro.service.sharding.partition`,
:mod:`~repro.service.sharding.shard`,
:mod:`~repro.service.sharding.router`), a supervisor watches heartbeats
and commands bounded failover/rebalance moves
(:mod:`~repro.service.sharding.supervisor`), the sharded service wires
it into the PR 5 loop with bit-identity on the clean path
(:mod:`~repro.service.sharding.service`), shard-level chaos proves the
invariants (:mod:`~repro.service.sharding.chaos`), and the deterministic
load generator drives millions of synthetic records per simulated hour
(:mod:`~repro.service.sharding.loadgen`).
"""

from repro.service.sharding.loadgen import (
    LOADGEN_FORMAT,
    LoadgenConfig,
    LoadGenerator,
    default_output_path,
    format_loadgen_report,
    quick_config,
    run_loadgen,
    validate_loadgen_payload,
)
from repro.service.sharding.partition import (
    GridKeyspace,
    ShardAssignment,
    merge_counter_sum,
    merge_reason_counts,
    merge_shard_records,
)
from repro.service.sharding.router import ShardedIngestGuard
from repro.service.sharding.service import (
    ShardedDispatchService,
    ShardedServiceReport,
    ShardingConfig,
)
from repro.service.sharding.shard import Shard
from repro.service.sharding.chaos import (
    ShardChaosConfig,
    ShardChaosHarness,
)
from repro.service.sharding.supervisor import (
    STATUS_ABANDONED,
    STATUS_ACTIVE,
    STATUS_FAILED,
    FailoverEvent,
    RebalanceEvent,
    ShardSupervisor,
    SupervisorConfig,
)

__all__ = [
    "LOADGEN_FORMAT",
    "STATUS_ABANDONED",
    "STATUS_ACTIVE",
    "STATUS_FAILED",
    "FailoverEvent",
    "GridKeyspace",
    "LoadGenerator",
    "LoadgenConfig",
    "RebalanceEvent",
    "Shard",
    "ShardAssignment",
    "ShardChaosConfig",
    "ShardChaosHarness",
    "ShardSupervisor",
    "ShardedDispatchService",
    "ShardedIngestGuard",
    "ShardedServiceReport",
    "ShardingConfig",
    "SupervisorConfig",
    "default_output_path",
    "format_loadgen_report",
    "merge_counter_sum",
    "merge_reason_counts",
    "merge_shard_records",
    "quick_config",
    "run_loadgen",
    "validate_loadgen_payload",
]
