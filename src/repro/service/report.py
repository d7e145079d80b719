"""The unified service-health report: breakers, quarantine, incidents.

One shape, three producers.  A :func:`build_service_report` payload
carries the service's observable health — circuit-breaker snapshots,
per-shard quarantine reason counts, the bounded incident rings, and
(when sharded) the supervisor's failover digest — and can be built
directly from live components or *extracted* from a chaos campaign or
loadgen artifact that already embeds the same sections.  The CLI's
``repro service-report`` subcommand renders either source as JSON
(through the atomic artifact layer) or as text.
"""

from __future__ import annotations

import datetime
from collections import Counter
from typing import Any

from repro.core.artifacts import atomic_write_json

SERVICE_REPORT_FORMAT = "repro-service-report"
SERVICE_REPORT_VERSION = 1


def build_service_report(
    source: str,
    ingest: dict[str, Any],
    breakers: dict[str, dict[str, Any]] | None = None,
    incidents: list[dict[str, Any]] | None = None,
    incident_kinds: dict[str, int] | None = None,
    supervisor: dict[str, Any] | None = None,
    training: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the unified report payload from its sections."""
    per_shard = ingest.get("per_shard")
    shard_reasons: list[dict[str, Any]] = []
    if isinstance(per_shard, list):
        for row in per_shard:
            if isinstance(row, dict):
                shard_reasons.append(
                    {
                        "shard": row.get("shard"),
                        "alive": row.get("alive", True),
                        "rejected_by_reason": dict(
                            sorted(
                                (row.get("rejected_by_reason") or {}).items()
                            )
                        ),
                        "quarantine_kept": row.get("quarantine_kept", 0),
                        "quarantine_dropped": row.get("quarantine_dropped", 0),
                    }
                )
    return {
        "format": SERVICE_REPORT_FORMAT,
        "version": SERVICE_REPORT_VERSION,
        "date": datetime.date.today().isoformat(),
        "source": source,
        "ingest": ingest,
        "quarantine_by_shard": shard_reasons,
        "breakers": breakers or {},
        "incidents": incidents or [],
        "incident_kinds": dict(sorted((incident_kinds or {}).items())),
        "supervisor": supervisor or {},
        "training": training or {},
    }


def _first_run(campaign: dict[str, Any]) -> dict[str, Any] | None:
    runs = campaign.get("runs")
    if isinstance(runs, list) and runs and isinstance(runs[0], dict):
        return runs[0]
    return None


def _kind_counts(incidents: list[Any]) -> dict[str, int]:
    return dict(
        Counter(str(i.get("kind", "?")) for i in incidents if isinstance(i, dict))
    )


def extract_service_report(payload: dict[str, Any]) -> dict[str, Any]:
    """Pull the unified report out of a chaos campaign or loadgen artifact.

    Chaos campaigns carry per-seed run summaries; the report reflects
    the *first* seed's chaos run (the shape is identical across seeds —
    the point is the sections, not the aggregate).  Loadgen artifacts
    map their per-shard rows and supervisor digest directly.
    """
    if payload.get("format") == LOADGEN_FORMAT_NAME:
        ingest = {
            "accepted": payload.get("totals", {}).get("accepted", 0),
            "shed": payload.get("totals", {}).get("shed", 0),
            "rejected_total": payload.get("totals", {}).get("quarantined", 0),
            "lost": payload.get("totals", {}).get("lost", 0),
            "per_shard": payload.get("per_shard", []),
        }
        return build_service_report(
            source="loadgen",
            ingest=ingest,
            supervisor=payload.get("supervisor") or {},
        )
    if payload.get("format") == TRAIN_FORENSICS_FORMAT_NAME:
        anomalies = payload.get("anomalies") or []
        return build_service_report(
            source="train-forensics",
            ingest={},
            incidents=list(anomalies),
            incident_kinds=_kind_counts(anomalies),
            training={
                "aborted": True,
                "reason": payload.get("reason"),
                "seed": payload.get("seed"),
                "level": payload.get("level"),
                "lr_scale": payload.get("lr_scale"),
                "recoveries": payload.get("recoveries") or [],
            },
        )
    run = _first_run(payload)
    if run is None:
        raise ValueError(
            "input is neither a loadgen artifact nor a chaos campaign report"
        )
    if str(payload.get("profile", "")).startswith("train-"):
        return build_service_report(
            source=f"chaos:{payload['profile']}",
            ingest={},
            incidents=run.get("anomalies") or [],
            incident_kinds=run.get("anomaly_kinds") or {},
            training={
                "profile": payload["profile"],
                "applied_faults": run.get("applied_count", 0),
                "recoveries": run.get("recoveries") or [],
                "aborted": run.get("aborted", False),
                "clean_identical": run.get("clean_identical"),
                "committed_checkpoints": run.get("committed_checkpoints", 0),
            },
        )
    summary = run.get("chaos") or run.get("clean") or {}
    if str(payload.get("profile", "")).startswith("worker-"):
        incidents = summary.get("incidents") or []
        return build_service_report(
            source=f"chaos:{payload['profile']}",
            ingest={},
            incidents=incidents,
            incident_kinds=_kind_counts(incidents),
        )
    return build_service_report(
        source=f"chaos:{payload.get('profile', '?')}",
        ingest=summary.get("ingest") or {},
        breakers={
            "predictor": summary.get("predictor_breaker") or {},
            "policy": summary.get("policy_breaker") or {},
        },
        incident_kinds=summary.get("service_incident_kinds") or {},
        supervisor=summary.get("supervisor") or {},
    )


#: The loadgen format name, duplicated here to keep this module import-
#: light (report extraction must not pull numpy via the loadgen module).
LOADGEN_FORMAT_NAME = "repro-loadgen"

#: Same deal for the training forensics bundle's ``incidents.json``
#: (``repro.training.loop.FORENSICS_FORMAT``).
TRAIN_FORENSICS_FORMAT_NAME = "repro-train-forensics"


def format_service_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of the unified report."""
    lines = [
        f"repro service-report — {report['date']}  (source: {report['source']})"
    ]
    breakers = report.get("breakers") or {}
    for name in sorted(breakers):
        snap = breakers[name]
        if not snap:
            continue
        lines.append(
            f"  breaker {name}: state={snap.get('state', '?')} "
            f"failures={snap.get('failures', 0)} trips={snap.get('trips', 0)}"
        )
    ingest = report.get("ingest") or {}
    if ingest:
        lines.append(
            f"  ingest: accepted={ingest.get('accepted', 0):,} "
            f"shed={ingest.get('shed', 0):,} "
            f"rejected={ingest.get('rejected_total', 0):,} "
            f"lost={ingest.get('lost', 0):,}"
        )
    for row in report.get("quarantine_by_shard") or []:
        reasons = row.get("rejected_by_reason") or {}
        reason_text = (
            ", ".join(f"{reason}={count}" for reason, count in sorted(reasons.items()))
            or "clean"
        )
        alive = "up" if row.get("alive", True) else "DOWN"
        lines.append(f"  shard {row.get('shard')} [{alive}]: {reason_text}")
    kinds = report.get("incident_kinds") or {}
    if kinds:
        lines.append(
            "  incidents: "
            + ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
        )
    training = report.get("training") or {}
    if training:
        if "profile" in training:
            lines.append(
                f"  training chaos [{training['profile']}]: "
                f"faults={training.get('applied_faults', 0)} "
                f"recoveries={len(training.get('recoveries') or [])} "
                f"aborted={training.get('aborted', False)} "
                f"clean_identical={training.get('clean_identical')} "
                f"checkpoints={training.get('committed_checkpoints', 0)}"
            )
        else:
            lines.append(
                f"  training forensics: reason={training.get('reason', '?')} "
                f"seed={training.get('seed')} level={training.get('level')} "
                f"lr_scale={training.get('lr_scale')} "
                f"recoveries={len(training.get('recoveries') or [])}"
            )
    supervisor = report.get("supervisor") or {}
    if supervisor:
        lines.append(
            f"  supervisor: failovers={len(supervisor.get('failovers') or [])} "
            f"rebalances={len(supervisor.get('rebalances') or [])} "
            f"max_uncovered={supervisor.get('max_uncovered_cycles', 0)} "
            f"within_budget={supervisor.get('within_failover_budget', True)}"
        )
    return "\n".join(lines)


def write_service_report(report: dict[str, Any], out_path: str) -> None:
    """Persist the unified report atomically."""
    atomic_write_json(out_path, report)
