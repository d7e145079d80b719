"""Unified service-report tests: building, extracting from both
artifact shapes, rendering, and atomic persistence."""

from __future__ import annotations

import json

import pytest

from repro.service.report import (
    SERVICE_REPORT_FORMAT,
    build_service_report,
    extract_service_report,
    format_service_report,
    write_service_report,
)

INGEST = {
    "accepted": 900,
    "shed": 40,
    "rejected_total": 60,
    "lost": 5,
    "per_shard": [
        {
            "shard": 0,
            "alive": True,
            "rejected_by_reason": {"non_finite_value": 2},
            "quarantine_kept": 2,
            "quarantine_dropped": 0,
        },
        {
            "shard": 1,
            "alive": False,
            "rejected_by_reason": {},
            "quarantine_kept": 0,
            "quarantine_dropped": 0,
        },
    ],
}

BREAKERS = {
    "predictor": {"state": "open", "failures": 9, "trips": 2},
    "policy": {"state": "closed", "failures": 0, "trips": 0},
}


def loadgen_payload():
    return {
        "format": "repro-loadgen",
        "totals": {"accepted": 900, "shed": 40, "quarantined": 60, "lost": 5},
        "per_shard": INGEST["per_shard"],
        "supervisor": {
            "failovers": [{"from_shard": 1}],
            "rebalances": [],
            "max_uncovered_cycles": 1,
            "within_failover_budget": True,
        },
    }


def chaos_campaign():
    return {
        "profile": "shard-blackout",
        "runs": [
            {
                "chaos": {
                    "ingest": INGEST,
                    "predictor_breaker": BREAKERS["predictor"],
                    "policy_breaker": BREAKERS["policy"],
                    "service_incident_kinds": {"shard_failover": 3},
                    "supervisor": {"failovers": [], "rebalances": []},
                }
            }
        ],
    }


class TestBuild:
    def test_sections_and_format_fields(self):
        report = build_service_report(
            "unit", INGEST, breakers=BREAKERS, incident_kinds={"b": 1, "a": 2}
        )
        assert report["format"] == SERVICE_REPORT_FORMAT
        assert report["source"] == "unit"
        assert report["incident_kinds"] == {"a": 2, "b": 1}
        rows = report["quarantine_by_shard"]
        assert [row["shard"] for row in rows] == [0, 1]
        assert rows[1]["alive"] is False

    def test_unsharded_ingest_yields_no_shard_rows(self):
        report = build_service_report("unit", {"accepted": 5})
        assert report["quarantine_by_shard"] == []


class TestExtract:
    def test_from_loadgen_artifact(self):
        report = extract_service_report(loadgen_payload())
        assert report["source"] == "loadgen"
        assert report["ingest"]["accepted"] == 900
        assert report["ingest"]["rejected_total"] == 60
        assert len(report["quarantine_by_shard"]) == 2
        assert report["supervisor"]["within_failover_budget"] is True

    def test_from_chaos_campaign(self):
        report = extract_service_report(chaos_campaign())
        assert report["source"] == "chaos:shard-blackout"
        assert report["breakers"]["predictor"]["state"] == "open"
        assert report["incident_kinds"] == {"shard_failover": 3}

    def test_from_worker_campaign(self):
        """A worker report's supervision incidents reach the report."""
        incidents = [
            {"kind": "worker_death", "message": "worker process exited (code 17)",
             "t_s": 1.0 + i, "episode_id": 0, "worker_id": i}
            for i in range(4)
        ] + [{"kind": "quarantine", "message": "killed its worker 2 times",
              "t_s": 5.0, "episode_id": 0, "worker_id": None}]
        campaign = {
            "profile": "worker-kill",
            "runs": [{"worker_deaths": 4, "chaos": {"incidents": incidents}}],
        }
        report = extract_service_report(campaign)
        assert report["source"] == "chaos:worker-kill"
        assert report["incidents"] == incidents
        assert report["incident_kinds"] == {"quarantine": 1, "worker_death": 4}
        assert "incidents: quarantine=1, worker_death=4" in format_service_report(
            report
        )

    def test_chaos_run_falls_back_to_clean_summary(self):
        campaign = chaos_campaign()
        run = campaign["runs"][0]
        run["clean"] = run.pop("chaos")
        report = extract_service_report(campaign)
        assert report["ingest"]["accepted"] == 900

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            extract_service_report({"format": "something-else"})
        with pytest.raises(ValueError):
            extract_service_report({"runs": []})


class TestRenderAndPersist:
    def test_text_rendering_covers_every_section(self):
        report = extract_service_report(chaos_campaign())
        text = format_service_report(report)
        assert "breaker predictor: state=open failures=9 trips=2" in text
        assert "ingest: accepted=900" in text
        assert "shard 0 [up]: non_finite_value=2" in text
        assert "shard 1 [DOWN]: clean" in text
        assert "incidents: shard_failover=3" in text
        assert "supervisor: failovers=0" in text

    def test_write_service_report_is_loadable(self, tmp_path):
        report = build_service_report("unit", INGEST, breakers=BREAKERS)
        out = tmp_path / "health.json"
        write_service_report(report, str(out))
        assert json.loads(out.read_text()) == report
