"""Focused tests for the trace generator's configuration knobs."""

import numpy as np
import pytest

from repro.data.charlotte import build_charlotte_scenario
from repro.mobility.generator import MobilityTraceGenerator, TraceConfig
from repro.mobility.population import PopulationConfig, generate_population
from repro.roadnet.generator import RoadNetworkConfig
from repro.weather.storms import MICHAEL, SECONDS_PER_DAY


@pytest.fixture(scope="module")
def scen():
    return build_charlotte_scenario(MICHAEL, RoadNetworkConfig(grid_cols=8, grid_rows=8))


@pytest.fixture(scope="module")
def persons(scen):
    return generate_population(
        scen.network,
        scen.partition,
        PopulationConfig(size=80),
        excluded_nodes=frozenset(h.node_id for h in scen.hospitals),
    )


def make_generator(scen, **config_kwargs):
    return MobilityTraceGenerator(
        scen.network,
        scen.partition,
        scen.terrain,
        scen.weather_field,
        scen.flood,
        scen.hospitals,
        TraceConfig(**config_kwargs),
    )


class TestGeneratorConfig:
    def test_determinism(self, scen, persons):
        a = make_generator(scen, seed=11).generate(persons)
        b = make_generator(scen, seed=11).generate(persons)
        assert len(a.trace) == len(b.trace)
        for name in a.trace.COLUMNS:
            np.testing.assert_array_equal(getattr(a.trace, name), getattr(b.trace, name))
        np.testing.assert_array_equal(a.traversals.t, b.traversals.t)
        np.testing.assert_array_equal(a.traversals.segment_id, b.traversals.segment_id)
        assert a.rescues == b.rescues

    def test_seed_changes_outcome(self, scen, persons):
        a = make_generator(scen, seed=11).generate(persons)
        b = make_generator(scen, seed=12).generate(persons)
        assert len(a.trace) != len(b.trace) or len(a.rescues) != len(b.rescues)

    def test_zero_trap_probability_means_no_rescues(self, scen, persons):
        bundle = make_generator(scen, seed=2, trap_probability=0.0).generate(persons)
        assert bundle.rescues == []

    def test_huge_tolerance_means_no_rescues(self, scen, persons):
        bundle = make_generator(
            scen, seed=2, depth_tolerance_range_m=(500.0, 600.0)
        ).generate(persons)
        assert bundle.rescues == []

    def test_tiny_tolerance_means_more_rescues(self, scen, persons):
        few = make_generator(scen, seed=2, depth_tolerance_range_m=(3.0, 12.0))
        many = make_generator(scen, seed=2, depth_tolerance_range_m=(0.05, 0.5))
        assert len(many.generate(persons).rescues) > len(few.generate(persons).rescues)

    def test_clean_config_produces_clean_trace(self, scen, persons):
        bundle = make_generator(
            scen, seed=2, outlier_rate=0.0, duplicate_rate=0.0
        ).generate(persons)
        assert (bundle.trace.x <= scen.partition.width_m).all()
        assert (bundle.trace.x >= 0).all()

    def test_outlier_rate_respected(self, scen, persons):
        bundle = make_generator(scen, seed=2, outlier_rate=0.05).generate(persons)
        outside = (bundle.trace.x > scen.partition.width_m).mean()
        assert 0.02 < outside < 0.08

    def test_requests_on_day(self, scen, persons):
        bundle = make_generator(scen, seed=2).generate(persons)
        total = sum(
            len(bundle.requests_on_day(d)) for d in range(scen.timeline.total_days)
        )
        assert total == len(bundle.rescues)
        for d in range(scen.timeline.total_days):
            for r in bundle.requests_on_day(d):
                assert d * SECONDS_PER_DAY <= r.request_time_s < (d + 1) * SECONDS_PER_DAY

    def test_rescued_people_emit_hospital_fixes(self, scen, persons):
        """A rescued person's trace contains fixes near their delivery
        hospital after the delivery time."""
        bundle = make_generator(scen, seed=2).generate(persons)
        if not bundle.rescues:
            pytest.skip("no rescues at this scale/seed")
        r = bundle.rescues[0]
        hx, hy = scen.network.landmark(r.hospital_node).xy
        person_fixes = bundle.trace.person_slice(r.person_id)
        after = person_fixes.t >= r.delivery_time_s - 1.0
        d = np.hypot(
            person_fixes.x[after].astype(float) - hx,
            person_fixes.y[after].astype(float) - hy,
        )
        assert (d < 200.0).any()

    def test_fix_intervals_respect_person_rate(self, scen, persons):
        """Stationary-period fixes arrive no faster than the person's GPS
        interval (driving fixes are denser by design)."""
        bundle = make_generator(scen, seed=2, outlier_rate=0.0, duplicate_rate=0.0).generate(
            persons[:5]
        )
        for person in persons[:2]:
            fixes = bundle.trace.person_slice(person.person_id).sort()
            stationary = fixes.speed < 1.0
            ts = fixes.t[stationary]
            if len(ts) > 10:
                gaps = np.diff(ts)
                # Allow trip interruptions; the *typical* stationary gap is
                # the person's interval.
                assert np.median(gaps) >= 0.6 * person.gps_interval_s
