"""Assorted small-unit tests: dispatcher defaults, observation helpers,
flood monotonicity, route-cache weights."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dispatch.base import (
    DispatchObservation,
    Dispatcher,
    TeamView,
    command_depot,
)
from repro.geo.flood import FloodModel
from repro.geo.regions import charlotte_regions
from repro.geo.terrain import TerrainField
from repro.mobility.routes import RouteCache
from repro.roadnet.generator import RoadNetworkConfig, generate_road_network

W, H = 70_000.0, 45_000.0


@pytest.fixture(scope="module")
def partition():
    return charlotte_regions(W, H)


@pytest.fixture(scope="module")
def network(partition):
    return generate_road_network(partition, RoadNetworkConfig(grid_cols=7, grid_rows=7))


class PassiveDispatcher(Dispatcher):
    name = "Passive"

    def dispatch(self, obs):
        return {}


class TestDispatcherDefaults:
    def test_default_attributes(self):
        d = PassiveDispatcher()
        assert d.computation_delay_s == 0.0
        assert d.flood_aware is True

    def test_hooks_are_noops(self):
        d = PassiveDispatcher()
        d.observe_requests([])  # must not raise
        d.on_cycle_end(None)

    def test_abstract_base(self):
        with pytest.raises(TypeError):
            Dispatcher()  # type: ignore[abstract]


class TestDispatchObservation:
    def test_assignable_teams_filter(self, network, partition):
        teams = [
            TeamView(0, 0, "idle", 5, True),
            TeamView(1, 0, "to_hospital", 2, False),
            TeamView(2, 0, "to_segment", 5, True),
        ]
        obs = DispatchObservation(
            t_s=0.0, teams=teams, pending={}, closed=frozenset(),
            network=network, hospitals=[],
        )
        assert [t.team_id for t in obs.assignable_teams()] == [0, 2]

    def test_command_depot_identity(self):
        assert command_depot().segment_id is None


class TestFloodMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_waterline_monotone_in_severity(self, s1, s2):
        part = charlotte_regions(W, H)
        terr = TerrainField(part)
        level = {"v": 0.0}
        flood = FloodModel(terr, lambda r, t: level["v"], grid_resolution=20)
        lo, hi = sorted((s1, s2))
        level["v"] = lo
        w_lo = flood.waterline_m(3, 0.0)
        level["v"] = hi
        # A new time: waterlines are memoized per (region, t).
        w_hi = flood.waterline_m(3, 1.0)
        assert w_hi >= w_lo - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_flooded_fraction_bounded(self, sev):
        part = charlotte_regions(W, H)
        terr = TerrainField(part)
        flood = FloodModel(terr, lambda r, t: sev, grid_resolution=20)
        for rid in part.region_ids:
            frac = flood.flooded_fraction(rid, 0.0)
            assert 0.0 <= frac <= flood.max_flood_fraction + 0.06


class TestRouteCacheWeights:
    def test_length_weighted_cache(self, network):
        by_time = RouteCache(network, weight="time")
        by_length = RouteCache(network, weight="length")
        a, b = 0, network.num_landmarks - 1
        rt, rl = by_time.route(a, b), by_length.route(a, b)
        assert rt is not None and rl is not None
        # The length-optimal route is never longer than the time-optimal one.
        assert rl.length_m <= rt.length_m + 1e-6
        # And the time-optimal route is never slower.
        assert rt.travel_time_s <= rl.travel_time_s + 1e-6

    def test_none_routes_cached(self, network):
        cache = RouteCache(network)
        r1 = cache.route(0, 0)
        assert r1 is not None and r1.is_trivial
        assert cache.route(0, 0) is r1
