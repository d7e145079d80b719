"""Differential tests for the synthetic dataset build.

The trace generator's fast paths are checked against the code they
replaced, kept here as the reference:

* per-route segment columns, one running sum per move, batched terrain
  altitude for driving fixes and one-pass column assembly, against the
  per-move ``_emit_move``/``_Buffers`` (every ``TraceBundle`` column must
  be bitwise equal);
* ``TerrainField.altitude_many`` over a concatenation against the
  concatenated per-block results, which is what makes the batching exact;
* ``RegionProfile.severity`` and ``FloodModel.waterline_m`` against their
  ``np.clip`` forms, NaN included;
* ``sorted_quantile``, the waterline's read of a sorted region sample,
  against ``np.quantile``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geo.flood import FloodModel, sorted_quantile
from repro.geo.regions import (
    CHARLOTTE_REGION_PROFILES,
    RegionProfile,
    charlotte_regions,
    clip_unit,
)
from repro.geo.terrain import TerrainField
from repro.mobility import generator as generator_module
from repro.mobility.generator import MobilityTraceGenerator, TraceBundle, TraceConfig
from repro.mobility.population import PopulationConfig, generate_population
from repro.mobility.routes import RouteCache, RouteColumns
from repro.mobility.trace import GpsTrace, RescueRecord, TraversalLog

# -- scalar references --------------------------------------------------------


class _ReferenceBuffers:
    """The per-chunk column accumulators the generator used to fill."""

    def __init__(self) -> None:
        self.pid: list[np.ndarray] = []
        self.t: list[np.ndarray] = []
        self.x: list[np.ndarray] = []
        self.y: list[np.ndarray] = []
        self.alt: list[np.ndarray] = []
        self.speed: list[np.ndarray] = []
        self.trav_t: list[np.ndarray] = []
        self.trav_seg: list[np.ndarray] = []

    def add_fixes(self, pid, t, x, y, alt, speed) -> None:
        n = len(t)
        if n == 0:
            return
        self.pid.append(np.full(n, pid, dtype=np.int32))
        self.t.append(np.asarray(t, dtype=np.float64))
        self.x.append(np.asarray(x, dtype=np.float32))
        self.y.append(np.asarray(y, dtype=np.float32))
        self.alt.append(np.asarray(alt, dtype=np.float32))
        self.speed.append(np.asarray(speed, dtype=np.float32))

    def add_traversals(self, t, seg) -> None:
        if len(t) == 0:
            return
        self.trav_t.append(np.asarray(t, dtype=np.float64))
        self.trav_seg.append(np.asarray(seg, dtype=np.int32))


class ReferenceGenerator(MobilityTraceGenerator):
    """The generator with its per-move emission and assembly: segment
    attributes looked up one by one, one terrain query per move."""

    def _emit_move(self, pid, t0, cols: RouteColumns, rng, out) -> float:
        route = cols.route
        mult = max(0.2, self._speed_multiplier(t0))
        seg_times = np.array(
            [self.network.segment(s).free_flow_time_s / mult for s in route.segment_ids]
        )
        entries = t0 + np.concatenate([[0.0], np.cumsum(seg_times)[:-1]])
        arrival = t0 + float(seg_times.sum())
        out.add_traversals(entries, np.array(route.segment_ids))

        cfg = self.config
        ts = np.arange(t0, arrival, cfg.trip_fix_interval_s)
        if ts.size:
            node_times = t0 + np.concatenate([[0.0], np.cumsum(seg_times)])
            nxy = np.array([self.network.landmark(n).xy for n in route.nodes])
            x = np.interp(ts, node_times, nxy[:, 0]) + rng.normal(
                0.0, cfg.gps_noise_sigma_m, ts.size
            )
            y = np.interp(ts, node_times, nxy[:, 1]) + rng.normal(
                0.0, cfg.gps_noise_sigma_m, ts.size
            )
            alt = self.terrain.altitude_many(np.column_stack([x, y]))
            seg_speed = np.array(
                [self.network.segment(s).speed_limit_mps * mult for s in route.segment_ids]
            )
            idx = np.clip(
                np.searchsorted(node_times, ts, side="right") - 1, 0, len(seg_speed) - 1
            )
            speed = seg_speed[idx] + rng.normal(0.0, 0.5, ts.size)
            out.add_fixes(pid, ts, x, y, alt, np.abs(speed))
        return arrival

    def generate(self, persons):
        out = _ReferenceBuffers()
        rescues: list[RescueRecord] = []
        for person in persons:
            self._simulate_person(person, out, rescues)

        trace = GpsTrace(
            np.concatenate(out.pid) if out.pid else np.zeros(0),
            np.concatenate(out.t) if out.t else np.zeros(0),
            np.concatenate(out.x) if out.x else np.zeros(0),
            np.concatenate(out.y) if out.y else np.zeros(0),
            np.concatenate(out.alt) if out.alt else np.zeros(0),
            np.concatenate(out.speed) if out.speed else np.zeros(0),
        )
        trace = self._dirty(trace)
        traversals = TraversalLog(
            np.concatenate(out.trav_t) if out.trav_t else np.zeros(0),
            np.concatenate(out.trav_seg) if out.trav_seg else np.zeros(0),
        )
        rescues.sort(key=lambda r: r.request_time_s)
        return TraceBundle(trace=trace, traversals=traversals, rescues=rescues, persons=persons)


def reference_severity(profile: RegionProfile) -> float:
    p = np.clip((profile.precipitation_mm - 110.0) / 60.0, 0.0, 1.0)
    w = np.clip((profile.wind_mph - 50.0) / 35.0, 0.0, 1.0)
    a = np.clip((250.0 - profile.altitude_m) / 80.0, 0.0, 1.0)
    return float(0.5 * p + 0.3 * w + 0.2 * a)


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + a.tobytes()


def same_float(a: float, b: float) -> bool:
    """Bitwise equal, or both NaN: which NaN payload survives a sum of two
    NaNs is up to the compiled operand order, so only NaN-ness is pinned."""
    if np.isnan(a) and np.isnan(b):
        return True
    return bits(a) == bits(b)


def assert_bundles_identical(new: TraceBundle, ref: TraceBundle) -> None:
    for name in GpsTrace.COLUMNS:
        assert bits(getattr(new.trace, name)) == bits(getattr(ref.trace, name)), name
    assert bits(new.traversals.t) == bits(ref.traversals.t)
    assert bits(new.traversals.segment_id) == bits(ref.traversals.segment_id)
    assert [repr(dataclasses.astuple(r)) for r in new.rescues] == [
        repr(dataclasses.astuple(r)) for r in ref.rescues
    ]


def build_pair(scenario, persons, **config):
    args = (
        scenario.network,
        scenario.partition,
        scenario.terrain,
        scenario.weather_field,
        scenario.flood,
        scenario.hospitals,
        TraceConfig(**config),
    )
    return MobilityTraceGenerator(*args).generate(persons), ReferenceGenerator(*args).generate(
        persons
    )


def population(scenario, size):
    return generate_population(
        scenario.network,
        scenario.partition,
        PopulationConfig(size=size),
        excluded_nodes=frozenset(h.node_id for h in scenario.hospitals),
    )


# -- generator output ---------------------------------------------------------


class TestTraceBundleIdentical:
    @pytest.mark.parametrize("storm", ["florence", "michael"])
    def test_both_storms(self, storm, request):
        scenario = request.getfixturevalue(f"{storm}_scenario")
        new, ref = build_pair(scenario, population(scenario, 60), seed=5)
        assert len(new.trace) > 10_000 and len(new.traversals) > 1_000
        assert_bundles_identical(new, ref)

    def test_many_hospital_rides(self, florence_scenario):
        new, ref = build_pair(
            florence_scenario,
            population(florence_scenario, 60),
            seed=3,
            depth_tolerance_range_m=(0.05, 0.5),
        )
        assert len(new.rescues) >= 10
        assert_bundles_identical(new, ref)

    def test_clean_trace(self, michael_scenario):
        new, ref = build_pair(
            michael_scenario,
            population(michael_scenario, 40),
            seed=8,
            outlier_rate=0.0,
            duplicate_rate=0.0,
        )
        assert_bundles_identical(new, ref)

    def test_altitude_blocks_split_mid_run(self, florence_scenario, monkeypatch):
        # A tiny block size forces many mid-run terrain queries, most of
        # them splitting a move's fixes from its neighbours'.
        monkeypatch.setattr(generator_module, "ALTITUDE_BLOCK", 7)
        new, ref = build_pair(florence_scenario, population(florence_scenario, 30), seed=1)
        assert_bundles_identical(new, ref)

    def test_one_person(self, florence_scenario):
        new, ref = build_pair(florence_scenario, population(florence_scenario, 1), seed=2)
        assert len(new.trace) > 0
        assert_bundles_identical(new, ref)

    def test_no_persons(self, florence_scenario):
        new, ref = build_pair(florence_scenario, [], seed=2)
        assert len(new.trace) == 0 and len(new.traversals) == 0
        assert_bundles_identical(new, ref)


class TestRouteColumns:
    def test_columns_match_network(self, florence_scenario):
        net = florence_scenario.network
        cache = RouteCache(net)
        ids = net.landmark_ids()
        cols = cache.columns(ids[0], ids[-1])
        assert cols is not None and not cols.route.is_trivial
        route = cols.route
        assert cols.segment_ids.dtype == np.int32
        assert cols.segment_ids.tolist() == list(route.segment_ids)
        assert cols.free_flow_s.tolist() == [
            net.segment(s).free_flow_time_s for s in route.segment_ids
        ]
        assert cols.speed_limits_mps.tolist() == [
            net.segment(s).speed_limit_mps for s in route.segment_ids
        ]
        assert cols.node_x.tolist() == [net.landmark(n).x for n in route.nodes]
        assert cols.node_y.tolist() == [net.landmark(n).y for n in route.nodes]
        assert not cols.free_flow_s.flags.writeable

    def test_route_and_columns_share_one_entry(self, florence_scenario):
        cache = RouteCache(florence_scenario.network)
        cols = cache.columns(0, 5)
        assert cache.route(0, 5) is cols.route
        assert cache.columns(0, 5) is cols
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)


# -- batched terrain altitude -------------------------------------------------


class TestAltitudeBatching:
    TERRAIN = TerrainField(charlotte_regions(30_000.0, 25_000.0))

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        pts=st.lists(
            st.tuples(
                st.floats(-5_000.0, 35_000.0, allow_nan=False),
                st.floats(-5_000.0, 30_000.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        cuts=st.lists(st.integers(0, 60), max_size=8),
    )
    def test_concatenation_equals_blocks(self, pts, cuts):
        xy = np.array(pts, dtype=np.float64)
        bounds = sorted({min(c, len(xy)) for c in cuts})
        whole = self.TERRAIN.altitude_many(xy)
        blocks = [self.TERRAIN.altitude_many(b) for b in np.split(xy, bounds) if len(b)]
        assert bits(np.concatenate(blocks)) == bits(whole)


# -- scalar clips -------------------------------------------------------------

SPECIAL = [-0.0, 0.0, 1.0, -1.0, 2.0, 0.5, np.inf, -np.inf, np.nan, 5e-324, 1.0 - 2**-53]


class TestScalarClip:
    @pytest.mark.parametrize("v", SPECIAL)
    def test_clip_unit_special_values(self, v):
        assert same_float(clip_unit(v), float(np.clip(v, 0.0, 1.0)))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_clip_unit_matches_np_clip(self, v):
        assert same_float(clip_unit(v), float(np.clip(v, 0.0, 1.0)))

    def test_nan_propagates(self):
        assert np.isnan(clip_unit(float("nan")))

    def test_charlotte_profile_severity(self):
        for profile in CHARLOTTE_REGION_PROFILES:
            assert bits(profile.severity) == bits(reference_severity(profile))
            assert profile.severity is profile.severity  # computed once

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(allow_nan=True, allow_infinity=False, width=64),
        w=st.floats(allow_nan=True, allow_infinity=False, width=64),
        a=st.floats(allow_nan=True, allow_infinity=False, width=64),
    )
    def test_profile_severity_matches_np_clip(self, p, w, a):
        profile = RegionProfile(1, "r", p, w, a, (0.5, 0.5))
        assert same_float(profile.severity, reference_severity(profile))

    @pytest.mark.parametrize("v", SPECIAL)
    def test_waterline_matches_np_clip(self, v):
        flood = FloodModel(
            TerrainField(charlotte_regions(30_000.0, 25_000.0)),
            lambda r, t: v,
            grid_resolution=20,
        )
        alts = flood._region_alt_samples[3]
        severity = float(np.clip(v, 0.0, 1.0))
        if np.isnan(severity):
            # NaN reaches the quantile, which rejects it, as it always has.
            with pytest.raises(ValueError):
                flood.waterline_m(3, 0.0)
            return
        if severity <= 0.0:
            ref = float(alts[0]) - 1.0
        else:
            ref = float(np.quantile(alts, flood.max_flood_fraction * severity))
        assert bits(flood.waterline_m(3, 0.0)) == bits(ref)


# -- waterline quantile ---------------------------------------------------------

#: Sample values: finite floats over a wide range, or a few small integers
#: so that ties are common.  Signed zeros compare equal, so np.quantile's
#: partition may leave either one at a given index; values are normalised
#: to +0.0 (a terrain altitude is never -0.0).
QUANTILE_VALUES = st.one_of(
    st.floats(-1e12, 1e12, allow_nan=False, width=64),
    st.integers(-3, 3).map(float),
).map(lambda v: v + 0.0)

QUANTILE_QS = st.one_of(
    st.sampled_from([0.0, 1.0, float(np.nextafter(1.0, 0.0)), 0.5, 5e-324, 0.3]),
    st.floats(0.0, 1.0),
)


class TestSortedQuantile:
    @settings(max_examples=600, deadline=None)
    @given(values=st.lists(QUANTILE_VALUES, min_size=1, max_size=1_200), q=QUANTILE_QS)
    def test_matches_np_quantile(self, values, q):
        alts = np.sort(np.array(values))
        assert bits(sorted_quantile(alts, q)) == bits(float(np.quantile(alts, q)))

    @settings(max_examples=200, deadline=None)
    @given(value=QUANTILE_VALUES, q=QUANTILE_QS)
    def test_one_sample(self, value, q):
        alts = np.array([value])
        assert bits(sorted_quantile(alts, q)) == bits(float(np.quantile(alts, q)))

    @pytest.mark.parametrize("q", [0.0, 0.25, float(np.nextafter(1.0, 0.0)), 1.0])
    def test_all_ties(self, q):
        alts = np.full(900, 212.5)
        assert bits(sorted_quantile(alts, q)) == bits(float(np.quantile(alts, q)))

    @pytest.mark.parametrize("q", [-0.1, 1.5, float("nan"), -float("inf")])
    def test_out_of_range_rejected_like_numpy(self, q):
        alts = np.arange(5.0)
        with pytest.raises(ValueError):
            np.quantile(alts, q)
        with pytest.raises(ValueError):
            sorted_quantile(alts, q)

    def test_region_samples(self):
        flood = FloodModel(
            TerrainField(charlotte_regions(30_000.0, 25_000.0)), lambda r, t: 1.0
        )
        for alts in flood._region_alt_samples.values():
            for q in np.linspace(0.0, 1.0, 101):
                assert bits(sorted_quantile(alts, q)) == bits(float(np.quantile(alts, q)))
