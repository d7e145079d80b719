"""Differential tests for the dispatch-cycle fast paths.

Each vectorised path of the MobiRescue sensing stage is checked against
the scalar code it replaced, kept here as the reference:

* the flattened ``MatchedTrajectories`` lookups against a per-person
  ``np.searchsorted`` loop (``nodes_at_time`` and the historical feed);
* region-gathered factor vectors and flood masks against the per-point
  ``WeatherService.factor_vector`` / ``FloodModel.is_flooded``;
* the memoized ``FloodModel.waterline_m`` against a fresh ``np.quantile``;
* ``FloodClosureIndex.closed_at`` against ``RoadNetwork.closed_segments``,
  including the reuse of one frozenset object while the flood stands still;
* ``CycleDemand`` candidate selection against the per-team recomputation.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import MobiRescueConfig
from repro.core.positions import HistoricalFallbackFeed
from repro.core.predictor import RequestPredictor, TrainingSet
from repro.core.state import (
    DEMAND_SCALE,
    FEATURES_PER_CANDIDATE,
    TIME_SCALE,
    CycleDemand,
    TeamDecisionContext,
    build_context,
)
from repro.dispatch.base import TeamView
from repro.geo import flood as flood_module
from repro.geo.flood import FloodModel
from repro.geo.regions import charlotte_regions
from repro.geo.terrain import TerrainField
from repro.mobility.mapmatch import MatchedTrajectories
from repro.roadnet.matrix import travel_time_oracle
from repro.sim.kernel.routing import FloodClosureIndex
from repro.weather.storms import SECONDS_PER_DAY, SECONDS_PER_HOUR

SLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# -- scalar references --------------------------------------------------------


def scalar_nodes_at_time(
    trajectories: dict[int, tuple[np.ndarray, np.ndarray]], t: float
) -> dict[int, int]:
    out: dict[int, int] = {}
    for pid, (ts, nodes) in trajectories.items():
        i = int(np.searchsorted(ts, t, side="right")) - 1
        if i >= 0:
            out[pid] = int(nodes[i])
    return out


def scalar_habits(
    trajectories: dict[int, tuple[np.ndarray, np.ndarray]], t0: float, t1: float
) -> dict[int, dict[int, int]]:
    habits: dict[int, dict[int, int]] = {}
    for pid, (ts, nodes) in trajectories.items():
        lo = int(np.searchsorted(ts, t0, side="left"))
        hi = int(np.searchsorted(ts, t1, side="right"))
        if hi <= lo:
            continue
        per_hour: dict[int, Counter[int]] = defaultdict(Counter)
        for t, node in zip(ts[lo:hi], nodes[lo:hi]):
            hour = int((t % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
            per_hour[hour][int(node)] += 1
        habits[pid] = {h: c.most_common(1)[0][0] for h, c in per_hour.items()}
    return habits


def scalar_fallback_positions(
    feed: HistoricalFallbackFeed, t: float
) -> tuple[dict[int, int], int]:
    out: dict[int, int] = {}
    uses = 0
    for pid, (ts, nodes) in feed.matched.trajectories.items():
        i = int(np.searchsorted(ts, t, side="right")) - 1
        if i < 0:
            continue
        if t - float(ts[i]) > feed.staleness_s:
            estimated = feed.habitual_node(pid, t)
            if estimated is not None:
                out[pid] = estimated
                uses += 1
                continue
        out[pid] = int(nodes[i])
    return out, uses


def scalar_candidates(team, pending, predicted, oracle, closed, k, pending_weight):
    """The per-team candidate selection ``CycleDemand`` replaced."""
    segs = sorted(
        s
        for s in set(pending) | set(predicted)
        if s not in closed and (pending.get(s, 0) + predicted.get(s, 0)) > 0
    )
    if not segs:
        return [], np.zeros(0)
    times = oracle.node_to_segments_s(team.node, segs)
    weight = np.array(
        [pending_weight * pending.get(s, 0.0) + predicted.get(s, 0.0) for s in segs]
    )
    score = weight / (1.0 + times / 600.0)
    chosen: list[int] = []
    live_pending = [i for i, s in enumerate(segs) if pending.get(s, 0.0) > 0]
    live_pending.sort(key=lambda i: times[i])
    for i in live_pending[: max(1, k // 2)]:
        chosen.append(i)
    for i in np.argsort(-score):
        if len(chosen) >= k:
            break
        if int(i) not in chosen:
            chosen.append(int(i))
    idx = np.array(chosen[:k])
    return [segs[int(i)] for i in idx], times[idx]


def scalar_context(team, pending, predicted, oracle, closed, flood_level, config):
    """The per-team ``build_context`` that recomputed every cycle invariant."""
    k = config.num_candidates
    cands, times = scalar_candidates(
        team, pending, predicted, oracle, closed, k, config.pending_weight
    )
    state = np.zeros(config.state_dim)
    valid = np.zeros(config.num_actions, dtype=bool)
    valid[k] = True
    f = FEATURES_PER_CANDIDATE
    for i, (seg, tt) in enumerate(zip(cands, times)):
        state[f * i] = min(pending.get(seg, 0.0), DEMAND_SCALE) / DEMAND_SCALE
        state[f * i + 1] = min(predicted.get(seg, 0.0), DEMAND_SCALE) / DEMAND_SCALE
        state[f * i + 2] = min(tt, 2 * TIME_SCALE) / TIME_SCALE
        valid[i] = True
    total = sum(pending.values()) + sum(predicted.values())
    state[f * k] = team.capacity_left / 5.0
    state[f * k + 1] = float(np.clip(flood_level, 0.0, 1.0))
    state[f * k + 2] = min(total, 10 * DEMAND_SCALE) / (10 * DEMAND_SCALE)
    return TeamDecisionContext(
        state=state,
        candidate_segments=tuple(cands),
        valid_actions=valid,
        travel_times=tuple(float(t) for t in times),
    )


# -- flattened trajectories ---------------------------------------------------

#: Fix times drawn from a small shared pool, so persons share times and
#: queries land exactly on fixes.
_TIMES = st.one_of(
    st.sampled_from([0.0, 1.5, 3_600.0, 7_200.0, 86_400.0]),
    st.floats(0.0, 4 * SECONDS_PER_DAY, allow_nan=False),
)


@st.composite
def trajectory_sets(draw):
    pids = draw(st.lists(st.integers(0, 5_000), unique=True, max_size=10))
    trajectories: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for pid in pids:
        times = sorted(draw(st.lists(_TIMES, min_size=1, max_size=15)))
        nodes = draw(st.lists(st.integers(0, 40), min_size=len(times), max_size=len(times)))
        trajectories[pid] = (np.array(times, dtype=np.float64), np.array(nodes))
    return trajectories


@st.composite
def query_times(draw, trajectories):
    fixes = [float(t) for ts, _ in trajectories.values() for t in ts]
    choices = [st.floats(-SECONDS_PER_DAY, 5 * SECONDS_PER_DAY, allow_nan=False)]
    if fixes:
        choices += [
            st.sampled_from(fixes),  # exactly on a fix time
            st.just(min(fixes) - 1.0),  # before everyone's first fix
            st.just(max(fixes) + 1.0),  # after everyone's last fix
            st.sampled_from(fixes).map(lambda t: float(np.nextafter(t, -np.inf))),
        ]
    return draw(st.one_of(*choices))


class TestFlattenedTrajectories:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nodes_at_time_matches_per_person_loop(self, data):
        trajectories = data.draw(trajectory_sets())
        matched = MatchedTrajectories(trajectories, 0)
        for _ in range(4):
            t = data.draw(query_times(trajectories))
            fast = matched.nodes_at_time(t)
            ref = scalar_nodes_at_time(trajectories, t)
            assert fast == ref
            assert list(fast) == list(ref)  # dict order too

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_fix_counts_match_searchsorted_both_sides(self, data):
        trajectories = data.draw(trajectory_sets())
        matched = MatchedTrajectories(trajectories, 0)
        t = data.draw(query_times(trajectories))
        for side in ("left", "right"):
            ref = [int(np.searchsorted(ts, t, side=side)) for ts, _ in trajectories.values()]
            assert matched.fix_counts(t, side=side).tolist() == ref

    def test_empty_set(self):
        matched = MatchedTrajectories({}, 0)
        assert matched.nodes_at_time(0.0) == {}
        assert matched.fix_counts(1e9).tolist() == []

    def test_edges(self):
        traj = {
            7: (np.array([10.0, 20.0, 30.0]), np.array([1, 2, 3])),
            3: (np.array([25.0]), np.array([9])),
        }
        matched = MatchedTrajectories(traj, 0)
        assert matched.nodes_at_time(5.0) == {}  # before every first fix
        assert matched.nodes_at_time(20.0) == {7: 2}  # on a fix; 3 not seen yet
        assert matched.nodes_at_time(25.0) == {7: 2, 3: 9}
        assert list(matched.nodes_at_time(99.0).items()) == [(7, 3), (3, 9)]  # after last

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_historical_feed_matches_per_person_loop(self, data):
        trajectories = data.draw(trajectory_sets())
        matched = MatchedTrajectories(trajectories, 0)
        t0 = data.draw(st.floats(0.0, 2 * SECONDS_PER_DAY))
        t1 = t0 + data.draw(st.floats(1.0, 2 * SECONDS_PER_DAY))
        feed = HistoricalFallbackFeed(matched, t0, t1, staleness_s=6 * SECONDS_PER_HOUR)
        assert feed._habits == scalar_habits(trajectories, t0, t1)
        t = data.draw(query_times(trajectories))
        ref, uses = scalar_fallback_positions(feed, t)
        fast = feed(t)
        assert fast == ref and list(fast) == list(ref)
        assert feed.fallback_uses == uses


# -- region-gathered factors and flood masks ----------------------------------


def storm_times(scenario) -> dict[str, float]:
    tl = scenario.timeline
    crest = tl.storm_end_s + tl.crest_lag_days * SECONDS_PER_DAY
    return {
        "before": tl.storm_start_s - 3_600.0,
        "storm": 0.5 * (tl.storm_start_s + tl.storm_end_s),
        "crest": crest,
        "after": crest + 2 * SECONDS_PER_DAY,
    }


_PHASES = st.sampled_from(["before", "storm", "crest", "after"])


def plane_points(scenario):
    part = scenario.partition
    # Slightly past the plane's edges too: the Voronoi partition covers
    # every point of the plane.
    coord = st.tuples(
        st.floats(-0.05 * part.width_m, 1.05 * part.width_m),
        st.floats(-0.05 * part.height_m, 1.05 * part.height_m),
    )
    return st.lists(coord, min_size=1, max_size=30).map(np.array)


class TestGatheredFactorsAndFlood:
    @SLOW
    @given(data=st.data(), phase=_PHASES)
    def test_factor_vectors_match_per_point(self, florence_scenario, data, phase):
        weather = florence_scenario.weather
        xy = data.draw(plane_points(florence_scenario))
        t = storm_times(florence_scenario)[phase]
        batch = weather.factor_vectors(xy, t)
        ref = np.array([weather.factor_vector(x, y, t) for x, y in xy])
        np.testing.assert_array_equal(batch, ref)

    @SLOW
    @given(data=st.data(), phase=_PHASES)
    def test_flood_mask_matches_per_point(self, florence_scenario, data, phase):
        flood = florence_scenario.flood
        xy = data.draw(plane_points(florence_scenario))
        t = storm_times(florence_scenario)[phase]
        ref = np.array([flood.is_flooded(x, y, t) for x, y in xy])
        np.testing.assert_array_equal(flood.is_flooded_many(xy, t), ref)
        points = florence_scenario.terrain.index(xy)
        np.testing.assert_array_equal(flood.flooded(points, t), ref)

    @SLOW
    @given(data=st.data(), phase=_PHASES)
    def test_predictor_labels_match_per_node(self, florence_scenario, data, phase):
        rng = np.random.default_rng(3)
        x = rng.normal([140.0, 60.0, 200.0], [30.0, 15.0, 20.0], size=(60, 3))
        y = (x[:, 0] > 140.0).astype(int)
        predictor = RequestPredictor(florence_scenario).fit(TrainingSet(x=x, y=y))
        net = florence_scenario.network
        nodes = data.draw(
            st.lists(st.sampled_from(net.landmark_ids()), min_size=1, max_size=40)
        )
        t = storm_times(florence_scenario)[phase]
        weather, flood = florence_scenario.weather, florence_scenario.flood
        xy = [net.landmark(n).xy for n in nodes]
        factors = np.array([weather.factor_vector(px, py, t) for px, py in xy])
        later = t + predictor.flood_forecast_horizon_s
        gate = np.array(
            [flood.is_flooded(px, py, t) or flood.is_flooded(px, py, later) for px, py in xy]
        )
        ref = predictor.predict_labels(factors) & gate.astype(int)
        np.testing.assert_array_equal(predictor.predict_node_labels(nodes, t), ref)


# -- memoized waterlines ------------------------------------------------------


class TestWaterlineMemo:
    W, H = 30_000.0, 25_000.0

    @settings(max_examples=60, deadline=None)
    @given(
        severity=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        region=st.integers(1, 7),
        t=st.floats(0.0, 1e7),
    )
    def test_memo_equals_fresh_quantile(self, severity, region, t):
        flood = FloodModel(
            TerrainField(charlotte_regions(self.W, self.H)),
            lambda r, _t: severity,
            grid_resolution=20,
        )
        alts = flood._region_alt_samples[region]
        if severity <= 0.0:
            fresh = float(alts[0]) - 1.0
        else:
            fresh = float(np.quantile(alts, flood.max_flood_fraction * severity))
        assert flood.waterline_m(region, t) == fresh
        assert flood.waterline_m(region, t) == fresh  # served from the memo

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(flood_module, "WATERLINE_MEMO_SIZE", 5)
        flood = FloodModel(
            TerrainField(charlotte_regions(self.W, self.H)),
            lambda r, t: min(1.0, t / 100.0),
            grid_resolution=20,
        )
        values = [flood.waterline_m(3, float(t)) for t in range(40)]
        assert len(flood._waterlines) == 5
        assert [flood.waterline_m(3, float(t)) for t in range(40)] == values


# -- closure sets -------------------------------------------------------------


class TestClosedAt:
    def test_same_object_while_mask_unchanged(self, florence_scenario):
        net, flood = florence_scenario.network, florence_scenario.flood
        index = FloodClosureIndex(net, flood)
        times = storm_times(florence_scenario)
        dry = index.closed_at(times["before"])
        assert dry == frozenset() == net.closed_segments(flood, times["before"])
        assert index.closed_at(times["before"] - 60.0) is dry
        wet = index.closed_at(times["crest"])
        assert wet == net.closed_segments(flood, times["crest"])
        assert wet and wet is not dry
        assert index.closed_at(times["crest"]) is wet
        assert index.closed_at(times["before"]) == frozenset()

    @SLOW
    @given(t=st.floats(17 * SECONDS_PER_DAY, 27 * SECONDS_PER_DAY))
    def test_equals_fresh_closed_segments(self, florence_scenario, t):
        net, flood = florence_scenario.network, florence_scenario.flood
        index = FloodClosureIndex(net, flood)
        first = index.closed_at(t)
        assert first == net.closed_segments(flood, t)
        assert index.closed_at(t) is first


# -- per-cycle candidate demand ------------------------------------------------


class TestCycleDemand:
    CFG = MobiRescueConfig(num_candidates=4)

    @SLOW
    @given(data=st.data())
    def test_claims_match_per_team_recompute(self, florence_scenario, data):
        net = florence_scenario.network
        oracle = travel_time_oracle(net)
        seg_ids = net.segment_ids()
        segs = st.sampled_from(seg_ids[:200])
        predicted = defaultdict(
            float, data.draw(st.dictionaries(segs, st.integers(1, 12).map(float), max_size=25))
        )
        pending = data.draw(st.dictionaries(segs, st.integers(0, 4).map(float), max_size=5))
        closed = frozenset(data.draw(st.lists(segs, max_size=10)))
        nodes = data.draw(
            st.lists(st.sampled_from(net.landmark_ids()), min_size=1, max_size=8)
        )
        ref_predicted = defaultdict(float, predicted)
        demand = CycleDemand(pending, predicted, oracle, closed)
        cfg = self.CFG
        for i, node in enumerate(nodes):
            team = TeamView(i, node, "idle", 1 + i % 5, True)
            ref = scalar_context(team, pending, ref_predicted, oracle, closed, 0.3, cfg)
            ctx = build_context(team, demand, 0.3, cfg)
            assert ctx.candidate_segments == ref.candidate_segments
            assert ctx.travel_times == ref.travel_times
            np.testing.assert_array_equal(ctx.state, ref.state)
            np.testing.assert_array_equal(ctx.valid_actions, ref.valid_actions)
            cands = ctx.candidate_segments
            if cands:
                seg = cands[data.draw(st.integers(0, len(cands) - 1))]
                amount = float(max(1, team.capacity_left))
                ref_predicted[seg] = max(0.0, ref_predicted[seg] - amount)
                demand.claim(seg, amount)
                assert dict(predicted) == dict(ref_predicted)


def test_scenario_terrain_is_the_flood_terrain(florence_scenario):
    """The predictor indexes landmarks on ``scenario.terrain``; the factor and
    flood queries it replaces read the weather's and the flood's terrain."""
    assert florence_scenario.terrain is florence_scenario.weather.terrain
    assert florence_scenario.terrain is florence_scenario.flood.terrain

