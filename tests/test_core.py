"""Tests for the MobiRescue core: predictor, state encoding, RL dispatcher,
training and the system facade."""

import numpy as np
import pytest

from repro.core.config import MobiRescueConfig
from repro.core.positions import PopulationFeed
from repro.core.predictor import RequestPredictor, TrainingSet, build_training_set
from repro.core.rl_dispatcher import MobiRescueDispatcher, make_agent
from repro.core.state import (
    DEMAND_SCALE,
    FEATURES_PER_CANDIDATE,
    TIME_SCALE,
    CycleDemand,
    build_context,
)
from repro.core.system import MobiRescueSystem
from repro.core.training import pretrain_agent, train_mobirescue
from repro.dispatch.base import TeamView
from repro.mobility.cleaning import clean_trace
from repro.mobility.mapmatch import map_match
from repro.roadnet.matrix import travel_time_oracle
from repro.weather.storms import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def michael_matched(michael_small):
    scenario, bundle = michael_small
    clean, _ = clean_trace(bundle.trace, scenario.partition.width_m, scenario.partition.height_m)
    return map_match(clean, scenario.network)


@pytest.fixture(scope="module")
def training_set(michael_small, michael_matched):
    scenario, bundle = michael_small
    return build_training_set(scenario, bundle, matched=michael_matched, seed=1)


@pytest.fixture(scope="module")
def fitted_predictor(michael_small, training_set):
    scenario, _ = michael_small
    return RequestPredictor(scenario, c=8.0).fit(training_set)


@pytest.fixture(scope="module")
def trained(michael_small):
    scenario, bundle = michael_small
    return train_mobirescue(
        scenario, bundle, MobiRescueConfig(seed=1), episodes=2, num_teams=15
    )


class TestConfig:
    def test_dimensions(self):
        cfg = MobiRescueConfig(num_candidates=6)
        assert cfg.state_dim == 3 * 6 + 3
        assert cfg.num_actions == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            MobiRescueConfig(num_candidates=0)
        with pytest.raises(ValueError):
            MobiRescueConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            MobiRescueConfig(discount=0.0)


class TestTrainingSet:
    def test_shape_and_balance(self, training_set):
        assert training_set.x.shape[1] == 3
        assert training_set.num_positive > 5
        negatives = len(training_set.y) - training_set.num_positive
        assert negatives >= training_set.num_positive

    def test_positive_factors_are_low_altitude(self, training_set):
        pos_alt = training_set.x[training_set.y == 1, 2]
        neg_alt = training_set.x[training_set.y == 0, 2]
        assert pos_alt.mean() < neg_alt.mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingSet(x=np.zeros((3, 2)), y=np.zeros(3))
        with pytest.raises(ValueError):
            TrainingSet(x=np.zeros((3, 3)), y=np.zeros(4))

    def test_bad_negatives_rejected(self, michael_small, michael_matched):
        scenario, bundle = michael_small
        with pytest.raises(ValueError):
            build_training_set(
                scenario, bundle, matched=michael_matched, negatives_per_positive=0
            )


class TestRequestPredictor:
    def test_accuracy_on_training_distribution(self, fitted_predictor, training_set):
        counts = fitted_predictor.evaluate(training_set)
        assert counts.accuracy > 0.8
        assert counts.recall > 0.5

    def test_unfitted_guard(self, michael_small):
        scenario, _ = michael_small
        with pytest.raises(RuntimeError):
            RequestPredictor(scenario).predict_labels(np.zeros((2, 3)))

    def test_distribution_counts_persons(self, michael_small, fitted_predictor):
        scenario, bundle = michael_small
        # Put three persons on a deeply flooded node at the storm crest and
        # one on the highest node.
        t = (scenario.timeline.storm_end_day + 1.5) * SECONDS_PER_DAY
        net = scenario.network
        node_xy = np.array([net.landmark(n).xy for n in net.landmark_ids()])
        alts = scenario.terrain.altitude_many(node_xy)
        low = net.landmark_ids()[int(np.argmin(alts))]
        high = net.landmark_ids()[int(np.argmax(alts))]
        dist = fitted_predictor.predict_request_distribution(
            {1: low, 2: low, 3: low, 4: high}, t
        )
        low_seg = net.nearest_segment(*net.landmark(low).xy)
        assert dist.get(low_seg, 0) == 3
        high_seg = net.nearest_segment(*net.landmark(high).xy)
        assert high_seg not in dist or high_seg == low_seg

    def test_empty_positions(self, fitted_predictor):
        assert fitted_predictor.predict_request_distribution({}, 0.0) == {}

    def test_flood_gate_suppresses_dry_ground(self, michael_small, fitted_predictor):
        """Before the storm nothing is flooded: the gate forces all-negative
        regardless of the SVM."""
        scenario, _ = michael_small
        nodes = scenario.network.landmark_ids()[:50]
        labels = fitted_predictor.predict_node_labels(nodes, 0.0)
        assert labels.sum() == 0

    def test_clone_for_preserves_model(self, michael_small, florence_small, fitted_predictor):
        fscen, _ = florence_small
        clone = fitted_predictor.clone_for(fscen)
        assert clone.is_fitted
        assert clone.svm is fitted_predictor.svm
        assert clone.scenario is fscen


class TestStateEncoding:
    CFG = MobiRescueConfig(num_candidates=4)

    def _team(self, scen, cap=5):
        return TeamView(0, scen.hospitals[0].node_id, "idle", cap, True)

    def test_context_shape(self, michael_small):
        scenario, _ = michael_small
        oracle = travel_time_oracle(scenario.network)
        segs = [s.segment_id for s in scenario.network.segments()[:6]]
        pending = {segs[0]: 2.0}
        predicted = {segs[1]: 5.0, segs[2]: 1.0}
        ctx = build_context(
            self._team(scenario),
            CycleDemand(pending, predicted, oracle, frozenset()),
            0.5,
            self.CFG,
        )
        assert ctx.state.shape == (self.CFG.state_dim,)
        assert ctx.valid_actions.shape == (self.CFG.num_actions,)
        assert ctx.valid_actions[-1]  # depot always valid
        assert len(ctx.candidate_segments) == 3
        assert (ctx.state >= 0).all()

    def test_pending_always_candidate(self, michael_small):
        """A far 1-person pending segment makes the candidate list even when
        big predicted clusters outscore it."""
        scenario, _ = michael_small
        oracle = travel_time_oracle(scenario.network)
        net = scenario.network
        team = self._team(scenario)
        far_node = max(
            net.landmark_ids(), key=lambda n: oracle.node_to_node_s(team.node, n)
        )
        far_seg = net.out_segments(far_node)[0].segment_id
        near_segs = [s.segment_id for s in net.out_segments(team.node)]
        predicted = {s: 10.0 for s in near_segs}
        demand = CycleDemand({far_seg: 1.0}, predicted, oracle, frozenset())
        cands, _ = demand.candidates(team, 2, pending_weight=3.0)
        assert far_seg in cands

    def test_closed_segments_excluded(self, michael_small):
        scenario, _ = michael_small
        oracle = travel_time_oracle(scenario.network)
        seg = scenario.network.segments()[0].segment_id
        demand = CycleDemand({seg: 3.0}, {}, oracle, frozenset({seg}))
        cands, _ = demand.candidates(self._team(scenario), 4, 3.0)
        assert cands == []

    def test_feature_scaling_saturates(self, michael_small):
        scenario, _ = michael_small
        oracle = travel_time_oracle(scenario.network)
        seg = scenario.network.out_segments(self._team(scenario).node)[0].segment_id
        ctx = build_context(
            self._team(scenario),
            CycleDemand({seg: 1_000.0}, {}, oracle, frozenset()),
            2.0,  # clipped to 1
            self.CFG,
        )
        f = FEATURES_PER_CANDIDATE
        assert ctx.state[0] == pytest.approx(1.0)  # pending saturated
        assert ctx.state[f * self.CFG.num_candidates + 1] == pytest.approx(1.0)


class TestPretraining:
    def test_pretrained_values_sensible(self):
        cfg = MobiRescueConfig(num_candidates=4, seed=2)
        agent = make_agent(cfg)
        pretrain_agent(agent, cfg)  # production sample/step counts
        f = FEATURES_PER_CANDIDATE
        # Rich nearby pending beats depot; depot beats a far empty candidate.
        s = np.zeros(cfg.state_dim)
        s[0] = 5.0 / DEMAND_SCALE  # 5 pending
        s[2] = 300.0 / TIME_SCALE
        s[f * 4] = 1.0
        q = agent.q_values(s)
        assert q[0] > q[4]  # serving the pending candidate beats depot
        s2 = np.zeros(cfg.state_dim)
        s2[2] = 2.0  # far, empty candidate
        s2[f * 4] = 1.0
        q2 = agent.q_values(s2)
        assert q2[4] > q2[0]


class TestTraining:
    def test_artifacts(self, trained):
        assert trained.predictor.is_fitted
        assert trained.episodes_run >= 1
        assert all(0.0 <= r <= 1.0 for r in trained.episode_service_rates)
        assert trained.agent.learn_steps > 0

    def test_validation(self, michael_small):
        scenario, bundle = michael_small
        with pytest.raises(ValueError):
            train_mobirescue(scenario, bundle, episodes=0)


class TestMobiRescueDispatcher:
    def test_requires_fitted_predictor(self, michael_small):
        scenario, _ = michael_small
        cfg = MobiRescueConfig()
        with pytest.raises(ValueError):
            MobiRescueDispatcher(
                scenario, RequestPredictor(scenario), lambda t: {}, make_agent(cfg), cfg
            )

    def test_end_to_end_deploy(self, michael_small, florence_small, trained):
        """The trained system deploys on Florence and serves requests."""
        fscen, fbundle = florence_small
        system = MobiRescueSystem(trained)
        dispatcher = system.deploy(fscen, fbundle)
        assert dispatcher.name == "MobiRescue"
        assert dispatcher.computation_delay_s < 1.0
        assert dispatcher.flood_aware is True

        from repro.sim.engine import RescueSimulator, SimulationConfig
        from repro.sim.requests import remap_to_operable, requests_from_rescues
        from repro.weather.storms import day_index

        day = day_index(fscen.timeline, "Sep 16")
        t0, t1 = day * SECONDS_PER_DAY, (day + 0.5) * SECONDS_PER_DAY
        requests = remap_to_operable(
            requests_from_rescues(fbundle.rescues, t0, t1), fscen.network, fscen.flood
        )
        assert requests, "eval window must contain requests"
        sim = RescueSimulator(
            fscen,
            requests,
            dispatcher,
            SimulationConfig(t0_s=t0, t1_s=t1, num_teams=20, seed=0),
        )
        result = sim.run()
        assert result.num_served >= 0.5 * len(requests)
        assert dispatcher.last_prediction  # SVM produced a distribution

    def test_online_training_toggle(self, michael_small, florence_small, trained):
        fscen, fbundle = florence_small
        system = MobiRescueSystem(trained)
        d_off = system.deploy(fscen, fbundle, online_training=False)
        assert d_off.config.online_training is False
        d_on = system.deploy(fscen, fbundle, online_training=True)
        assert d_on.config.online_training is True


class TestPopulationFeed:
    def test_caching(self, michael_matched):
        feed = PopulationFeed(michael_matched, cache_size=2)
        a = feed(5 * SECONDS_PER_DAY)
        b = feed(5 * SECONDS_PER_DAY)
        assert a is b
        feed(6 * SECONDS_PER_DAY)
        feed(7 * SECONDS_PER_DAY)  # evicts the first entry
        c = feed(5 * SECONDS_PER_DAY)
        assert c == a and c is not a

    def test_validation(self, michael_matched):
        with pytest.raises(ValueError):
            PopulationFeed(michael_matched, cache_size=0)
