"""RL state/action encoding for the MobiRescue dispatcher.

The paper's raw state (Eq. 3) is the predicted request count of *every*
road segment plus every team's position — thousands of dimensions.  As is
standard for fleet dispatching with a shared DNN policy (and as Pensieve
[24]-style systems do), we factor the joint action (Eq. 4) into per-team
decisions over a short list of *candidate* destination segments, scored by
a shared Q-network:

* candidates: the top-K segments by proximity-weighted demand, recomputed
  per team, with demand decremented as earlier teams claim it — this is
  what couples the per-team decisions into a joint action;
* per-team state: for each candidate, (called-in pending demand, predicted
  potential demand, travel time) — pending and predicted are separate
  features because called-in requests are certain pickups while SVM
  predictions are speculative, and the Q-function must be able to value
  them differently — plus (capacity left, flood level, total demand);
* actions: candidate index 0..K-1, or K = return to depot (``x_mk = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MobiRescueConfig
from repro.dispatch.base import TeamView
from repro.roadnet.matrix import TravelTimeOracle

#: Feature scales: demand saturates at this many waiting people, travel
#: time at this many seconds.
DEMAND_SCALE = 10.0
TIME_SCALE = 1_800.0

FEATURES_PER_CANDIDATE = 3
TEAM_FEATURES = 3


@dataclass(frozen=True)
class TeamDecisionContext:
    """Everything the policy sees for one team's decision."""

    state: np.ndarray
    candidate_segments: tuple[int, ...]
    valid_actions: np.ndarray  # mask over num_actions (candidates + depot)
    travel_times: tuple[float, ...]


class CycleDemand:
    """The demand every team's decision in one dispatch cycle reads.

    Holds the called-in ``pending`` and predicted ``predicted`` demand per
    segment, and what does not change from one team to the next: the
    sorted live segments (operable, with demand left), their travel-time
    matrix columns and the demand total.  :meth:`claim` lowers a segment's
    predicted demand and keeps all of these current, so each team pays
    only for its own travel times.  Demand values are integer-valued
    floats (person counts), so the running total stays exact.
    """

    def __init__(
        self,
        pending: dict[int, float],
        predicted: dict[int, float],
        oracle: TravelTimeOracle,
        closed: frozenset[int],
    ) -> None:
        self.pending = pending
        self.predicted = predicted
        self._oracle = oracle
        segs = sorted(
            s
            for s in set(pending) | set(predicted)
            if s not in closed and (pending.get(s, 0) + predicted.get(s, 0)) > 0
        )
        self._segments = np.array(segs, dtype=np.int64)
        self._slot = {s: i for i, s in enumerate(segs)}
        self._start_cols, self._seg_times = oracle.segment_ends(segs)
        self._pending = np.array([pending.get(s, 0.0) for s in segs], dtype=np.float64)
        self._predicted = np.array([predicted.get(s, 0.0) for s in segs], dtype=np.float64)
        self._live = np.ones(len(segs), dtype=bool)
        self.total = sum(pending.values()) + sum(predicted.values())

    def claim(self, segment_id: int, amount: float) -> None:
        """Lower a segment's predicted demand by ``amount`` (floored at 0)."""
        before = self.predicted[segment_id]
        after = max(0.0, before - amount)
        self.predicted[segment_id] = after
        self.total -= before - after
        i = self._slot.get(segment_id)
        if i is not None:
            self._predicted[i] = after
            self._live[i] = self._pending[i] + after > 0

    def candidates(
        self, team: TeamView, k: int, pending_weight: float
    ) -> tuple[list[int], np.ndarray]:
        """Top-k live segments by proximity-weighted demand for one team.

        Returns (segments, travel_times); may be shorter than k when little
        demand exists.
        """
        live = self._live
        if not live.any():
            return [], np.zeros(0)
        segs = self._segments[live]
        pending = self._pending[live]
        times = self._oracle.node_to_ends_s(
            team.node, self._start_cols[live], self._seg_times[live]
        )
        weight = pending_weight * pending + self._predicted[live]
        score = weight / (1.0 + times / 600.0)
        # Called-in requests must always be *considered*, even when distant
        # speculative clusters outscore them: reserve up to half the slots for
        # the nearest pending segments, fill the rest by score.
        live_pending = np.flatnonzero(pending > 0)
        live_pending = live_pending[np.argsort(times[live_pending], kind="stable")]
        chosen: list[int] = live_pending[: max(1, k // 2)].tolist()
        for i in np.argsort(-score):
            if len(chosen) >= k:
                break
            if int(i) not in chosen:
                chosen.append(int(i))
        idx = np.array(chosen[:k])
        return segs[idx].tolist(), times[idx]


def build_context(
    team: TeamView,
    demand: CycleDemand,
    flood_level: float,
    config: MobiRescueConfig,
) -> TeamDecisionContext:
    """Encode one team's decision state (Eq. 3 restricted to the team)."""
    k = config.num_candidates
    cands, times = demand.candidates(team, k, config.pending_weight)
    pending, predicted = demand.pending, demand.predicted
    state = np.zeros(config.state_dim)
    valid = np.zeros(config.num_actions, dtype=bool)
    valid[k] = True  # depot is always allowed
    f = FEATURES_PER_CANDIDATE
    for i, (seg, tt) in enumerate(zip(cands, times)):
        state[f * i] = min(pending.get(seg, 0.0), DEMAND_SCALE) / DEMAND_SCALE
        state[f * i + 1] = min(predicted.get(seg, 0.0), DEMAND_SCALE) / DEMAND_SCALE
        state[f * i + 2] = min(tt, 2 * TIME_SCALE) / TIME_SCALE
        valid[i] = True
    state[f * k] = team.capacity_left / 5.0
    state[f * k + 1] = float(np.clip(flood_level, 0.0, 1.0))
    state[f * k + 2] = min(demand.total, 10 * DEMAND_SCALE) / (10 * DEMAND_SCALE)
    return TeamDecisionContext(
        state=state,
        candidate_segments=tuple(cands),
        valid_actions=valid,
        travel_times=tuple(float(t) for t in times),
    )
