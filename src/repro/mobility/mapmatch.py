"""Map matching: GPS fixes -> trajectories in landmarks (paper Def. 1).

Each cleaned fix is snapped to its nearest road-network landmark; a
person's trajectory is then the time-ordered landmark sequence with
consecutive repeats collapsed.  Road-segment traversals are reconstructed
by routing between consecutive distinct landmarks that are close in time —
this is what turns sparse cellphone fixes into the per-segment vehicle flow
rates of Section III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.mobility.cleaning import validate_trace
from repro.mobility.routes import RouteCache
from repro.mobility.trace import GpsTrace, TraversalLog
from repro.roadnet.graph import RoadNetwork


@dataclass
class MatchedTrajectories:
    """Per-person landmark trajectories.

    ``trajectories`` maps person_id -> (times, node_ids) arrays, both
    time-ordered, with consecutive duplicate nodes collapsed.

    The same fixes are also held as flat arrays, built once: ``pids`` (the
    persons in dict order), ``starts`` (each person's offset into the flat
    arrays, plus a final end offset), ``times`` and ``nodes``.  Position
    queries run on these, one vectorised lookup for the whole population.
    """

    trajectories: dict[int, tuple[np.ndarray, np.ndarray]]
    dropped_far_fixes: int
    pids: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _clock: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = list(self.trajectories.values())
        lengths = np.array([len(ts) for ts, _ in parts], dtype=np.int64)
        self.pids = np.fromiter(self.trajectories, dtype=np.int64, count=len(parts))
        self.starts = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        if parts:
            self.times = np.concatenate([ts for ts, _ in parts])
            self.nodes = np.concatenate([nodes for _, nodes in parts])
        else:
            self.times = np.zeros(0, dtype=np.float64)
            self.nodes = np.zeros(0, dtype=np.int64)
        # Every fix time replaced by its rank among the distinct times, and
        # persons laid out one ``stride`` apart: the keys are then sorted
        # across the whole population, so one integer ``searchsorted``
        # answers every person's "how many fixes by t" exactly.
        self._clock = np.unique(self.times)
        stride = len(self._clock) + 1
        owner = np.repeat(np.arange(len(parts), dtype=np.int64), lengths)
        self._keys = owner * stride + np.searchsorted(self._clock, self.times)

    def persons(self) -> list[int]:
        return sorted(self.trajectories)

    def fix_counts(
        self, t_seconds: float, side: Literal["left", "right"] = "right"
    ) -> np.ndarray:
        """Per person (in ``pids`` order), how many fixes lie at or before
        ``t`` (``side="right"``) or strictly before it (``side="left"``) --
        each person's own ``np.searchsorted(times, t, side)``."""
        rank = np.searchsorted(self._clock, t_seconds, side=side)
        stride = len(self._clock) + 1
        bounds = np.arange(len(self.pids), dtype=np.int64) * stride + rank
        return np.searchsorted(self._keys, bounds, side="left") - self.starts[:-1]

    def last_fixes(self, t_seconds: float) -> tuple[np.ndarray, np.ndarray]:
        """``(pids, flat indices)`` of every person's last fix at or before
        ``t``, in dict order; persons with no fix yet are left out."""
        counts = self.fix_counts(t_seconds)
        seen = counts > 0
        return self.pids[seen], (self.starts[:-1] + counts - 1)[seen]

    def nodes_at_time(self, t_seconds: float) -> dict[int, int]:
        """Last-known landmark of every person at time ``t``.

        People whose first fix is later than ``t`` are absent from the
        result — the dispatch center cannot see them yet.
        """
        pids, last = self.last_fixes(t_seconds)
        return dict(zip(pids.tolist(), self.nodes[last].tolist()))


def map_match(
    trace: GpsTrace,
    network: RoadNetwork,
    max_snap_m: float = 2_500.0,
) -> MatchedTrajectories:
    """Snap a cleaned, sorted trace onto the landmark graph.

    The input contract is a *cleaned* trace: finite values and per-person
    monotonic timestamps.  Violations raise
    :class:`~repro.mobility.cleaning.MalformedTraceError` here rather
    than silently producing scrambled trajectories — corruption must not
    propagate past the stage that can still name the offending record.
    """
    if len(trace) == 0:
        return MatchedTrajectories({}, 0)
    validate_trace(trace, require_monotonic=True)
    node_ids = np.array(network.landmark_ids())
    from scipy.spatial import cKDTree

    tree = cKDTree(np.array([network.landmark(int(n)).xy for n in node_ids]))
    pts = np.column_stack([trace.x.astype(np.float64), trace.y.astype(np.float64)])
    dist, idx = tree.query(pts)
    ok = dist <= max_snap_m
    dropped = int((~ok).sum())

    pid = trace.person_id[ok]
    ts = trace.t[ok]
    nodes = node_ids[idx[ok]]

    order = np.lexsort((ts, pid))
    pid, ts, nodes = pid[order], ts[order], nodes[order]

    trajectories: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if len(pid):
        boundaries = np.nonzero(np.diff(pid))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(pid)]])
        for s, e in zip(starts, ends):
            p_ts, p_nodes = ts[s:e], nodes[s:e]
            keep = np.ones(len(p_nodes), dtype=bool)
            keep[1:] = p_nodes[1:] != p_nodes[:-1]
            trajectories[int(pid[s])] = (p_ts[keep], p_nodes[keep])
    return MatchedTrajectories(trajectories, dropped)


def reconstruct_traversals(
    matched: MatchedTrajectories,
    network: RoadNetwork,
    max_gap_s: float = 1_800.0,
    route_cache: RouteCache | None = None,
) -> TraversalLog:
    """Infer road-segment traversal events from landmark trajectories.

    Consecutive distinct landmarks observed within ``max_gap_s`` are assumed
    connected by the shortest route; traversal times are spread across that
    route proportionally to segment free-flow times.
    """
    cache = route_cache or RouteCache(network)
    ts_parts: list[np.ndarray] = []
    seg_parts: list[np.ndarray] = []
    for _, (ts, nodes) in sorted(matched.trajectories.items()):
        for i in range(len(nodes) - 1):
            dt = ts[i + 1] - ts[i]
            if dt > max_gap_s or dt <= 0:
                continue
            route = cache.route(int(nodes[i]), int(nodes[i + 1]))
            if route is None or route.is_trivial:
                continue
            seg_times = np.array(
                [network.segment(s).free_flow_time_s for s in route.segment_ids]
            )
            total = seg_times.sum()
            if total <= 0:
                continue
            offsets = np.concatenate([[0.0], np.cumsum(seg_times)[:-1]]) / total
            ts_parts.append(ts[i] + offsets * dt)
            seg_parts.append(np.array(route.segment_ids, dtype=np.int32))
    if not ts_parts:
        return TraversalLog.empty()
    return TraversalLog(np.concatenate(ts_parts), np.concatenate(seg_parts))
