"""All-pairs free-flow travel times.

Dispatchers need many travel-time *estimates* per cycle (cost matrices for
the IP baselines, candidate features for the RL policy).  Computing them
on demand would dominate runtime, so the full node-to-node matrix is built
once per network with scipy's sparse Dijkstra.  Actual driving in the
simulator still uses exact per-leg routing on the operable network — the
matrix is only the planners' mental map, which (deliberately, for the
flood-unaware baselines) ignores closures.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as sparse_dijkstra

from repro.roadnet.graph import RoadNetwork


class TravelTimeOracle:
    """Dense free-flow travel-time lookups between landmarks."""

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network
        node_ids = network.landmark_ids()
        self._index = {n: i for i, n in enumerate(node_ids)}
        n = len(node_ids)
        rows, cols, vals = [], [], []
        for seg in network.segments():
            rows.append(self._index[seg.u])
            cols.append(self._index[seg.v])
            vals.append(seg.free_flow_time_s)
        graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
        self._times = sparse_dijkstra(graph, directed=True).astype(np.float32)
        # Segment-end lookup: travel time to the end of segment e is time to
        # e.u plus e's own traversal time.
        seg_ids = network.segment_ids()
        self._seg_index = {s: i for i, s in enumerate(seg_ids)}
        self._seg_u = np.array([self._index[network.segment(s).u] for s in seg_ids])
        self._seg_time = np.array(
            [network.segment(s).free_flow_time_s for s in seg_ids], dtype=np.float32
        )

    def node_to_node_s(self, src: int, dst: int) -> float:
        """Free-flow travel time between two landmarks, seconds."""
        return float(self._times[self._index[src], self._index[dst]])

    def node_to_segment_end_s(self, src: int, segment_id: int) -> float:
        """Free-flow time from a landmark to the *end* of a segment (the
        paper's dispatch destination semantics)."""
        i = self._seg_index[segment_id]
        return float(self._times[self._index[src], self._seg_u[i]] + self._seg_time[i])

    def node_to_segments_s(self, src: int, segment_ids: list[int]) -> np.ndarray:
        """Vectorized :meth:`node_to_segment_end_s` for many segments."""
        idx = np.array([self._seg_index[s] for s in segment_ids])
        return self._times[self._index[src], self._seg_u[idx]] + self._seg_time[idx]

    def segment_ends(self, segment_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Matrix columns of the segments' start nodes and the segments'
        own traversal times: the per-segment half of
        :meth:`node_to_segments_s`, for callers that query the same
        segments from many landmarks."""
        idx = np.array([self._seg_index[s] for s in segment_ids], dtype=np.int64)
        return self._seg_u[idx], self._seg_time[idx]

    def node_to_ends_s(
        self, src: int, start_cols: np.ndarray, seg_times: np.ndarray
    ) -> np.ndarray:
        """Free-flow times from a landmark to segment ends given by
        :meth:`segment_ends` (or any subset of its arrays)."""
        return self._times[self._index[src], start_cols] + seg_times


_ORACLE_CACHE: dict[int, TravelTimeOracle] = {}


def travel_time_oracle(network: RoadNetwork) -> TravelTimeOracle:
    """Per-network memoized oracle (the matrix takes ~a second to build)."""
    key = id(network)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = TravelTimeOracle(network)  # repro: allow-fork-unsafe -- per-process memo; affects speed, never results
    return _ORACLE_CACHE[key]
