"""Route cache for trip generation.

Hundreds of thousands of trips flow between a much smaller set of anchor
pairs (homes, work places, a shared POI pool), so shortest-path routes are
memoized by (src, dst).  Routes are computed on the full network: people
plan with their normal mental map, and disaster slowdowns are applied at
traversal time, not at planning time.

Every cached route also carries its per-segment and per-node columns as
arrays, read off the network once on the miss, so the many trips that reuse
a route never look its segments up again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.routing_cache import default_router
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import Route


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RouteColumns:
    """A route with its network attributes laid out as read-only arrays.

    ``segment_ids`` (int32), ``free_flow_s`` and ``speed_limits_mps`` have
    one entry per segment; ``node_x``/``node_y`` one per node.  Each value
    is exactly the network's own (``segment(s).free_flow_time_s``, ...).
    """

    route: Route
    segment_ids: np.ndarray
    free_flow_s: np.ndarray
    speed_limits_mps: np.ndarray
    node_x: np.ndarray
    node_y: np.ndarray

    @classmethod
    def of(cls, network: RoadNetwork, route: Route) -> "RouteColumns":
        segs = [network.segment(s) for s in route.segment_ids]
        xy = np.array([network.landmark(n).xy for n in route.nodes], dtype=np.float64)
        return cls(
            route=route,
            segment_ids=_frozen(np.array(route.segment_ids, dtype=np.int32)),
            free_flow_s=_frozen(np.array([s.free_flow_time_s for s in segs], dtype=np.float64)),
            speed_limits_mps=_frozen(
                np.array([s.speed_limit_mps for s in segs], dtype=np.float64)
            ),
            node_x=_frozen(xy[:, 0].copy()),
            node_y=_frozen(xy[:, 1].copy()),
        )


class RouteCache:
    """Memoized shortest-path lookup, keyed by (src, dst).

    Misses are resolved through :func:`repro.perf.routing_cache
    .default_router`, so many destinations reached from one anchor (a home,
    a workplace) share a single Dijkstra tree instead of one search each.
    """

    def __init__(self, network: RoadNetwork, weight: str = "time") -> None:
        self.network = network
        self.weight = weight
        self._cache: dict[tuple[int, int], RouteColumns | None] = {}
        self.hits = 0
        self.misses = 0

    def columns(self, src: int, dst: int) -> RouteColumns | None:
        """The cached route from ``src`` to ``dst`` with its columns, or
        ``None`` when ``dst`` is unreachable."""
        key = (src, dst)
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        r = default_router(self.network).route(src, dst, weight=self.weight)
        cols = None if r is None else RouteColumns.of(self.network, r)
        self._cache[key] = cols
        return cols

    def route(self, src: int, dst: int) -> Route | None:
        cols = self.columns(src, dst)
        return None if cols is None else cols.route

    def __len__(self) -> int:
        return len(self._cache)
