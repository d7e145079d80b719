"""Routing and closure indexes for the event kernel.

Three structures remove the seed engine's per-query routing cost without
changing a single answer:

* :class:`HospitalField` — one multi-source reverse Dijkstra per closed
  set answers every nearest-hospital query and every route-to-hospital
  for the whole fleet.  The seed path runs one full forward tree per
  querying team (team positions drift every tick, so the PR 4 tree cache
  rarely hits); the field replaces ~one tree per team-event with one
  search per flood front.  Settled labels are final when popped, and the
  heap orders ties by ``(distance, hospital list order)`` — exactly the
  seed argmin's first-minimum-wins scan — so the selected hospital and
  the reconstructed path match the seed's forward search wherever
  shortest paths are unique (path costs are sums of continuous random
  segment times, so cross-path float ties do not occur in generated
  scenarios; the golden-equivalence suite pins this empirically).

* :class:`FloodClosureIndex` — the flood's closed-segment set recomputed
  without re-deriving static geometry.  Midpoint altitudes and region
  memberships never change; only the per-region waterline moves.  The
  index calls the same ``waterline_m`` (same ``np.quantile``) the seed
  calls and compares against the precomputed altitudes, producing the
  identical frozenset -- the very same object while the flood stands
  still.

* :class:`PrefilteredRouter` — the PR 4 :class:`RoutingCache` with the
  closed-set membership test hoisted out of the Dijkstra inner loop:
  adjacency rows for a closed set are filtered once per flood front, so
  each search skips the per-edge ``in closed`` check.  Dropping rows the
  seed loop ``continue``s over leaves the relax sequence — and therefore
  every label, tie-break and tree — bit-identical.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.geo.flood import FloodModel
from repro.perf.routing_cache import RoutingCache, Tree
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import Route, route_from_segments, route_from_tree

_WEIGHTS = ("time", "length")

#: Adjacency with closed rows removed: node -> ((segment, other, time, length), ...).
_Adjacency = dict[int, list[tuple[int, int, float, float]]]


def filtered_adjacency(
    network: RoadNetwork, closed: frozenset[int], reverse: bool = False
) -> _Adjacency:
    """Adjacency rows with closed segments dropped (relax order preserved)."""
    adj = network.in_adjacency() if reverse else network.out_adjacency()
    if not closed:
        return adj
    return {
        node: [row for row in rows if row[0] not in closed]
        for node, rows in adj.items()
    }


class HospitalField:
    """Nearest-hospital assignment for every node under one closed set."""

    __slots__ = ("network", "hospital_nodes", "nearest", "next_seg")

    def __init__(
        self,
        network: RoadNetwork,
        hospital_nodes: list[int],
        closed: frozenset[int],
        adjacency: _Adjacency | None = None,
    ) -> None:
        self.network = network
        self.hospital_nodes = hospital_nodes
        #: node -> nearest hospital node (absent: no hospital reachable).
        self.nearest: dict[int, int] = {}
        #: node -> first segment of the node's best path to its hospital.
        self.next_seg: dict[int, int] = {}
        self._build(closed, adjacency)

    def _build(self, closed: frozenset[int], adjacency: _Adjacency | None) -> None:
        import heapq

        adj = (
            adjacency
            if adjacency is not None
            else filtered_adjacency(self.network, closed, reverse=True)
        )
        # Multi-source Dijkstra over reversed edges: dist[n] is the cost of
        # n's cheapest path *to* any hospital.  The heap orders by
        # (distance, hospital list index, node), and relaxation prefers the
        # earlier-listed hospital on exact distance ties — the seed's
        # first-minimum-wins argmin over the hospital list.
        dist: dict[int, float] = {}
        order_of: dict[int, int] = {}
        heap: list[tuple[float, int, int]] = []
        for order, h in enumerate(self.hospital_nodes):
            if h not in dist or order < order_of[h]:
                dist[h] = 0.0
                order_of[h] = order
                heapq.heappush(heap, (0.0, order, h))
        done: set[int] = set()
        inf = float("inf")
        nearest = self.nearest
        next_seg = self.next_seg
        hospitals = self.hospital_nodes
        while heap:
            d, order, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            nearest[node] = hospitals[order]
            for row in adj[node]:
                nd = d + row[2]
                other = row[1]
                cur = dist.get(other, inf)
                if nd < cur or (nd == cur and order < order_of[other]):
                    dist[other] = nd
                    order_of[other] = order
                    next_seg[other] = row[0]
                    heapq.heappush(heap, (nd, order, other))

    def route(self, src: int) -> Route | None:
        """The ``src`` → nearest-hospital route, or None when marooned.

        Route times/lengths are re-summed from the segment sequence (the
        seed's ``_route_from_segments``), so no search-accumulated float
        ever reaches a recorded result.
        """
        target = self.nearest.get(src)
        if target is None:
            return None
        if target == src:
            return Route((src,), (), 0.0, 0.0)
        seg_ids: list[int] = []
        node = src
        network = self.network
        while node != target:
            sid = self.next_seg[node]
            seg_ids.append(sid)
            node = network.segment(sid).v
        return route_from_segments(network, src, seg_ids)


class HospitalFieldCache:
    """Per-closed-set :class:`HospitalField` store (LRU, like the tree cache)."""

    def __init__(
        self, network: RoadNetwork, hospital_nodes: list[int], max_sets: int = 16
    ) -> None:
        if max_sets < 1:
            raise ValueError("cache bound must be positive")
        self.network = network
        self.hospital_nodes = list(hospital_nodes)
        self.max_sets = int(max_sets)
        self._fields: OrderedDict[frozenset[int], HospitalField] = OrderedDict()
        self.builds = 0

    def field(
        self, closed: frozenset[int], adjacency: _Adjacency | None = None
    ) -> HospitalField:
        cached = self._fields.get(closed)
        if cached is not None:
            self._fields.move_to_end(closed)
            return cached
        self.builds += 1
        built = HospitalField(self.network, self.hospital_nodes, closed, adjacency)
        self._fields[closed] = built
        while len(self._fields) > self.max_sets:
            self._fields.popitem(last=False)
        return built


class FloodClosureIndex:
    """Vectorized ``network.closed_segments(flood, t)`` over static geometry.

    Midpoint altitudes and region slots are indexed once; each query asks
    the flood model for the flood mask over that index.  While the mask
    stays the same, the same frozenset object is returned, so caches keyed
    on the closed set (or on its identity) survive from one query to the
    next.
    """

    def __init__(self, network: RoadNetwork, flood: FloodModel) -> None:
        self.flood = flood
        seg_ids = sorted(network.segment_ids())
        mids = np.array([network.segment_midpoint(s) for s in seg_ids])
        self._seg_ids = np.array(seg_ids)
        self._points = flood.terrain.index(mids)
        self._mask: np.ndarray | None = None
        self._closed: frozenset[int] = frozenset()

    def closed_at(self, t_s: float) -> frozenset[int]:
        """Flood-closed segment ids at ``t`` — same frozenset as the seed.

        The mask is ``FloodModel.flooded`` over the indexed midpoints: the
        comparison the seed's ``network.closed_segments`` makes through
        ``is_flooded_many``.
        """
        flooded = self.flood.flooded(self._points, t_s)
        if self._mask is None or not np.array_equal(flooded, self._mask):
            self._mask = flooded
            self._closed = frozenset(self._seg_ids[flooded].tolist())
        return self._closed


class PrefilteredRouter(RoutingCache):
    """:class:`RoutingCache` running its searches on prefiltered adjacency.

    Overrides only the two search call sites; the memoization policy
    (first-touch target-pruned, second-touch full-tree promotion, LRU
    bounds) is inherited unchanged.
    """

    def __init__(
        self,
        network: RoadNetwork,
        max_closure_sets: int = 16,
        max_trees_per_closure: int = 8192,
    ) -> None:
        super().__init__(network, max_closure_sets, max_trees_per_closure)
        self._adjacencies: OrderedDict[tuple[frozenset[int], bool], _Adjacency] = (
            OrderedDict()
        )

    def adjacency(self, closed: frozenset[int], reverse: bool = False) -> _Adjacency:
        key = (closed, reverse)
        cached = self._adjacencies.get(key)
        if cached is not None:
            self._adjacencies.move_to_end(key)
            return cached
        built = filtered_adjacency(self.network, closed, reverse)
        self._adjacencies[key] = built
        while len(self._adjacencies) > self.max_closure_sets:
            self._adjacencies.popitem(last=False)
        return built

    def _search(
        self,
        root: int,
        closed: frozenset[int],
        weight: str,
        reverse: bool = False,
        target: int | None = None,
    ) -> Tree:
        """The seed ``dijkstra_tree`` loop minus the per-edge closed test."""
        import heapq

        if weight not in _WEIGHTS:
            raise ValueError(f"weight must be one of {_WEIGHTS}")
        self.network.landmark(root)
        adj = self.adjacency(closed, reverse)
        wi = 2 if weight == "time" else 3
        dist: dict[int, float] = {root: 0.0}
        prev_seg: dict[int, int] = {}
        done: set[int] = set()
        heap: list[tuple[float, int]] = [(0.0, root)]
        inf = float("inf")
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            if target is not None and node == target:
                break
            done.add(node)
            for row in adj[node]:
                nd = d + row[wi]
                other = row[1]
                if nd < dist.get(other, inf):
                    dist[other] = nd
                    prev_seg[other] = row[0]
                    heapq.heappush(heap, (nd, other))
        return dist, prev_seg

    # -- RoutingCache search call sites, redirected --------------------------

    def _tree(
        self, root: int, closed: frozenset[int], weight: str, reverse: bool
    ) -> Tree:
        line = self._line(closed, weight)
        tkey = (root, reverse)
        tree = line.trees.get(tkey)
        if tree is None:
            self.misses += 1
            tree = self._search(root, closed, weight, reverse=reverse)
            self._store(line, tkey, tree)
        else:
            self.hits += 1
            line.trees.move_to_end(tkey)
        return tree

    def route(
        self,
        src: int,
        dst: int,
        closed: frozenset[int] = frozenset(),
        weight: str = "time",
    ) -> Route | None:
        if weight not in _WEIGHTS:
            raise ValueError(f"weight must be one of {_WEIGHTS}")
        self.network.landmark(src)
        self.network.landmark(dst)
        if src == dst:
            return Route((src,), (), 0.0, 0.0)
        line = self._line(closed, weight)
        tkey = (src, False)
        tree = line.trees.get(tkey)
        if tree is not None:
            self.hits += 1
            line.trees.move_to_end(tkey)
        elif tkey in line.seen:
            self.misses += 1
            tree = self._search(src, closed, weight)
            self._store(line, tkey, tree)
        else:
            line.seen.add(tkey)
            self.misses += 1
            tree = self._search(src, closed, weight, target=dst)
        return route_from_tree(self.network, src, dst, tree[1])
