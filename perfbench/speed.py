"""Machine-speed sampling, so that timings survive a noisy shared host.

On a shared virtual machine the same computation can run 30% slower for
minutes at a time, because other tenants contend for the physical core.
A closed-loop run cannot avoid that, but it can measure it: every
``period_s`` a timer signal runs a fixed reference computation (the same
code on every commit, nothing from the program under test) and records
how long it took.  The time spent in the reference is taken out of every
interval, and each interval is then rescaled to the speed at which the
reference takes ``NOMINAL_S``:

    normalized = sum over pieces of (piece length) * NOMINAL_S / reference

The result is in seconds at a fixed machine speed.  A change to the
program scales it exactly as it scales wall time; a slow phase of the host
scales the reference too and cancels out.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import signal
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: Reference time, seconds, that defines one normalized second: about the
#: reference's time when a 2-core x86-64 cloud VM runs at full speed.
NOMINAL_S = 0.010
#: Reference samples on each side that smooth one sample's reading.
SMOOTH = 4
#: The reference graph: node count, out-degree and seed.  ``NOMINAL_S``
#: is calibrated to exactly this graph.
REFERENCE_NODES = 3_000
REFERENCE_DEGREE = 4
REFERENCE_SEED = 1


class Reference:
    """The reference computation: Dijkstra over a fixed random graph with
    ``heapq``, dicts and sets -- the same kind of pointer-chasing Python as
    the program's routing, simulation and trace generation, so that host
    contention slows both alike (a small in-cache loop slows more, a NumPy
    gather hardly at all)."""

    def __init__(self) -> None:
        rng = random.Random(REFERENCE_SEED)
        self.adjacency = {
            u: [(rng.randrange(REFERENCE_NODES), rng.random()) for _ in range(REFERENCE_DEGREE)]
            for u in range(REFERENCE_NODES)
        }

    def __call__(self) -> float:
        """Seconds one full search takes."""
        start = time.perf_counter()
        adjacency = self.adjacency
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        done: set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return time.perf_counter() - start


class SpeedProbe:
    """Samples :class:`Reference` from a ``SIGALRM`` timer while active.

    Samples are ``(start, end, reference seconds)``; ``start..end`` is the
    time the handler itself took, which :meth:`Scale.normalized` removes.
    """

    def __init__(self, period_s: float = 0.25) -> None:
        self.period_s = period_s
        self.samples: list[tuple[float, float, float]] = []
        #: Handler time so far, seconds.
        self.paused_s = 0.0
        self._previous = None
        self.reference = Reference()
        self._holding = False
        self._pending = False

    def sample(self) -> None:
        # The garbage collector stays off during the reference: a collection
        # there would scan the program's heap, so its time belongs to the
        # program, and it would make the yardstick depend on the heap's size.
        # The reference builds no cycles; reference counting frees it all.
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = self.reference()
        finally:
            if enabled:
                gc.enable()
        end = time.perf_counter()
        self.samples.append((start, end, ref))
        self.paused_s += end - start

    def clock(self) -> float:
        """``perf_counter()`` less the handler time so far: a clock that
        stops while the reference runs, so no span's time includes it."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if self.paused_s == paused:  # no sample ran between the reads
                return now - paused

    def _on_timer(self, _signum, _frame) -> None:  # noqa: ANN001
        if self._holding:
            self._pending = True
        else:
            self.sample()

    @contextmanager
    def deferred(self) -> Iterator[None]:
        """Hold timer samples until the block ends, so that the reference
        never runs -- and never evicts the caches -- inside a timed cycle."""
        self._holding = True
        try:
            yield
        finally:
            self._holding = False
            if self._pending:
                self._pending = False
                self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    # -- normalization --------------------------------------------------------

    def scale(self) -> "Scale":
        """A frozen view of the samples that rescales intervals."""
        return Scale(self.samples)


class Scale:
    """Rescales raw intervals given reference samples (see module doc)."""

    def __init__(self, samples: list[tuple[float, float, float]]) -> None:
        if not samples:
            raise ValueError("no reference samples")
        samples = sorted(samples)
        self.starts = [s for s, _, _ in samples]
        self.ends = [e for _, e, _ in samples]
        refs = [r for _, _, r in samples]
        # Each sample's reading is the median of its neighbourhood, so one
        # sample hit by a short burst does not rescale a whole interval.
        self.factor = [
            NOMINAL_S / statistics.median(refs[max(0, i - SMOOTH): i + SMOOTH + 1])
            for i in range(len(refs))
        ]
        # Cumulative normalized time at each sample's start: the piece
        # from the previous sample's end runs at the nearer sample's speed.
        self._norm = [0.0]
        for i in range(1, len(samples)):
            self._norm.append(self._norm[-1] + self._piece(self.ends[i - 1], self.starts[i], i))

    def _piece(self, a: float, b: float, i: int) -> float:
        """Normalized length of ``a..b``, which lies between sample ``i-1``'s
        end and sample ``i``'s start: each half at its nearer sample."""
        mid = (self.ends[i - 1] + self.starts[i]) / 2.0
        left = max(0.0, min(b, mid) - a)
        right = max(0.0, b - max(a, mid))
        return left * self.factor[i - 1] + right * self.factor[i]

    def _at(self, t: float) -> float:
        """Normalized time elapsed from the first sample's start to ``t``."""
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self.factor[0]
        if t <= self.ends[i]:
            return self._norm[i]  # inside the handler: no program time passes
        if i + 1 < len(self.starts):
            return self._norm[i] + self._piece(self.ends[i], t, i + 1)
        return self._norm[i] + (t - self.ends[i]) * self.factor[i]

    def normalized(self, a: float, b: float) -> float:
        """Seconds at nominal speed that the program spent in ``a..b``."""
        return self._at(b) - self._at(a)

    def paused(self, a: float, b: float) -> float:
        """Handler time inside ``a..b`` (raw seconds)."""
        total = 0.0
        i = bisect.bisect_left(self.ends, a)
        while i < len(self.starts) and self.starts[i] < b:
            total += max(0.0, min(b, self.ends[i]) - max(a, self.starts[i]))
            i += 1
        return total
