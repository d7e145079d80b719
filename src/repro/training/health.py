"""The numeric-health sentinel: typed anomaly screens for DQN training.

Detection is split by where each failure mode is visible:

* **per learn step** (:meth:`TrainingSentinel.observe`, attached as the
  agent's observer tap): NaN/Inf loss, exploding gradients (via the
  MLP's opt-in ``last_grad_max`` diagnostic), and TD-error divergence —
  a windowed z-score over a deterministic ring of recent losses, gated
  by an absolute floor because episode boundaries legitimately shift the
  loss distribution by tens of sigmas at microscopic magnitudes;
* **every ``param_screen_every`` steps**: non-finite or exploding
  Q-network parameters (the screens between two consecutive full scans
  still catch a poisoned net, because NaN weights make the very next
  loss NaN);
* **per episode boundary**: replay-buffer integrity (non-finite rows,
  reward magnitudes beyond any physical dispatch reward) and rolling
  reward collapse across episodes.

Every screen only *reads* agent state and consumes no randomness, so a
sentinel-on fault-free run is bit-identical to a sentinel-off run — the
invariant the ``train-*`` chaos profiles assert.

Anomalies accumulate in a bounded :class:`IncidentRing` (oldest evicted,
eviction counted) and are drained per attempt by the recovery loop in
:mod:`repro.training.loop`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.ml.dqn import DQNAgent
from repro.ml.replay import ReplayBuffer

# -- anomaly taxonomy ---------------------------------------------------------

KIND_NAN_LOSS = "nan-loss"
KIND_NAN_PARAM = "nan-param"
KIND_GRAD_EXPLOSION = "grad-explosion"
KIND_Q_EXPLOSION = "q-explosion"
KIND_TD_DIVERGENCE = "td-divergence"
KIND_REWARD_COLLAPSE = "reward-collapse"
KIND_REPLAY_CORRUPT = "replay-corrupt"
KIND_REPLAY_REWARD_BOUND = "replay-reward-bound"
KIND_CHECKPOINT_BITROT = "checkpoint-bitrot"

ANOMALY_KINDS: tuple[str, ...] = (
    KIND_NAN_LOSS,
    KIND_NAN_PARAM,
    KIND_GRAD_EXPLOSION,
    KIND_Q_EXPLOSION,
    KIND_TD_DIVERGENCE,
    KIND_REWARD_COLLAPSE,
    KIND_REPLAY_CORRUPT,
    KIND_REPLAY_REWARD_BOUND,
    KIND_CHECKPOINT_BITROT,
)


@dataclass(frozen=True)
class Anomaly:
    """One confirmed health finding, pinned to where it was seen."""

    kind: str
    episode: int
    attempt: int
    #: Learn step within the attempt; -1 for boundary/rollback screens.
    step: int
    value: float
    detail: str

    def as_json(self) -> dict[str, object]:
        # NaN is not valid JSON; the journal and forensics bundle must
        # stay loadable by a plain json.load.
        value = self.value if math.isfinite(self.value) else None
        return {
            "kind": self.kind,
            "episode": self.episode,
            "attempt": self.attempt,
            "step": self.step,
            "value": value,
            "detail": self.detail,
        }


class TrainingAnomalyError(RuntimeError):
    """Raised where there is no recovery loop to hand anomalies to (the
    parallel-collection task): the executor treats the episode exactly
    like a poisoned payload and quarantines it."""

    def __init__(self, anomalies: list[Anomaly]) -> None:
        self.anomalies = list(anomalies)
        kinds = ", ".join(sorted({a.kind for a in anomalies}))
        super().__init__(
            f"training health screen failed ({len(anomalies)} anomalies: {kinds})"
        )


@dataclass(frozen=True)
class SentinelConfig:
    """Detector thresholds, tuned against golden fault-free traces.

    The defaults leave an order-of-magnitude margin above everything the
    seed trajectories produce (losses peak ~0.07 under the Huber head,
    |params| ~1.7, see tests/test_training_recovery.py) while
    sitting orders of magnitude below what any injected fault produces.
    """

    #: |gradient| component ceiling (Huber clips per-sample gradients,
    #: so anything near this is a genuine blow-up).
    grad_bound: float = 1.0e3
    #: |Q-network parameter| ceiling.
    param_bound: float = 1.0e2
    #: |stored reward| ceiling for the replay integrity screen.
    reward_bound: float = 1.0e4
    #: Loss ring capacity for the TD-divergence z-score.
    td_window: int = 64
    td_z_threshold: float = 8.0
    #: A loss must also exceed this floor to count as divergence: early
    #: windows have near-zero variance, so z alone false-positives on
    #: ordinary episode-boundary shifts.
    td_abs_floor: float = 50.0
    #: Reward-collapse detector: trailing window and minimum history.
    reward_window: int = 8
    reward_min_samples: int = 5
    reward_z_threshold: float = 4.0
    #: Full parameter scans run every this-many learn steps.
    param_screen_every: int = 4
    #: Incident ring capacity (oldest evicted beyond this).
    incident_capacity: int = 256

    def __post_init__(self) -> None:
        if min(self.grad_bound, self.param_bound, self.reward_bound) <= 0:
            raise ValueError("screen bounds must be positive")
        if self.td_window < 2 or self.reward_window < 2:
            raise ValueError("detector windows need at least two samples")
        if self.reward_min_samples < 2:
            raise ValueError("reward_min_samples must be at least 2")
        if self.param_screen_every < 1:
            raise ValueError("param_screen_every must be positive")
        if self.incident_capacity < 1:
            raise ValueError("incident_capacity must be positive")


class RingStats:
    """Deterministic fixed-capacity ring with windowed z-scores.

    Pure state machine over pushed floats — no clocks, no randomness —
    so two runs that push the same sequence compute identical scores.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ValueError("ring capacity must be at least 2")
        self.capacity = int(capacity)
        self._values = np.zeros(capacity)
        self._count = 0
        self._head = 0
        # Running first/second moments keep zscore() O(1) on the learn
        # hot path.  Updated with plain float arithmetic, so the values
        # are still a pure function of the pushed sequence.
        self._sum = 0.0
        self._sumsq = 0.0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def push(self, x: float) -> None:
        if self._count >= self.capacity:
            old = float(self._values[self._head])
            self._sum -= old
            self._sumsq -= old * old
        self._values[self._head] = x
        self._sum += x
        self._sumsq += x * x
        self._head = (self._head + 1) % self.capacity
        self._count += 1

    def window(self) -> np.ndarray:
        n = len(self)
        if self._count <= self.capacity:
            return self._values[:n]
        return self._values  # full ring; order is irrelevant to the stats

    def zscore(self, x: float) -> float | None:
        """z of ``x`` against the current window; ``None`` until the
        window is full or when the window is degenerate (zero spread)."""
        if len(self) < self.capacity:
            return None
        n = self.capacity
        mean = self._sum / n
        # Cancellation can drive the variance epsilon-negative; that is
        # a degenerate (zero-spread) window, same as var == 0.
        var = self._sumsq / n - mean * mean
        if var <= 0.0 or not math.isfinite(var):
            return None
        return (x - mean) / math.sqrt(var)

    def clear(self) -> None:
        self._count = 0
        self._head = 0
        self._sum = 0.0
        self._sumsq = 0.0


class IncidentRing:
    """Bounded anomaly log: keeps the newest ``capacity`` incidents and
    counts evictions, so forensics can say "…and 312 more"."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("incident ring capacity must be positive")
        self.capacity = int(capacity)
        self._items: list[Anomaly] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, anomaly: Anomaly) -> None:
        self._items.append(anomaly)
        if len(self._items) > self.capacity:
            del self._items[0]
            self.dropped += 1

    def items(self) -> list[Anomaly]:
        return list(self._items)

    def as_json(self) -> dict[str, object]:
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "incidents": [a.as_json() for a in self._items],
        }


def replay_checksum(buffer: ReplayBuffer) -> str:
    """SHA-256 over the populated replay region (content + layout).

    Committed alongside checkpoints and forensics bundles so replay
    corruption between two snapshots is provable from the artifacts.
    """
    digest = hashlib.sha256()
    digest.update(f"{buffer.capacity}:{buffer.state_dim}:{len(buffer)}".encode())
    for name, arr in sorted(buffer.views().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class TrainingSentinel:
    """Observes one training run; screens are grouped per attempt.

    Wiring: ``agent.observer = sentinel.observe`` covers every learn
    step; the recovery loop calls :meth:`screen_replay` /
    :meth:`screen_rewards` at episode boundaries and :meth:`drain`\\ s
    confirmed anomalies per attempt.  Each anomaly *kind* is recorded at
    most once per attempt (a NaN net makes every subsequent loss NaN;
    one incident per cause, not thousands).
    """

    def __init__(self, config: SentinelConfig | None = None) -> None:
        self.config = config or SentinelConfig()
        self.incidents = IncidentRing(self.config.incident_capacity)
        self._episode = 0
        self._attempt = 0
        self._step = 0
        self._loss_ring = RingStats(self.config.td_window)
        self._seen_kinds: set[str] = set()
        self._pending: list[Anomaly] = []

    # -- lifecycle -----------------------------------------------------------

    def begin_attempt(self, episode: int, attempt: int) -> None:
        """Start screening one ``(episode, attempt)``; per-attempt state
        (step counter, loss ring, kind dedup) resets, the incident ring
        persists across the whole run."""
        self._episode = int(episode)
        self._attempt = int(attempt)
        self._step = 0
        self._loss_ring.clear()
        self._seen_kinds.clear()

    def record(
        self,
        kind: str,
        step: int,
        value: float,
        detail: str,
        dedup_key: str | None = None,
    ) -> None:
        """Confirm one anomaly (deduplicated per kind within an attempt;
        ``dedup_key`` widens that to per-kind-per-key, e.g. one incident
        per rotten checkpoint rather than per rollback)."""
        if kind not in ANOMALY_KINDS:
            raise ValueError(f"unknown anomaly kind {kind!r}")
        key = dedup_key if dedup_key is not None else kind
        if key in self._seen_kinds:
            return
        self._seen_kinds.add(key)
        anomaly = Anomaly(
            kind=kind,
            episode=self._episode,
            attempt=self._attempt,
            step=step,
            value=float(value),
            detail=detail,
        )
        self._pending.append(anomaly)
        self.incidents.push(anomaly)

    def drain(self) -> list[Anomaly]:
        """Anomalies confirmed since the last drain (the attempt verdict)."""
        pending, self._pending = self._pending, []
        return pending

    # -- per learn step ------------------------------------------------------

    def observe(self, agent: DQNAgent, loss: float) -> None:
        """The agent's post-``learn`` tap; must stay cheap and read-only."""
        self._step += 1
        step = self._step
        c = self.config
        if not math.isfinite(loss):
            self.record(KIND_NAN_LOSS, step, loss, "non-finite training loss")
        else:
            z = self._loss_ring.zscore(loss)
            if z is not None and z > c.td_z_threshold and loss > c.td_abs_floor:
                self.record(
                    KIND_TD_DIVERGENCE,
                    step,
                    loss,
                    f"loss {loss:.3g} is {z:.1f} sigma above its window",
                )
            self._loss_ring.push(loss)
        grad = agent.q_net.last_grad_max
        if not math.isfinite(grad):
            self.record(KIND_GRAD_EXPLOSION, step, grad, "non-finite gradient")
        elif grad > c.grad_bound:
            self.record(
                KIND_GRAD_EXPLOSION, step, grad,
                f"|grad| {grad:.3g} exceeds bound {c.grad_bound:.3g}",
            )
        if step % c.param_screen_every == 0:
            self.screen_params(agent)

    def screen_params(self, agent: DQNAgent) -> None:
        """Full Q-network parameter scan (online net; the target net is a
        periodic copy of it, so screening the source suffices)."""
        c = self.config
        # One |·| peak over the flat weight vector settles the common,
        # healthy case; only a failing scan pays for the per-tensor pass
        # that names the offender.  A NaN poisons both reductions.
        flat = agent.q_net.flat_weights
        peak = max(float(flat.max()), -float(flat.min()))
        if math.isfinite(peak) and peak <= c.param_bound:
            return
        for i, layer in enumerate(agent.q_net.layers):
            for tag, arr in (("w", layer.w), ("b", layer.b)):
                # |·| peak without the np.abs temporary; a NaN poisons
                # both reductions, so non-finite values still surface.
                peak = max(float(arr.max()), -float(arr.min()))
                if not math.isfinite(peak):
                    self.record(
                        KIND_NAN_PARAM, self._step, peak,
                        f"non-finite parameter in {tag}{i}",
                    )
                    return
                if peak > c.param_bound:
                    self.record(
                        KIND_Q_EXPLOSION, self._step, peak,
                        f"|{tag}{i}| peak {peak:.3g} exceeds bound {c.param_bound:.3g}",
                    )
                    return

    # -- per episode boundary ------------------------------------------------

    def screen_replay(self, buffer: ReplayBuffer) -> None:
        """Integrity screen over the populated replay region."""
        views = buffer.views()
        if len(buffer) == 0:
            return
        for name in ("states", "rewards", "next_states"):
            arr = views[name]
            if not bool(np.isfinite(arr).all()):
                self.record(
                    KIND_REPLAY_CORRUPT, -1, float("nan"),
                    f"non-finite values in replay {name}",
                )
                return
        peak = float(np.abs(views["rewards"]).max())
        if peak > self.config.reward_bound:
            self.record(
                KIND_REPLAY_REWARD_BOUND, -1, peak,
                f"|reward| peak {peak:.3g} exceeds bound {self.config.reward_bound:.3g}",
            )

    def screen_rewards(self, service_rates: list[float]) -> None:
        """Rolling reward-collapse detector over episode service rates.

        The newest rate is z-scored against the window of rates before
        it; a deeply negative z *and* an absolute halving versus the
        window mean is a collapse.  Inert until ``reward_min_samples``
        episodes exist — quick CI runs never reach it, training sweeps
        do.
        """
        c = self.config
        if len(service_rates) < c.reward_min_samples:
            return
        window = np.asarray(service_rates[-(c.reward_window + 1):-1])
        latest = float(service_rates[-1])
        std = float(window.std())
        mean = float(window.mean())
        if std == 0.0 or not math.isfinite(std):
            return
        z = (latest - mean) / std
        if z < -c.reward_z_threshold and latest < 0.5 * mean:
            self.record(
                KIND_REWARD_COLLAPSE, -1, latest,
                f"service rate {latest:.3g} is {-z:.1f} sigma below its window "
                f"(mean {mean:.3g})",
            )
