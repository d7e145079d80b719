"""Differential tests for the flat-buffer DQN learner.

``MLP`` keeps every weight, gradient and Adam moment in one flat vector
each and takes one in-place Adam step over all of them; ``DQNAgent.learn``
runs one Q forward per step.  The code they replaced is kept here as the
reference — a fresh array per operation, pre-activations kept for the ReLU
mask, Adam per tensor with its own moments and step counter, and a learn
step that forwards the Q-net twice — and every result must be bitwise
equal to it: losses, weights, Adam moments, gradient peaks, epsilon and
actions, through NaNs, checkpoints and copies.

The training sentinel's flat parameter scan is checked the same way
against the per-tensor loop it short-circuits.
"""

from __future__ import annotations

import copy
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.ml.dqn import DQNAgent, DQNConfig
from repro.ml.nn import MLP
from repro.training.health import SentinelConfig, TrainingSentinel

STATE_DIM = 27
NUM_ACTIONS = 9

# -- the reference learner ----------------------------------------------------


@dataclass
class _AdamState:
    """Adam accumulator for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


class ReferenceMLP(MLP):
    """The MLP before flat buffers: per-tensor Adam, pre-activation masks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.adam = [
            (
                _AdamState(np.zeros_like(layer.w), np.zeros_like(layer.w)),
                _AdamState(np.zeros_like(layer.b), np.zeros_like(layer.b)),
            )
            for layer in self.layers
        ]

    def forward(self, x):
        a, _ = self._reference_forward(np.asarray(x, dtype=float))
        return a[-1]

    def predict_one(self, x):
        return self.forward(np.asarray(x, dtype=float)[None, :])[0]

    def _reference_forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected input of shape (N, {self.input_dim})")
        activations = [x]
        pre = []
        a = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            z = a @ layer.w + layer.b
            pre.append(z)
            a = z if i == last else np.maximum(z, 0.0)
            activations.append(a)
        return activations, pre

    def train_step(self, x, target, output_mask=None):
        x = np.asarray(x, dtype=float)
        target = np.asarray(target, dtype=float)
        activations, pre = self._reference_forward(x)
        out = activations[-1]
        if target.shape != out.shape:
            raise ValueError("target shape must match network output shape")
        diff = out - target
        if output_mask is not None:
            diff = diff * output_mask
            denom = max(1.0, float(output_mask.sum()))
        else:
            denom = float(diff.size)
        if self.huber_delta is None:
            loss = float((diff**2).sum() / (2.0 * denom))
            grad_out = diff / denom
        else:
            d = self.huber_delta
            absd = np.abs(diff)
            quad = np.minimum(absd, d)
            loss = float((0.5 * quad**2 + d * (absd - quad)).sum() / denom)
            grad_out = np.clip(diff, -d, d) / denom
        self._reference_backward(activations, pre, grad_out)
        return loss

    def _reference_backward(self, activations, pre, grad_out):
        grad = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if i != len(self.layers) - 1:
                grad = grad * (pre[i] > 0.0)
            gw = activations[i].T @ grad
            gb = grad.sum(axis=0)
            grad = grad @ layer.w.T
            self._adam_update(layer.w, gw, self.adam[i][0])
            self._adam_update(layer.b, gb, self.adam[i][1])
        if self.grad_stats_enabled:
            self.last_grad_max = max(
                float(gw.max()), -float(gw.min()),
                float(gb.max()), -float(gb.min()),
            )

    def _adam_update(self, w, g, state, beta1=0.9, beta2=0.999, eps=1e-8):
        state.t += 1
        state.m = beta1 * state.m + (1 - beta1) * g
        state.v = beta2 * state.v + (1 - beta2) * g**2
        m_hat = state.m / (1 - beta1**state.t)
        v_hat = state.v / (1 - beta2**state.t)
        w -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    def clone(self):
        other = ReferenceMLP(self.layer_sizes, self.learning_rate, self.huber_delta)
        other.set_weights(self.get_weights())
        return other

    def get_train_state(self):
        arrays = {}
        for i, layer in enumerate(self.layers):
            arrays[f"w{i}"] = layer.w.copy()
            arrays[f"b{i}"] = layer.b.copy()
            for tag, state in zip(("w", "b"), self.adam[i]):
                arrays[f"adam_{tag}{i}_m"] = state.m.copy()
                arrays[f"adam_{tag}{i}_v"] = state.v.copy()
                arrays[f"adam_{tag}{i}_t"] = np.array([state.t], dtype=np.int64)
        return arrays

    def set_train_state(self, arrays):
        for i, layer in enumerate(self.layers):
            layer.w[...] = arrays[f"w{i}"]
            layer.b[...] = arrays[f"b{i}"]
            for tag, state in zip(("w", "b"), self.adam[i]):
                state.m = np.array(arrays[f"adam_{tag}{i}_m"], dtype=float)
                state.v = np.array(arrays[f"adam_{tag}{i}_v"], dtype=float)
                state.t = int(arrays[f"adam_{tag}{i}_t"][0])


class ReferenceAgent(DQNAgent):
    """The agent before the single forward: the Q-net runs twice per
    learn step (TD target, then inside ``train_step``)."""

    def __init__(self, config: DQNConfig) -> None:
        super().__init__(config)
        sizes = [config.state_dim, *config.hidden_sizes, config.num_actions]
        self.q_net = ReferenceMLP(sizes, learning_rate=config.learning_rate, seed=config.seed)
        self.target_net = self.q_net.clone()

    def act(self, state, valid_actions=None, greedy=False):
        num = self.config.num_actions
        if valid_actions is None:
            valid_actions = np.ones(num, dtype=bool)
        if not greedy and self.rng.random() < self.epsilon:
            return int(self.rng.choice(np.nonzero(valid_actions)[0]))
        q = self.q_values(state).copy()
        q[~valid_actions] = -np.inf
        return int(np.argmax(q))

    def learn(self):
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            return None
        states, actions, rewards, next_states, dones = self.buffer.sample(
            cfg.batch_size, self.rng
        )
        q_next = self.target_net.forward(next_states).max(axis=1)
        targets_a = rewards + cfg.gamma * q_next * (~dones)
        target = self.q_net.forward(states).copy()
        mask = np.zeros_like(target)
        rows = np.arange(cfg.batch_size)
        target[rows, actions] = targets_a
        mask[rows, actions] = 1.0
        loss = self.q_net.train_step(states, target, output_mask=mask)
        self.learn_steps += 1
        self.epsilon = max(cfg.epsilon_end, self.epsilon * cfg.epsilon_decay)
        if self.learn_steps % cfg.target_sync_every == 0:
            self.sync_target()
        if self.observer is not None:
            self.observer(self, loss)
        return loss


# -- helpers ------------------------------------------------------------------


def config(**overrides) -> DQNConfig:
    base = dict(
        state_dim=STATE_DIM, num_actions=NUM_ACTIONS, batch_size=64,
        target_sync_every=150, epsilon_decay=0.999, seed=7,
    )
    base.update(overrides)
    return DQNConfig(**base)


def pair(**overrides) -> tuple[DQNAgent, ReferenceAgent]:
    new, ref = DQNAgent(config(**overrides)), ReferenceAgent(config(**overrides))
    for agent in (new, ref):
        agent.q_net.grad_stats_enabled = True
    return new, ref


def feed(agents, rng: np.random.Generator, n: int) -> None:
    """The same ``n`` transitions into every agent's replay buffer."""
    for _ in range(n):
        s, s2 = rng.normal(size=STATE_DIM), rng.normal(size=STATE_DIM)
        a, r, done = int(rng.integers(NUM_ACTIONS)), float(rng.normal()), bool(rng.random() < 0.1)
        for agent in agents:
            agent.remember(s, a, r, s2, done)


def same(a, b) -> bool:
    """Bitwise equality (NaN payloads and signed zeros included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(new: DQNAgent, ref: DQNAgent) -> None:
    a, b = new.get_state(), ref.get_state()
    assert list(a) == list(b)
    for key in a:
        assert same(a[key], b[key]), key


def assert_same_net(new: MLP, ref: MLP) -> None:
    a, b = new.get_train_state(), ref.get_train_state()
    assert list(a) == list(b)
    for key in a:
        assert same(a[key], b[key]), key


def learn_both(new: DQNAgent, ref: DQNAgent, steps: int) -> None:
    for _ in range(steps):
        la, lb = new.learn(), ref.learn()
        assert same(la, lb)
        assert same(new.q_net.last_grad_max, ref.q_net.last_grad_max)
        assert new.epsilon == ref.epsilon


# -- tests ----------------------------------------------------------------------


class TestLearnBitIdentical:
    def test_long_run_with_target_syncs(self):
        new, ref = pair()
        rng = np.random.default_rng(0)
        feed((new, ref), rng, 256)
        for block in range(30):
            feed((new, ref), rng, 16)
            learn_both(new, ref, 100)
            if block % 10 == 9:
                assert_same_state(new, ref)
        assert new.learn_steps == 3_000
        assert_same_state(new, ref)

    def test_nan_injected_parameter(self):
        new, ref = pair()
        rng = np.random.default_rng(1)
        feed((new, ref), rng, 128)
        learn_both(new, ref, 40)
        for agent in (new, ref):
            agent.q_net.layers[0].w[0, 0] = np.nan
        learn_both(new, ref, 40)
        assert np.isnan(new.q_net.last_grad_max)
        assert_same_state(new, ref)

    @pytest.mark.parametrize("huber_delta", [None, 1.0])
    @pytest.mark.parametrize("masked", [False, True])
    def test_train_step(self, huber_delta, masked):
        sizes = [5, 16, 16, 3]
        new = MLP(sizes, learning_rate=3e-3, huber_delta=huber_delta, seed=2)
        ref = ReferenceMLP(sizes, learning_rate=3e-3, huber_delta=huber_delta, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.normal(size=(32, 5))
            y = rng.normal(size=(32, 3)) * 4.0
            mask = (rng.random((32, 3)) < 0.4).astype(float) if masked else None
            assert same(new.train_step(x, y, mask), ref.train_step(x, y, mask))
        assert_same_net(new, ref)

    def test_learning_rate_change_midway(self):
        new, ref = pair()
        feed((new, ref), np.random.default_rng(3), 128)
        learn_both(new, ref, 30)
        for agent in (new, ref):
            agent.q_net.learning_rate *= 0.25
        learn_both(new, ref, 30)
        assert_same_state(new, ref)


class TestStateTransfer:
    def test_checkpoint_midway(self, tmp_path):
        new, ref = pair()
        rng = np.random.default_rng(4)
        feed((new, ref), rng, 200)
        learn_both(new, ref, 300)
        path = tmp_path / "agent.npz"
        np.savez(path, **new.get_state())
        resumed = DQNAgent(config())
        resumed.q_net.grad_stats_enabled = True
        with np.load(path) as data:
            resumed.set_state(data)
        assert_same_state(resumed, ref)
        feed((resumed, ref), rng, 32)
        learn_both(resumed, ref, 300)
        assert_same_state(resumed, ref)

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
        ids=["deepcopy", "pickle"],
    )
    def test_copy_keeps_training(self, duplicate):
        new, ref = pair()
        rng = np.random.default_rng(5)
        feed((new, ref), rng, 128)
        learn_both(new, ref, 50)
        twin = duplicate(new)
        for net in (twin.q_net, twin.target_net):
            for layer in net.layers:
                assert np.shares_memory(layer.w, net.flat_weights)
                assert np.shares_memory(layer.b, net.flat_weights)
            assert not np.shares_memory(net.flat_weights, new.q_net.flat_weights)
        learn_both(twin, ref, 200)
        assert_same_state(twin, ref)
        twin.q_net.layers[1].b[0] = np.nan
        assert np.isnan(twin.q_net.flat_weights).sum() == 1

    def test_legacy_train_state_resumes(self):
        """A state written by the per-tensor learner loads and resumes."""
        donor, ref = ReferenceAgent(config()), ReferenceAgent(config())
        rng = np.random.default_rng(6)
        feed((donor, ref), rng, 150)
        for _ in range(120):
            donor.learn()
            ref.learn()
        new = DQNAgent(config())
        new.set_state(donor.get_state())
        assert_same_state(new, ref)
        for agent in (new, ref):
            agent.q_net.grad_stats_enabled = True
        learn_both(new, ref, 200)
        assert_same_state(new, ref)

    def test_disagreeing_step_counters_rejected(self):
        net = MLP([4, 8, 2], seed=1)
        net.train_step(np.ones((3, 4)), np.zeros((3, 2)))
        state = net.get_train_state()
        state["adam_b1_t"] = np.array([5], dtype=np.int64)
        fresh = MLP([4, 8, 2], seed=2)
        before = fresh.get_train_state()
        with pytest.raises(ValueError, match="step counters disagree"):
            fresh.set_train_state(state)
        after = fresh.get_train_state()
        assert all(same(before[k], after[k]) for k in before)

    def test_checkpoint_keys_shapes_dtypes(self):
        new, ref = MLP([27, 64, 64, 9]), ReferenceMLP([27, 64, 64, 9])
        a, b = new.get_train_state(), ref.get_train_state()
        assert list(a) == list(b)
        assert all(a[k].shape == b[k].shape and a[k].dtype == b[k].dtype for k in a)


class TestAct:
    @pytest.mark.parametrize("greedy", [True, False])
    def test_masked_actions(self, greedy):
        new, ref = pair(epsilon_decay=0.99)
        rng = np.random.default_rng(8)
        feed((new, ref), rng, 128)
        for _ in range(20):
            learn_both(new, ref, 5)
            for _ in range(50):
                state = rng.normal(size=STATE_DIM)
                mask = rng.random(NUM_ACTIONS) < 0.5
                mask[rng.integers(NUM_ACTIONS)] = True
                assert new.act(state, mask, greedy=greedy) == ref.act(
                    state, mask, greedy=greedy
                )
        assert_same_state(new, ref)

    def test_q_values(self):
        new, ref = pair()
        state = np.random.default_rng(9).normal(size=STATE_DIM)
        assert same(new.q_values(state), ref.q_values(state))
        batch = np.random.default_rng(10).normal(size=(7, STATE_DIM))
        assert same(new.q_net.forward(batch), ref.q_net.forward(batch))


# -- the sentinel's flat parameter scan ---------------------------------------


class ReferenceSentinel(TrainingSentinel):
    """``screen_params`` as the per-tensor loop alone."""

    def screen_params(self, agent):
        c = self.config
        for i, layer in enumerate(agent.q_net.layers):
            for tag, arr in (("w", layer.w), ("b", layer.b)):
                peak = max(float(arr.max()), -float(arr.min()))
                if not math.isfinite(peak):
                    self.record("nan-param", self._step, peak, f"non-finite parameter in {tag}{i}")
                    return
                if peak > c.param_bound:
                    self.record(
                        "q-explosion", self._step, peak,
                        f"|{tag}{i}| peak {peak:.3g} exceeds bound {c.param_bound:.3g}",
                    )
                    return


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.0e6, -1.0e6, 99.0, -101.0])
def test_screen_params_matches_per_tensor_loop(value):
    rng = np.random.default_rng(11)
    agent = DQNAgent(config())
    for _ in range(40):
        layer = agent.q_net.layers[int(rng.integers(3))]
        arr = layer.w if rng.random() < 0.7 else layer.b
        flat_index = int(rng.integers(arr.size))
        saved = arr.flat[flat_index]
        arr.flat[flat_index] = value
        found = []
        for cls in (TrainingSentinel, ReferenceSentinel):
            sentinel = cls(SentinelConfig())
            sentinel.begin_attempt(0, 0)
            sentinel.screen_params(agent)
            found.append([(a.kind, a.step, a.detail, repr(a.value)) for a in sentinel.drain()])
        assert found[0] == found[1]
        arr.flat[flat_index] = saved
