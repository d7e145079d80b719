"""A small dense neural network with Adam, in plain numpy.

This is the DNN function approximator of the paper's RL dispatcher (the
paper points to Pensieve [24] for the technique).  It supports exactly what
a DQN needs: forward passes, mean-squared / Huber loss on *selected output
units* (Q-values of taken actions), backprop, and Adam updates.

Every weight, gradient and Adam moment lives in one contiguous float64
vector each; ``layers[i].w``/``.b`` are reshaped views into the weight
vector.  A learn step on a 64-row batch is dominated by per-call numpy
overhead, not arithmetic, so the backward pass writes straight into the
flat gradient vector and one in-place Adam step covers every weight.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class _Layer:
    """One dense layer's weights: views into the owning MLP's flat vector."""

    w: np.ndarray
    b: np.ndarray


class MLP:
    """Fully-connected ReLU network with a linear output layer."""

    def __init__(
        self,
        layer_sizes: list[int] | tuple[int, ...],
        learning_rate: float = 1e-3,
        huber_delta: float | None = 1.0,
        seed: int = 0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s <= 0 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.learning_rate = float(learning_rate)
        self.huber_delta = huber_delta
        #: Opt-in gradient diagnostics for the training sentinel.  Off by
        #: default so the hot path pays nothing; enabling it only *reads*
        #: gradients (never alters the update), so the weight trajectory
        #: is bit-identical either way.
        self.grad_stats_enabled = False
        #: Largest |gradient| component seen in the most recent backward
        #: pass (0.0 until :attr:`grad_stats_enabled` is set).
        self.last_grad_max = 0.0
        size = sum(
            fan_in * fan_out + fan_out
            for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:])
        )
        self._params = np.zeros(size)
        self._grads = np.zeros(size)
        self._adam_m = np.zeros(size)
        self._adam_v = np.zeros(size)
        #: One Adam step counter: every weight is updated on every step.
        self._adam_t = 0
        self._scratch = (np.empty(size), np.empty(size))
        self._bind_views()
        rng = np.random.default_rng(seed)
        for layer in self.layers:
            fan_in, fan_out = layer.w.shape
            # He initialization, appropriate for ReLU hidden units.
            layer.w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))

    def _views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(w, b)`` views into one flat parameter-sized vector."""
        views = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            views.append((w, flat[offset : offset + fan_out]))
            offset += fan_out
        return views

    def _bind_views(self) -> None:
        self.layers = [_Layer(w, b) for w, b in self._views(self._params)]
        self._grad_views = self._views(self._grads)
        flat = self._params.view()
        flat.flags.writeable = False
        #: Read-only view of every weight and bias, layer by layer.
        self.flat_weights = flat

    # Views would be pickled (and deep-copied) as independent arrays that
    # no longer alias the flat vector, so they are rebuilt instead.
    _DERIVED = ("layers", "_grad_views", "flat_weights")

    def __getstate__(self) -> dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k not in self._DERIVED}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._bind_views()

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    # -- forward -------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass: (N, in) -> (N, out)."""
        return self._forward_cached(np.asarray(x, dtype=float))[-1]

    def predict_one(self, x: np.ndarray) -> np.ndarray:
        """Single-sample forward pass: (in,) -> (out,)."""
        return self._forward_cached(np.asarray(x, dtype=float)[None, :])[-1][0]

    def _forward_cached(self, x: np.ndarray) -> list[np.ndarray]:
        """Every layer's output, input first.  A hidden unit is active iff
        its ReLU output is > 0, so backprop needs no pre-activations."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected input of shape (N, {self.input_dim})")
        activations = [x]
        a = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            a = a @ layer.w
            a += layer.b
            if i != last:
                np.maximum(a, 0.0, out=a)
            activations.append(a)
        return activations

    # -- training --------------------------------------------------------------

    def train_step(
        self,
        x: np.ndarray,
        target: np.ndarray,
        output_mask: np.ndarray | None = None,
    ) -> float:
        """One gradient step toward ``target``; returns the loss.

        ``output_mask`` (N, out), when given, restricts the loss to selected
        output units — the DQN update touches only the Q-value of the action
        actually taken.
        """
        activations = self._forward_cached(np.asarray(x, dtype=float))
        return self._train_on(activations, np.asarray(target, dtype=float), output_mask)

    def _train_on(
        self,
        activations: list[np.ndarray],
        target: np.ndarray,
        output_mask: np.ndarray | None = None,
    ) -> float:
        """:meth:`train_step` on a batch already run through
        :meth:`_forward_cached` (the DQN reuses its output for the target)."""
        out = activations[-1]
        if target.shape != out.shape:
            raise ValueError("target shape must match network output shape")
        diff = out - target
        if output_mask is not None:
            if output_mask.shape != out.shape:
                raise ValueError("output_mask shape must match network output shape")
            diff *= output_mask
            denom = max(1.0, float(output_mask.sum()))
        else:
            denom = float(diff.size)

        if self.huber_delta is None:
            loss = float((diff**2).sum() / (2.0 * denom))
        else:
            d = self.huber_delta
            absd = np.abs(diff)
            quad = np.minimum(absd, d)
            absd -= quad
            absd *= d
            quad *= quad
            quad *= 0.5
            quad += absd
            loss = float(quad.sum() / denom)
            # np.clip(diff, -d, d) is exactly min(max(diff, -d), d), NaN
            # included, without np.clip's Python-level dispatch.
            np.maximum(diff, -d, out=diff)
            np.minimum(diff, d, out=diff)
        diff /= denom
        self._backward(activations, diff)
        return loss

    def _backward(self, activations: list[np.ndarray], grad_out: np.ndarray) -> None:
        """Backprop ``grad_out`` (consumed in place) into the flat gradient
        vector, then take one Adam step over every weight."""
        grad = grad_out
        last = len(self.layers) - 1
        for i in range(last, -1, -1):
            gw, gb = self._grad_views[i]
            if i != last:
                grad *= activations[i + 1] > 0.0
            np.matmul(activations[i].T, grad, out=gw)
            grad.sum(axis=0, out=gb)
            if i:
                grad = grad @ self.layers[i].w.T
        if self.grad_stats_enabled:
            # The input layer's gradients: the chain rule funnels every
            # downstream NaN or blow-up through them (``grad @ w.T``
            # propagates NaN, and the ReLU mask multiplies by 0.0 which
            # keeps it) — so screening this one layer sees them all at a
            # fraction of the cost.  max(max, -min) == |·| peak without an
            # np.abs temporary; a NaN poisons the gw reductions, which
            # come first, so the builtin max returns it rather than
            # masking it.
            gw, gb = self._grad_views[0]
            self.last_grad_max = max(
                float(gw.max()), -float(gw.min()),
                float(gb.max()), -float(gb.min()),
            )
        self._adam_step()

    def _adam_step(self) -> None:
        """Adam over the flat vectors, in place: per element, the same
        float64 operations in the same order as the textbook update
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
        w -= lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)``."""
        self._adam_t += 1
        t = self._adam_t
        g, m, v = self._grads, self._adam_m, self._adam_v
        step, denom = self._scratch
        m *= ADAM_BETA1
        np.multiply(g, 1 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.square(g, out=step)
        step *= 1 - ADAM_BETA2
        v += step
        np.divide(m, 1 - ADAM_BETA1**t, out=step)
        step *= self.learning_rate
        np.divide(v, 1 - ADAM_BETA2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        self._params -= step

    # -- parameter transfer -------------------------------------------------------

    def get_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(layer.w.copy(), layer.b.copy()) for layer in self.layers]

    def set_weights(self, weights: list[tuple[np.ndarray, np.ndarray]]) -> None:
        if len(weights) != len(self.layers):
            raise ValueError("weight list length mismatch")
        for layer, (w, b) in zip(self.layers, weights):
            if layer.w.shape != w.shape or layer.b.shape != b.shape:
                raise ValueError("weight shape mismatch")
            layer.w[...] = w
            layer.b[...] = b

    def clone(self) -> "MLP":
        """Structural copy with identical weights (fresh Adam state)."""
        other = MLP(self.layer_sizes, self.learning_rate, self.huber_delta)
        other.set_weights(self.get_weights())
        return other

    # -- checkpointing ------------------------------------------------------------

    def get_train_state(self) -> dict[str, np.ndarray]:
        """Weights *and* Adam accumulators as an npz-ready array dict.

        ``get_weights`` suffices to reproduce inference; resuming training
        bit-identically additionally needs every optimizer moment and step
        counter, since Adam's bias correction depends on ``t``.  Moments
        and counters are stored per tensor (``adam_w{i}_m`` ...).
        """
        arrays: dict[str, np.ndarray] = {}
        moments = zip(self.layers, self._views(self._adam_m), self._views(self._adam_v))
        for i, (layer, (mw, mb), (vw, vb)) in enumerate(moments):
            arrays[f"w{i}"] = layer.w.copy()
            arrays[f"b{i}"] = layer.b.copy()
            for tag, m, v in (("w", mw, vw), ("b", mb, vb)):
                arrays[f"adam_{tag}{i}_m"] = m.copy()
                arrays[f"adam_{tag}{i}_v"] = v.copy()
                arrays[f"adam_{tag}{i}_t"] = np.array([self._adam_t], dtype=np.int64)
        return arrays

    def set_train_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore weights and Adam state from :meth:`get_train_state`.

        Nothing is written unless the whole state fits; per-tensor step
        counters that disagree raise ``ValueError`` (one counter drives
        every tensor's bias correction here).
        """
        copies: list[tuple[np.ndarray, np.ndarray]] = []
        steps: set[int] = set()
        moments = zip(self.layers, self._views(self._adam_m), self._views(self._adam_v))
        for i, (layer, (mw, mb), (vw, vb)) in enumerate(moments):
            try:
                w, b = arrays[f"w{i}"], arrays[f"b{i}"]
            except KeyError as exc:
                raise ValueError(f"train state is missing layer {i}") from exc
            if layer.w.shape != w.shape or layer.b.shape != b.shape:
                raise ValueError("train state layer shape mismatch")
            copies += [(layer.w, w), (layer.b, b)]
            for tag, m_dst, v_dst in (("w", mw, vw), ("b", mb, vb)):
                m = arrays[f"adam_{tag}{i}_m"]
                v = arrays[f"adam_{tag}{i}_v"]
                if m.shape != m_dst.shape or v.shape != v_dst.shape:
                    raise ValueError("train state Adam shape mismatch")
                copies += [(m_dst, m), (v_dst, v)]
                steps.add(int(arrays[f"adam_{tag}{i}_t"][0]))
        if len(steps) != 1:
            raise ValueError(f"train state Adam step counters disagree: {sorted(steps)}")
        for dst, src in copies:
            dst[...] = src
        self._adam_t = steps.pop()
