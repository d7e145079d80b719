"""Tests for the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pathlib
import sys
import types

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from layers import TARGETS  # noqa: E402
from workload import _ENTRY_MODULES  # noqa: E402  (puts src/ on the path)


class Clock:
    """Hands out the given instants in order."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_nested_and_sibling_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    t = tracing.Tracer(clock=Clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = t.begin("root")
    a = t.begin("a")
    a1 = t.begin("a1")
    t.end(a1)
    t.end(a)
    b = t.begin("b")
    t.end(b)
    t.end(root)
    assert t.stat("root") == (1, 10.0, 3.0)
    assert t.stat("a") == (1, 3.0, 2.0)
    assert t.stat("a1") == (1, 1.0, 1.0)
    assert t.stat("b") == (1, 4.0, 4.0)
    assert t.span_parent == [-1, root, a, root]
    # Self times partition the root's interval.
    assert sum(s for _, _, s in t.stats.values()) == pytest.approx(10.0)


def test_self_time_repeated_siblings_accumulate():
    t = tracing.Tracer(clock=Clock(0, 1, 2, 4, 7, 10))
    root = t.begin("root")
    for _ in range(2):
        t.end(t.begin("leaf"))
    t.end(root)
    assert t.stat("leaf") == (2, 4.0, 4.0)
    assert t.stat("root") == (1, 10.0, 6.0)


def test_name_nested_in_itself_counts_total_once():
    t = tracing.Tracer(clock=Clock(0, 2, 5, 10))
    outer = t.begin("x")
    inner = t.begin("x")
    t.end(inner)
    t.end(outer)
    calls, total, self_s = t.stat("x")
    assert (calls, total, self_s) == (2, 10.0, 10.0)


def test_spans_must_end_in_order():
    t = tracing.Tracer(clock=Clock(0, 1, 2))
    outer = t.begin("outer")
    t.begin("inner")
    with pytest.raises(RuntimeError):
        t.end(outer)


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize(
    ("samples", "expected"),
    [
        (20_000, 99.9),
        (1_000, 99.0),  # exactly 10 beyond p99
        (999, 95.0),
        (578, 95.0),  # the baselines workload's cycles per round
        (289, 95.0),  # one Sep 16 day
        (200, 95.0),
        (199, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert run.highest_percentile(samples) == expected


def test_highest_percentile_leaves_ten_synthetic_samples_beyond():
    rng = np.random.default_rng(3)
    for n in (25, 199, 578, 1_445, 12_000):
        values = rng.lognormal(size=n)
        p = run.highest_percentile(n)
        assert (values > np.percentile(values, p)).sum() >= 10


# -- wrapping and restoring ------------------------------------------------------


@pytest.fixture
def fake_package():
    """``fakepkg.lib`` defines a function and a class; ``fakepkg.user``
    holds a ``from fakepkg.lib import compute`` alias."""
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    exec(
        "def compute(x, *, scale=1):\n"
        "    if x < 0:\n"
        "        raise ValueError('negative', x)\n"
        "    return [x * scale]\n"
        "class Box:\n"
        "    def get(self, k):\n"
        "        return {'k': k}\n",
        lib.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.compute = lib.compute
    modules = {"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        yield lib, user
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_wrapper_passes_results_and_exceptions_through(fake_package):
    lib, user = fake_package
    original_compute, original_get = lib.compute, lib.Box.get
    box = lib.Box()
    expected_error = None
    try:
        original_compute(-1)
    except ValueError as exc:
        expected_error = exc.args
    t = tracing.Tracer()
    patch = tracing.install(
        t,
        [
            tracing.Target("fakepkg.lib", "compute", "lib.compute",
                           lambda r, a, k: {"lib.compute.items": len(r)}),
            tracing.Target("fakepkg.lib", "Box.get", "lib.get"),
        ],
        "fakepkg",
    )
    assert user.compute is lib.compute is not original_compute
    result = user.compute(3, scale=2)
    assert result == original_compute(3, scale=2)
    assert box.get("a") == {"k": "a"}
    with pytest.raises(ValueError) as info:
        user.compute(-1)
    assert info.value.args == expected_error
    assert t.stat("lib.compute")[0] == 2  # the raising call is a span too
    assert t.stat("lib.get")[0] == 1
    assert t.counters == {"lib.compute.items": 1.0}
    assert not t._stack

    patch.restore()
    assert lib.compute is original_compute
    assert user.compute is original_compute
    assert vars(lib.Box)["get"] is original_get
    assert tracing.wrappers_left("fakepkg") == []


def test_restore_reaches_aliases_bound_while_wrapped(fake_package):
    lib, _user = fake_package
    original = lib.compute
    patch = tracing.install(
        tracing.Tracer(), [tracing.Target("fakepkg.lib", "compute", "c")], "fakepkg"
    )
    late = types.ModuleType("fakepkg.late")
    late.compute = lib.compute  # a module first imported mid-run
    sys.modules["fakepkg.late"] = late
    try:
        assert tracing.wrappers_left("fakepkg") != []
        patch.restore()
        assert late.compute is original
        assert tracing.wrappers_left("fakepkg") == []
    finally:
        sys.modules.pop("fakepkg.late", None)


def test_every_target_resolves_and_is_fully_removed():
    import importlib

    for module in _ENTRY_MODULES:
        importlib.import_module(module)
    before = {
        t.qualname: tracing.inspect.getattr_static(
            importlib.import_module(t.module), t.qualname.split(".")[0]
        )
        for t in TARGETS
    }
    patch = tracing.install(tracing.Tracer(), TARGETS, "repro")
    assert len(tracing.wrappers_left("repro")) >= len(TARGETS)
    patch.restore()
    assert tracing.wrappers_left("repro") == []
    for t in TARGETS:
        owner = importlib.import_module(t.module)
        assert tracing.inspect.getattr_static(owner, t.qualname.split(".")[0]) is before[
            t.qualname
        ]


# -- run-level checks ------------------------------------------------------------


def _round(digests, ok=True):
    return {"checks": {"x": ok}, "episodes": [{"digest": d} for d in digests]}


def test_outcome_requires_identical_digests_and_passing_checks():
    assert run.outcome([_round(["a", "b"]), _round(["a", "b"])]) == (True, [])
    correct, problems = run.outcome([_round(["a", "b"]), _round(["a", "c"])])
    assert not correct and "digests differ" in problems[0]
    correct, problems = run.outcome([_round(["a"], ok=False)])
    assert not correct and "check failed: x" in problems[0]


# -- speed normalization ---------------------------------------------------------


def test_scale_removes_handler_time_at_nominal_speed():
    n = speed.NOMINAL_S
    # Samples (handler start, handler end, reference): handlers at 0-0.1,
    # 1-1.1 and 2-2.1 s, all at nominal speed.
    scale = speed.Scale([(0.0, 0.1, n), (1.0, 1.1, n), (2.0, 2.1, n)])
    assert scale.normalized(0.1, 2.0) == pytest.approx(1.8)
    assert scale.normalized(0.5, 1.5) == pytest.approx(0.9)
    assert scale.paused(0.5, 1.5) == pytest.approx(0.1)
    assert scale.normalized(1.02, 1.08) == pytest.approx(0.0)


def test_scale_rescales_slow_phases_to_nominal_speed():
    n = speed.NOMINAL_S
    slow = [(float(i), float(i), 2 * n) for i in range(10)]  # twice as slow
    assert speed.Scale(slow).normalized(2.0, 6.0) == pytest.approx(2.0)
    fast_then_slow = [(float(i), float(i), n if i < 5 else 2 * n) for i in range(10)]
    scale = speed.Scale(fast_then_slow)
    assert scale.normalized(0.0, 2.0) == pytest.approx(2.0)
    assert scale.normalized(7.0, 9.0) == pytest.approx(1.0)


def test_scale_smooths_one_outlier_sample():
    n = speed.NOMINAL_S
    samples = [(float(i), float(i), n) for i in range(10)]
    samples[5] = (5.0, 5.0, 10 * n)
    assert speed.Scale(samples).normalized(3.0, 7.0) == pytest.approx(4.0)


def test_speed_probe_samples_from_the_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period_s=0.05) as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 4  # enter, exit and the timer's
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_probe_defers_samples_out_of_held_blocks():
    import time

    with speed.SpeedProbe(period_s=0.02) as probe:
        with probe.deferred():
            start = time.perf_counter()
            while time.perf_counter() - start < 0.1:
                pass
            end = time.perf_counter()
        after = len(probe.samples)
    assert not any(start < s < end for s, _, _ in probe.samples)
    assert after >= 2  # the entry sample and the one held back to the block's end


def test_speed_probe_sample_runs_no_garbage_collection():
    import gc

    probe = speed.SpeedProbe()
    reference = probe.reference
    inside = False
    during: list[str] = []

    def timed_reference() -> float:
        nonlocal inside
        inside = True
        try:
            return reference()
        finally:
            inside = False

    def seen(phase: str, _info: dict) -> None:
        if inside:
            during.append(phase)

    probe.reference = timed_reference
    gc.callbacks.append(seen)
    try:
        for enabled in (True, True, False):
            (gc.enable if enabled else gc.disable)()
            probe.sample()
            assert gc.isenabled() is enabled  # the caller's state is restored
    finally:
        gc.callbacks.remove(seen)
        gc.enable()
    assert during == []


def test_speed_probe_clock_stops_while_the_reference_runs():
    import time

    probe = speed.SpeedProbe()
    before, outside = probe.clock(), time.perf_counter()
    probe.sample()
    advanced, elapsed = probe.clock() - before, time.perf_counter() - outside
    start, end, _ref = probe.samples[-1]
    assert probe.paused_s == pytest.approx(end - start)
    assert advanced == pytest.approx(elapsed - (end - start), abs=1e-3)
