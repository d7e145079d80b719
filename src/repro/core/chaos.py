"""One chaos campaign core: the seed loop every ``repro chaos`` surface runs.

A surface (the guarded service, the sharded topology, the rollout
workers, self-healing training) is a plug-in: a :class:`ChaosCampaign`
subclass that builds its world once and then, per seed, supplies its
reference runs, one chaos run under the named fault profile, and the
invariant checks that judge it.  What the surfaces share lives here,
once:

* seed validation and resolving the profile name when the config is
  built, so a misspelled profile fails before any world is built;
* the per-seed loop and its progress messages;
* the escape catch: an exception out of a seed's chaos run becomes
  ``no_escape: false`` plus a violation, and the next seed still runs;
* the :class:`SeedVerdict` record and the campaign report (``ok``,
  ``violations``, ``runs`` plus the plug-in's header fields), written
  atomically so CI keeps an artifact even when an invariant broke.
"""

from __future__ import annotations

import abc
import contextlib
import logging
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, ContextManager, Generic, TypeVar, cast

from repro.core.artifacts import atomic_write_json
from repro.data.charlotte import CharlotteScenario
from repro.mobility.generator import TraceBundle
from repro.sim.requests import (
    RescueRequest,
    remap_to_operable,
    requests_from_rescues,
)
from repro.weather.storms import SECONDS_PER_DAY, day_index

logger = logging.getLogger("repro.core.chaos")

#: The Florence day the service and worker campaigns replay.
EVAL_DAY = "Sep 16"


def eval_window(
    scenario: CharlotteScenario, bundle: TraceBundle, window_days: float
) -> tuple[float, float, list[RescueRequest]]:
    """``(t0_s, t1_s, requests)`` for a window opening on :data:`EVAL_DAY`.

    The requests are the rescues called in inside the window, anchored
    to the operable edge of the flood.
    """
    day = day_index(scenario.timeline, EVAL_DAY)
    t0_s = day * SECONDS_PER_DAY
    t1_s = (day + window_days) * SECONDS_PER_DAY
    requests = remap_to_operable(
        requests_from_rescues(bundle.rescues, t0_s, t1_s),
        scenario.network,
        scenario.flood,
    )
    return t0_s, t1_s, requests


@dataclass(frozen=True)
class CampaignConfig:
    """What every campaign has: a fault profile name and the chaos seeds.

    A surface's config subclasses this, sets its default ``profile`` and
    names the lookups that resolve it in ``profile_lookups``; each lookup
    raises ``ValueError`` on an unknown name.
    """

    profile: str = ""
    seeds: tuple[int, ...] = (0, 1)
    profile_lookups: ClassVar[tuple[Callable[[str], object], ...]] = ()

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("need at least one seed")
        for lookup in self.profile_lookups:
            lookup(self.profile)


@dataclass
class SeedVerdict:
    """One seed's judgment: invariant booleans, violations, surface fields.

    Every invariant starts true and turns false when a check on it
    fails, so one left unchecked (after an escape, say) reads true.
    ``fields`` holds the surface's own record: counts and run summaries.
    """

    seed: int
    checks: dict[str, bool] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violate(self, message: str) -> None:
        """Record a violation, naming the seed."""
        self.violations.append(f"seed {self.seed}: {message}")

    def check(self, invariant: str, held: bool, message: str) -> None:
        """Judge one invariant; a failure clears it and records ``message``."""
        if not held:
            self.checks[invariant] = False
            self.violate(message)

    def as_json(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            **self.checks,
            **self.fields,
            "violations": list(self.violations),
        }


C = TypeVar("C", bound=CampaignConfig)


class ChaosCampaign(abc.ABC, Generic[C]):
    """The campaign core; each surface subclasses it with its plug-in part.

    A plug-in's ``__init__`` calls this one and then builds its world.
    It implements :meth:`reference`, :meth:`chaos`, :meth:`judge`,
    :meth:`header` and :meth:`describe`, and overrides :meth:`workspace`
    if its runs need a scope held open.
    """

    #: The surface's config type; its default config when none is given.
    config_type: ClassVar[type[CampaignConfig]] = CampaignConfig
    #: Names the surface in progress messages, escape violations and
    #: the CLI's last line.
    label: ClassVar[str] = "chaos"
    #: The surface's invariants in report order; ``no_escape`` follows.
    invariants: ClassVar[tuple[str, ...]] = ()

    def __init__(self, config: C | None = None) -> None:
        self.config: C = config or cast(C, self.config_type())

    # -- the plug-in's part ----------------------------------------------------

    def workspace(self, seed: int) -> ContextManager[Any]:
        """A scope held open around one seed's runs; yields ``work``."""
        return contextlib.nullcontext()

    @abc.abstractmethod
    def reference(self, verdict: SeedVerdict, work: Any) -> Any:
        """Run and judge the seed's reference runs.

        Returns what :meth:`chaos` and :meth:`judge` need from them.
        """

    @abc.abstractmethod
    def chaos(self, seed: int, reference: Any) -> Any:
        """The seed's chaos run; its outcome goes to :meth:`judge`."""

    @abc.abstractmethod
    def judge(self, verdict: SeedVerdict, reference: Any, outcome: Any) -> None:
        """Judge the chaos run; ``outcome`` is ``None`` when it escaped."""

    @abc.abstractmethod
    def header(self, runs: list[dict[str, Any]]) -> dict[str, Any]:
        """The surface's report fields besides ``profile`` and ``seeds``."""

    @staticmethod
    @abc.abstractmethod
    def describe(run: dict[str, Any]) -> str:
        """The middle of the CLI's one line for a seed's run."""

    # -- the core --------------------------------------------------------------

    @classmethod
    def line(cls, run: dict[str, Any]) -> str:
        """The CLI's one-line summary of one seed's run."""
        state = "OK" if run["ok"] else "VIOLATED"
        return f"seed {run['seed']}: {cls.describe(run)}, {state}"

    def run_seed(self, seed: int) -> SeedVerdict:
        """Reference runs, the chaos run and the judgment for one seed."""
        verdict = SeedVerdict(
            seed, checks=dict.fromkeys((*self.invariants, "no_escape"), True)
        )
        with self.workspace(seed) as work:
            reference = self.reference(verdict, work)
            try:
                outcome = self.chaos(seed, reference)
            except Exception as exc:  # repro: allow-broad-except -- chaos invariant: record the escape as a violation, never crash the campaign
                logger.exception("%s run escaped for seed %d", self.label, seed)
                verdict.check(
                    "no_escape",
                    False,
                    f"exception escaped the {self.label} run "
                    f"({type(exc).__name__}: {exc})",
                )
                outcome = None
            self.judge(verdict, reference, outcome)
        logger.info(
            "%s seed %d: %s (%d violations)",
            self.label,
            seed,
            "OK" if verdict.ok else "VIOLATED",
            len(verdict.violations),
        )
        return verdict

    def run(
        self,
        progress: Callable[[str], None] | None = None,
        out_path: str | pathlib.Path | None = None,
    ) -> dict[str, Any]:
        """Every seed; the JSON-ready report, written to ``out_path`` if given."""
        cfg = self.config
        runs = []
        for seed in cfg.seeds:
            if progress:
                progress(f"{self.label} seed {seed} under {cfg.profile!r}...")
            runs.append(self.run_seed(seed).as_json())
        report = {
            "profile": cfg.profile,
            "seeds": list(cfg.seeds),
            **self.header(runs),
            "ok": all(run["ok"] for run in runs),
            "violations": [m for run in runs for m in run["violations"]],
            "runs": runs,
        }
        if out_path is not None:
            atomic_write_json(out_path, report)
        return report
