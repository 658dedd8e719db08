"""Adaptive replica control: stop a grid cell once its interval is tight.

A campaign spends its budget replica by replica, but cells converge at
very different rates: a low-variance cell (large MTBF, few failures) may
pin its mean waste down after a handful of runs while a churn-dominated
cell needs every replica it can get.  A :class:`ReplicaController` decides
*per cell* how many replicas actually run:

* :class:`FixedReplicas` — always run the configured count; the default,
  and the bit-identical-to-serial path.
* :class:`AdaptiveCI` — run replicas in batches and stop as soon as the
  Student-t confidence-interval half-width of the mean waste falls below
  a tolerance (never before ``min_replicas``, never past ``max_replicas``).
* :class:`WilsonSuccessRate` — batch the same way, but stop once the
  *Wilson interval width of the success rate* is small enough: the right
  rule when a campaign estimates fatal-failure probabilities (the
  paper's risk analysis) rather than mean waste.

Both adaptive rules are one batched rule (the fields and their checks,
the fingerprint, the batch boundaries, one O(1) cursor over
:class:`~repro.sim.results.RunningMoments`); each names only the
interval width its tolerance bounds, once, over the running moments.

On the event pipeline the controller appears twice: backends drive its
incremental cursor while running cells, and the
:class:`~repro.sim.events.ControllerReplay` consumer replays every
finished cell's waste sequence through a fresh cursor, refusing any
stream whose replica counts disagree with the stopping rule.

Controllers are part of the campaign's identity: each serialises to a
JSON ``fingerprint()`` stored in manifests and
:class:`~repro.sim.spec.CampaignSpec` objects, and
:func:`controller_from_dict` inverts it, refusing any field of the
wrong type by name.

Determinism
-----------
Replica seeds are a pure function of the campaign seed and the grid
coordinates (:mod:`repro.sim.backends`), so the waste samples a controller
sees — and therefore its stopping decision — depend only on the
configuration, never on execution order or worker count.  That is what
makes adaptive campaigns resumable: :func:`stop_count` replays the
decision sequence over recorded samples, letting a resume scan tell a
finished cell from an interrupted one without re-simulating anything.

The live path (:func:`repro.sim.backends.run_cell`) and the replay
(:func:`stop_count`) drive the same :class:`StopCursor`, so they agree
bit-for-bit by construction, and replaying n recorded replicas costs
O(n) instead of the O(n²) of a prefix-by-prefix
:meth:`~ReplicaController.should_stop` replay.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..errors import ParameterError, check_int, check_real
from .results import RunningMoments, ci_half_width, wilson_interval

__all__ = [
    "ReplicaController",
    "FixedReplicas",
    "AdaptiveCI",
    "WilsonSuccessRate",
    "StopCursor",
    "ci_half_width",
    "stop_count",
    "controller_from_dict",
]


class StopCursor:
    """Incremental evaluator of a stopping rule: one ``push`` per replica.

    The default implementation buffers samples and delegates to
    :meth:`ReplicaController.should_stop`, so any third-party controller
    keeps working (at the quadratic replay cost of its prefix rule).
    Built-in controllers return O(1)-per-push cursors from
    :meth:`ReplicaController.cursor`.
    """

    def __init__(self, controller: "ReplicaController"):
        self._controller = controller
        self._wastes: list[float] = []

    def push(self, waste: float) -> bool:
        """Feed the next replica's waste; ``True`` = stop the cell here."""
        self._wastes.append(waste)
        return self._controller.should_stop(self._wastes)


class ReplicaController(ABC):
    """Per-cell stopping rule over the replica waste samples seen so far.

    The executor runs a cell's replicas in seed order (replica 0, 1, ...)
    and asks the rule after each one whether to stop; the first ``True``
    ends the cell.  :meth:`should_stop` is the declarative form (a pure
    function of the full sample prefix); :meth:`cursor` is the
    incremental form both the live path and resume replays actually
    drive, and the two must decide identically.  Implementations must be
    pure functions of the sample sequence so parallel and resumed
    executions reach identical decisions, and must be picklable (they
    cross the process-pool boundary).
    """

    #: Hard ceiling on replicas per cell (the campaign's ``replicas``).
    max_replicas: int

    @abstractmethod
    def should_stop(self, wastes: Sequence[float]) -> bool:
        """Stop after the ``len(wastes)`` replicas whose wastes these are?"""

    def cursor(self) -> StopCursor:
        """A fresh incremental evaluator of this rule (one cell's worth).

        Override to make replays linear; the default buffers and replays
        :meth:`should_stop` over growing prefixes.
        """
        return StopCursor(self)

    def fingerprint(self) -> dict | None:
        """JSON-safe identity for campaign manifests (``None`` = the
        default fixed-count rule, so pre-adaptive manifests stay valid)."""
        return None


@dataclass(frozen=True)
class FixedReplicas(ReplicaController):
    """Run exactly ``max_replicas`` replicas — the historical behaviour."""

    max_replicas: int

    def __post_init__(self) -> None:
        check_int("max_replicas", self.max_replicas, 1)

    def should_stop(self, wastes: Sequence[float]) -> bool:
        return len(wastes) >= self.max_replicas

    def cursor(self) -> StopCursor:
        return _FixedCursor(self.max_replicas)


class _FixedCursor(StopCursor):
    """O(1)-per-push cursor for the fixed-count rule."""

    def __init__(self, max_replicas: int):
        self._max = max_replicas
        self._n = 0

    def push(self, waste: float) -> bool:
        self._n += 1
        return self._n >= self._max


#: The batched rules' fields, in fingerprint order.
_FIELDS = ("max_replicas", "tolerance", "min_replicas", "batch", "confidence")


@dataclass(frozen=True)
class _BatchedRule(ReplicaController):
    """Stop once an interval is at most ``tolerance`` wide, in batches.

    The check runs at batch boundaries only (``min_replicas``,
    ``min_replicas + batch``, ...) so replicas are committed in chunks —
    checking after every single replica would make the early decisions
    hypersensitive to the first few samples.  A subclass names the
    interval width its ``tolerance`` bounds once, over the
    :class:`~repro.sim.results.RunningMoments` of a sample prefix
    (:meth:`_moments_width`); :meth:`should_stop` and the O(1) cursor
    both read it, so they agree by construction.
    """

    max_replicas: int
    tolerance: float
    min_replicas: int = 3
    batch: int = 2
    confidence: float = 0.95

    #: Smallest allowed ``min_replicas``.
    MIN_REPLICAS_FLOOR: ClassVar[int] = 1
    #: Exclusive upper bound on ``tolerance``.
    TOLERANCE_BELOW: ClassVar[float] = math.inf

    def __post_init__(self) -> None:
        checked = (check_int("max_replicas", self.max_replicas, 1),
                   check_real("tolerance", self.tolerance,
                              high=self.TOLERANCE_BELOW),
                   check_int("min_replicas", self.min_replicas,
                             self.MIN_REPLICAS_FLOOR),
                   check_int("batch", self.batch, 1),
                   check_real("confidence", self.confidence, high=1.0))
        for name, value in zip(_FIELDS, checked):
            object.__setattr__(self, name, value)

    def _stops(self, n: int, width, over) -> bool:
        """Stop at the ceiling, never between batch boundaries, and on
        one once ``width(over)`` is within tolerance."""
        if n >= self.max_replicas:
            return True
        if n < self.min_replicas or (n - self.min_replicas) % self.batch:
            return False
        return width(over) <= self.tolerance

    def should_stop(self, wastes: Sequence[float]) -> bool:
        return self._stops(len(wastes), self._moments_width,
                           RunningMoments.of(wastes))

    def cursor(self) -> StopCursor:
        return _BatchedCursor(self)

    def fingerprint(self) -> dict:
        return {"kind": type(self).__name__,
                **{name: getattr(self, name) for name in _FIELDS}}

    @abstractmethod
    def _moments_width(self, moments: RunningMoments) -> float:
        """The interval width over a sample prefix's running moments."""


class _BatchedCursor(StopCursor):
    """O(1)-per-push cursor for every batched rule: the width at a
    batch boundary reads the prefix's running moments instead of a pass
    over the prefix, so replaying n recorded replicas is O(n) total."""

    def __init__(self, rule: _BatchedRule):
        self._rule = rule
        self.moments = RunningMoments()

    def push(self, waste: float) -> bool:
        self.moments.push(waste)
        rule = self._rule
        return rule._stops(self.moments.n, rule._moments_width, self.moments)


class AdaptiveCI(_BatchedRule):
    """Stop once the mean-waste CI half-width is at most ``tolerance``
    (absolute: waste lives in [0, 1]; one sample has no CI, so
    ``min_replicas >= 2``).

    The half-width is the one every cell summary reports
    (:meth:`RunningMoments.half_width
    <repro.sim.results.RunningMoments.half_width>`), so a stopped cell's
    interval is the interval the rule accepted.
    """

    MIN_REPLICAS_FLOOR = 2

    def _moments_width(self, moments: RunningMoments) -> float:
        return moments.half_width(self.confidence)


class WilsonSuccessRate(_BatchedRule):
    """Stop once the Wilson interval width of the success rate is small.

    The controller only sees waste samples, but a replica's waste is
    finite **iff** the run completed (:attr:`DesResult.waste` is NaN for
    fatal/timeout runs), so the success count is recoverable from the
    samples alone — which keeps resume replays pure functions of the
    recorded wastes, exactly like the other rules.  ``tolerance`` bounds
    the *full* interval width (``hi − lo``), so it lies in ``(0, 1)``.
    """

    TOLERANCE_BELOW = 1.0

    def _moments_width(self, moments: RunningMoments) -> float:
        lo, hi = wilson_interval(moments.finite, moments.n, self.confidence)
        return hi - lo


_RULES = {rule.__name__: rule for rule in (AdaptiveCI, WilsonSuccessRate)}


def controller_from_dict(data: dict | None) -> ReplicaController | None:
    """Rebuild a controller from its :meth:`ReplicaController.fingerprint`.

    ``None`` — the fingerprint of the default fixed-count rule — returns
    ``None``: the caller owns the replica budget and builds the
    :class:`FixedReplicas` itself.  Decodes the built-in batched rules;
    an unknown kind, a missing or unknown field and a value of the wrong
    type are refused by name, so a spec or queue manifest written by a
    newer library fails loudly instead of silently running fixed-count.
    """
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ParameterError(
            f"a replica-controller spec must be an object, "
            f"got {type(data).__name__}"
        )
    kind = data.get("kind")
    rule = _RULES.get(kind) if isinstance(kind, str) else None
    if rule is None:
        raise ParameterError(
            f"unknown replica controller {kind!r}; this library knows "
            f"{sorted(_RULES)} (and the fixed-count default, spelled null)"
        )
    given = set(data) - {"kind"}
    for what, names in (("missing", set(_FIELDS) - given),
                        ("unknown", given - set(_FIELDS))):
        if names:
            raise ParameterError(
                f"replica-controller spec of kind {kind!r} has {what} "
                f"field(s) {sorted(names)}"
            )
    return rule(**{name: data[name] for name in _FIELDS})


def stop_count(
    controller: ReplicaController, wastes: Sequence[float]
) -> int | None:
    """Replay the controller over recorded samples: where would it stop?

    Returns the replica count at which ``controller`` first says stop, or
    ``None`` if it would keep running past ``len(wastes)``.  Resume scans
    use this to classify a recovered cell: ``stop_count == len(wastes)``
    means the cell finished exactly there; fewer recorded samples mean an
    interrupted cell; *more* recorded samples than the rule would ever run
    mean the file was written under a different configuration.

    The replay is incremental (:meth:`ReplicaController.cursor`): linear
    in ``len(wastes)`` for the built-in controllers, so recovering a
    framed file with thousands of replicas per cell does not go
    quadratic in prefix re-reads.
    """
    cursor = controller.cursor()
    for n, waste in enumerate(wastes, 1):
        if cursor.push(waste):
            return n
    return None
