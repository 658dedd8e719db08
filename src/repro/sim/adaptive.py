"""Adaptive replica control: stop a grid cell once its CI is tight.

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
* :class:`WilsonSuccessRate` — batch like :class:`AdaptiveCI`, but stop
  once the *Wilson interval width of the success rate* is small enough:
  the right rule when a campaign estimates fatal-failure probabilities
  (the paper's risk analysis) rather than mean waste — a cell whose runs
  all succeed (or all die) pins its proportion down long before its waste
  CI converges.

On the event pipeline the controller appears twice: backends drive its
incremental cursor while running cells, and the
:class:`~repro.sim.events.ControllerReplay` consumer replays every
finished cell's waste sequence through a fresh cursor, refusing any
stream whose replica counts disagree with the stopping rule.

Controllers are part of the campaign's identity: each serialises to a
JSON ``fingerprint()`` stored in manifests and
:class:`~repro.sim.spec.CampaignSpec` objects, and
:func:`controller_from_dict` inverts it.

Determinism
-----------
Replica seeds are a pure function of the campaign seed and the grid
coordinates (:mod:`repro.sim.backends`), so the waste samples a controller
sees — and therefore its stopping decision — depend only on the
configuration, never on execution order or worker count.  That is what
makes adaptive campaigns resumable: :func:`stop_count` replays the
decision sequence over recorded samples, letting a resume scan tell a
finished cell from an interrupted one without re-simulating anything.

Both the live execution path (:func:`repro.sim.backends.run_cell`) and
the replay (:func:`stop_count`) drive the rule through the same
:class:`StopCursor`, an incremental one-sample-at-a-time evaluator, so
the two paths agree bit-for-bit by construction *and* replaying a cell
with thousands of recorded replicas costs O(n) instead of the O(n²) a
naive prefix-by-prefix :meth:`~ReplicaController.should_stop` replay
would (``ci_half_width`` over every prefix).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from ..errors import ParameterError
from .results import ci_half_width, t_quantile, wilson_interval

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
        if self.max_replicas < 1:
            raise ParameterError(
                f"max_replicas must be >= 1, got {self.max_replicas}"
            )

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


@dataclass(frozen=True)
class AdaptiveCI(ReplicaController):
    """Stop once the mean-waste CI half-width is at most ``tolerance``.

    The check runs at batch boundaries only (``min_replicas``,
    ``min_replicas + batch``, ...) so replicas are committed in chunks —
    checking after every single replica would make the early decisions
    hypersensitive to the first few samples.
    """

    max_replicas: int
    #: Absolute half-width target on the mean waste (waste lives in [0, 1]).
    tolerance: float
    min_replicas: int = 3
    batch: int = 2
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.max_replicas < 1:
            raise ParameterError(
                f"max_replicas must be >= 1, got {self.max_replicas}"
            )
        if not math.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ParameterError(
                f"tolerance must be finite and > 0, got {self.tolerance!r}"
            )
        if self.min_replicas < 2:
            raise ParameterError(
                f"min_replicas must be >= 2 (one sample has no CI), "
                f"got {self.min_replicas}"
            )
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
        if not 0 < self.confidence < 1:
            raise ParameterError(
                f"confidence must lie in (0, 1), got {self.confidence!r}"
            )

    def should_stop(self, wastes: Sequence[float]) -> bool:
        n = len(wastes)
        if n >= self.max_replicas:
            return True
        if n < self.min_replicas or (n - self.min_replicas) % self.batch:
            return False
        return ci_half_width(wastes, self.confidence) <= self.tolerance

    def cursor(self) -> StopCursor:
        return _AdaptiveCursor(self)

    def fingerprint(self) -> dict:
        return {
            "kind": "AdaptiveCI",
            "max_replicas": int(self.max_replicas),
            "tolerance": float(self.tolerance),
            "min_replicas": int(self.min_replicas),
            "batch": int(self.batch),
            "confidence": float(self.confidence),
        }


class _AdaptiveCursor(StopCursor):
    """O(1)-per-push cursor for :class:`AdaptiveCI` (Welford statistics).

    Maintains the running count/mean/M2 of the *finite* samples, so the
    CI half-width at a batch boundary costs one ``t.ppf`` instead of a
    full pass over the prefix — replaying a cell with n recorded replicas
    is O(n) total.  The half-width formula is the same as
    :func:`~repro.sim.results.ci_half_width` (Student-t, ``ddof=1``,
    finite samples only, ``inf`` below two finite samples, ``0`` at zero
    variance); the accumulation order differs from numpy's pairwise
    summation by at most a few ulps, which is irrelevant in practice and
    *cannot* desynchronise live runs from resumes because both drive this
    same cursor.
    """

    def __init__(self, rule: AdaptiveCI):
        self._rule = rule
        self._n = 0          # all samples, NaNs included (len(wastes))
        self._k = 0          # finite samples
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, waste: float) -> bool:
        self._n += 1
        if math.isfinite(waste):
            self._k += 1
            delta = waste - self._mean
            self._mean += delta / self._k
            self._m2 += delta * (waste - self._mean)
        rule = self._rule
        if self._n >= rule.max_replicas:
            return True
        if (self._n < rule.min_replicas
                or (self._n - rule.min_replicas) % rule.batch):
            return False
        return self._half_width() <= rule.tolerance

    def _half_width(self) -> float:
        if self._k < 2:
            return float("inf")
        variance = self._m2 / (self._k - 1)
        if variance <= 0.0:
            return 0.0
        return float(
            t_quantile(self._rule.confidence, self._k - 1)
            * math.sqrt(variance) / math.sqrt(self._k)
        )


@dataclass(frozen=True)
class WilsonSuccessRate(ReplicaController):
    """Stop once the Wilson interval width of the success rate is small.

    The controller only sees waste samples, but a replica's waste is
    finite **iff** the run completed (:attr:`DesResult.waste` is NaN for
    fatal/timeout runs), so the success count is recoverable from the
    samples alone — which keeps resume replays pure functions of the
    recorded wastes, exactly like the other rules.

    ``tolerance`` bounds the *full* interval width (``hi − lo``, a value
    in ``(0, 1)``).  Checks run at the same batch boundaries as
    :class:`AdaptiveCI` so the early decisions are not hypersensitive to
    the first couple of replicas.
    """

    max_replicas: int
    #: Maximum Wilson interval width (hi − lo) of the success rate.
    tolerance: float
    min_replicas: int = 3
    batch: int = 2
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.max_replicas < 1:
            raise ParameterError(
                f"max_replicas must be >= 1, got {self.max_replicas}"
            )
        if not math.isfinite(self.tolerance) or not 0 < self.tolerance < 1:
            raise ParameterError(
                f"tolerance must lie in (0, 1) — it bounds the width of a "
                f"proportion interval — got {self.tolerance!r}"
            )
        if self.min_replicas < 1:
            raise ParameterError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
        if not 0 < self.confidence < 1:
            raise ParameterError(
                f"confidence must lie in (0, 1), got {self.confidence!r}"
            )

    def should_stop(self, wastes: Sequence[float]) -> bool:
        n = len(wastes)
        if n >= self.max_replicas:
            return True
        if n < self.min_replicas or (n - self.min_replicas) % self.batch:
            return False
        successes = sum(1 for w in wastes if math.isfinite(w))
        lo, hi = wilson_interval(successes, n, self.confidence)
        return hi - lo <= self.tolerance

    def cursor(self) -> StopCursor:
        return _WilsonCursor(self)

    def fingerprint(self) -> dict:
        return {
            "kind": "WilsonSuccessRate",
            "max_replicas": int(self.max_replicas),
            "tolerance": float(self.tolerance),
            "min_replicas": int(self.min_replicas),
            "batch": int(self.batch),
            "confidence": float(self.confidence),
        }


class _WilsonCursor(StopCursor):
    """O(1)-per-push cursor for :class:`WilsonSuccessRate` (two counters)."""

    def __init__(self, rule: WilsonSuccessRate):
        self._rule = rule
        self._n = 0
        self._successes = 0

    def push(self, waste: float) -> bool:
        self._n += 1
        if math.isfinite(waste):
            self._successes += 1
        rule = self._rule
        if self._n >= rule.max_replicas:
            return True
        if (self._n < rule.min_replicas
                or (self._n - rule.min_replicas) % rule.batch):
            return False
        lo, hi = wilson_interval(self._successes, self._n, rule.confidence)
        return hi - lo <= rule.tolerance


def controller_from_dict(data: dict | None) -> ReplicaController | None:
    """Rebuild a controller from its :meth:`ReplicaController.fingerprint`.

    ``None`` — the fingerprint of the default fixed-count rule — returns
    ``None``: the caller owns the replica budget and builds the
    :class:`FixedReplicas` itself.  Decodes the built-in adaptive rules;
    anything else is refused by name, so a spec or queue manifest written
    by a newer library fails loudly instead of silently running
    fixed-count.
    """
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ParameterError(
            f"a replica-controller spec must be an object, "
            f"got {type(data).__name__}"
        )
    kind = data.get("kind")
    kinds = {"AdaptiveCI": AdaptiveCI, "WilsonSuccessRate": WilsonSuccessRate}
    if kind not in kinds:
        raise ParameterError(
            f"unknown replica controller {kind!r}; this library knows "
            f"{sorted(kinds)} (and the fixed-count default, spelled null)"
        )
    try:
        return kinds[kind](
            max_replicas=int(data["max_replicas"]),
            tolerance=float(data["tolerance"]),
            min_replicas=int(data["min_replicas"]),
            batch=int(data["batch"]),
            confidence=float(data["confidence"]),
        )
    except KeyError as exc:
        raise ParameterError(
            f"replica-controller spec of kind {kind!r} is missing "
            f"field {exc}"
        ) from exc


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
    quadratic in ``ci_half_width`` calls.
    """
    cursor = controller.cursor()
    for n, waste in enumerate(wastes, 1):
        if cursor.push(waste):
            return n
    return None
