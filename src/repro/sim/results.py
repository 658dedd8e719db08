"""Result containers and statistics for the simulators.

:class:`DesResult` captures one event-simulation run; :class:`CellBlock`
holds one campaign cell's runs as columns;
:class:`MonteCarloSummary` aggregates replicas with confidence intervals
(Student-t for means, Wilson for proportions) so model-vs-simulation
comparisons can assert statistically, not by eyeball.  One kernel,
:class:`RunningMoments` (Welford), computes every summary's mean, std
and Student-t half-width, whether the samples are held (a live cell, a
store hit) or streamed (``report --from-campaign``, the stopping rules'
cursors).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from scipy import special

from ..errors import ParameterError

__all__ = ["DesResult", "CellBlock", "as_block", "MonteCarloSummary",
           "RunningMoments", "wilson_interval", "ci_half_width"]

#: The one NaN object unset ``fatal_time`` fields share, so rows built
#: at different times compare equal field for field.
NAN = float("nan")


@dataclass(frozen=True)
class DesResult:
    """Outcome of one discrete-event simulation run."""

    #: "completed", "fatal" or "timeout".
    status: str
    #: Wall-clock simulated time at termination [s].
    makespan: float
    #: Target amount of work (T_base) [s of compute].
    work_target: float
    #: Work completed at termination.
    work_done: float
    #: Number of (non-fatal + fatal) failures injected.
    failures: int
    #: Number of rollbacks performed.
    rollbacks: int
    #: Work units destroyed by rollbacks.
    work_lost: float
    #: Snapshot commits performed.
    commits: int
    #: Total time any group spent inside a risk window.
    risk_time: float
    #: Time of the fatal failure (nan unless status == "fatal").
    fatal_time: float = NAN
    #: Group that suffered the fatal failure (empty unless fatal).
    fatal_group: tuple[int, ...] = ()
    #: Free-form extras (protocol key, period, seed...).
    meta: dict = field(default_factory=dict)

    @property
    def waste(self) -> float:
        """Measured waste ``1 − T_base/T`` (nan when the run didn't finish)."""
        if self.status != "completed" or self.makespan <= 0:
            return float("nan")
        return 1.0 - self.work_target / self.makespan

    @property
    def succeeded(self) -> bool:
        return self.status == "completed"


#: A :class:`CellBlock`'s per-replica columns: every :class:`DesResult`
#: field but the cell's shared ``work_target`` and ``meta``, then the
#: replica's ``meta["seed"]``.
ROW_FIELDS = ("status", "makespan", "work_done", "failures", "rollbacks",
              "work_lost", "commits", "risk_time", "fatal_time",
              "fatal_group", "seed")
_VALUE_FIELDS = ROW_FIELDS[:-1]


class CellBlock(Sequence):
    """One campaign cell's replica results, frozen, as columns.

    What every producer hands the session.  The vectorized engine fills
    the per-replica ``columns`` (:data:`ROW_FIELDS`) from its arrays,
    plus what the whole cell shares: ``meta`` (the engine-written keys
    but ``seed``) and ``work_target``; its :class:`DesResult` rows are
    built only when read (:attr:`rows`, indexing, iteration).  A store
    hit is columnar too (:func:`repro.io.load_cell`, the entry's lines
    as records; a hit serves a :meth:`prefix`).  The DES, a resumed
    cell and a stored entry outside the template's shape pass their
    rows (:meth:`from_rows`).  Downstream reads :attr:`waste` (summary,
    controller replay), ``len`` (progress, metrics) and :attr:`records`
    (sink, store: one per-cell template, :func:`repro.io.dump_cell`).
    """

    __slots__ = ("meta", "work_target", "columns", "_rows", "_records",
                 "_waste")

    def __init__(self, meta, work_target, columns, rows=None, records=None):
        self.meta, self.work_target, self.columns = meta, work_target, columns
        self._rows, self._records, self._waste = rows, records, None

    @classmethod
    def from_rows(cls, rows, records=None) -> "CellBlock":
        """A block over ready rows (``columns`` is ``None``: each row
        encodes alone, the one-row case of the cell template)."""
        return cls(None, None, None, tuple(rows),
                   None if records is None else tuple(records))

    def prefix(self, count: int) -> "CellBlock":
        """The first ``count`` replicas, with whatever of their columns,
        rows and records this block holds."""
        if count == len(self):
            return self
        columns = None if self.columns is None else {
            name: column[:count] for name, column in self.columns.items()}
        return CellBlock(self.meta, self.work_target, columns,
                         *(None if seq is None else seq[:count]
                           for seq in (self._rows, self._records)))

    @property
    def rows(self) -> tuple[DesResult, ...]:
        """The replicas as :class:`DesResult` objects, built once."""
        if self._rows is None:
            self._rows = tuple(
                DesResult(work_target=self.work_target,
                          meta={**self.meta, "seed": seed},
                          **dict(zip(_VALUE_FIELDS, values)))
                for *values, seed in zip(*map(self.columns.get, ROW_FIELDS)))
        return self._rows

    @property
    def records(self) -> tuple[str, ...]:
        """Each replica's canonical record line, encoded once."""
        if self._records is None:
            from .. import io as repro_io

            self._records = repro_io.dump_cell(self)
        return self._records

    @property
    def waste(self) -> list[float]:
        """Each replica's :attr:`DesResult.waste`, in one pass."""
        if self._waste is None:
            self._waste = [row.waste for row in self._rows] \
                if self._rows is not None else [
                    NAN if status != "completed" or makespan <= 0
                    else 1.0 - self.work_target / makespan
                    for status, makespan in zip(self.columns["status"],
                                                self.columns["makespan"])]
        return self._waste

    @property
    def successes(self) -> int:
        """Replicas that completed."""
        if self._rows is not None:
            return sum(row.succeeded for row in self._rows)
        return self.columns["status"].count("completed")

    def __len__(self) -> int:
        return len(self._rows if self._rows is not None
                   else self.columns["status"])

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, CellBlock):
            return self.rows == other.rows
        return NotImplemented

    __hash__ = None


def as_block(results, records=None) -> CellBlock:
    """``results`` (a block or any sequence of :class:`DesResult`) as a
    :class:`CellBlock`; ``records`` are their lines, when known."""
    if isinstance(results, CellBlock) and records is None:
        return results
    return CellBlock.from_rows(results, records)


# scipy.stats' t.ppf and norm.ppf call these kernels; every cell summary
# needs two and their arguments take few distinct values, so they are cached.
@lru_cache(maxsize=1024)
def t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t quantile ``t_{(1 + confidence)/2, df}``."""
    return float(special.stdtrit(df, 0.5 + confidence / 2.0))


@lru_cache(maxsize=64)
def _z_quantile(confidence: float) -> float:
    return float(special.ndtri(0.5 + confidence / 2.0))


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ParameterError("trials must be > 0")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    z = _z_quantile(confidence)
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    centre = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    # Degenerate counts have exact one-sided bounds; avoid fp residue.
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return (float(lo), float(hi))


def _half_width(finite: int, std: float, confidence: float) -> float:
    """Student-t CI half-width of a mean over ``finite`` samples whose
    sample std is ``std``: ``inf`` below two samples, ``0.0`` without
    spread.  Every summary and stopping rule reads this one form."""
    if finite < 2:
        return math.inf
    if std == 0.0:
        return 0.0
    return t_quantile(confidence, finite - 1) * std / math.sqrt(finite)


class RunningMoments:
    """Streaming (Welford) moments of a sample sequence, NaNs included.

    ``n`` counts every sample; ``finite``, ``mean`` and ``m2`` (the sum
    of squared deviations, Welford's M₂) describe the finite ones.  The
    one kernel behind every summary's mean, std and Student-t interval:
    :meth:`MonteCarloSummary.from_samples` pushes a cell's samples
    through it, and the adaptive replica cursors
    (:mod:`repro.sim.adaptive`) and the streaming campaign report keep
    one per cell, four scalars instead of the samples.
    """

    __slots__ = ("n", "finite", "mean", "m2")

    def __init__(self):
        self.n = self.finite = 0
        self.mean = self.m2 = 0.0

    @classmethod
    def of(cls, samples) -> "RunningMoments":
        """The moments of ``samples``, pushed in order."""
        moments = cls()
        push = moments.push
        for sample in samples:
            push(sample)
        return moments

    def push(self, sample: float) -> None:
        self.n += 1
        if math.isfinite(sample):
            self.finite += 1
            delta = sample - self.mean
            self.mean += delta / self.finite
            self.m2 += delta * (sample - self.mean)

    def std(self) -> float:
        """Sample std of the finite samples (``0.0`` below two)."""
        if self.finite < 2:
            return 0.0
        variance = self.m2 / (self.finite - 1)
        return 0.0 if variance <= 0.0 else math.sqrt(variance)

    def half_width(self, confidence: float) -> float:
        """Student-t CI half-width of the mean (``inf`` below two finite
        samples)."""
        return _half_width(self.finite, self.std(), confidence)


def _held_moments(samples: Sequence[float]) -> tuple[int, int, float, float]:
    """``(n, finite, mean, std)`` of held samples, through
    :class:`RunningMoments`.  When a batch of extreme but finite values
    overflows the moments, they are rerun over ``x / max|x|`` and scaled
    back: equal up to rounding for the scale-equivariant mean and sample
    std, and finite wherever the true value is representable."""
    values = list(map(float, samples))
    moments = RunningMoments.of(values)
    mean, std = moments.mean, moments.std()
    if moments.finite and not (math.isfinite(mean) and math.isfinite(std)):
        scale = max(abs(x) for x in values if math.isfinite(x))
        scaled = RunningMoments.of([x / scale for x in values])
        mean, std = scale * scaled.mean, scale * scaled.std()
    return moments.n, moments.finite, mean, std


def ci_half_width(samples: Sequence[float], confidence: float = 0.95) -> float:
    """Student-t CI half-width of the mean over the finite samples.

    NaNs (unfinished runs) are excluded, exactly as
    :meth:`MonteCarloSummary.from_samples` excludes them from the mean;
    both read the same :class:`RunningMoments`, as does the adaptive
    replica controller (:mod:`repro.sim.adaptive`).  Returns ``inf``
    until two finite samples exist: an undetermined interval must never
    satisfy a tolerance check.
    """
    _, finite, _, std = _held_moments(samples)
    return _half_width(finite, std, confidence)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of many replicas of one configuration."""

    n_replicas: int
    #: Mean of the per-replica estimate (waste, lost time, ...).
    mean: float
    #: Sample standard deviation.
    std: float
    #: Student-t confidence interval on the mean.
    ci_low: float
    ci_high: float
    confidence: float
    #: Fraction of replicas that completed without fatal failure.
    success_rate: float
    #: Wilson interval on the success rate.
    success_ci: tuple[float, float]
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[float],
        *,
        successes: int | None = None,
        confidence: float = 0.95,
        meta: dict | None = None,
    ) -> "MonteCarloSummary":
        """Summarise per-replica values; NaNs (unfinished runs) are dropped
        from the mean but still count as failures for the success rate."""
        n_total, n_finite, mean, std = _held_moments(samples)
        return cls._build(n_total, n_finite, mean, std,
                          n_finite if successes is None else successes,
                          confidence, meta)

    @classmethod
    def from_moments(
        cls,
        moments: RunningMoments,
        *,
        successes: int,
        confidence: float = 0.95,
        meta: dict | None = None,
    ) -> "MonteCarloSummary":
        """Summarise from running (Welford) moments instead of samples,
        for streaming aggregation (``report --from-campaign`` over
        million-record files, in constant memory).  Over the samples
        :meth:`from_samples` would push, in the same order, the summary
        is the same bit for bit; only an overflowing batch differs,
        which needs the held samples to rescale."""
        return cls._build(moments.n, moments.finite, moments.mean,
                          moments.std(), successes, confidence, meta)

    @classmethod
    def _build(cls, n_total, n_finite, mean, std, successes, confidence,
               meta) -> "MonteCarloSummary":
        """The summary of ``n_total`` samples, ``n_finite`` of them with
        this mean and std: a NaN mean without a finite sample, and a
        point interval wherever the half-width is not finite (below two
        finite samples, or an overflowing interval)."""
        if not 0 < confidence < 1:
            raise ParameterError("confidence must lie in (0, 1)")
        if n_total <= 0:
            raise ParameterError("need at least one sample")
        mean = float(mean) if n_finite else NAN
        half = _half_width(n_finite, std, confidence)
        if not math.isfinite(half):
            half = 0.0
        return cls(
            n_replicas=n_total,
            mean=mean,
            std=std,
            ci_low=mean - half,
            ci_high=mean + half,
            confidence=confidence,
            success_rate=successes / n_total,
            success_ci=wilson_interval(successes, n_total, confidence),
            meta=meta or {},
        )

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the CI? (model-vs-simulation assertions)"""
        return self.ci_low <= value <= self.ci_high
