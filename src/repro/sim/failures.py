"""Failure injection: per-node failure processes and trace utilities.

A :class:`FailureInjector` owns one renewal process per node: node ``i``
draws inter-arrival times from a :class:`~repro.sim.distributions.
FailureDistribution` using its private RNG stream.  After a failure, the
replacement node starts a fresh clock (renewal semantics — exact for
exponential laws; for ageing laws this models "replacement hardware is
new").

Scale conventions: the paper parameterises by the *platform* MTBF ``M``;
individual nodes then have ``M_ind = n·M`` (§VII).  Constructors accept
either scale.

Replays walk a :class:`TraceSchedule` through a :class:`TraceInjector`.
A schedule is either parsed whole from a recorded trace or *generated*
from a :class:`FailureInjector`: campaigns sharing failure traces
(``share_traces``) generate theirs, and each node's stream is then drawn
on demand — only as far as some replay reads it, with the same
arithmetic as generating the whole trace to the horizon and parsing it,
so the delays are identical while the failures past every replay's end
are never drawn.

The module also provides trace generation/statistics so experiments can
record and replay failure schedules (:func:`generate_trace`,
:func:`trace_statistics`); :func:`generate_trace` is also the reference
the on-demand schedules are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .distributions import Exponential, FailureDistribution
from .rng import RngFactory

__all__ = [
    "NEVER",
    "FailureInjector",
    "TraceInjector",
    "TraceSchedule",
    "generate_trace",
    "trace_statistics",
    "TraceStats",
]


class FailureInjector:
    """Per-node renewal failure processes.

    Parameters
    ----------
    n_nodes:
        Number of platform nodes.
    node_distribution:
        Inter-arrival law of a *single node* (mean = node MTBF).
    rng_factory:
        Stream factory; node ``i`` uses ``rng_factory.node(i)``.  The
        streams are built together by :meth:`RngFactory.nodes`, which
        seeds them in one batch (the same streams, state for state).
    """

    def __init__(
        self,
        n_nodes: int,
        node_distribution: FailureDistribution,
        rng_factory: RngFactory,
    ):
        if n_nodes < 1:
            raise ParameterError("n_nodes must be >= 1")
        self.n_nodes = int(n_nodes)
        self.distribution = node_distribution
        self._rngs = rng_factory.nodes(self.n_nodes)

    @classmethod
    def from_platform_mtbf(
        cls,
        n_nodes: int,
        platform_mtbf: float,
        rng_factory: RngFactory,
        distribution: FailureDistribution | None = None,
    ) -> "FailureInjector":
        """Build from the paper's platform-level ``M``.

        ``distribution`` (if given) is rescaled to the node MTBF
        ``n·M``; default is exponential.
        """
        if platform_mtbf <= 0:
            raise ParameterError("platform MTBF must be > 0")
        node_mtbf = platform_mtbf * n_nodes
        dist = (
            Exponential(node_mtbf)
            if distribution is None
            else distribution.rescale(node_mtbf)
        )
        return cls(n_nodes, dist, rng_factory)

    # ------------------------------------------------------------------
    def next_failure_delay(self, node_id: int) -> float:
        """Draw the next inter-arrival time of ``node_id``'s process."""
        if not 0 <= node_id < self.n_nodes:
            raise ParameterError(f"node_id {node_id} out of range")
        return float(self.distribution.sample(self._rngs[node_id]))

    def initial_failure_times(self) -> np.ndarray:
        """First failure time of every node (t=0 start, fresh clocks)."""
        return np.array(
            [self.next_failure_delay(i) for i in range(self.n_nodes)], dtype=float
        )

    @property
    def node_mtbf(self) -> float:
        return self.distribution.mean()

    @property
    def platform_mtbf(self) -> float:
        return self.distribution.mean() / self.n_nodes


#: Far-future sentinel a replay returns once a node's schedule is
#: exhausted: that node never fails again.
NEVER = 1e300

_NEGATIVE = "trace times must be >= 0"


class TraceSchedule:
    """Per-node failure inter-arrival delays, shared by every replay.

    ``delays[i]`` lists node ``i``'s delays in order (its first delay is
    its first failure time: clocks start at 0).  ``ends[i]`` is that
    list's final length once the node can fail no more, else ``-1``.
    Replays (:class:`TraceInjector`) walk the lists with their own
    cursors; a delay, once in a list, never changes, so any number of
    replays (every protocol and φ of a campaign row) share one instance.

    A schedule comes from one of two sources:

    * **Recorded** — ``TraceSchedule(n_nodes, trace)`` parses the
      structured array produced by :func:`generate_trace` (fields
      ``time``/``node``) or any ``(time, node)`` pair sequence, eagerly
      and whole.  The parse validates the entire trace: times must be
      finite, non-negative and sorted, nodes in ``[0, n_nodes)``.
    * **Generated** — :meth:`generate` keeps each node's
      :class:`FailureInjector` stream and its clock and draws on demand:
      a node's list grows only when some replay's cursor reaches its
      end (:meth:`draw`).  The arithmetic is :func:`generate_trace`'s
      followed by the parse — ``t += draw``, delay ``t_k − t_{k−1}``,
      first delay ``t_0``, a node exhausted once its clock passes the
      horizon — so every delay equals the eager schedule's exactly,
      while failures no replay reaches are never drawn.
    """

    __slots__ = ("n_nodes", "delays", "ends", "_injector", "_horizon",
                 "_clocks")

    def __init__(self, n_nodes: int, trace):
        if n_nodes < 1:
            raise ParameterError("n_nodes must be >= 1")
        self.n_nodes = int(n_nodes)
        if hasattr(trace, "dtype") and trace.dtype.names:
            times = np.asarray(trace["time"], dtype=float)
            nodes = np.asarray(trace["node"], dtype=np.int64)
        else:
            pairs = list(trace)
            times = np.array([float(t) for t, _ in pairs], dtype=float)
            nodes = np.array([int(v) for _, v in pairs], dtype=np.int64)
        if not np.isfinite(times).all():
            raise ParameterError("trace times must be finite")
        if (times < 0).any():
            raise ParameterError(_NEGATIVE)
        out_of_range = (nodes < 0) | (nodes >= self.n_nodes)
        if out_of_range.any():
            raise ParameterError(
                f"trace node {nodes[out_of_range][0]} out of range"
            )
        if (np.diff(times) < 0).any():
            raise ParameterError("trace must be sorted by time")
        # Absolute times -> successive inter-arrival delays per node; a
        # node's first delay is its first failure time (clock starts at 0).
        ordered = times[np.argsort(nodes, kind="stable")]
        counts = np.bincount(nodes, minlength=self.n_nodes)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        first = bounds[:-1][counts > 0]
        delays = np.diff(ordered, prepend=0.0)
        delays[first] = ordered[first]
        flat, edges = delays.tolist(), bounds.tolist()
        self.delays = [flat[lo:hi] for lo, hi in zip(edges, edges[1:])]
        self.ends = counts.tolist()

    @classmethod
    def generate(
        cls, injector: FailureInjector, horizon: float
    ) -> "TraceSchedule":
        """The schedule of ``generate_trace(injector, horizon)``, drawn on
        demand from ``injector``'s node streams (which it takes over)."""
        if horizon <= 0:
            raise ParameterError("horizon must be > 0")
        schedule = cls.__new__(cls)
        schedule.n_nodes = n = injector.n_nodes
        schedule.delays = [[] for _ in range(n)]
        schedule.ends = [-1] * n
        schedule._injector = injector
        schedule._horizon = horizon
        schedule._clocks = [0.0] * n
        return schedule

    @property
    def total_events(self) -> int:
        """Failures in the schedule so far (a recorded trace's all)."""
        return sum(map(len, self.delays))

    def draw(self, node: int) -> float:
        """Extend ``node``'s delays by one draw; :data:`NEVER` (and the
        node marked exhausted) once its clock passes the horizon."""
        delays = self.delays[node]
        if self.ends[node] >= 0:  # exhausted (a recorded node always is)
            return NEVER
        prev = self._clocks[node]
        draw = self._injector.next_failure_delay(node)
        t = prev + draw if delays else draw
        if t < 0:
            raise ParameterError(
                _NEGATIVE if t > -math.inf else "trace times must be finite")
        if not t <= self._horizon:  # past the horizon (or NaN)
            self.ends[node] = len(delays)
            return NEVER
        delay = t - prev if delays else t
        self._clocks[node] = t
        delays.append(delay)
        return delay


class TraceInjector:
    """Replay a failure trace instead of sampling one.

    Walks a :class:`TraceSchedule` (raw traces are parsed into one) with
    one cursor per node and never alters a delay already in it, so one
    schedule per shared trace serves every replay of it.  A replay that
    runs past a generated schedule's drawn delays draws the node's next
    one (:meth:`TraceSchedule.draw`), which every later replay then
    reads.  Nodes whose schedule is exhausted never fail again (their
    next delay is :data:`NEVER`, past any horizon).  Replaying the same
    trace under two protocols gives a *common-random-numbers*
    comparison: both face the identical failure history.
    """

    #: Far-future sentinel returned once a node's schedule is exhausted.
    NEVER = NEVER

    def __init__(self, n_nodes: int, trace):
        if not isinstance(trace, TraceSchedule):
            trace = TraceSchedule(n_nodes, trace)
        elif trace.n_nodes != n_nodes:
            raise ParameterError(
                f"trace schedule was built for n_nodes={trace.n_nodes}, "
                f"not {n_nodes}"
            )
        self.n_nodes = trace.n_nodes
        self.schedule = trace
        self._delays = trace.delays
        self._ends = trace.ends
        self._cursors = [0] * trace.n_nodes

    @property
    def total_events(self) -> int:
        """Failures in the replayed schedule so far."""
        return self.schedule.total_events

    def next_failure_delay(self, node: int) -> float:
        if not 0 <= node < self.n_nodes:
            raise ParameterError(f"node_id {node} out of range")
        i = self._cursors[node]
        delays = self._delays[node]
        if i < len(delays):
            self._cursors[node] = i + 1
            return delays[i]
        if i == self._ends[node]:
            return NEVER
        delay = self.schedule.draw(node)
        if delay != NEVER:
            self._cursors[node] = i + 1
        return delay


# ----------------------------------------------------------------------
# Trace utilities
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a failure trace."""

    count: int
    horizon: float
    platform_mtbf: float
    node_mtbf_estimate: float
    interarrival_mean: float
    interarrival_cv: float  #: coefficient of variation (1.0 ⇔ Poisson-like)


def generate_trace(
    injector: FailureInjector, horizon: float
) -> np.ndarray:
    """All (time, node) failures up to ``horizon``, sorted by time.

    Returns a structured array with fields ``time`` (f8) and ``node`` (i8).
    Renewal semantics: each node's clock restarts at its own failures.
    """
    if horizon <= 0:
        raise ParameterError("horizon must be > 0")
    times: list[float] = []
    nodes: list[int] = []
    for node in range(injector.n_nodes):
        t = injector.next_failure_delay(node)
        while t <= horizon:
            times.append(t)
            nodes.append(node)
            t += injector.next_failure_delay(node)
    order = np.argsort(times, kind="stable")
    out = np.empty(len(times), dtype=[("time", "f8"), ("node", "i8")])
    out["time"] = np.asarray(times, dtype=float)[order]
    out["node"] = np.asarray(nodes, dtype=np.int64)[order]
    return out


def trace_statistics(trace: np.ndarray, horizon: float, n_nodes: int) -> TraceStats:
    """MTBF and dispersion estimates from a trace (validates injectors)."""
    if horizon <= 0 or n_nodes < 1:
        raise ParameterError("horizon must be > 0 and n_nodes >= 1")
    count = int(trace.shape[0])
    if count == 0:
        return TraceStats(0, horizon, np.inf, np.inf, np.inf, np.nan)
    platform_mtbf = horizon / count
    inter = np.diff(np.concatenate(([0.0], np.asarray(trace["time"], dtype=float))))
    mean = float(inter.mean())
    cv = float(inter.std(ddof=1) / mean) if count > 1 and mean > 0 else np.nan
    return TraceStats(
        count=count,
        horizon=horizon,
        platform_mtbf=platform_mtbf,
        node_mtbf_estimate=platform_mtbf * n_nodes,
        interarrival_mean=mean,
        interarrival_cv=cv,
    )
