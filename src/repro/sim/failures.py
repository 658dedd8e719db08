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

The module also provides trace generation/statistics so experiments can
record and replay failure schedules (:func:`generate_trace`,
:func:`trace_statistics`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .distributions import Exponential, FailureDistribution
from .rng import RngFactory

__all__ = [
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
        Stream factory; node ``i`` uses ``rng_factory.node(i)``.
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
        self._rngs = [rng_factory.node(i) for i in range(self.n_nodes)]

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


class TraceSchedule:
    """A failure trace parsed once into per-node inter-arrival delays.

    Accepts the structured array produced by :func:`generate_trace`
    (fields ``time``/``node``) or any ``(time, node)`` pair sequence.
    The parse is vectorized and validates the whole trace: times must be
    finite, non-negative and sorted, nodes in ``[0, n_nodes)``.

    ``delays`` is node-major: node ``i``'s delays are
    ``delays[bounds[i]:bounds[i + 1]]``.  A schedule is never mutated,
    so any number of :class:`TraceInjector` replays (every protocol and
    φ of a campaign row) can walk one cached instance.
    """

    __slots__ = ("n_nodes", "delays", "bounds", "total_events")

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
            raise ParameterError("trace times must be >= 0")
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
        self.delays = np.diff(ordered, prepend=0.0)
        self.delays[first] = ordered[first]
        self.delays.flags.writeable = False  # shared by every replay
        self.bounds = tuple(bounds.tolist())
        self.total_events = int(times.size)


class TraceInjector:
    """Replay a recorded failure trace instead of sampling one.

    Walks a :class:`TraceSchedule` (raw traces are parsed into one) with
    one cursor per node and never mutates it, so a schedule parsed once
    per shared trace serves every replay of it.  Nodes whose schedule is
    exhausted never fail again (their next delay is ``+inf`` past the
    horizon).  Replaying the same trace under two protocols gives a
    *common-random-numbers* comparison: both face the identical failure
    history.
    """

    #: Far-future sentinel returned once a node's schedule is exhausted.
    NEVER = 1e300

    def __init__(self, n_nodes: int, trace):
        if not isinstance(trace, TraceSchedule):
            trace = TraceSchedule(n_nodes, trace)
        elif trace.n_nodes != n_nodes:
            raise ParameterError(
                f"trace schedule was built for n_nodes={trace.n_nodes}, "
                f"not {n_nodes}"
            )
        self.n_nodes = trace.n_nodes
        self.total_events = trace.total_events
        self._delays = trace.delays
        self._cursors = list(trace.bounds[:-1])
        self._ends = trace.bounds[1:]

    def next_failure_delay(self, node: int) -> float:
        if not 0 <= node < self.n_nodes:
            raise ParameterError(f"node_id {node} out of range")
        i = self._cursors[node]
        if i == self._ends[node]:
            return self.NEVER
        self._cursors[node] = i + 1
        return self._delays.item(i)


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
