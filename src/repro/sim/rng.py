"""Reproducible random-number streams for the simulators.

Every stochastic component (each node's failure process, each Monte Carlo
replica) draws from its own :class:`numpy.random.Generator`, spawned from a
single root seed via :class:`numpy.random.SeedSequence`.  This gives:

* bit-reproducible simulations from one integer seed,
* statistically independent streams (no accidental correlation between a
  node's failures and its buddy's),
* stable stream assignment: stream ``k`` is the same whether or not other
  streams were instantiated (important when comparing protocol variants on
  *common random numbers*).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ParameterError

__all__ = ["RngFactory"]


class RngFactory:
    """Spawns named/indexed child generators from one root seed.

    Examples
    --------
    >>> factory = RngFactory(1234)
    >>> node_rng = factory.node(17)       # failure stream of node 17
    >>> replica = factory.replica(3)      # Monte Carlo replica 3
    >>> same = RngFactory(1234).node(17)  # identical stream
    >>> bool(node_rng.integers(1 << 30) == same.integers(1 << 30))
    True
    """

    #: Fixed stream domains so different purposes can never collide.
    _NODE_DOMAIN = 0
    _REPLICA_DOMAIN = 1
    _COMPONENT_DOMAIN = 2

    def __init__(self, seed: int | None = None):
        if seed is not None and (not isinstance(seed, int) or seed < 0):
            raise ParameterError(f"seed must be a non-negative int, got {seed!r}")
        self._seed = seed
        # The root SeedSequence is (entropy, empty spawn key): an integer
        # seed is its own entropy, so only a missing one is drawn — a
        # root object per factory would cost a replica ~7 us for nothing.
        self._entropy = (np.random.SeedSequence().entropy if seed is None
                         else seed)
        self._spawn_key: tuple[int, ...] = ()

    @property
    def seed(self) -> int | None:
        """The root seed (``None`` = OS entropy; then runs are not replayable)."""
        return self._seed

    # ------------------------------------------------------------------
    def _spawn(self, domain: int, index: int) -> np.random.Generator:
        if index < 0:
            raise ParameterError(f"stream index must be >= 0, got {index}")
        # Extend the root's spawn key so nested factories stay independent.
        child = np.random.SeedSequence(
            entropy=self._entropy, spawn_key=self._spawn_key + (domain, index),
        )
        return np.random.default_rng(child)

    def node(self, node_id: int) -> np.random.Generator:
        """Failure stream of one platform node."""
        return self._spawn(self._NODE_DOMAIN, node_id)

    def replica(self, replica_id: int) -> np.random.Generator:
        """Stream of one Monte Carlo replica (renewal / risk MC)."""
        return self._spawn(self._REPLICA_DOMAIN, replica_id)

    def component(self, component_id: int) -> np.random.Generator:
        """Stream for auxiliary components (topology shuffles, workloads)."""
        return self._spawn(self._COMPONENT_DOMAIN, component_id)

    def replicas(self, count: int) -> Iterator[np.random.Generator]:
        """Iterate ``count`` independent replica streams."""
        if count < 0:
            raise ParameterError("count must be >= 0")
        return (self.replica(i) for i in range(count))

    # ------------------------------------------------------------------
    def child_factory(self, index: int) -> "RngFactory":
        """A nested factory (e.g. one per batch job), still reproducible."""
        factory = RngFactory.__new__(RngFactory)
        factory._seed = self._seed
        factory._entropy = self._entropy
        factory._spawn_key = (self._COMPONENT_DOMAIN, 1 << 20, index)
        return factory

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngFactory(seed={self._seed!r})"
