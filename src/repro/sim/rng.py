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

A failure process needs one stream per node, but draws only a few values
from each (about 1.5 per stream in a shared-trace ``high-churn``
campaign), so seeding the streams one by one cost more than drawing
from them.  :meth:`RngFactory.nodes` seeds all of a process's node streams in one
batch.  For one factory, numpy's :class:`~numpy.random.SeedSequence`
entropy assembly and pool mixing depend on the node index only through
the last spawn-key word; the batch runs the node-independent part once
as scalar arithmetic, then mixes the last word and generates the 8-word
PCG64 seed for every node at once, in ``uint64``-lane numpy operations
masked to 32 bits.  Each stream is then ``PCG64`` fed its precomputed
words.  numpy fixes this seeding algorithm under its stream-compatibility
policy (NEP 19), and :meth:`RngFactory.node` keeps numpy's own
``SeedSequence`` path: it is the reference the batch is tested against,
state for state.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ..errors import ParameterError

__all__ = ["RngFactory"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
#: PCG64 seeds from 4 uint64 words, drawn as 8 uint32 words.
_SEED_WORDS = 4


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words numpy assembles from an int (0 -> [0])."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two 32-bit words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _hash_steps(hash_const: int, mult: int,
                count: int) -> tuple[list[int], list[int]]:
    """The (xor, multiplier) pairs of ``count`` consecutive hash steps."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        mults.append(hash_const)
    return xors, mults


#: generate_state(4, uint64) draws 8 uint32 words cycling the pool; its
#: hash constants do not depend on the pool.
_STATE_CYCLE = np.arange(2 * _SEED_WORDS) % _POOL_SIZE
_STATE_XOR, _STATE_MULT = (
    np.array(steps, dtype=np.uint64)
    for steps in _hash_steps(_INIT_B, _MULT_B, 2 * _SEED_WORDS))


def _node_seed_words(entropy_words: list[int], indices: np.ndarray) -> np.ndarray:
    """The PCG64 seed words of ``SeedSequence(entropy + [index])`` per index.

    ``entropy_words`` is the assembled entropy up to, not including, the
    last word; ``indices`` (uint64, each < 2**32) are the last words.
    Returns a ``(len(indices), 4)`` uint64 array, row ``i`` equal to
    ``SeedSequence(...).generate_state(4, np.uint64)`` for ``indices[i]``.
    """
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    # mix_entropy, scalar, over every word but the node index (the pool
    # is always full: spawned entropy is padded to the pool size).
    pool = [hashmix(word) for word in entropy_words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy_words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # The node index, mixed into each pool word by its own hash step:
    # one row of lanes per node.  uint64 products wrap, which keeps their
    # low 32 bits exact; masks are needed only before each right shift.
    xors, mults = _hash_steps(hash_const, _MULT_A, _POOL_SIZE)
    value = (indices[:, None] ^ np.array(xors, dtype=np.uint64)) * np.array(
        mults, dtype=np.uint64)
    value &= _MASK32
    value ^= value >> _XSHIFT
    value *= _MIX_MULT_R
    lanes = np.array([_MIX_MULT_L * word & _MASK32 for word in pool],
                     dtype=np.uint64) - value
    lanes &= _MASK32
    lanes ^= lanes >> _XSHIFT
    # generate_state: 8 words, paired little-endian into 64-bit words
    # (C order: PCG64 reads each row as 4 contiguous words).
    state = lanes[:, _STATE_CYCLE] ^ _STATE_XOR
    state *= _STATE_MULT
    state &= _MASK32
    state ^= state >> _XSHIFT
    words = state[:, 1::2] << 32
    words |= state[:, ::2]
    return np.ascontiguousarray(words)


class _SeedWords(ISeedSequence):
    """A node stream's precomputed PCG64 seed, handed to ``PCG64``."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _SEED_WORDS or np.dtype(dtype) != np.uint64:
            raise ParameterError(
                f"precomputed seed holds {_SEED_WORDS} uint64 words, "
                f"asked for {n_words} {np.dtype(dtype)}")
        return self._words


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

    def nodes(self, count: int) -> list[np.random.Generator]:
        """Failure streams of nodes ``0..count-1``, seeded in one batch.

        Exactly ``[self.node(i) for i in range(count)]``, state for state.
        """
        # Each node index must be one 32-bit word, the last of the entropy.
        if not 0 <= count <= _MASK32 + 1:
            raise ParameterError(f"count must be in [0, 2**32], got {count}")
        # numpy pads a spawned sequence's run entropy to the pool size.
        entropy = _uint32_words(self._entropy)
        entropy += [0] * (_POOL_SIZE - len(entropy))
        for word in self._spawn_key + (self._NODE_DOMAIN,):
            entropy += _uint32_words(word)
        words = _node_seed_words(entropy, np.arange(count, dtype=np.uint64))
        return [Generator(PCG64(_SeedWords(row))) for row in words]

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
