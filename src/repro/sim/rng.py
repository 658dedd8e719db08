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

A failure process needs one stream per node and the vectorized engine
one per replica of a grid row, but draws little from each (about 1.5
values per node stream in a shared-trace ``high-churn`` campaign), so
seeding streams one by one cost more than drawing from them.  One kernel
(:func:`_seed_words`) seeds many streams at once: numpy's
:class:`~numpy.random.SeedSequence` mixing runs over the entropy words
every stream shares as scalar arithmetic, and from the first word that
differs as ``uint64`` lanes masked to 32 bits; each stream is then
``PCG64`` fed its precomputed words.  :meth:`RngFactory.nodes` and
:func:`replica_streams` both call it.  numpy fixes this algorithm under
its stream-compatibility policy (NEP 19); :meth:`RngFactory.node` and
:meth:`RngFactory.replica` keep numpy's own path, the references the
batches are tested against, state for state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ..errors import ParameterError

__all__ = ["RngFactory", "replica_streams"]

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


def _hash_steps(hash_const: int, mult: int,
                count: int) -> tuple[list[int], list[int]]:
    """The (xor, multiplier) pairs of ``count`` consecutive hash steps."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        mults.append(hash_const)
    return xors, mults


def _hashmix(value, xor, mult):
    """SeedSequence's ``hashmix`` at one hash step, on ints or ``uint64``
    lanes (whose products wrap, keeping their low 32 bits exact)."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words (ints or lanes)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


@lru_cache(maxsize=16)
def _mix_steps(words: int) -> tuple:
    """mix_entropy's hash steps over ``words`` words, as ints and uint64s:
    4 fill the pool, 12 cross-mix it, then 4 per further word."""
    steps = _hash_steps(_INIT_A, _MULT_A, _POOL_SIZE * (words + 3))
    return (*steps, *(np.array(part, dtype=np.uint64) for part in steps))


#: generate_state(4, uint64) draws 8 uint32 words cycling the pool; its
#: hash constants do not depend on the pool.
_STATE_CYCLE = np.arange(2 * _SEED_WORDS) % _POOL_SIZE
_STATE_XOR, _STATE_MULT = (
    np.array(steps, dtype=np.uint64)
    for steps in _hash_steps(_INIT_B, _MULT_B, 2 * _SEED_WORDS))


def _seed_words(entropy: list) -> np.ndarray:
    """Row ``i``: ``SeedSequence(...).generate_state(4, np.uint64)`` over
    lane ``i``'s assembled entropy, every lane at once.

    ``entropy`` holds one entry per word: an int every lane shares, or a
    ``uint64`` array of one word (< 2**32) per lane.  Shared words mix as
    ints; once a lane word is in, the pool is a ``(lanes, 4)`` array and
    each step mixes a source into its three destinations, or a word into
    all four, across every lane in one operation.
    """
    words = entropy + [0] * (_POOL_SIZE - len(entropy))
    xors, mults, xor_lanes, mult_lanes = _mix_steps(len(words))
    pool = [_hashmix(*step) for step in zip(words[:_POOL_SIZE], xors, mults)]
    if any(isinstance(word, np.ndarray) for word in pool):
        pool = np.column_stack(np.broadcast_arrays(
            *(np.asarray(word, dtype=np.uint64) for word in pool)))
    for src in range(_POOL_SIZE):
        dsts = [dst for dst in range(_POOL_SIZE) if dst != src]
        steps = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * src + 3)
        if isinstance(pool, list):
            for dst, xor, mult in zip(dsts, xors[steps], mults[steps]):
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor, mult))
        else:
            pool[:, dsts] = _mix(pool[:, dsts], _hashmix(
                pool[:, src, None], xor_lanes[steps], mult_lanes[steps]))
    for index, word in enumerate(words[_POOL_SIZE:], 4):
        steps = slice(_POOL_SIZE * index, _POOL_SIZE * index + _POOL_SIZE)
        if isinstance(pool, list) and isinstance(word, int):
            pool = [_mix(value, _hashmix(word, xor, mult)) for value, xor, mult
                    in zip(pool, xors[steps], mults[steps])]
        else:
            pool = _mix(np.asarray(pool, dtype=np.uint64), _hashmix(
                np.asarray(word, dtype=np.uint64)[..., None],
                xor_lanes[steps], mult_lanes[steps]))
    # generate_state: 8 words, paired little-endian into 64-bit words
    # (C order: PCG64 reads each row as 4 contiguous words).
    state = np.asarray(pool, dtype=np.uint64).reshape(-1, _POOL_SIZE)
    state = state[:, _STATE_CYCLE] ^ _STATE_XOR
    state *= _STATE_MULT
    state &= _MASK32
    state ^= state >> _XSHIFT
    words = state[:, 1::2] << 32
    words |= state[:, ::2]
    return np.ascontiguousarray(words)


def _spawned_entropy(entropy: int, spawn_key: tuple[int, ...]) -> list[int]:
    """The entropy words numpy assembles for a spawned ``SeedSequence``:
    the run entropy padded to the pool size, then the spawn key."""
    words = _uint32_words(entropy)
    words += [0] * (_POOL_SIZE - len(words))
    for word in spawn_key:
        words += _uint32_words(word)
    return words


class _SeedWords(ISeedSequence):
    """A stream's precomputed PCG64 seed, handed to ``PCG64``."""

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
        words = _seed_words(
            _spawned_entropy(self._entropy,
                             self._spawn_key + (self._NODE_DOMAIN,))
            + [np.arange(count, dtype=np.uint64)])
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


def replica_streams(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``[RngFactory(seed).replica(0) for seed in seeds]``, state for
    state: one :func:`_seed_words` pass per entropy length."""
    entropies = [_spawned_entropy(RngFactory(seed)._entropy,
                                  (RngFactory._REPLICA_DOMAIN, 0))
                 for seed in seeds]
    streams: list = [None] * len(entropies)
    for length in {len(words) for words in entropies}:
        lanes = [lane for lane, words in enumerate(entropies)
                 if len(words) == length]
        columns = np.array([entropies[lane] for lane in lanes],
                           dtype=np.uint64).T
        for lane, row in zip(lanes, _seed_words(list(columns))):
            streams[lane] = Generator(PCG64(_SeedWords(row)))
    return streams
