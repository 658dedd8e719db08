"""Per-node memory accounting for buddy checkpointing protocols (§IV).

The paper's motivating question for TRIPLE: *given a fixed amount of memory
available for checkpointing, what is the best strategy?*  This module makes
the memory budget explicit so scenarios can verify that a protocol fits.

Steady-state images per node (checkpoint size ``s`` bytes each):

* **Doubles** — own local image + buddy's image: ``2s``.
* **Triples** — one image from each of the two buddies: ``2s`` (the node's
  own state is held only remotely; a local copy is unnecessary because
  recovery always restores from a buddy anyway).

Atomicity: coordinated snapshots must be replaced atomically, so during a
checkpoint wave the *previous* successful set coexists with the incoming
one — doubling the transient footprint of whichever images are being
rewritten.  With fork/copy-on-write checkpoint creation (modelled in
:mod:`repro.core.cow`) the sender-side transient is only the dirtied pages,
not a full image.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from .protocols import ProtocolSpec, get_protocol

__all__ = ["MemoryBudget", "steady_state_bytes", "peak_bytes", "fits_in"]


def steady_state_bytes(spec: ProtocolSpec | str, checkpoint_bytes: int) -> int:
    """Bytes of checkpoint images held per node between checkpoint waves."""
    spec = get_protocol(spec)
    if checkpoint_bytes < 0:
        raise ParameterError("checkpoint size must be >= 0")
    return spec.checkpoint_images_held() * int(checkpoint_bytes)


def peak_bytes(
    spec: ProtocolSpec | str,
    checkpoint_bytes: int,
    *,
    cow_dirty_fraction: float = 1.0,
) -> int:
    """Peak transient bytes during a checkpoint wave.

    While a new remote image arrives, the previous one must be retained for
    atomicity (+1 image).  On the sender side, fork/COW duplicates only the
    fraction of pages dirtied before upload completes
    (``cow_dirty_fraction`` ∈ [0, 1]; 1.0 models an eager full copy, the
    worst case without COW).
    """
    spec = get_protocol(spec)
    if checkpoint_bytes < 0:
        raise ParameterError("checkpoint size must be >= 0")
    if not 0.0 <= cow_dirty_fraction <= 1.0:
        raise ParameterError("cow_dirty_fraction must lie in [0, 1]")
    steady = steady_state_bytes(spec, checkpoint_bytes)
    incoming = int(checkpoint_bytes)  # buffered next-set image being received
    sender_transient = int(round(checkpoint_bytes * cow_dirty_fraction))
    return steady + incoming + sender_transient


@dataclass(frozen=True)
class MemoryBudget:
    """A per-node memory envelope for checkpoint storage.

    Parameters
    ----------
    capacity_bytes:
        Memory (or local storage) reserved for checkpoint images per node.
    checkpoint_bytes:
        Size of one checkpoint image.
    cow_dirty_fraction:
        Expected fraction of pages duplicated by copy-on-write during one
        upload (see :func:`peak_bytes`).
    """

    capacity_bytes: int
    checkpoint_bytes: int
    cow_dirty_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ParameterError("capacity must be > 0")
        if self.checkpoint_bytes <= 0:
            raise ParameterError("checkpoint size must be > 0")
        if not 0.0 <= self.cow_dirty_fraction <= 1.0:
            raise ParameterError("cow_dirty_fraction must lie in [0, 1]")

    def peak(self, spec: ProtocolSpec | str) -> int:
        return peak_bytes(
            spec, self.checkpoint_bytes, cow_dirty_fraction=self.cow_dirty_fraction
        )

    def headroom(self, spec: ProtocolSpec | str) -> int:
        """Remaining bytes at peak usage (negative = over budget)."""
        return self.capacity_bytes - self.peak(spec)


def fits_in(spec: ProtocolSpec | str, budget: MemoryBudget) -> bool:
    """Does the protocol's peak footprint fit in the budget?

    The paper's §IV claim — TRIPLE is "equally memory-demanding" as the
    doubles — is checkable here: both families report identical
    steady-state and peak footprints for the same image size.
    """
    return budget.headroom(spec) >= 0
