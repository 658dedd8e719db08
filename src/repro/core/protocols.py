"""Protocol specifications for all evaluated checkpointing algorithms.

A :class:`ProtocolSpec` is the single description of a protocol shared by
the analytical layer (waste/period/risk formulas) *and* the event-level
simulator (phase structure, failure response).  The five variants:

``DOUBLE_BLOCKING``
    Zheng, Shi & Kalé's original buddy algorithm [1]: the buddy exchange is
    fully blocking.  Modelled as DOUBLE-BOF with the overhead pinned at
    ``φ = θmin`` (no overlap at all).
``DOUBLE_NBL``
    Ni, Meneses & Kalé's semi-blocking algorithm [2]: exchange overlapped
    at overhead ``φ``; after a failure the buddy's replacement file is sent
    in overlapped mode (``θ(φ)``), leaving a long risk window.
``DOUBLE_BOF``
    *Blocking-on-failure* (new in the paper): identical fault-free
    behaviour, but the replacement file is sent at full speed (``R``),
    trading overhead for a shorter risk window.
``TRIPLE``
    The paper's new triple checkpointing algorithm (non-blocking recovery
    variant, the one analysed in §V).
``TRIPLE_BOF``
    The blocking-on-failure triple variant sketched at the end of §IV
    (risk window ``D + 3R``).  The paper only states its risk window; the
    waste terms follow by the same shift the paper applies to derive
    DOUBLE-BOF from DOUBLE-NBL (recovery gains ``2R``, re-execution loses
    the ``2φ`` overlap overhead), documented here as a model extension.

Period layout (lengths at overhead ``φ``, window ``θ = θ(φ)``):

=================  ======================  =====================
protocol           phase 1 / 2 / 3         work per period ``W``
=================  ======================  =====================
doubles            ``δ`` / ``θ`` / ``σ``   ``P − δ − φ``
triples            ``θ`` / ``θ`` / ``σ``   ``P − 2φ``
=================  ======================  =====================

All numeric methods broadcast over ``phi`` (and ``P`` where applicable), so
figure grids evaluate in one call.
"""

from __future__ import annotations

import enum
import functools
from abc import ABC, abstractmethod
import numpy as np

from ..errors import ParameterError
from .overlap import OverlapModel
from .parameters import Parameters

__all__ = [
    "PhaseKind",
    "ProtocolSpec",
    "DoubleSpec",
    "TripleSpec",
    "DOUBLE_BLOCKING",
    "DOUBLE_NBL",
    "DOUBLE_BOF",
    "TRIPLE",
    "TRIPLE_BOF",
    "PROTOCOLS",
    "get_protocol",
]


class PhaseKind(enum.Enum):
    """Semantics of one period phase, as the simulator executes it."""

    #: Blocking local checkpoint: no application progress.
    LOCAL_CHECKPOINT = "local-checkpoint"
    #: Buddy exchange overlapped with computation (slowdown ``φ/θ``).
    EXCHANGE = "exchange"
    #: Application computes at full speed.
    COMPUTE = "compute"


class ProtocolSpec(ABC):
    """Abstract protocol description; see module docstring.

    Concrete subclasses provide the first-order coefficients ``c`` and ``A``
    (see :mod:`repro.core.firstorder`), the period layout, and the failure
    response.  Instances are stateless singletons.
    """

    #: Short stable identifier used in registries, CLIs and result files.
    key: str
    #: Human-readable name matching the paper's typography.
    name: str
    #: Number of processors per buddy group (2 for doubles, 3 for triples).
    group_size: int
    #: Whether post-failure resends run at full network speed (blocking).
    blocking_on_failure: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ProtocolSpec {self.key}>"

    # ------------------------------------------------------------------
    # Choice variables
    # ------------------------------------------------------------------
    def effective_phi(self, params: Parameters, phi):
        """Overhead actually incurred; blocking protocols pin it at ``θmin``.

        A scalar ``φ`` is validated once per (protocol, overlap model)
        and its value reused (:func:`_scalar_phi`): each formula below
        resolves ``φ`` again, a dozen times per simulated cell.
        """
        if isinstance(phi, (int, float)):
            return _scalar_phi(self, params.overlap, phi)[0]
        return self._validated_phi(params.theta_min, phi)

    def _validated_phi(self, theta_min: float, phi):
        """:meth:`effective_phi` evaluated: refuses ``φ`` outside
        ``[0, θmin]``, then clips rounding noise."""
        phi_arr = np.asarray(phi, dtype=float)
        if np.any(phi_arr < -1e-12) or np.any(phi_arr > theta_min * (1 + 1e-12)):
            raise ParameterError(
                f"phi must lie in [0, R={theta_min}], got {phi!r}"
            )
        return np.clip(phi_arr, 0.0, theta_min)

    def theta(self, params: Parameters, phi):
        """Exchange-window length ``θ(φ)``."""
        if isinstance(phi, (int, float)):
            return _scalar_phi(self, params.overlap, phi)[1]
        return params.overlap.theta_of_phi(self.effective_phi(params, phi))

    # ------------------------------------------------------------------
    # First-order coefficients
    # ------------------------------------------------------------------
    @abstractmethod
    def cost_coefficient(self, params: Parameters, phi):
        """Fault-free cost ``c`` per period (``WASTEff = c/P``)."""

    @abstractmethod
    def lost_time_constant(self, params: Parameters, phi):
        """Constant ``A`` of the expected per-failure loss ``F = A + P/2``."""

    @abstractmethod
    def min_period(self, params: Parameters, phi):
        """Smallest feasible period (fixed phases, ``σ = 0``)."""

    # ------------------------------------------------------------------
    # Period layout
    # ------------------------------------------------------------------
    @abstractmethod
    def phase_kinds(self) -> tuple[PhaseKind, PhaseKind, PhaseKind]:
        """Semantics of the three period phases."""

    @abstractmethod
    def phase_lengths(self, params: Parameters, phi, P):
        """Lengths ``(l1, l2, σ)`` of the three phases for period ``P``."""

    @abstractmethod
    def work_per_period(self, params: Parameters, phi, P):
        """Work units executed per fault-free period (``W``)."""

    # ------------------------------------------------------------------
    # Failure response
    # ------------------------------------------------------------------
    @abstractmethod
    def failure_resend_time(self, params: Parameters, phi):
        """Time after recovery until the group is fully re-replicated.

        This is the duration of re-sending the buddy image(s) to the
        replacement node — overlapped (``θ`` each) or blocking (``R`` each)
        depending on the protocol.
        """

    def recovery_constant(self, params: Parameters, phi):
        """Dead time before re-execution starts (downtime + blocking loads).

        ``D + R`` for non-blocking variants; blocking-on-failure variants
        additionally stall for their blocking resends.
        """
        phi_eff = self.effective_phi(params, phi)
        base = params.D + params.R
        if self.blocking_on_failure:
            return base + np.asarray(self.failure_resend_time(params, phi_eff))
        return base + np.zeros_like(phi_eff)

    def risk_window(self, params: Parameters, phi):
        """Length of the window during which a buddy failure is fatal.

        ``Risk = D + R + resend`` (§III-C, §V-C): the group stays at risk
        until the replacement node holds every image it is responsible for.
        """
        phi_eff = self.effective_phi(params, phi)
        return params.D + params.R + np.asarray(
            self.failure_resend_time(params, phi_eff), dtype=float
        )

    @abstractmethod
    def re_expectations(self, params: Parameters, phi, P):
        """Expected re-execution times ``(RE1, RE2, RE3)`` per failed phase.

        ``F = recovery_constant + Σ_i (l_i/P)·RE_i``; exercised directly by
        the renewal simulator and the consistency tests.
        """

    @abstractmethod
    def re_terms(self, params: Parameters, phi, P):
        """Offset-free terms ``(bases, shift)`` of :meth:`re_time`.

        ``bases[i]`` is the re-execution of a failure at the very start of
        phase ``i``; ``shift`` is what blocking-on-failure variants save
        (0 otherwise).  Constant per ``(φ, P)``, so the event simulator
        resolves them once per cell.
        """

    def re_time(self, params: Parameters, phi, P, phase: int, offset):
        """Re-execution duration for a failure at ``offset`` into ``phase``.

        The offset-resolved version of :meth:`re_expectations`: averaging
        ``re_time`` over a uniform offset within each phase recovers the
        ``RE_i``.  Drives the event simulator's recovery blocks.  Values
        are ``max((bases[phase] + offset) − shift, 0)`` over
        :meth:`re_terms`: clamped at 0 (relevant only for extreme
        blocking-on-failure corner cases where the first-order shift
        overshoots).
        """
        if phase not in (0, 1, 2):
            raise ParameterError(f"phase must be 0, 1 or 2, got {phase}")
        bases, shift = self.re_terms(params, phi, P)
        out = bases[phase] + np.asarray(offset, dtype=float)
        return np.maximum(out - shift, 0.0)

    def commit_phase(self) -> int:
        """Phase index after which the new snapshot becomes recoverable.

        Doubles: end of the buddy exchange (phase 1) — before that, a
        node's new image exists only locally.  Triples: end of phase 0 —
        the preferred buddy already holds every node's new image, which is
        exactly why a phase-2 failure only re-executes phase-2 work (§V-A).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def checkpoint_images_held(self) -> int:
        """Checkpoint images resident per node in steady state (always 2).

        Doubles hold their own local image plus the buddy's; triples hold
        one image from each buddy (their own state is only remote).  This
        equality is the paper's motivating memory constraint (§IV).
        """
        return 2

    # ------------------------------------------------------------------
    def expected_lost_time(self, params: Parameters, phi, P):
        """Expected time lost per failure ``F(P) = A + P/2`` (Eqs. 7/8/14)."""
        A = self.lost_time_constant(params, phi)
        return np.asarray(A, dtype=float) + np.asarray(P, dtype=float) / 2.0


class DoubleSpec(ProtocolSpec):
    """Buddy-pair protocols: DOUBLE-BLOCKING, DOUBLE-NBL, DOUBLE-BOF."""

    group_size = 2

    def __init__(self, key: str, name: str, *, blocking_on_failure: bool,
                 always_blocking: bool = False) -> None:
        self.key = key
        self.name = name
        self.blocking_on_failure = blocking_on_failure
        #: Pin ``φ = θmin`` (the original fully blocking algorithm of [1]).
        self.always_blocking = always_blocking

    def _validated_phi(self, theta_min: float, phi):
        validated = super()._validated_phi(theta_min, phi)
        if self.always_blocking:
            return np.full_like(validated, theta_min)
        return validated

    # -- first-order coefficients --------------------------------------
    def cost_coefficient(self, params: Parameters, phi):
        return params.delta + self.effective_phi(params, phi)

    def lost_time_constant(self, params: Parameters, phi):
        phi_eff = self.effective_phi(params, phi)
        theta = self.theta(params, phi)
        base = params.D + params.R + theta
        if self.blocking_on_failure:
            # Eq. (8): F_bof = F_nbl + R − φ.
            return base + params.R - phi_eff
        return base

    def min_period(self, params: Parameters, phi):
        return params.delta + np.asarray(self.theta(params, phi), dtype=float)

    # -- period layout ---------------------------------------------------
    def phase_kinds(self) -> tuple[PhaseKind, PhaseKind, PhaseKind]:
        return (PhaseKind.LOCAL_CHECKPOINT, PhaseKind.EXCHANGE, PhaseKind.COMPUTE)

    def phase_lengths(self, params: Parameters, phi, P):
        theta = np.asarray(self.theta(params, phi), dtype=float)
        P = np.asarray(P, dtype=float)
        sigma = P - params.delta - theta
        if theta.ndim == P.ndim == 0:  # a scalar cell: nothing to broadcast
            return np.array(params.delta), theta, np.asarray(sigma)
        delta = np.broadcast_to(params.delta, np.broadcast_shapes(theta.shape, P.shape)).copy()
        return np.broadcast_arrays(delta, theta, sigma)

    def work_per_period(self, params: Parameters, phi, P):
        phi_eff = self.effective_phi(params, phi)
        return np.asarray(P, dtype=float) - params.delta - phi_eff

    # -- failure response -------------------------------------------------
    def failure_resend_time(self, params: Parameters, phi):
        if self.blocking_on_failure:
            theta = np.asarray(self.theta(params, phi), dtype=float)
            return np.full_like(theta, params.R)
        return np.asarray(self.theta(params, phi), dtype=float)

    def re_expectations(self, params: Parameters, phi, P):
        """§III-A: RE1 = θ+σ+δ/2, RE2 = θ+σ+δ+θ/2, RE3 = θ+σ/2 (NBL).

        BOF re-executes at full speed (no ``φ`` overhead while receiving the
        buddy file, since it already arrived during the blocking stall), so
        each RE drops by ``φ``.
        """
        phi_eff = self.effective_phi(params, phi)
        _, theta, sigma = self.phase_lengths(params, phi, P)
        delta = params.delta
        re1 = theta + sigma + delta / 2.0
        re2 = theta + sigma + delta + theta / 2.0
        re3 = theta + sigma / 2.0
        if self.blocking_on_failure:
            re1, re2, re3 = re1 - phi_eff, re2 - phi_eff, re3 - phi_eff
        return re1, re2, re3

    def re_terms(self, params: Parameters, phi, P):
        """Offset-resolved re-execution (§III-A derivation).

        Phase 0 (local ckpt): the previous period's work ``W`` plus the
        ``offset`` wall-time already burnt in the failed phase must be
        re-spent, under ``φ`` of overlap overhead: ``θ + σ + offset``.
        Phase 1 (exchange): additionally the whole ``δ``:
        ``θ + σ + δ + offset``.  Phase 2 (compute): only this period's
        work: ``θ + offset``.  BOF saves the ``φ`` overhead.
        """
        phi_eff = self.effective_phi(params, phi)
        _, theta, sigma = self.phase_lengths(params, phi, P)
        bases = (theta + sigma, theta + sigma + params.delta, theta)
        return bases, (phi_eff if self.blocking_on_failure else 0.0)

    def commit_phase(self) -> int:
        return 1


class TripleSpec(ProtocolSpec):
    """Buddy-triple protocols: TRIPLE (non-blocking) and TRIPLE-BOF."""

    group_size = 3

    def __init__(self, key: str, name: str, *, blocking_on_failure: bool) -> None:
        self.key = key
        self.name = name
        self.blocking_on_failure = blocking_on_failure

    # -- first-order coefficients --------------------------------------
    def cost_coefficient(self, params: Parameters, phi):
        # WASTEff = 2φ/P (§V-A): both exchange phases cost φ, no local δ.
        return 2.0 * self.effective_phi(params, phi)

    def lost_time_constant(self, params: Parameters, phi):
        phi_eff = self.effective_phi(params, phi)
        theta = self.theta(params, phi)
        base = params.D + params.R + theta
        if self.blocking_on_failure:
            # Same shift the paper applies for DOUBLE-BOF, once per resent
            # image: the recovery stalls 2R longer, re-execution saves 2φ.
            return base + 2.0 * params.R - 2.0 * phi_eff
        return base

    def min_period(self, params: Parameters, phi):
        return 2.0 * np.asarray(self.theta(params, phi), dtype=float)

    # -- period layout ---------------------------------------------------
    def phase_kinds(self) -> tuple[PhaseKind, PhaseKind, PhaseKind]:
        return (PhaseKind.EXCHANGE, PhaseKind.EXCHANGE, PhaseKind.COMPUTE)

    def phase_lengths(self, params: Parameters, phi, P):
        theta = np.asarray(self.theta(params, phi), dtype=float)
        P = np.asarray(P, dtype=float)
        sigma = P - 2.0 * theta
        if theta.ndim == P.ndim == 0:  # a scalar cell: nothing to broadcast
            return theta, theta.copy(), np.asarray(sigma)
        return np.broadcast_arrays(theta, theta.copy(), sigma)

    def work_per_period(self, params: Parameters, phi, P):
        phi_eff = self.effective_phi(params, phi)
        return np.asarray(P, dtype=float) - 2.0 * phi_eff

    # -- failure response -------------------------------------------------
    def failure_resend_time(self, params: Parameters, phi):
        theta = np.asarray(self.theta(params, phi), dtype=float)
        if self.blocking_on_failure:
            return np.full_like(theta, 2.0 * params.R)
        return 2.0 * theta

    def re_expectations(self, params: Parameters, phi, P):
        """§V-A: RE1 = 2θ+σ+θ/2, RE2 = 3θ/2, RE3 = 2θ+σ/2.

        A failure in phase 2 only loses phase-2 work: the snapshot shipped
        in phase 1 is already safe on the preferred buddy, so the node
        rolls back to the *new* snapshot, not the previous period's.
        """
        phi_eff = self.effective_phi(params, phi)
        theta, _, sigma = self.phase_lengths(params, phi, P)
        re1 = 2.0 * theta + sigma + theta / 2.0
        re2 = 1.5 * theta
        re3 = 2.0 * theta + sigma / 2.0
        if self.blocking_on_failure:
            re1, re2, re3 = re1 - 2 * phi_eff, re2 - 2 * phi_eff, re3 - 2 * phi_eff
        return re1, re2, re3

    def re_terms(self, params: Parameters, phi, P):
        """Offset-resolved re-execution (§V-A derivation).

        Phase 0 (first exchange): the new snapshot is not yet safe — redo
        the previous period's work plus the burnt wall time under two
        windows of overhead: ``2θ + σ + offset``.  Phase 1 (second
        exchange): the snapshot shipped in phase 0 is recoverable, only
        phase-1 time is lost: ``θ + offset``.  Phase 2 (compute):
        ``2θ + offset``.  BOF saves both windows' ``φ`` overhead.
        """
        phi_eff = self.effective_phi(params, phi)
        theta, _, sigma = self.phase_lengths(params, phi, P)
        bases = (2.0 * theta + sigma, theta, 2.0 * theta)
        return bases, (2.0 * phi_eff if self.blocking_on_failure else 0.0)

    def commit_phase(self) -> int:
        return 0


@functools.lru_cache(maxsize=4096)
def _scalar_phi(spec: ProtocolSpec, overlap: OverlapModel, phi):
    """``(effective φ, θ(φ))`` of one scalar ``φ``, validated once.

    Both are the array path's values bit for bit (the same numpy
    evaluation, run on the first call); ``effective φ`` is kept as a
    numpy scalar, which no caller can modify in place.  A ``φ`` that
    fails validation raises and is not cached.
    """
    eff = spec._validated_phi(overlap.theta_min, phi)[()]
    return eff, overlap.theta_of_phi(eff)


#: The original blocking buddy algorithm of Zheng, Shi & Kalé [1].
DOUBLE_BLOCKING = DoubleSpec(
    "double-blocking", "DoubleBlocking", blocking_on_failure=True, always_blocking=True
)
#: The semi-blocking algorithm of Ni, Meneses & Kalé [2].
DOUBLE_NBL = DoubleSpec("double-nbl", "DoubleNBL", blocking_on_failure=False)
#: The paper's blocking-on-failure variant.
DOUBLE_BOF = DoubleSpec("double-bof", "DoubleBoF", blocking_on_failure=True)
#: The paper's triple checkpointing algorithm (non-blocking recovery, §V).
TRIPLE = TripleSpec("triple", "Triple", blocking_on_failure=False)
#: Blocking-on-failure triple variant (risk window ``D + 3R``, §IV/§V-C).
TRIPLE_BOF = TripleSpec("triple-bof", "TripleBoF", blocking_on_failure=True)

#: Registry of all protocol singletons, keyed by :attr:`ProtocolSpec.key`.
PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.key: spec
    for spec in (DOUBLE_BLOCKING, DOUBLE_NBL, DOUBLE_BOF, TRIPLE, TRIPLE_BOF)
}


def get_protocol(key: str | ProtocolSpec) -> ProtocolSpec:
    """Look up a protocol by key (idempotent on spec instances)."""
    if isinstance(key, ProtocolSpec):
        return key
    try:
        return PROTOCOLS[key]
    except KeyError:
        raise ParameterError(
            f"unknown protocol {key!r}; known: {sorted(PROTOCOLS)}"
        ) from None
