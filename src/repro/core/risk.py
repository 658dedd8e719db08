"""Risk windows and application success probabilities (paper §III-C, §V-C).

When a failure strikes, the application is *at risk* until the replacement
node has received every checkpoint image it is responsible for.  A further
failure inside the group during that window is unrecoverable (fatal).

Risk windows (``θ = θ(φ)``):

==================  =====================
protocol            risk window
==================  =====================
DOUBLE-NBL          ``D + R + θ``
DOUBLE-BOF          ``D + 2R``
DOUBLE-BLOCKING     ``D + 2R``
TRIPLE              ``D + R + 2θ``
TRIPLE-BOF          ``D + 3R``
==================  =====================

Success probabilities with ``λ = 1/(nM)`` over an execution of length ``T``
(Eqs. 11, 16, 12)::

    P_double = (1 − 2 λ² T Risk)^(n/2)
    P_triple = (1 − 6 λ³ T Risk²)^(n/3)
    P_base   = (1 − λ T_base)^n            (no checkpointing at all)

The doubles formula includes the factor 2 that the paper notes was missing
from [1].  Generically, for groups of size ``g`` the per-group fatal
probability is ``g!·λ^g·T·Risk^(g−1)`` and the application succeeds iff all
``n/g`` groups do.

Two evaluation methods are provided:

``"paper"``
    The first-order expressions above, computed stably via ``log1p`` and
    truncated to 0 when the first-order term exceeds 1 (where the
    approximation has left its validity domain).
``"exponential"``
    Exact-exponential chain semantics: the group fails fatally at rate
    ``g·λ·q`` with ``q = Π_{j=1}^{g−1} (1 − exp(−j·λ·Risk))`` (each stage:
    *some* survivor fails within the current risk window, which restarts),
    giving ``P = exp(−g·λ·q·T·n/g) = exp(−λ·q·T·n)``.  Agrees with
    ``"paper"`` to first order in ``λ·Risk`` and stays a probability for
    any input.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from .parameters import Parameters
from .protocols import ProtocolSpec, get_protocol

__all__ = [
    "risk_window",
    "success_probability",
    "fatal_failure_probability",
    "success_probability_base",
    "group_fatal_probability",
    "fatal_rate",
    "chain_success",
    "expected_fatal_count",
]

_METHODS = ("paper", "exponential")


def risk_window(spec: ProtocolSpec | str, params: Parameters, phi):
    """Risk-window length for ``spec`` at overhead ``phi`` (seconds)."""
    spec = get_protocol(spec)
    out = np.asarray(spec.risk_window(params, phi), dtype=float)
    return float(out) if out.ndim == 0 else out


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ParameterError(f"unknown method {method!r}; choose from {_METHODS}")


def group_fatal_probability(
    spec: ProtocolSpec | str, params: Parameters, phi, T, *, method: str = "paper"
):
    """Probability that one buddy group suffers a fatal failure within ``T``.

    The paper's first-order expression is ``g!·λ^g·T·Risk^(g−1)`` (clipped
    to [0, 1]); the exponential method integrates the fatal hazard.
    """
    _check_method(method)
    spec = get_protocol(spec)
    g = spec.group_size
    lam = params.lam
    risk = np.asarray(spec.risk_window(params, phi), dtype=float)
    T_arr = np.asarray(T, dtype=float)
    if np.any(T_arr < 0):
        raise ParameterError("T must be >= 0")
    if method == "paper":
        p_fatal = math.factorial(g) * lam**g * T_arr * risk ** (g - 1)
        return np.clip(p_fatal, 0.0, 1.0)
    return -np.expm1(-fatal_rate(spec, params, phi) * T_arr)


def fatal_rate(spec: ProtocolSpec | str, params: Parameters, phi):
    """The exact-exponential chain's fatal rate of one group, ``g·λ·q``."""
    spec = get_protocol(spec)
    g, lam = spec.group_size, params.lam
    risk = np.asarray(spec.risk_window(params, phi), dtype=float)
    q = np.ones_like(risk)
    for j in range(1, g):
        q = q * -np.expm1(-j * lam * risk)
    return g * lam * q


def chain_success(rate, n_groups, T):
    """Exact-exponential success of ``n_groups`` groups, each failing
    fatally at ``rate``, over ``T`` (all broadcast)."""
    if np.any(np.asarray(T) < 0):
        raise ParameterError("T must be >= 0")
    # Recover the per-group log-survival exactly (−inf ⇒ certain failure).
    with np.errstate(divide="ignore"):
        return np.exp(n_groups * np.log1p(-np.minimum(
            -np.expm1(-rate * np.asarray(T, dtype=float)), 1.0)))


def success_probability(
    spec: ProtocolSpec | str, params: Parameters, phi, T, *, method: str = "paper"
):
    """Probability that the application completes without a fatal failure.

    Implements Eq. (11) for pair protocols and Eq. (16) for triples
    (``method="paper"``), or the exact-exponential variant.

    Parameters
    ----------
    T:
        Execution (or platform-exploitation) duration in seconds; scalar or
        array, broadcast against ``phi``.
    """
    _check_method(method)
    spec = get_protocol(spec)
    g = spec.group_size
    n_groups = params.n / g
    if method == "paper":
        p_fatal = group_fatal_probability(spec, params, phi, T, method=method)
        # (1 − p)^(n/g) via log1p; p >= 1 ⇒ certain failure.
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.where(p_fatal < 1.0, np.log1p(-np.minimum(p_fatal, 1.0)), -np.inf)
        out = np.exp(n_groups * log_term)
    else:
        out = chain_success(fatal_rate(spec, params, phi), n_groups, T)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def fatal_failure_probability(
    spec: ProtocolSpec | str, params: Parameters, phi, T, *, method: str = "paper"
):
    """Complement of :func:`success_probability`."""
    out = 1.0 - np.asarray(success_probability(spec, params, phi, T, method=method))
    return float(out) if out.ndim == 0 else out


def success_probability_base(params: Parameters, t_base, *, method: str = "paper"):
    """Success probability *without any checkpointing* (Eq. 12).

    Any single failure anywhere is fatal.  ``method="paper"`` evaluates
    ``(1 − λ·T_base)^n``; ``method="exponential"`` the exact
    ``exp(−n·λ·T_base)``.
    """
    _check_method(method)
    lam = params.lam
    t = np.asarray(t_base, dtype=float)
    if np.any(t < 0):
        raise ParameterError("t_base must be >= 0")
    if method == "paper":
        inner = lam * t
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.where(inner < 1.0, np.log1p(-np.minimum(inner, 1.0)), -np.inf)
        out = np.exp(params.n * log_term)
    else:
        out = np.exp(-params.n * lam * t)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def expected_fatal_count(
    spec: ProtocolSpec | str, params: Parameters, phi, T, *, method: str = "paper"
):
    """Expected number of fatal group failures within ``T``.

    ``(n/g) · p_fatal`` — useful to reason about how many independent runs
    of a given length survive (the paper's "tolerate twice more runs"
    comparison, §VI-A).
    """
    spec = get_protocol(spec)
    p_fatal = group_fatal_probability(spec, params, phi, T, method=method)
    out = np.asarray(params.n / spec.group_size * p_fatal)
    return float(out) if out.ndim == 0 else out
