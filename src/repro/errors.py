"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs::

    try:
        period.optimal_period(spec, params)
    except repro.errors.InfeasibleModelError:
        ...  # MTBF too small for this protocol

The hierarchy distinguishes *user input* problems (:class:`ParameterError`,
:class:`UnitParseError`) from *model domain* problems
(:class:`InfeasibleModelError`) and *simulation* problems
(:class:`SimulationError`, :class:`FatalFailureError`).

:func:`check_int` and :func:`check_real` are the two checks every
number of a campaign spec passes through: a value of the wrong type
(a string, ``None``, a bool, ``8.7`` for a count) is refused by name as
a :class:`ParameterError`, never coerced and never left to raise a bare
``TypeError``.
"""

from __future__ import annotations

import math
import numbers


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ParameterError(ReproError, ValueError):
    """A model or simulation parameter is invalid (negative time, ...)."""


def check_int(name: str, value, floor: int) -> int:
    """``value`` as an ``int``, unless it is not an integer ``>= floor``."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < floor):
        raise ParameterError(
            f"{name} must be an integer >= {floor}, got {value!r}"
        )
    return int(value)


def check_real(name: str, value, low: float = 0.0, high: float = math.inf,
               *, closed: bool = False) -> float:
    """``value`` as a ``float``, unless it is not a finite real in
    ``(low, high)`` (``[low, high)`` when ``closed``)."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value) or value >= high
            or (value < low if closed else value <= low)):
        bounds = f"{'>=' if closed else '>'} {low:g}"
        if high < math.inf:
            bounds += f" and < {high:g}"
        raise ParameterError(
            f"{name} must be a finite number {bounds}, got {value!r}"
        )
    return float(value)


class UnitParseError(ReproError, ValueError):
    """A human-readable quantity such as ``"7h"`` could not be parsed."""


class InfeasibleModelError(ReproError, ValueError):
    """The first-order model has no feasible operating point.

    Raised, for example, when the platform MTBF ``M`` is smaller than the
    constant part of the expected per-failure lost time, in which case the
    waste saturates at 1 and no checkpointing period can help.
    """


class SimulationError(ReproError, RuntimeError):
    """Internal inconsistency detected while running a simulation."""


class FatalFailureError(SimulationError):
    """An application suffered an unrecoverable (fatal) failure.

    Simulations normally *record* fatal failures in their results instead of
    raising; this exception is used by APIs explicitly asked to run to
    completion (``on_fatal="raise"``).
    """

    def __init__(self, time: float, group: tuple[int, ...], message: str = ""):
        self.time = float(time)
        self.group = tuple(group)
        super().__init__(
            message
            or f"fatal failure at t={self.time:.3f}s in group {self.group}"
        )


class ExperimentError(ReproError, RuntimeError):
    """An experiment definition is inconsistent or its inputs are missing."""


class CampaignCancelled(ReproError, RuntimeError):
    """A campaign execution was cancelled before completion.

    Raised out of :meth:`~repro.sim.executor.CampaignSession.events`
    after :meth:`~repro.sim.executor.CampaignSession.cancel` is called
    from another thread.  Cancellation is cooperative and cell-aligned:
    the producing loop stops *between* cells, so the results file is
    left a valid resumable prefix, never torn mid-cell.
    """
