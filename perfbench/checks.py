"""Output checks: every measured operation's output is verified.

Each check returns ``None`` when the output is right and a one-line
description of the problem otherwise, so a run can count failures
without stopping at the first.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
from collections import defaultdict


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(data: bytes, expected_sha256: str) -> str | None:
    """DES results bytes must match the digest committed with the
    benchmark: the DES output never moves."""
    digest = sha256_hex(data)
    if digest != expected_sha256:
        return (f"results sha256 {digest[:16]}… differs from the "
                f"committed {expected_sha256[:16]}…")
    return None


def check_same_bytes(data: bytes, reference: bytes) -> str | None:
    """A warm re-run must write exactly the cold run's bytes."""
    if data == reference:
        return None
    n = min(len(data), len(reference))
    first = next((i for i in range(n) if data[i] != reference[i]), n)
    return (f"results differ from the cold file at byte {first} "
            f"({len(data)} vs {len(reference)} bytes)")


def check_reply(status: int, payload: dict | None,
                expected_report: str) -> str | None:
    """A warm ``GET /reports`` reply: 200, zero simulated cells, and the
    report text the in-process ``store_report`` renders."""
    if status != 200:
        return f"HTTP {status}"
    if payload is None:
        return "reply is not a JSON object"
    if payload.get("simulated_cells") != 0:
        return f"simulated_cells={payload.get('simulated_cells')!r}"
    if payload.get("report") != expected_report:
        return "report text differs from the in-process store_report"
    return None


# ----------------------------------------------------------------------
# Vectorized statistical-equivalence contract
# ----------------------------------------------------------------------
def waste_stats(path: str | pathlib.Path) -> dict[tuple, tuple]:
    """Per grid cell of a results file: ``(mean, ci)`` of the completed
    replicas' waste (``None`` where undefined).

    ``ci`` is the Student-t 95% half-width of
    :func:`repro.sim.results.ci_half_width`, the definition the engine's
    contract is stated in.
    """
    from repro.io import iter_campaign_runs
    from repro.sim.results import ci_half_width

    samples: dict[tuple, list[float]] = defaultdict(list)
    for run in iter_campaign_runs(path):
        meta = run.meta
        cell = (meta["protocol"], float(meta["M"]), float(meta["phi"]))
        samples[cell].append(run.waste)
    out = {}
    for cell, wastes in samples.items():
        finite = [w for w in wastes if math.isfinite(w)]
        mean = sum(finite) / len(finite) if finite else None
        ci = ci_half_width(finite) if len(finite) >= 2 else None
        out[cell] = (mean, ci if ci is not None and math.isfinite(ci)
                     else None)
    return out


def equivalence_problems(observed: dict[tuple, tuple],
                         reference: dict[tuple, tuple]) -> list[str]:
    """Cells whose mean waste breaks the contract against the DES
    reference.

    ``observed`` maps cell → ``(mean, ci)``; ``reference`` maps cell →
    ``(mean, ci, allowance)``.  A cell passes when
    ``|mean − ref_mean| ≤ ci + ref_ci + allowance``; an undefined CI
    (fewer than two completed replicas) bounds nothing.  A cell present
    on one side only, or completing on one side only, fails.
    """
    problems = []
    for cell in sorted(set(observed) | set(reference)):
        if cell not in observed or cell not in reference:
            problems.append(f"{cell}: cell missing on one side")
            continue
        mean, ci = observed[cell]
        ref_mean, ref_ci, allowance = reference[cell]
        if (mean is None) != (ref_mean is None):
            problems.append(f"{cell}: completed replicas on one side only")
            continue
        if mean is None or ci is None or ref_ci is None:
            continue
        tolerance = ci + ref_ci + allowance
        if abs(mean - ref_mean) > tolerance:
            problems.append(
                f"{cell}: mean waste {mean:.4f} vs DES {ref_mean:.4f} "
                f"(tolerance {tolerance:.4f})")
    return problems


def reference_cells(rows) -> dict[tuple, tuple]:
    """The committed reference rows as :func:`equivalence_problems`
    takes them."""
    return {
        (row["protocol"], float(row["M"]), float(row["phi"])):
            (row["mean"], row["ci"], row["allowance"])
        for row in rows
    }
