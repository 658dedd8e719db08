"""Experiment registry: id → generator, for the CLI and the bench harness.

Each entry renders to text via ``.render()`` and exports CSV via
``.to_csv()`` (a string or a dict of per-panel strings).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any

from ..errors import ExperimentError

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """A paper artefact, generated by the module named ``key``: imported on
    first use, as the figures pull in the analysis layer and scipy.optimize."""

    key: str
    title: str
    paper_ref: str

    def generate(self, **kwargs) -> Any:
        return import_module(f"{__package__}.{self.key}").generate(**kwargs)


EXPERIMENTS: dict[str, Experiment] = {
    exp.key: exp
    for exp in (
        Experiment("intro", "Exascale reliability arithmetic", "Section I"),
        Experiment("table1", "Scenario parameters", "Table I"),
        Experiment("fig4", "Waste surfaces, Base", "Figure 4"),
        Experiment("fig5", "Waste ratios, Base, M=7h", "Figure 5"),
        Experiment("fig6", "Success-probability ratios, Base", "Figure 6"),
        Experiment("fig7", "Waste surfaces, Exa", "Figure 7"),
        Experiment("fig8", "Waste ratios, Exa, M=7h", "Figure 8"),
        Experiment("fig9", "Success-probability ratios, Exa", "Figure 9"),
    )
}


def get_experiment(key: str) -> Experiment:
    try:
        return EXPERIMENTS[key]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {key!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(key: str, **kwargs) -> Any:
    """Generate the artefact's data object."""
    return get_experiment(key).generate(**kwargs)
