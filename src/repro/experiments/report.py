"""Report rendering: ASCII tables, ASCII heat maps and CSV export.

The paper's evaluation figures are gnuplot 3-D surfaces; in a library
context the same information is delivered as (a) machine-readable grids
(CSV) and (b) terminal-friendly ASCII renderings used by the CLI and the
benchmark harnesses, so "regenerate Figure 7b" prints something a human
can compare against the paper at a glance.

Campaign reports (:func:`campaign_report`) render the same artefacts —
waste tables, waste surfaces, protocol-ratio tables — straight from a
campaign's persisted JSON Lines results (either sink format), so an
expensive sweep is analysed offline with **zero re-simulation**:
``repro-checkpoint report --from-campaign results.jsonl``.
"""

from __future__ import annotations

import io
import pathlib
from typing import Iterable, Sequence

import numpy as np

from ..errors import ParameterError
from ..units import format_time

__all__ = [
    "ascii_table",
    "ascii_heatmap",
    "series_csv",
    "grid_csv",
    "gnuplot_surface_script",
    "format_m_axis",
    "campaign_cells_from_file",
    "campaign_report",
    "store_report",
]

#: Shade ramp for heat maps, light to dark.
_SHADES = " .:-=+*#%@"


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width table (monospace-aligned)."""
    rows = [list(map(_fmt_cell, row)) for row in rows]
    headers = [str(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ParameterError("row length does not match headers")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    sep = "+".join("-" * (w + 2) for w in widths)
    out.write(sep + "\n")
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
    out.write(sep + "\n")
    for row in rows:
        out.write(" | ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    out.write(sep + "\n")
    return out.getvalue()


def _fmt_cell(value: object) -> str:
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def ascii_heatmap(
    grid: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    *,
    title: str = "",
    vmin: float | None = None,
    vmax: float | None = None,
) -> str:
    """Shade a 2-D grid with a 10-level character ramp.

    Rows are printed top-down in the given order; NaNs render as ``?``.
    A legend maps the ramp back to values.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ParameterError("grid must be 2-D")
    if grid.shape[0] != len(row_labels) or grid.shape[1] != len(col_labels):
        raise ParameterError("labels do not match grid shape")
    if not row_labels or not col_labels:
        raise ParameterError(
            f"heatmap grid must have at least one row and one column, "
            f"got {len(row_labels)}x{len(col_labels)}"
        )
    finite = grid[np.isfinite(grid)]
    lo = vmin if vmin is not None else (finite.min() if finite.size else 0.0)
    hi = vmax if vmax is not None else (finite.max() if finite.size else 1.0)
    span = hi - lo if hi > lo else 1.0
    label_w = max((len(s) for s in row_labels), default=0)
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    for i, label in enumerate(row_labels):
        chars = []
        for v in grid[i]:
            if not np.isfinite(v):
                chars.append("?")
            else:
                idx = int(np.clip((v - lo) / span * (len(_SHADES) - 1), 0,
                                  len(_SHADES) - 1))
                chars.append(_SHADES[idx])
        out.write(f"{label.rjust(label_w)} |{''.join(chars)}|\n")
    out.write(f"{' ' * label_w}  cols: {col_labels[0]} .. {col_labels[-1]}\n")
    out.write(
        f"{' ' * label_w}  scale: '{_SHADES[0]}'={lo:.3g} .. '{_SHADES[-1]}'={hi:.3g}"
        "  ('?' = undefined)\n"
    )
    return out.getvalue()


def series_csv(columns: dict[str, np.ndarray]) -> str:
    """CSV of aligned 1-D series (column name -> values)."""
    if not columns:
        raise ParameterError("need at least one column")
    arrays = {k: np.asarray(v).ravel() for k, v in columns.items()}
    lengths = {a.size for a in arrays.values()}
    if len(lengths) != 1:
        raise ParameterError(f"columns have mismatched lengths: {lengths}")
    out = io.StringIO()
    out.write(",".join(arrays.keys()) + "\n")
    for i in range(lengths.pop()):
        out.write(",".join(_fmt_cell(float(a[i])) for a in arrays.values()) + "\n")
    return out.getvalue()


def grid_csv(
    grid: np.ndarray,
    row_values: np.ndarray,
    col_values: np.ndarray,
    *,
    row_name: str = "row",
    col_name: str = "col",
    value_name: str = "value",
) -> str:
    """Long-format CSV (row, col, value) of a 2-D grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.shape != (len(row_values), len(col_values)):
        raise ParameterError("grid shape does not match axis values")
    out = io.StringIO()
    out.write(f"{row_name},{col_name},{value_name}\n")
    for i, r in enumerate(row_values):
        for j, c in enumerate(col_values):
            out.write(f"{_fmt_cell(float(r))},{_fmt_cell(float(c))},"
                      f"{_fmt_cell(float(grid[i, j]))}\n")
    return out.getvalue()


def gnuplot_surface_script(
    grid: np.ndarray,
    row_values: np.ndarray,
    col_values: np.ndarray,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    zlabel: str,
    data_file: str,
    output_file: str = "surface.png",
    log_x: bool = False,
) -> str:
    """A gnuplot script rendering a grid as the paper's 3-D surfaces.

    The paper's Figures 4/6/7/9 are gnuplot ``splot`` surfaces; emitting
    the same script next to the CSV lets anyone regenerate a
    visually comparable plot with stock gnuplot.  ``data_file`` must hold
    the long-format CSV from :func:`grid_csv`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.shape != (len(row_values), len(col_values)):
        raise ParameterError("grid shape does not match axis values")
    lines = [
        "# gnuplot script generated by repro (matches the paper's splot style)",
        f"set terminal pngcairo size 900,700",
        f"set output '{output_file}'",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        f"set zlabel '{zlabel}' rotate",
        "set datafile separator ','",
        "set dgrid3d "
        f"{len(row_values)},{len(col_values)}",
        "set hidden3d",
        "set zrange [0:1]",
    ]
    if log_x:
        lines.append("set logscale x")
    lines += [
        f"splot '{data_file}' every ::1 using 1:2:3 with lines notitle",
        "unset output",
    ]
    return "\n".join(lines) + "\n"


def format_m_axis(m_values: np.ndarray) -> list[str]:
    """Human labels for an MTBF axis (``60 -> '1min'``)."""
    return [format_time(float(m)) for m in np.asarray(m_values).ravel()]


# ----------------------------------------------------------------------
# Campaign reports (from persisted JSON Lines, zero re-simulation)
# ----------------------------------------------------------------------
def campaign_cells_from_file(path):
    """Reconstruct per-cell summaries from a campaign results file.

    Accepts both sink formats (plain grid-order records and out-of-order
    frames — :func:`repro.io.scan_campaign_runs` decides per line), groups
    the raw runs by their recorded (protocol, M, φ) identity, and rebuilds
    one :class:`~repro.sim.campaign.CampaignCell` per group, protocol-major
    in first-seen protocol order with M and φ ascending — the campaign
    grid order, whatever order the records landed in.

    The file is **streamed**: each record updates its cell's
    :class:`~repro.sim.results.RunningMoments` and a success count, and
    is dropped, so memory is proportional to the grid, never to the
    replica count — a million-record adaptive campaign reports in
    constant space.  Those moments are the kernel every summary reads
    (the live session, the store, the adaptive cursors), so each cell's
    summary is the one the campaign's own run reported, bit for bit.
    The returned cells carry summaries only (``cell.results`` is
    empty).
    """
    from .. import io as repro_io
    from ..sim.campaign import CampaignCell
    from ..sim.results import MonteCarloSummary, RunningMoments

    groups: dict[tuple[str, float, float], RunningMoments] = {}
    successes: dict[tuple[str, float, float], int] = {}
    protocol_order: dict[str, int] = {}
    for position, (cell_index, run) in enumerate(
        repro_io.scan_campaign_runs(path)
    ):
        meta = run.meta
        protocol = meta.get("protocol")
        if (not isinstance(protocol, str) or "M" not in meta
                or "phi" not in meta):
            raise ParameterError(
                f"{path}: record without (protocol, M, phi) identity "
                "metadata; not a campaign results file"
            )
        key = (protocol, float(meta["M"]), float(meta["phi"]))
        # Protocols sort by their earliest *grid* position — the frame's
        # cell index when available, else the line position (plain files
        # are written in grid order).  First-seen order would depend on
        # cell completion order for parallel framed campaigns, making two
        # reports of the same campaign disagree.
        rank = position if cell_index is None else cell_index
        protocol_order[protocol] = min(
            protocol_order.get(protocol, rank), rank
        )
        moments = groups.get(key)
        if moments is None:
            moments = groups[key] = RunningMoments()
            successes[key] = 0
        moments.push(run.waste)
        successes[key] += run.succeeded

    if not groups:
        raise ParameterError(
            f"{path}: no intact campaign records found — the file is "
            "empty, or its only content is a torn first write; nothing "
            "to report (was the campaign interrupted before any cell "
            "completed?)"
        )

    cells = []
    for key in sorted(
        groups, key=lambda k: (protocol_order[k[0]], k[1], k[2])
    ):
        protocol, m, phi = key
        summary = MonteCarloSummary.from_moments(
            groups[key], successes=successes[key],
            meta={"protocol": protocol, "M": m, "phi": phi},
        )
        cells.append(CampaignCell(
            protocol=protocol, M=m, phi=phi, summary=summary,
        ))
    return cells


def campaign_report(path) -> str:
    """Render a campaign's persisted results as tables and surfaces.

    Sections: a per-cell waste table (with replica counts and CI
    half-widths — adaptive campaigns show their uneven budgets here), a
    waste surface per protocol when the grid spans both axes, and a
    protocol-ratio table against the first protocol in the file (the
    paper's double-vs-triple comparison, from disk).
    """
    path = pathlib.Path(path)
    return _render_campaign_cells(campaign_cells_from_file(path),
                                  source=path.name)


def store_report(store, spec, resolved=None) -> str:
    """The campaign report of a spec, resolved straight from a results
    store (:mod:`repro.store`) — no results file, zero re-simulation.

    Every grid cell must be present in the store (populated by earlier
    ``--store`` campaigns); missing cells raise with grid coordinates
    rather than silently reporting a partial sweep.  ``resolved`` is a
    :meth:`~repro.store.CampaignStore.resolve` result of ``store`` the
    caller already holds, passed through to
    :func:`~repro.store.cells_from_store`.
    """
    from ..store import CampaignStore, cells_from_store

    if not isinstance(store, CampaignStore):
        store = CampaignStore(store, create=False)
    cells = cells_from_store(store, spec, resolved)
    return _render_campaign_cells(cells, source=f"store {store.root.name}")


def _render_campaign_cells(cells, *, source: str) -> str:
    """The shared rendering behind :func:`campaign_report` and
    :func:`store_report`: identical cells produce identical text, so a
    store-resolved report is comparable line-for-line with a results-file
    one."""
    out = io.StringIO()
    rows = []
    for c in cells:
        s = c.summary
        half = (s.ci_high - s.ci_low) / 2.0
        rows.append([
            c.protocol, c.M, c.phi, s.n_replicas,
            c.mean_waste, half, c.success_rate,
        ])
    out.write(ascii_table(
        ["protocol", "M", "phi", "replicas", "mean waste", "ci half-width",
         "success rate"],
        rows,
        title=f"=== campaign results ({source}, "
              f"{sum(c.summary.n_replicas for c in cells)} runs, "
              "no re-simulation) ===",
    ))

    protocols = list(dict.fromkeys(c.protocol for c in cells))
    m_values = sorted({c.M for c in cells})
    phi_values = sorted({c.phi for c in cells})
    by_key = {(c.protocol, c.M, c.phi): c for c in cells}

    if len(m_values) >= 2 and len(phi_values) >= 2:
        col_labels = [f"{p:g}" for p in phi_values]
        for protocol in protocols:
            grid = np.full((len(m_values), len(phi_values)), np.nan)
            for i, m in enumerate(m_values):
                for j, phi in enumerate(phi_values):
                    cell = by_key.get((protocol, m, phi))
                    if cell is not None:
                        grid[i, j] = cell.mean_waste
            out.write("\n")
            out.write(ascii_heatmap(
                grid, format_m_axis(np.asarray(m_values)), col_labels,
                title=f"--- mean waste surface: {protocol} "
                      "(rows M, cols phi) ---",
            ))

    if len(protocols) >= 2:
        base = protocols[0]
        headers = ["M", "phi"] + [f"{p}/{base}" for p in protocols[1:]]
        ratio_rows = []
        for m in m_values:
            for phi in phi_values:
                base_cell = by_key.get((base, m, phi))
                if base_cell is None:
                    continue
                base_waste = base_cell.mean_waste
                row: list[object] = [m, phi]
                for p in protocols[1:]:
                    cell = by_key.get((p, m, phi))
                    if cell is None or not np.isfinite(base_waste) \
                            or base_waste <= 0:
                        row.append(float("nan"))
                    else:
                        row.append(cell.mean_waste / base_waste)
                ratio_rows.append(row)
        if ratio_rows:
            out.write("\n")
            out.write(ascii_table(
                headers, ratio_rows,
                title=f"--- waste ratios vs {base} "
                      "(>1: costlier than baseline) ---",
            ))
    return out.getvalue()
