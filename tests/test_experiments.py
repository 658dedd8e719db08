"""Experiment layer: scenarios, figure generators, report rendering, registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro import scenarios
from repro.errors import ExperimentError, ParameterError
from repro.experiments import fig4, fig5, fig6, fig7, fig8, fig9, report, table1
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.units import DAY, HOUR, MINUTE


class TestScenarios:
    def test_table1_base_row(self):
        s = scenarios.BASE
        assert (s.D, s.delta, s.R, s.alpha) == (0.0, 2.0, 4.0, 10.0)
        assert s.n == 324 * 32

    def test_table1_exa_row(self):
        s = scenarios.EXA
        assert (s.D, s.delta, s.R, s.alpha) == (60.0, 30.0, 60.0, 10.0)
        assert s.n == 10**6

    def test_parameters_factory(self):
        p = scenarios.BASE.parameters(M="7h")
        assert p.M == 7 * HOUR
        assert p.n == 10368
        p2 = scenarios.BASE.parameters(M=60, n=64)
        assert p2.n == 64

    def test_grids(self):
        s = scenarios.BASE
        assert s.phi_grid(5).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        m = s.m_grid(9)
        assert m[0] == pytest.approx(15.0)
        assert m[-1] == pytest.approx(DAY)
        mg, tg = s.risk_grids(6, 5)
        assert mg[-1] == pytest.approx(30 * MINUTE)
        assert tg[-1] == pytest.approx(30 * DAY)
        assert mg[0] > 0

    def test_registry(self):
        assert scenarios.get_scenario("base") is scenarios.BASE
        assert scenarios.get_scenario(scenarios.EXA) is scenarios.EXA
        with pytest.raises(ParameterError):
            scenarios.get_scenario("petascale")

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            scenarios.BASE.phi_grid(1)


class TestTable1:
    def test_render_contains_values(self):
        text = table1.generate().render()
        assert "base" in text and "exa" in text
        assert "1000000" in text
        assert "0 <= phi <= 60" in text

    def test_csv(self):
        csv = table1.generate().to_csv()
        assert csv.splitlines()[0] == "D,delta,R,alpha,n"


class TestFigureGenerators:
    def test_fig4_panels(self):
        data = fig4.generate(num_phi=7, num_m=9)
        assert [p.protocol for p in data.panels] == [
            "double-bof", "double-nbl", "triple",
        ]
        text = data.render(max_rows=5, max_cols=7)
        assert "fig4" in text and "scale" in text
        csv = data.to_csv()
        assert set(csv) == {"double-bof", "double-nbl", "triple"}

    def test_fig5_series(self):
        data = fig5.generate(num_phi=11)
        assert data.M == pytest.approx(7 * HOUR)
        ratios = data.series["Triple/DoubleNBL"]
        assert ratios[0] == pytest.approx(0.2526, abs=0.001)
        assert "phi/R" in data.render()
        assert data.to_csv().startswith("phi_over_R,")

    def test_fig6_panels(self):
        data = fig6.generate(num_m=5, num_t=4)
        assert len(data.panels) == 3  # caption's two + body-text variant
        keys = set(data.to_csv())
        assert "double-nbl_over_double-bof" in keys
        assert "double-bof_over_triple" in keys
        assert "double-nbl_over_triple" in keys

    def test_fig7_uses_exa(self):
        data = fig7.generate(num_phi=5, num_m=7)
        assert data.scenario == "exa"

    def test_fig8_gain(self):
        data = fig8.generate(num_phi=101)
        tri = data.series["Triple/DoubleNBL"]
        x = data.phi_over_r
        idx = np.argmin(np.abs(x - 0.1))
        assert tri[idx] < 0.80  # ≈25% gain at φ/R = 1/10 (§VI-B)

    def test_fig9_separation_stronger_than_fig6(self):
        """§VI-B: BOF's reliability edge over NBL is larger on Exa.

        Compared at matched M = 60 s with each figure's own horizon
        (30 days for Base, 60 weeks for Exa) — the low-M corner where the
        paper reads off the effect.
        """
        from repro import DOUBLE_BOF, DOUBLE_NBL, success_probability

        def nbl_over_bof(scenario, T):
            params = scenario.parameters(M=60.0)
            p_nbl = success_probability(DOUBLE_NBL, params, 0.0, T)
            p_bof = success_probability(DOUBLE_BOF, params, 0.0, T)
            return p_nbl / p_bof

        r_base = nbl_over_bof(scenarios.BASE, 30 * DAY)
        r_exa = nbl_over_bof(scenarios.EXA, 60 * 7 * DAY)
        assert r_exa < 0.25 * r_base


class TestRegistry:
    def test_all_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "intro", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        }

    def test_run_experiment(self):
        data = run_experiment("fig5", num_phi=5)
        assert data.figure_id == "fig5"

    @pytest.mark.parametrize("key, sizes", [
        ("intro", {}), ("table1", {}),
        ("fig4", {"num_phi": 5, "num_m": 5}), ("fig5", {"num_phi": 5}),
        ("fig6", {"num_m": 3, "num_t": 3}),
        ("fig7", {"num_phi": 5, "num_m": 5}), ("fig8", {"num_phi": 5}),
        ("fig9", {"num_m": 3, "num_t": 3}),
    ])
    def test_every_key_runs(self, key, sizes):
        """Each registered key imports its module on first use and
        generates an artefact that renders."""
        assert run_experiment(key, **sizes).render()

    def test_unknown(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")


class TestReport:
    def test_ascii_table(self):
        text = report.ascii_table(["a", "b"], [[1, 2.5], [3, 4.0]], title="T")
        assert "T" in text and "2.5" in text
        with pytest.raises(ParameterError):
            report.ascii_table(["a"], [[1, 2]])

    def test_heatmap(self):
        grid = np.array([[0.0, 0.5], [1.0, np.nan]])
        text = report.ascii_heatmap(grid, ["r0", "r1"], ["c0", "c1"], title="H")
        assert "?" in text  # NaN marker
        assert "scale" in text
        with pytest.raises(ParameterError):
            report.ascii_heatmap(grid, ["r0"], ["c0", "c1"])

    def test_heatmap_rejects_zero_width_grid(self):
        """Regression: an empty col_labels axis used to escape as an
        IndexError from the legend line instead of a clear refusal."""
        with pytest.raises(ParameterError, match="at least one row"):
            report.ascii_heatmap(np.empty((2, 0)), ["r0", "r1"], [])
        with pytest.raises(ParameterError, match="at least one row"):
            report.ascii_heatmap(np.empty((0, 2)), [], ["c0", "c1"])
        with pytest.raises(ParameterError, match="at least one row"):
            report.ascii_heatmap(np.empty((0, 0)), [], [])

    def test_campaign_report_empty_valid_prefix(self, tmp_path):
        """A campaign file whose valid prefix is empty gets an actionable
        message, not a bare 'no records'."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ParameterError, match="no intact campaign"):
            report.campaign_report(empty)
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"format": "repro-resu')  # torn first write
        with pytest.raises(ParameterError, match="torn first write"):
            report.campaign_report(torn)

    def test_series_csv(self):
        csv = report.series_csv({"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])})
        assert csv.splitlines() == ["x,y", "1,3", "2,4"]
        with pytest.raises(ParameterError):
            report.series_csv({"x": np.array([1.0]), "y": np.array([1.0, 2.0])})
        with pytest.raises(ParameterError):
            report.series_csv({})

    def test_grid_csv(self):
        csv = report.grid_csv(np.eye(2), np.array([1.0, 2.0]),
                              np.array([3.0, 4.0]), value_name="w")
        lines = csv.splitlines()
        assert lines[0] == "row,col,w"
        assert len(lines) == 5
        with pytest.raises(ParameterError):
            report.grid_csv(np.eye(3), np.array([1.0]), np.array([1.0]))

    def test_format_m_axis(self):
        labels = report.format_m_axis(np.array([60.0, 3600.0]))
        assert labels == ["1min", "1h"]

    def test_gnuplot_script(self):
        script = report.gnuplot_surface_script(
            np.eye(3), np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]),
            title="T", xlabel="x", ylabel="y", zlabel="z",
            data_file="d.csv", log_x=True,
        )
        assert "splot 'd.csv'" in script
        assert "set dgrid3d 3,3" in script
        assert "set logscale x" in script
        with pytest.raises(ParameterError):
            report.gnuplot_surface_script(
                np.eye(2), np.array([1.0]), np.array([1.0]),
                title="T", xlabel="x", ylabel="y", zlabel="z",
                data_file="d.csv",
            )

    def test_figures_emit_gnuplot(self):
        surf = fig4.generate(num_phi=5, num_m=5)
        scripts = surf.to_gnuplot()
        assert set(scripts) == {"double-bof", "double-nbl", "triple"}
        assert all("splot" in s for s in scripts.values())
        risk = fig6.generate(num_m=3, num_t=3)
        assert len(risk.to_gnuplot()) == 3
