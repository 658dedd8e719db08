"""Entry points import only what they compute with.

Each case runs in a fresh interpreter (``sys.modules`` of the test
process already holds whatever other tests imported) and reads back the
modules it loaded.  ``scipy.stats`` alone costs ~0.7 s of imports, and
the quantiles need only the ``scipy.special`` kernels it calls.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

#: Prints the loaded modules as the script's last line: a JSON object
#: of name -> whether the module is a package.
_REPORT = """
import json, sys
print(json.dumps({name: hasattr(module, "__path__")
                  for name, module in sys.modules.items()}))
"""


def _loaded(script: str, cwd: pathlib.Path) -> dict[str, bool]:
    env = os.environ.copy()
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + _REPORT],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_packages(modules: dict[str, bool]) -> set[str]:
    """The public scipy subpackages loaded (``scipy.special``, not
    ``scipy._lib`` or the ``scipy.version`` module)."""
    return {name for name, package in modules.items()
            if package and name.startswith("scipy.") and name.count(".") == 1
            and not name.startswith("scipy._")}


class TestEntryPointImports:
    def test_entry_points_load_no_stats_optimize_or_networkx(
            self, tmp_path):
        modules = _loaded("""
            import repro, repro.cli, repro.service
            repro.cli.main(["list"])
        """, tmp_path)
        assert "repro.cli" in modules and "repro.service" in modules
        heavy = {name for name in modules
                 if name.split(".")[0] == "networkx"
                 or name.startswith(("scipy.stats", "scipy.optimize"))}
        assert heavy == set()

    def test_campaign_and_report_add_only_scipy_special(self, tmp_path):
        results = tmp_path / "smoke.jsonl"
        modules = _loaded(f"""
            import contextlib, io
            import repro.cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert repro.cli.main(["campaign", "--preset", "smoke",
                                       "--results", {str(results)!r}]) == 0
                assert repro.cli.main(["report", "--from-campaign",
                                       {str(results)!r}]) == 0
        """, tmp_path)
        assert results.exists()
        assert "repro.sim.executor" in modules
        assert _scipy_packages(modules) == {"scipy.special"}
