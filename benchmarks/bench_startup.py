"""Start-up cost of the entry points, one fresh interpreter per launch.

Not a paper artefact: every CLI command, queue worker and service
daemon pays its imports before it does any work, so this prints the
median wall time of ``LAUNCHES`` launches each (round-robin, so a slow
phase of the host hits every entry point alike) of

* ``import repro``, ``import repro.cli``, ``import repro.service``;
* ``python -m repro.cli list`` (what ``repro-checkpoint list`` runs);
* ``serve`` on a small prepared store (the ``smoke`` preset, compacted),
  to its ``listening on`` line and to its first warm ``GET /reports``
  reply.

It gates the module sets, not the times: no entry point loads
``scipy.stats``, ``scipy.optimize`` or ``networkx``, and a daemon that
has answered a report has added no scipy package but ``scipy.special``.

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_startup.py
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import urllib.parse
import urllib.request

from repro.experiments.scenarios import get_campaign_preset
from repro.sim.executor import execute_spec
from repro.store import CampaignStore

LAUNCHES = 10
IMPORTS = ("repro", "repro.cli", "repro.service")
#: Modules no entry point computes with (``scipy.stats`` alone is ~0.7 s).
HEAVY = ("scipy.stats", "scipy.optimize", "networkx")

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

#: Appended to each module-set script: prints the loaded modules as a
#: JSON object of name -> whether the module is a package.
_REPORT = """
import json, sys
print(json.dumps({name: hasattr(module, "__path__")
                  for name, module in sys.modules.items()}))
"""
#: Starts the service as ``serve`` does and answers one warm report.
_DAEMON = """
import sys, urllib.request
from repro.service import CampaignService
with CampaignService(store=sys.argv[1], data_dir=sys.argv[1] + "/service",
                     host="127.0.0.1", port=0) as service:
    urllib.request.urlopen(service.url(sys.argv[2]), timeout=60).read()
"""


def _env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _modules(script: str, *args: str) -> dict[str, bool]:
    done = subprocess.run([sys.executable, "-c", script + _REPORT, *args],
                          env=_env(), check=True, capture_output=True,
                          text=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def _heavy(modules) -> set[str]:
    return {name for name in modules if name.startswith(HEAVY)}


def _timed(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _daemon(store: pathlib.Path, url_path: str) -> tuple[float, float]:
    """One ``serve`` launch: seconds to its ``listening on`` line and to
    its first ``GET /reports`` reply."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
         "--port", "0"], env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        listening = time.perf_counter() - start
        assert "listening on" in line, line
        url = line.split("listening on ", 1)[1].split()[0]
        with urllib.request.urlopen(url + url_path, timeout=60) as reply:
            assert json.loads(reply.read())["simulated_cells"] == 0
        return listening, time.perf_counter() - start
    finally:
        proc.terminate()
        proc.wait(timeout=30)


def test_entry_point_startup(tmp_path, record):
    for name in IMPORTS:
        assert not _heavy(_modules(f"import {name}")), name

    spec = get_campaign_preset("smoke").spec()
    store = CampaignStore(tmp_path / "store", create=True)
    execute_spec(spec, store=store)
    store.compact()
    url_path = "/reports?" + urllib.parse.urlencode(
        {"spec": json.dumps(spec.to_dict())})
    loaded = _modules(_DAEMON, str(store.root), url_path)
    assert not _heavy(loaded)
    assert {name for name, package in loaded.items()
            if package and name.startswith("scipy.") and name.count(".") == 1
            and not name.startswith("scipy._")} == {"scipy.special"}

    commands = {f"import {name}": [sys.executable, "-c", f"import {name}"]
                for name in IMPORTS}
    commands["repro-checkpoint list"] = [sys.executable, "-m", "repro.cli",
                                         "list"]
    times: dict[str, list[float]] = {label: [] for label in commands}
    times["serve: listening"], times["serve: first /reports"] = [], []
    for _ in range(LAUNCHES):
        for label, argv in commands.items():
            times[label].append(_timed(argv))
        listening, replied = _daemon(store.root, url_path)
        times["serve: listening"].append(listening)
        times["serve: first /reports"].append(replied)

    record(f"Entry-point start-up (median of {LAUNCHES} launches)", [
        f"{label:24s} {statistics.median(samples):.3f} s "
        f"(min {min(samples):.3f}, max {max(samples):.3f})"
        for label, samples in times.items()])
