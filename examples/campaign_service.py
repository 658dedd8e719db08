#!/usr/bin/env python3
"""The campaign service: submit, stream, and query over HTTP.

Covers the daemon surface in ~80 lines, all through real HTTP against
an in-process `CampaignService` (what `repro-checkpoint serve` runs):
  * start the daemon on an ephemeral port over a fresh store,
  * POST a CampaignSpec and follow its NDJSON event stream live,
  * decode the stream with the same wire format the tests property-check,
    and check its grammar: one CellFinished per grid cell,
  * re-query the now-warm store: a full report with zero simulations,
  * shut down gracefully (in-flight campaigns drain, never tear).

Run:  python examples/campaign_service.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.parse
import urllib.request
from pathlib import Path

from repro.experiments import scenarios
from repro.service import CampaignService
from repro.sim.events import event_from_dict


def fetch(url: str, payload: dict | None = None):
    data = None if payload is None else json.dumps(payload).encode()
    with urllib.request.urlopen(
        urllib.request.Request(url, data=data), timeout=60
    ) as resp:
        return json.loads(resp.read())


def main() -> None:
    spec = scenarios.get_campaign_preset("smoke").spec()

    with tempfile.TemporaryDirectory() as tmp:
        service = CampaignService(
            store=Path(tmp) / "store", data_dir=Path(tmp) / "service",
        )
        with service:
            print(f"daemon listening on {service.url()}")

            # Submit: the body is spec.to_dict(), the same JSON value
            # `campaign --spec FILE` reads.  Identical specs map to one
            # campaign id, so re-submitting is free.
            submitted = fetch(service.url("/campaigns"), spec.to_dict())
            cid = submitted["id"]
            print(f"submitted campaign {cid} ({submitted['state']})")

            # Follow the live event stream: NDJSON, one wire dict per
            # line, decodable with the library's own event codec.  The
            # stream replays from the start and ends when the campaign
            # is terminal; each cell's results travel exactly once.
            kinds: dict[str, int] = {}
            with urllib.request.urlopen(
                service.url(f"/campaigns/{cid}/events"), timeout=120
            ) as stream:
                for line in stream:
                    event = event_from_dict(json.loads(line))
                    name = type(event).__name__
                    kinds[name] = kinds.get(name, 0) + 1
            print("event stream:", ", ".join(
                f"{n}x{c}" for n, c in kinds.items()))

            status = fetch(service.url(f"/campaigns/{cid}"))
            assert status["state"] == "finished"
            print(f"progress: {status['progress']}")
            # The grammar: CampaignStarted CellFinished* CampaignFinished,
            # one CellFinished per grid cell.
            cells = status["progress"]["cells_total"]
            assert kinds == {"CampaignStarted": 1, "CellFinished": cells,
                             "CampaignFinished": 1}, kinds

            # The store is now warm for this spec: the report renders
            # from cached cells, with zero simulations — the query path
            # a fleet of clients would hammer.
            query = urllib.parse.urlencode(
                {"spec": json.dumps(spec.to_dict())})
            report = fetch(service.url("/reports?" + query))
            assert report["simulated_cells"] == 0
            cov = report["coverage"]
            print(f"warm report ({cov['present']}/{cov['total']} replica "
                  f"entries in store, 0 simulated):\n")
            print(report["report"])

            health = fetch(service.url("/healthz"))
            print(f"store cache: {health['store']['cache']}")
        print("daemon stopped (drained cleanly)")


if __name__ == "__main__":
    main()
