"""Fleet-scale store: warm-lookup latency must stay flat with size.

Not a paper artefact — this measures the tentpole claim of the store's
performance layer (segments + hot-cell cache): per-lookup cost on a
warm, lookup-heavy replay must be *independent of store size*, because
a lookup is one in-memory index probe + one ``pread`` and a cache hit
is no I/O at all.  The baseline it must beat is the store exactly as
publish leaves it — many writer segments, read without the cache.

For each store size (10k / 100k / 500k cell entries by default;
override with ``STORE_SCALE_SIZES=1000,5000`` for a quick local pass):

* **populate** — publish N synthetic cell entries through the ordinary
  append path, one store instance (synthetic keys varying only the
  seed field, each entry a prefix of ``REPLICAS`` copies of one
  template result, so half a million entries need no simulation);
* **writer**   — per-lookup latency against the uncompacted writer
  segments with the cache disabled (full re-verification per hit);
* **segment**  — the same probes after ``compact()`` merged them into
  one segment (index + pread, still full verification);
* **cached**   — the same probes served by the hot-cell cache
  (digest-level re-check: the warm-replay steady state).

Gates (the CI nightly fails if either regresses):

* cached warm lookups at the top size are **≥ 10x** faster than the
  uncached writer-segment baseline at that size;
* cached per-lookup latency at the top size is within **2x** of the
  smallest size — flat, not merely faster.

A campaign-level coda re-asserts the transparency acceptance criterion
on real simulations: ``store export`` of a spec is byte-identical
before and after compaction.
"""

from __future__ import annotations

import os
import time

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.io import dump_result
from repro.sim.campaign import CampaignConfig
from repro.sim.executor import execute_spec
from repro.sim.results import DesResult
from repro.sim.spec import CampaignSpec, ExecutionPolicy
from repro.store import ENTRY_VERSION, CampaignStore, HotCellCache

SIZES = tuple(
    int(s) for s in
    os.environ.get("STORE_SCALE_SIZES", "10000,100000,500000").split(",")
)
#: Lookups per timed pass (spread evenly across the key space).
PROBES = int(os.environ.get("STORE_SCALE_PROBES", "2000"))
REPEATS = 3
#: Replicas per synthetic cell entry (every lookup verifies them all).
REPLICAS = 4

#: One synthetic cell key per entry: the shape of a real
#: :func:`repro.store.cell_key`, varying only the seed field, so a
#: 500k-entry store needs no simulation time to build.
_KEY_TEMPLATE = {
    "format": "repro-store-entry",
    "version": ENTRY_VERSION,
    "protocol": "double-nbl",
    "phi": 1.0,
    "work_target": 900.0,
    "max_time": None,
    "params": {"M": 600.0, "n": 12},
    "distribution": None,
    "trace_seed": None,
}

_RECORDS = (dump_result(DesResult(
    status="success", makespan=40_000.0, work_target=36_000.0,
    work_done=36_000.0, failures=12, rollbacks=11, work_lost=480.0,
    commits=120, risk_time=3_600.0,
)),) * REPLICAS


def _key(i: int) -> dict:
    return dict(_KEY_TEMPLATE, seed=i)


def _probe_keys(n: int) -> list[dict]:
    step = max(1, n // PROBES)
    return [_key(i) for i in range(0, n, step)][:PROBES]


def _per_lookup(store: CampaignStore, keys: list[dict]) -> float:
    """Best-of-N per-lookup seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for key in keys:
            if store.lookup(key) is None:
                raise AssertionError("benchmark store lost an entry")
        best = min(best, time.perf_counter() - start)
    return best / len(keys)


def test_warm_lookup_latency_flat_with_store_size(tmp_path, record):
    lines = []
    writer_us: dict[int, float] = {}
    segment_us: dict[int, float] = {}
    cached_us: dict[int, float] = {}

    for n in SIZES:
        store_dir = tmp_path / f"store-{n}"
        writer = CampaignStore(store_dir)
        start = time.perf_counter()
        for i in range(n):
            writer.publish(_key(i), _RECORDS)
        t_populate = time.perf_counter() - start
        keys = _probe_keys(n)

        uncompacted = CampaignStore(store_dir, cache=None)
        writer_us[n] = _per_lookup(uncompacted, keys) * 1e6

        start = time.perf_counter()
        report = uncompacted.compact()
        t_compact = time.perf_counter() - start
        assert report.packed_entries == n and report.segments_total == 1

        segment_us[n] = _per_lookup(
            CampaignStore(store_dir, cache=None), keys) * 1e6

        cached = CampaignStore(store_dir, cache=HotCellCache())
        for key in keys:  # admit the probes, full verification
            assert cached.lookup(key) is not None
        cached_us[n] = _per_lookup(cached, keys) * 1e6

        lines.append(
            f"{n:>7} cell entries: populate {t_populate:5.1f}s, compact "
            f"{t_compact:5.1f}s; per-lookup writer {writer_us[n]:7.1f}us, "
            f"segment {segment_us[n]:6.1f}us, cached {cached_us[n]:5.2f}us"
        )

    top, small = SIZES[-1], SIZES[0]
    speedup = writer_us[top] / cached_us[top]
    flatness = cached_us[top] / cached_us[small]
    lines.append(
        f"gates: cached-vs-writer at {top} = {speedup:.0f}x (need >= 10x); "
        f"cached {small} -> {top} = {flatness:.2f}x (need <= 2x)"
    )
    record("fleet-scale store: lookup latency vs store size", lines)

    assert speedup >= 10.0, (
        f"warm cached replay at {top} entries is only {speedup:.1f}x "
        f"faster than uncached writer segments (need >= 10x)"
    )
    assert flatness <= 2.0, (
        f"warm-lookup latency grew {flatness:.2f}x from {small} to "
        f"{top} entries (must stay within 2x: flat, not merely fast)"
    )
    # The segment path (no cache) must not regress with size either.
    assert segment_us[top] <= 2.0 * segment_us[small], (
        "uncached segment lookups slowed down with store size: "
        f"{segment_us[small]:.1f}us -> {segment_us[top]:.1f}us"
    )


def test_export_byte_identical_across_compaction(tmp_path, record):
    """Acceptance coda on real simulations: compaction changes no
    emitted byte."""
    spec = CampaignSpec(
        grid=CampaignConfig(
            protocols=(DOUBLE_NBL, TRIPLE),
            base_params=scenarios.BASE.parameters(M=600.0, n=12),
            m_values=(300.0, 600.0),
            phi_values=(1.0,),
            work_target=900.0,
            replicas=2,
            seed=2027,
        ),
        policy=ExecutionPolicy(),
    )
    store_dir = tmp_path / "store"
    execute_spec(spec, results_path=tmp_path / "cold.jsonl",
                 store=store_dir)
    store = CampaignStore(store_dir, cache=None)
    store.export(spec, tmp_path / "pre.jsonl")
    report = store.compact()
    store.export(spec, tmp_path / "post.jsonl")
    identical = (tmp_path / "pre.jsonl").read_bytes() \
        == (tmp_path / "post.jsonl").read_bytes()
    record("store export across compaction", [
        f"packed {report.packed_entries} cell entries into "
        f"{report.segments_total} segment; "
        f"export byte-identical: {identical}",
    ])
    assert identical
