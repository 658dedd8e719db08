"""Distributed campaigns: queue protocol, work stealing, shard merging.

The contract under test: any number of workers joining the same queue
directory — concurrently, sequentially, or after one of them died
mid-chunk — produce shards whose merge is *byte-identical* to a
single-machine framed run of the same configuration.  Determinism (every
replica a pure function of campaign seed and grid coordinates) is what
makes the crash story simple: a stolen chunk's re-execution duplicates
results instead of corrupting them, and the merge verifies exactly that.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro import io as repro_io
from repro.errors import ParameterError
from repro.sim.adaptive import AdaptiveCI, FixedReplicas
from repro.sim.campaign import CampaignConfig
from repro.sim.distributed import (
    DistributedBackend,
    default_worker_id,
    ensure_queue,
    merge_shards,
    queue_status,
    shard_path,
)
from repro.sim.executor import execute_spec
from repro.sim.sinks import WorkerShardSink
from repro.sim.spec import CampaignSpec, ExecutionPolicy

FRAMED = ExecutionPolicy(sink="framed")


def make_config(**overrides) -> CampaignConfig:
    """2 protocols × 2 M × 1 φ × 2 replicas: four fast grid cells."""
    fields = dict(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=(300.0, 600.0),
        phi_values=(1.0,),
        work_target=900.0,
        replicas=2,
        seed=2026,
        share_traces=True,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


def make_spec(policy: ExecutionPolicy = FRAMED, **overrides) -> CampaignSpec:
    return CampaignSpec(grid=make_config(**overrides), policy=policy)


def framed_reference(path, **overrides) -> bytes:
    """The single-machine framed file every merge must reproduce."""
    execute_spec(make_spec(**overrides), results_path=path)
    return path.read_bytes()


def run_worker(queue, worker_id, *, lease=5.0, poll=0.01, **overrides):
    return execute_spec(make_spec(ExecutionPolicy(
        sink="framed", queue=queue, worker_id=worker_id,
        lease_timeout=lease, poll_interval=poll,
    ), **overrides))


class TestQueueLifecycle:
    def test_single_worker_completes_and_merge_matches_serial(self, tmp_path):
        ref = framed_reference(tmp_path / "ref.jsonl")
        queue = tmp_path / "queue"
        execution = run_worker(queue, "w1")
        assert execution.report.cells_run == 4
        assert queue_status(queue).complete
        merged = tmp_path / "merged.jsonl"
        report = merge_shards(queue, merged)
        assert (report.cells, report.duplicate_cells) == (4, 0)
        assert merged.read_bytes() == ref

    def test_late_worker_finds_nothing_to_do(self, tmp_path):
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        execution = run_worker(queue, "w2")
        assert execution.report.cells_run == 0
        assert execution.cells == ()
        assert execution.report.cells_skipped == 4

    def test_merged_file_resumes_as_complete(self, tmp_path):
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        merged = tmp_path / "merged.jsonl"
        merge_shards(queue, merged)
        resumed = execute_spec(make_spec(), results_path=merged, resume=True)
        assert resumed.report.cells_run == 0
        assert resumed.report.cells_skipped == 4

    def test_manifest_refuses_config_drift(self, tmp_path):
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        with pytest.raises(ParameterError, match="different campaign"):
            run_worker(queue, "w2", seed=9999)

    def test_queue_status_counts(self, tmp_path):
        queue = tmp_path / "queue"
        config = make_config()
        ensure_queue(
            queue, make_spec().fingerprint(),
            n_chunks=4, chunk_size=1, n_cells=4,
        )
        status = queue_status(queue)
        assert (status.pending, status.claimed, status.done) == (4, 0, 0)
        assert not status.complete
        backend = DistributedBackend(queue, "w1", lease_timeout=5.0)
        assert backend._try_claim_pending() is not None
        status = queue_status(queue)
        assert (status.pending, status.claimed, status.done) == (3, 1, 0)

    def test_initialisation_race_is_detected(self, tmp_path, monkeypatch):
        """If a rival worker's manifest for a *different* campaign wins
        the initialisation race, the loser must fail fast instead of
        silently working a foreign queue."""
        from repro.sim import distributed as dist

        original = dist._atomic_write

        def rival_wins(path, text):
            if path.name == "manifest.json":
                text = text.replace("2026", "1111")  # rival's config
            original(path, text)

        monkeypatch.setattr(dist, "_atomic_write", rival_wins)
        config = make_config()
        with pytest.raises(ParameterError, match="another worker"):
            ensure_queue(
                tmp_path / "queue",
                make_spec().fingerprint(),
                n_chunks=4, chunk_size=1, n_cells=4,
            )

    def test_heartbeat_fires_per_replica(self):
        """The lease must stay alive inside long cells: run_cell invokes
        the heartbeat after every replica, not just per cell."""
        from repro.sim.backends import run_cell
        from repro.sim.executor import plan_cells

        config = make_config(replicas=3)
        plan = plan_cells(config)[0]
        beats: list[int] = []
        results = run_cell(
            config, plan, FixedReplicas(3), {},
            heartbeat=lambda: beats.append(1),
        )
        assert len(results) == 3
        assert len(beats) == 3

    def test_worker_id_validation(self, tmp_path):
        with pytest.raises(ParameterError, match="worker id"):
            DistributedBackend(tmp_path, "bad/id")
        with pytest.raises(ParameterError, match="worker id"):
            shard_path(tmp_path, "a b")
        assert default_worker_id()  # well-formed by construction
        shard_path(tmp_path, default_worker_id())

    def test_default_worker_id_keeps_suffix_under_long_hostnames(
        self, monkeypatch
    ):
        """Two workers must never share an id (= a shard): the pid and
        nonce survive truncation, the hostname gives."""
        import socket

        monkeypatch.setattr(socket, "gethostname", lambda: "h" * 100)
        worker_id = default_worker_id()
        assert len(worker_id) <= 64
        assert f"-{os.getpid()}-" in worker_id
        shard_path("/tmp", worker_id)  # still a valid id
        # Cloned hosts (same hostname, same pid 1) still get distinct ids.
        assert default_worker_id() != worker_id

    def test_claiming_a_stale_ticket_freshens_the_lease(self, tmp_path):
        """A fleet joining a queue initialised long ago must not see
        freshly claimed chunks as instantly steal-eligible (tickets keep
        their creation mtime through the claiming rename)."""
        config = make_config()
        queue = tmp_path / "queue"
        ensure_queue(
            queue, make_spec().fingerprint(),
            n_chunks=4, chunk_size=1, n_cells=4,
        )
        past = time.time() - 3600.0
        for ticket in (queue / "pending").iterdir():
            os.utime(ticket, (past, past))
        backend = DistributedBackend(queue, "w1", lease_timeout=30.0)
        _, claim = backend._try_claim_pending()
        assert time.time() - claim.stat().st_mtime < 30.0

    def test_executor_rejects_conflicting_arguments(self, tmp_path):
        queue = tmp_path / "queue"
        with pytest.raises(ParameterError, match="sink='framed'"):
            execute_spec(make_spec(ExecutionPolicy(queue=queue)))
        with pytest.raises(ParameterError, match="resumable"):
            execute_spec(
                make_spec(ExecutionPolicy(queue=queue, sink="framed")),
                resume=True,
            )
        with pytest.raises(ParameterError, match="shards"):
            execute_spec(
                make_spec(ExecutionPolicy(queue=queue, sink="framed")),
                results_path=tmp_path / "r.jsonl",
            )
        with pytest.raises(ParameterError, match="workers"):
            execute_spec(make_spec(
                ExecutionPolicy(queue=queue, sink="framed", workers=4)
            ))
        backend = DistributedBackend(queue, "w1")
        with pytest.raises(ParameterError, match="mutually exclusive"):
            execute_spec(
                make_spec(ExecutionPolicy(queue=queue, sink="framed")),
                backend=backend,
            )


def live_worker(config: CampaignConfig, queue) -> CampaignSpec:
    """A worker that joins ``queue`` with a short lease and fast polls."""
    return CampaignSpec(grid=config, policy=ExecutionPolicy(
        sink="framed", queue=queue, worker_id="live", chunk_size=2,
        lease_timeout=5.0, poll_interval=0.01,
    ))


class TestWorkStealing:
    """The fault-injection story: a dead worker's chunk is re-claimed."""

    def _queue_with_dead_worker(self, tmp_path, *, dead_shard="cell0"):
        """A queue where 'dead' claimed chunk 0 (cells 0+1), appended cell
        0, and died mid-chunk: the claim file is there, back-dated past
        any lease, with no done marker.  ``dead_shard`` shapes the crash
        damage in its shard:

        * ``"cell0"`` — died cleanly between cell appends;
        * ``"torn_start"`` — died a few bytes into cell 1's append;
        * ``"half_cell"`` — died mid-append with cell 1's first replica
          already intact (an incomplete cell group).
        """
        ref_path = tmp_path / "ref.jsonl"
        ref = framed_reference(ref_path)
        lines = ref.decode().splitlines()
        queue = tmp_path / "queue"
        config = make_config()
        ensure_queue(
            queue, make_spec().fingerprint(),
            n_chunks=2, chunk_size=2, n_cells=4,
        )
        dead = DistributedBackend(queue, "dead", lease_timeout=5.0)
        chunk, claim = dead._try_claim_pending()
        # The rotation offset is worker-dependent; steer to chunk 0.
        if chunk != 0:
            claim0 = dead._claim_path(0, 0)
            os.rename(queue / "pending" / "chunk-00000.json", claim0)
            os.rename(claim, queue / "pending" / f"chunk-{chunk:05d}.json")
            chunk, claim = 0, claim0
        shard = shard_path(queue, "dead")
        shard.parent.mkdir(parents=True, exist_ok=True)
        body = lines[0] + "\n" + lines[1] + "\n"  # cell 0, replicas 0-1
        if dead_shard == "torn_start":
            body += lines[2][:40]
        elif dead_shard == "half_cell":
            body += lines[2] + "\n" + lines[3][:40]
        shard.write_text(body)
        past = time.time() - 3600.0
        os.utime(claim, (past, past))
        return queue, config, ref, claim

    def test_fresh_lease_is_not_stolen(self, tmp_path):
        queue, config, _, claim = self._queue_with_dead_worker(tmp_path)
        os.utime(claim)  # resurrect the lease
        thief = DistributedBackend(queue, "thief", lease_timeout=60.0)
        assert thief._try_steal_expired() is None

    def test_expired_lease_is_stolen_once(self, tmp_path):
        queue, config, _, claim = self._queue_with_dead_worker(tmp_path)
        thief = DistributedBackend(queue, "thief", lease_timeout=5.0)
        stolen = thief._try_steal_expired()
        assert stolen is not None
        chunk, fresh = stolen
        assert chunk == 0
        assert not claim.exists()           # the stale claim was renamed
        assert ".g1.thief." in fresh.name   # generation bumped, new owner
        assert time.time() - fresh.stat().st_mtime < 5.0  # lease restarted
        # A second thief has nothing to steal: the fresh lease is live.
        assert DistributedBackend(
            queue, "thief2", lease_timeout=5.0
        )._try_steal_expired() is None

    @pytest.mark.parametrize("dead_shard",
                             ["cell0", "torn_start", "half_cell"])
    def test_live_worker_recovers_dead_workers_chunk(self, tmp_path,
                                                     dead_shard):
        """End to end: lease expires, a live worker re-claims and re-runs
        the chunk, and the merged file is byte-identical to the serial
        framed run — the dead worker's partial shard (including a torn
        trailing write) changes nothing."""
        queue, config, ref, _ = self._queue_with_dead_worker(
            tmp_path, dead_shard=dead_shard
        )
        execution = execute_spec(live_worker(config, queue))
        assert execution.report.cells_run == 4  # both chunks, incl. stolen
        assert queue_status(queue).complete
        done = json.loads(
            (queue / "done" / "chunk-00000.json").read_text()
        )
        assert done["worker"] == "live"
        merged = tmp_path / "merged.jsonl"
        report = merge_shards(queue, merged)
        assert merged.read_bytes() == ref
        assert report.duplicate_cells >= 1  # cell 0 exists in both shards

    def test_partial_merge_then_resume_completes(self, tmp_path):
        """A queue abandoned mid-campaign merges (with --partial
        semantics) into a file that one machine can finish via the
        ordinary resume path, landing byte-identical to serial."""
        queue, config, ref, _ = self._queue_with_dead_worker(
            tmp_path, dead_shard="half_cell"
        )
        with pytest.raises(ParameterError, match="incomplete"):
            merge_shards(queue, tmp_path / "nope.jsonl")
        partial = tmp_path / "partial.jsonl"
        report = merge_shards(queue, partial, require_complete=False)
        assert report.cells == 1        # cell 0 survived the dead shard
        assert report.incomplete_cells == 1  # torn cell 1 dropped
        resumed = execute_spec(make_spec(), results_path=partial,
                               resume=True)
        assert resumed.report.cells_skipped == 1
        assert resumed.report.cells_run == 3
        assert partial.read_bytes() == ref

    def test_same_shard_duplicate_is_verified_and_collapsed(self, tmp_path):
        """A worker that restarts and re-claims its own chunk appends a
        cell its shard already holds: the merge must verify the copies
        match, count the duplication, and emit the cell once."""
        ref = framed_reference(tmp_path / "ref.jsonl")
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        shard = shard_path(queue, "w1")
        lines = shard.read_text().splitlines()
        redo = []
        for seq, line in enumerate(lines[:2], start=len(lines)):
            frame = json.loads(line)
            frame["seq"] = seq  # the rejoined sink continues its counter
            redo.append(json.dumps(frame, sort_keys=True))
        shard.write_text("\n".join(lines + redo) + "\n")

        merged = tmp_path / "merged.jsonl"
        report = merge_shards(queue, merged)
        assert report.duplicate_cells == 1
        assert merged.read_bytes() == ref

        # ...but a *diverging* same-shard copy is corruption: refuse.
        tampered = json.loads(redo[0])
        tampered["payload"]["payload"]["makespan"] += 12345.0
        shard.write_text("\n".join(
            lines + [json.dumps(tampered, sort_keys=True), redo[1]]
        ) + "\n")
        with pytest.raises(ParameterError, match="twice in this shard"):
            merge_shards(queue, tmp_path / "nope.jsonl")

    def test_merge_refuses_diverged_shards(self, tmp_path):
        """Two shards disagreeing about the same cell cannot happen under
        one configuration — the merge must refuse, not pick one."""
        queue, config, ref, _ = self._queue_with_dead_worker(tmp_path)
        execute_spec(live_worker(config, queue))
        # Tamper with the dead worker's copy of cell 0.
        shard = shard_path(queue, "dead")
        frames = [json.loads(line) for line in
                  shard.read_text().splitlines()]
        frames[0]["payload"]["payload"]["failures"] += 1
        shard.write_text("".join(
            json.dumps(f, sort_keys=True) + "\n" for f in frames
        ))
        with pytest.raises(ParameterError, match="disagrees"):
            merge_shards(queue, tmp_path / "merged.jsonl")


def _frames(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_frames(path, frames, *, renumber=True) -> None:
    if renumber:
        for seq, frame in enumerate(frames):
            frame["seq"] = seq
    path.write_text("".join(
        json.dumps(frame, sort_keys=True) + "\n" for frame in frames
    ))


class TestMergeRules:
    """One duplicate rule (every shorter copy of a cell is a prefix of
    the longest, in one shard or across shards), frame-group invariants
    and the campaign grid's identity checks, all before any output."""

    def test_restarted_workers_shard_merges_like_serial(self, tmp_path):
        """A worker died mid-append of cell 1 with its replica 0 intact,
        rejoined (dropping the torn tail) and re-ran cell 1 and the rest:
        its shard holds a partial group of cell 1, then a whole one."""
        ref = framed_reference(tmp_path / "ref.jsonl")
        lines = ref.decode().splitlines()
        records = [repro_io.dump_result(repro_io.load_frame(line).result)
                   for line in lines]
        queue = tmp_path / "queue"
        run_worker(queue, "w1")  # completes the queue: done markers
        shard = shard_path(queue, "w1")
        shard.write_text("\n".join(lines[:3]) + "\n" + lines[3][:40])
        sink = WorkerShardSink(shard)
        sink.begin()
        assert sink._seq == 3
        for cell in (1, 2, 3):
            sink.emit(SimpleNamespace(index=cell),
                      records[2 * cell:2 * cell + 2])
        assert [(f["cell"], f["replica"]) for f in _frames(shard)] == [
            (0, 0), (0, 1), (1, 0), (1, 0), (1, 1),
            (2, 0), (2, 1), (3, 0), (3, 1),
        ]
        merged = tmp_path / "merged.jsonl"
        report = merge_shards(queue, merged)
        assert merged.read_bytes() == ref
        assert (report.cells, report.duplicate_cells) == (4, 1)

    def test_refuses_sequence_gap(self, tmp_path):
        """A shard missing a whole cell group mid-file was edited, which
        shard rejoin refuses; the merge refuses it too and writes
        nothing."""
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        shard = shard_path(queue, "w1")
        frames = _frames(shard)
        del frames[2:4]
        _write_frames(shard, frames, renumber=False)
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ParameterError, match="sequence"):
            merge_shards(queue, out, require_complete=False)
        assert not out.exists()

    def test_refuses_out_of_order_replicas(self, tmp_path):
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        shard = shard_path(queue, "w1")
        frames = _frames(shard)
        frames[0], frames[1] = frames[1], frames[0]
        _write_frames(shard, frames)
        with pytest.raises(ParameterError, match="replica 0 was expected"):
            merge_shards(queue, tmp_path / "merged.jsonl")

    @pytest.mark.parametrize("where", ["same shard", "other shard"])
    def test_refuses_copy_that_is_not_a_prefix(self, tmp_path, where):
        """A torn copy (one replica) of a cell that differs from the
        whole copy is refused wherever the two copies sit."""
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        shard = shard_path(queue, "w1")
        frames = _frames(shard)
        torn = dict(frames[0], payload=json.loads(json.dumps(
            frames[0]["payload"])))
        torn["payload"]["payload"]["makespan"] += 1.0
        if where == "same shard":
            _write_frames(shard, frames + [torn])
            match = "twice in this shard"
        else:
            _write_frames(shard_path(queue, "w2"), [torn])
            match = "disagrees"
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ParameterError, match=match):
            merge_shards(queue, out)
        assert not out.exists()

    def test_refuses_shard_of_another_campaign(self, tmp_path):
        """A shard written under a different seed holds well-formed
        frames of every cell, but not this campaign's: merging it would
        write a file that resume refuses."""
        queue = tmp_path / "queue"
        ensure_queue(queue, make_spec().fingerprint(),
                     n_chunks=2, chunk_size=2, n_cells=4)
        foreign = framed_reference(tmp_path / "foreign.jsonl", seed=2027)
        shard = shard_path(queue, "w1")
        shard.parent.mkdir(parents=True, exist_ok=True)
        shard.write_bytes(foreign)
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ParameterError, match="seed"):
            merge_shards(queue, out, require_complete=False)
        assert not out.exists()

    def test_full_disk_leaves_previous_output(self, tmp_path, full_disk):
        """A write that fails part-way leaves no temp file, and the
        previous merged file and manifest as they were."""
        queue = tmp_path / "queue"
        run_worker(queue, "w1")
        out = tmp_path / "out" / "merged.jsonl"
        out.parent.mkdir()
        out.write_text("previous\n")
        manifest = out.with_name(out.name + ".manifest")
        manifest.write_text("{}\n")
        with pytest.raises(OSError):
            merge_shards(queue, out)
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "merged.jsonl", "merged.jsonl.manifest"]
        assert out.read_text() == "previous\n"
        assert manifest.read_text() == "{}\n"


class TestWorkerShardSink:
    def test_fresh_shard_starts_empty(self, tmp_path):
        shard = tmp_path / "w.jsonl"
        sink = WorkerShardSink(shard)
        sink.begin()
        assert shard.exists() and sink._seq == 0

    def test_sequence_continues_across_restarts(self, tmp_path):
        from repro.sim.results import DesResult

        def res(i):
            return DesResult(
                status="completed", makespan=1000.0 + i, work_target=900.0,
                work_done=900.0, failures=i, rollbacks=0, work_lost=0.0,
                commits=3, risk_time=0.0, meta={"seed": i},
            )

        shard = tmp_path / "w.jsonl"
        sink = WorkerShardSink(shard)
        sink.begin()

        class Plan:
            index = 0

        sink.emit(Plan, [repro_io.dump_result(res(i)) for i in (0, 1)])
        intact = shard.read_bytes()
        shard.write_bytes(intact + intact[:25])  # torn next append
        rejoined = WorkerShardSink(shard)
        rejoined.begin()
        assert shard.read_bytes() == intact  # torn tail dropped
        assert rejoined._seq == 2            # sequence resumes after it

    def test_rejects_foreign_sequence(self, tmp_path):
        shard = tmp_path / "w.jsonl"
        from repro.sim.results import DesResult

        result = DesResult(
            status="completed", makespan=1000.0, work_target=900.0,
            work_done=900.0, failures=0, rollbacks=0, work_lost=0.0,
            commits=1, risk_time=0.0,
        )
        shard.write_text(
            repro_io.dump_frame(result, cell=0, replica=0, seq=7) + "\n"
        )
        with pytest.raises(ParameterError, match="sequence"):
            WorkerShardSink(shard).begin()

    def test_recover_is_not_a_shard_operation(self, tmp_path):
        with pytest.raises(ParameterError, match="done markers"):
            WorkerShardSink(tmp_path / "w.jsonl").recover(
                None, [], FixedReplicas(1), True
            )


class TestAdaptiveDistributed:
    def test_adaptive_queue_merges_like_serial(self, tmp_path):
        controller = AdaptiveCI(max_replicas=8, tolerance=0.03,
                                min_replicas=3, batch=1)
        grid = dict(m_values=(300.0, 3600.0), replicas=8)
        execute_spec(
            make_spec(ExecutionPolicy(sink="framed", controller=controller),
                      **grid),
            results_path=tmp_path / "ref.jsonl",
        )
        ref = (tmp_path / "ref.jsonl").read_bytes()
        queue = tmp_path / "queue"
        execute_spec(make_spec(ExecutionPolicy(
            sink="framed", queue=queue, worker_id="w1",
            controller=controller, lease_timeout=5.0, poll_interval=0.01,
        ), **grid))
        merged = tmp_path / "merged.jsonl"
        merge_shards(queue, merged)
        assert merged.read_bytes() == ref

    def test_refuses_cell_longer_than_the_rule_runs(self, tmp_path):
        """A hand-written shard holds all 8 replicas of every cell (a
        fixed-count run of the same grid: same seeds, same identity), but
        the queue's AdaptiveCI rule stops each cell after 3: the shard
        was written under different adaptive settings."""
        controller = AdaptiveCI(max_replicas=8, tolerance=0.5,
                                min_replicas=3, batch=1)
        adaptive = make_spec(ExecutionPolicy(sink="framed",
                                             controller=controller),
                             replicas=8)
        queue = tmp_path / "queue"
        ensure_queue(queue, adaptive.fingerprint(),
                     n_chunks=2, chunk_size=2, n_cells=4)
        shard = shard_path(queue, "w1")
        shard.parent.mkdir(parents=True, exist_ok=True)
        shard.write_bytes(framed_reference(tmp_path / "fixed.jsonl",
                                           replicas=8))
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ParameterError,
                           match="holds 8 replicas but the replica "
                                 "controller stops it after 3"):
            merge_shards(queue, out, require_complete=False)
        assert not out.exists()


@pytest.mark.campaign
class TestMultiProcessAcceptance:
    """Two independently started OS processes against one queue."""

    def _cli(self, *argv):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def test_two_processes_complete_a_preset_grid(self, tmp_path):
        queue = tmp_path / "queue"
        workers = [
            self._cli("campaign", "--preset", "smoke", "--queue",
                      str(queue), "--worker-id", f"proc{i}",
                      "--lease", "30", "--poll", "0.05")
            for i in (1, 2)
        ]
        for proc in workers:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert queue_status(queue).complete

        merged = tmp_path / "merged.jsonl"
        proc = self._cli("campaign", "merge", "--queue", str(queue),
                         "--out", str(merged))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err

        ref = tmp_path / "ref.jsonl"
        spec = scenarios.get_campaign_preset("smoke").spec(policy=FRAMED)
        execute_spec(spec, results_path=ref)
        assert merged.read_bytes() == ref.read_bytes()

        # The merged file resumes as complete and reports identically.
        resumed = execute_spec(spec, results_path=merged, resume=True)
        assert resumed.report.cells_run == 0
        from repro.experiments.report import campaign_report

        report_merged = campaign_report(merged)
        report_ref = campaign_report(ref)
        assert report_merged.replace(merged.name, "X") == \
            report_ref.replace(ref.name, "X")
