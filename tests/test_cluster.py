"""Unit tests for the cluster building blocks (no worker processes here).

Covers the four pieces the router composes: the consistent-hash ring
(stability and ~1/N remap), the shared-memory slab ring (lease protocol,
stale-tag rejection, capacity checks), the JSON control channel (strict
mode refuses tensors — the pickle-free guarantee), and the membership
table (state machine, generation bumps, staleness).  The witness tests at
the bottom drive the two new locks from real threads and cross-check the
observed behaviour against the static guarded-by model, per the PR-8
inventory discipline.  End-to-end multi-process behaviour lives in
``tests/test_cluster_serving.py``.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.concurrency import (
    DEFAULT_TARGETS,
    LockWitness,
    build_lock_order_graph,
    scan_packages,
)
from repro.serve.cluster import (
    ControlChannel,
    HashRing,
    Membership,
    SlabRing,
)
from repro.serve.cluster.worker import ModelSpec, WorkerSpec


@pytest.fixture(scope="module")
def static_model():
    return scan_packages(DEFAULT_TARGETS)


@pytest.fixture(scope="module")
def static_graph(static_model):
    return build_lock_order_graph(static_model)


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # insertion order must not matter
        for key in ("resnet18", "vgg16", "m0", "m1", "m2"):
            assert a.node_for(key) == b.node_for(key)

    def test_empty_ring_refuses_lookups(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.node_for("anything")
        with pytest.raises(LookupError):
            ring.shard("anything", 2)

    def test_shard_returns_distinct_nodes(self):
        ring = HashRing([f"w{i}" for i in range(5)])
        shard = ring.shard("resnet18", 3)
        assert len(shard) == 3
        assert len(set(shard)) == 3
        # Full-width shard is every node exactly once.
        assert sorted(ring.shard("resnet18", 5)) == [f"w{i}" for i in range(5)]

    def test_add_remove_idempotent(self):
        ring = HashRing(["w0"])
        ring.add("w0")
        assert len(ring) == 1
        ring.remove("missing")  # no-op
        ring.remove("w0")
        assert len(ring) == 0

    def test_adding_a_node_remaps_about_one_nth(self):
        keys = [f"model-{i}" for i in range(2000)]
        ring = HashRing([f"w{i}" for i in range(4)])
        before = ring.assignments(keys)
        ring.add("w4")
        after = ring.assignments(keys)
        moved = sum(1 for k in keys if before[k] != after[k])
        # Ideal is 1/5 = 0.20; virtual nodes keep the variance modest.
        assert 0.08 <= moved / len(keys) <= 0.35
        # Every moved key moved *to* the new node, never between old ones.
        assert all(after[k] == "w4" for k in keys if before[k] != after[k])

    def test_removing_a_node_only_moves_its_keys(self):
        keys = [f"model-{i}" for i in range(1000)]
        ring = HashRing([f"w{i}" for i in range(4)])
        before = ring.assignments(keys)
        ring.remove("w2")
        after = ring.assignments(keys)
        for k in keys:
            if before[k] != "w2":
                assert after[k] == before[k]
            else:
                assert after[k] != "w2"


class TestSlabRing:
    def _ring(self, **kw) -> SlabRing:
        import os

        name = f"test-slab-{os.getpid()}-{id(self)}"
        return SlabRing.create(name, kw.pop("slot_bytes", 4096), kw.pop("slots", 4))

    def test_lease_tags_are_monotonic_and_unique(self):
        ring = self._ring()
        try:
            leases = [ring.acquire() for _ in range(4)]
            tags = [lease.tag for lease in leases]
            assert len(set(tags)) == 4
            assert tags == sorted(tags)
            assert ring.acquire() is None  # exhausted
            ring.release(leases[0])
            again = ring.acquire()
            assert again is not None
            assert again.tag > max(tags)  # tags never recycle
        finally:
            ring.close()
            ring.unlink()

    def test_stale_tag_is_rejected(self):
        ring = self._ring()
        try:
            lease = ring.acquire()
            assert ring.lease_valid(lease.slot, lease.tag)
            ring.release(lease)
            # The slot is free again: the old tag must no longer validate,
            # and releasing with it again must not corrupt the free list.
            assert not ring.lease_valid(lease.slot, lease.tag)
            ring.release(lease)
            assert ring.free_slots() == 4
        finally:
            ring.close()
            ring.unlink()

    def test_write_read_roundtrip_bit_identical(self):
        ring = self._ring(slot_bytes=1 << 14)
        try:
            lease = ring.acquire()
            x = np.random.default_rng(7).standard_normal((8, 16, 3)).astype(np.float32)
            meta = ring.write(lease.slot, x)
            y = ring.read(lease.slot, meta["shape"], str(meta["dtype"]))
            assert y.dtype == x.dtype
            assert np.array_equal(x, y)
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_tensor_is_refused(self):
        ring = self._ring(slot_bytes=64)
        try:
            lease = ring.acquire()
            with pytest.raises(ValueError, match="exceeds slot capacity"):
                ring.write(lease.slot, np.zeros(1024, np.float32))
            with pytest.raises(ValueError, match="out of range"):
                ring.write(99, np.zeros(1, np.float32))
        finally:
            ring.close()
            ring.unlink()

    def test_attach_sees_owner_writes(self):
        ring = self._ring(slot_bytes=4096)
        try:
            other = SlabRing.attach(ring.name, 4096, 4)
            try:
                lease = ring.acquire()
                x = np.arange(12, dtype=np.float32).reshape(3, 4)
                meta = ring.write(lease.slot, x)
                y = other.read(lease.slot, meta["shape"], str(meta["dtype"]))
                assert np.array_equal(x, y)
            finally:
                other.close()
        finally:
            ring.close()
            ring.unlink()

    def test_close_is_idempotent_and_invalidates_leases(self):
        ring = self._ring()
        lease = ring.acquire()
        ring.close()
        ring.close()
        assert ring.acquire() is None
        assert not ring.lease_valid(lease.slot, lease.tag)
        ring.unlink()


class TestControlChannel:
    def _pair(self):
        a, b = multiprocessing.Pipe(duplex=True)
        return ControlChannel(a), ControlChannel(b)

    def test_roundtrip_and_accounting(self):
        tx, rx = self._pair()
        try:
            n = tx.send({"op": "ping", "t": 1.5})
            assert n > 0
            msg = rx.recv()
            assert msg == {"op": "ping", "t": 1.5}
            assert tx.stats.frames_sent == 1
            assert tx.stats.bytes_sent == n
            assert tx.stats.max_frame_bytes == n
            assert rx.stats.frames_received == 1
        finally:
            tx.close()
            rx.close()

    def test_strict_mode_refuses_tensors(self):
        """The pickle-free guarantee: an ndarray can never cross the pipe."""
        tx, rx = self._pair()
        try:
            with pytest.raises(TypeError):
                tx.send({"op": "req", "x": np.zeros((4, 4), np.float32)})
            assert tx.stats.frames_sent == 0
        finally:
            tx.close()
            rx.close()

    def test_lenient_mode_stringifies_unknown_types(self):
        tx, rx = self._pair()
        try:
            tx.send({"op": "stats_reply", "dt": np.float32(1.25)}, lenient=True)
            assert rx.recv()["op"] == "stats_reply"
        finally:
            tx.close()
            rx.close()

    def test_hangup_raises_eoferror(self):
        tx, rx = self._pair()
        tx.close()
        with pytest.raises(EOFError):
            rx.recv()
        rx.close()


class TestMembership:
    def test_lifecycle_and_generation_bump(self):
        m = Membership()
        assert m.register("w0").generation == 1
        m.mark_ready("w0", pid=123, warmup_ms=5.0)
        assert m.ready_names() == ["w0"]
        assert m.mark_dead("w0")
        assert not m.mark_dead("w0")  # only the first transition is fresh
        assert m.register("w0").generation == 2  # restart: generation bump
        snap = {w["name"]: w for w in m.snapshot()}
        assert snap["w0"]["generation"] == 2
        assert snap["w0"]["restarts"] == 1
        assert snap["w0"]["state"] == "starting"

    def test_stale_detection(self):
        m = Membership()
        m.register("w0")
        m.mark_ready("w0", pid=1)
        m.register("w1")
        m.mark_ready("w1", pid=2)
        m.heartbeat("w0")
        m.heartbeat("ghost")  # unknown names are ignored
        assert m.stale(deadline_s=3600.0) == []
        assert sorted(m.stale(deadline_s=-1.0)) == ["w0", "w1"]

    def test_draining_leaves_ready_set(self):
        m = Membership()
        m.register("w0")
        m.mark_ready("w0", pid=1)
        m.mark_draining("w0")
        assert m.ready_names() == []
        assert m.state_of("w0") == "draining"


class TestSpecRoundtrip:
    def test_worker_spec_survives_json_shaped_dict(self):
        spec = WorkerSpec(
            name="w0",
            generation=3,
            slab_name="slab",
            slot_bytes=1024,
            slots=4,
            models=(ModelSpec(name="m", arch="resnet18", width_mult=0.25),),
            execute_threads=2,
        )
        back = WorkerSpec.from_dict(spec.as_dict())
        assert back == spec
        assert back.models[0].arch == "resnet18"


class TestClusterWitness:
    """Dynamic evidence for the two locks this PR adds to the guarded-by
    inventory: threads hammer the guarded state while the witness checks
    every touch held the declared lock, then the observed lock-order edges
    are cross-checked against the static model."""

    def test_slab_ring_guarded_under_thread_stress(self, static_model, static_graph):
        import os

        ring = SlabRing.create(f"wit-slab-{os.getpid()}", 256, 8)
        w = LockWitness(static_model.lock_inventory())
        try:
            w.wrap(ring, "_lock")
            w.watch(ring, {attr: "_lock" for attr in ("_free", "_tags", "_next_tag", "_closed")})

            def churn(_: int) -> int:
                ok = 0
                for _i in range(200):
                    lease = ring.acquire()
                    if lease is None:
                        continue
                    assert ring.lease_valid(lease.slot, lease.tag)
                    ring.release(lease)
                    ok += 1
                return ok

            with ThreadPoolExecutor(max_workers=4) as pool:
                totals = list(pool.map(churn, range(4)))
            assert sum(totals) > 0
            assert w.guard_violations == {}
            assert w.guarded_accesses > 0
            assert w.cross_check(static_graph) == []
        finally:
            w.unwrap_all()
            ring.close()
            ring.unlink()

    def test_membership_guarded_under_thread_stress(self, static_model, static_graph):
        m = Membership()
        w = LockWitness(static_model.lock_inventory())
        try:
            w.wrap(m, "_lock")
            w.watch(m, {"_workers": "_lock"})
            stop = threading.Event()

            def transitions() -> None:
                while not stop.is_set():
                    m.register("w0")
                    m.mark_ready("w0", pid=1)
                    m.heartbeat("w0")
                    m.mark_dead("w0")

            def probes() -> int:
                seen = 0
                for _ in range(300):
                    m.snapshot()
                    m.ready_names()
                    m.stale(0.001)
                    seen += 1
                return seen

            t = threading.Thread(target=transitions)
            t.start()
            try:
                with ThreadPoolExecutor(max_workers=3) as pool:
                    totals = list(pool.map(lambda _i: probes(), range(3)))
            finally:
                stop.set()
                t.join()
            assert sum(totals) == 900
            assert w.guard_violations == {}
            assert w.cross_check(static_graph) == []
        finally:
            w.unwrap_all()
