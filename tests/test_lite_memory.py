"""Tests for LITE memory management: LMRs, handles, permissions, chunks."""

import pytest

from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, Permission, lite_boot
from repro.hw import SimParams


@pytest.fixture
def env():
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    return cluster, kernels


def run(cluster, gen):
    return cluster.sim.run_process(gen)


def test_malloc_write_read_roundtrip_local(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u1")

    def proc():
        lh = yield from ctx.lt_malloc(4096)
        yield from ctx.lt_write(lh, 0, b"local-data")
        data = yield from ctx.lt_read(lh, 0, 10)
        return data

    assert run(cluster, proc()) == b"local-data"


def test_malloc_write_read_remote(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u1")

    def proc():
        lh = yield from ctx.lt_malloc(4096, name="remote-lmr", nodes=2)
        yield from ctx.lt_write(lh, 128, b"remote-data")
        data = yield from ctx.lt_read(lh, 128, 11)
        return data

    assert run(cluster, proc()) == b"remote-data"


def test_lmr_spread_across_nodes(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u1")

    def proc():
        lh = yield from ctx.lt_malloc(9000, name="spread", nodes=[2, 3])
        nodes = {c.node_id for c in lh.mapping.chunks}
        assert nodes == {2, 3}
        # Write a range spanning the node boundary (4500/4500 split).
        payload = bytes(range(256)) * 40  # 10240 > size; trim
        payload = payload[:6000]
        yield from ctx.lt_write(lh, 1000, payload)
        data = yield from ctx.lt_read(lh, 1000, 6000)
        return data == payload

    assert run(cluster, proc()) is True


def test_large_lmr_is_chunked(env):
    cluster, _ = env
    params = SimParams(lite_chunk_bytes=1 << 20)
    cluster2 = Cluster(2, params=params)
    kernels = lite_boot(cluster2)
    ctx = LiteContext(kernels[0], "u1")

    def proc():
        lh = yield from ctx.lt_malloc(3 * (1 << 20) + 5)
        assert len(lh.mapping.chunks) == 4
        payload = b"q" * ((1 << 20) + 100)  # crosses a chunk boundary
        yield from ctx.lt_write(lh, (1 << 20) - 50, payload)
        data = yield from ctx.lt_read(lh, (1 << 20) - 50, len(payload))
        return data == payload

    assert cluster2.sim.run_process(proc()) is True


def test_map_requires_grant(env):
    cluster, kernels = env
    alice = LiteContext(kernels[0], "alice")
    bob = LiteContext(kernels[1], "bob")

    def proc():
        yield from alice.lt_malloc(1024, name="private", nodes=1)
        with pytest.raises(LiteError, match="permission denied"):
            yield from bob.lt_map("private")
        yield from alice.lt_grant("private", "bob", Permission.READ)
        lh = yield from bob.lt_map("private", Permission.READ)
        return lh

    lh = run(cluster, proc())
    assert lh.perm == Permission.READ


def test_grant_from_a_non_master_node(env):
    """``lt_grant`` issued away from the master's node travels as a
    GRANT control message; the master checks the caller's principal."""
    cluster, kernels = env
    alice = LiteContext(kernels[0], "alice")
    alice_elsewhere = LiteContext(kernels[1], "alice")
    mallory = LiteContext(kernels[1], "mallory")
    bob = LiteContext(kernels[2], "bob")

    def proc():
        yield from alice.lt_malloc(1024, name="private", nodes=1)
        with pytest.raises(LiteError, match="only a master"):
            yield from mallory.lt_grant("private", "bob", Permission.READ)
        with pytest.raises(LiteError, match="permission denied"):
            yield from bob.lt_map("private", Permission.READ)
        yield from alice_elsewhere.lt_grant("private", "bob", Permission.READ)
        with pytest.raises(LiteError, match="permission denied"):
            yield from bob.lt_map("private", Permission.READ | Permission.WRITE)
        lh = yield from bob.lt_map("private", Permission.READ)
        return lh

    lh = run(cluster, proc())
    assert lh.perm == Permission.READ


def test_read_only_handle_rejects_write(env):
    cluster, kernels = env
    alice = LiteContext(kernels[0], "alice")
    bob = LiteContext(kernels[1], "bob")

    def proc():
        lh_master = yield from alice.lt_malloc(1024, name="ro", nodes=1)
        yield from alice.lt_write(lh_master, 0, b"x")
        yield from alice.lt_grant("ro", "bob", Permission.READ)
        lh = yield from bob.lt_map("ro", Permission.READ)
        with pytest.raises(PermissionError):
            yield from bob.lt_write(lh, 0, b"nope")
        data = yield from bob.lt_read(lh, 0, 1)
        return data

    assert run(cluster, proc()) == b"x"


def test_lh_is_per_process(env):
    """An lh minted for one context is useless to another (§4.1)."""
    cluster, kernels = env
    alice = LiteContext(kernels[0], "alice")
    eve = LiteContext(kernels[0], "eve")

    def proc():
        lh = yield from alice.lt_malloc(64)
        with pytest.raises(PermissionError, match="different process"):
            yield from eve.lt_read(lh, 0, 8)

    run(cluster, proc())


def test_map_unknown_name_fails(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        with pytest.raises(LiteError, match="no LMR named"):
            yield from ctx.lt_map("does-not-exist")

    run(cluster, proc())


def test_duplicate_name_rejected(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        yield from ctx.lt_malloc(64, name="dup")
        with pytest.raises(KeyError):
            yield from ctx.lt_malloc(64, name="dup")

    run(cluster, proc())


def test_free_invalidates_remote_mappings(env):
    cluster, kernels = env
    alice = LiteContext(kernels[0], "alice")
    bob = LiteContext(kernels[1], "bob")

    def proc():
        yield from alice.lt_malloc(1024, name="doomed", nodes=3)
        yield from alice.lt_grant("doomed", "bob", Permission.READ | Permission.WRITE)
        lh_bob = yield from bob.lt_map("doomed")
        yield from bob.lt_write(lh_bob, 0, b"ok")
        master_lh = None
        for handle in [h for h in []]:
            pass
        # Re-acquire the master handle by mapping as alice (master node).
        lh_alice = yield from alice.lt_map("doomed", Permission.full())
        yield from alice.lt_free(lh_alice)
        # Give the FREE_NOTIFY time to propagate.
        yield cluster.sim.timeout(50)
        with pytest.raises(PermissionError, match="freed"):
            yield from bob.lt_read(lh_bob, 0, 2)

    run(cluster, proc())


def test_free_releases_physical_memory(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")
    target = kernels[1]
    before = target.node.memory.allocated_bytes

    def proc():
        lh = yield from ctx.lt_malloc(1 << 20, name="mem", nodes=2)
        mid = target.node.memory.allocated_bytes
        assert mid >= before + (1 << 20)
        yield from ctx.lt_free(lh)
        yield cluster.sim.timeout(100)

    run(cluster, proc())
    assert target.node.memory.allocated_bytes == before


def test_free_releases_backup_copies(env):
    """``lt_free`` of a ``replicas=k`` LMR returns the backup chunks to
    their nodes along with the primary's."""
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")
    before = [k.node.memory.allocated_bytes for k in kernels]

    def proc():
        lh = yield from ctx.lt_malloc(1 << 20, name="mem", nodes=2, replicas=2)
        assert sorted(lh.mapping.replica_chunks) == [1, 3]  # local + remote
        mid = [k.node.memory.allocated_bytes for k in kernels]
        assert all(m >= b + (1 << 20) for m, b in zip(mid, before))
        yield from ctx.lt_free(lh)
        yield cluster.sim.timeout(100)

    run(cluster, proc())
    assert [k.node.memory.allocated_bytes for k in kernels] == before


def test_unmap_invalidates_handle(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        lh = yield from ctx.lt_malloc(256, name="tmp")
        yield from ctx.lt_unmap(lh)
        with pytest.raises(PermissionError, match="unmapped"):
            yield from ctx.lt_read(lh, 0, 8)

    run(cluster, proc())


def test_out_of_bounds_access_rejected(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        lh = yield from ctx.lt_malloc(100)
        with pytest.raises(ValueError):
            yield from ctx.lt_write(lh, 90, b"x" * 20)
        with pytest.raises(ValueError):
            yield from ctx.lt_read(lh, -1, 4)

    run(cluster, proc())


def test_free_requires_master_permission(env):
    cluster, kernels = env
    alice = LiteContext(kernels[0], "alice")
    bob = LiteContext(kernels[1], "bob")

    def proc():
        yield from alice.lt_malloc(64, name="guarded", nodes=1)
        yield from alice.lt_grant("guarded", "bob", Permission.READ | Permission.WRITE)
        lh = yield from bob.lt_map("guarded")
        with pytest.raises(PermissionError):
            yield from bob.lt_free(lh)

    run(cluster, proc())


def test_memset(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        lh = yield from ctx.lt_malloc(1024, nodes=2)
        yield from ctx.lt_memset(lh, 10, 0xAB, 100)
        data = yield from ctx.lt_read(lh, 0, 120)
        return data

    data = run(cluster, proc())
    assert data[:10] == b"\x00" * 10
    assert data[10:110] == b"\xab" * 100
    assert data[110:] == b"\x00" * 10


def test_memcpy_between_remote_lmrs(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        src = yield from ctx.lt_malloc(512, nodes=2)
        dst = yield from ctx.lt_malloc(512, nodes=3)
        yield from ctx.lt_write(src, 0, b"copy-me-around")
        yield from ctx.lt_memcpy(src, 0, dst, 100, 14)
        data = yield from ctx.lt_read(dst, 100, 14)
        return data

    assert run(cluster, proc()) == b"copy-me-around"


def test_memcpy_same_node_local_fastpath(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        src = yield from ctx.lt_malloc(256, nodes=2)
        dst = yield from ctx.lt_malloc(256, nodes=2)
        yield from ctx.lt_write(src, 0, b"samebox")
        yield from ctx.lt_memcpy(src, 0, dst, 0, 7)
        data = yield from ctx.lt_read(dst, 0, 7)
        return data

    assert run(cluster, proc()) == b"samebox"


def test_memmove_matches_memcpy(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        src = yield from ctx.lt_malloc(128, nodes=2)
        dst = yield from ctx.lt_malloc(128, nodes=2)
        yield from ctx.lt_write(src, 0, b"move-data")
        yield from ctx.lt_memmove(src, 0, dst, 0, 9)
        data = yield from ctx.lt_read(dst, 0, 9)
        return data

    assert run(cluster, proc()) == b"move-data"


def test_anonymous_lmr_not_in_directory(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        lh = yield from ctx.lt_malloc(64)
        return lh

    lh = run(cluster, proc())
    assert lh.name.startswith("__anon:")
    assert lh.name not in cluster.manager.names


def test_malloc_zero_size_rejected(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        with pytest.raises(ValueError):
            yield from ctx.lt_malloc(0)

    run(cluster, proc())
