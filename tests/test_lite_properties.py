"""Property-based tests (hypothesis) on LITE's core invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.litelog import LogEntry
from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot
from repro.core.lmr import ChunkInfo, MappedLmr, Permission
from repro.core.protocol import (
    pack_reply_imm,
    pack_request_imm,
    unpack_imm,
)
from repro.verbs.wr import wire_bytes


# ----------------------------------------------------- plan() algebra --


@st.composite
def chunked_lmr(draw):
    n_chunks = draw(st.integers(min_value=1, max_value=6))
    sizes = [draw(st.integers(min_value=1, max_value=4096))
             for _ in range(n_chunks)]
    chunks = []
    addr = 0x1000
    for index, size in enumerate(sizes):
        chunks.append(ChunkInfo(node_id=index % 3 + 1, addr=addr, size=size))
        addr += size + draw(st.integers(min_value=0, max_value=64))
    return MappedLmr(1, "prop", sum(sizes), chunks, 1)


@given(mapping=chunked_lmr(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_property_plan_partitions_exactly(mapping, data):
    """plan() tiles [offset, offset+n) exactly, in order, within chunks."""
    offset = data.draw(st.integers(min_value=0, max_value=mapping.size))
    nbytes = data.draw(st.integers(min_value=0, max_value=mapping.size - offset))
    pieces = mapping.plan(offset, nbytes)
    assert sum(piece_len for _c, _o, piece_len, _b in pieces) == nbytes
    # Buffer offsets are contiguous from zero.
    cursor = 0
    for _chunk, _chunk_off, piece_len, buf_off in pieces:
        assert buf_off == cursor
        cursor += piece_len
    # Every piece stays inside its chunk.
    for chunk, chunk_off, piece_len, _buf in pieces:
        assert 0 <= chunk_off
        assert chunk_off + piece_len <= chunk.size
    # Pieces cover the requested global range in order.
    covered = 0
    lmr_cursor = 0
    for chunk in mapping.chunks:
        for piece_chunk, chunk_off, piece_len, _buf in pieces:
            if piece_chunk is chunk:
                global_start = lmr_cursor + chunk_off
                assert global_start == offset + covered
                covered += piece_len
        lmr_cursor += chunk.size
    assert covered == nbytes


@given(mapping=chunked_lmr(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_property_plan_rejects_out_of_bounds(mapping, data):
    offset = data.draw(st.integers(min_value=0, max_value=mapping.size))
    overshoot = data.draw(st.integers(min_value=1, max_value=1000))
    with pytest.raises(ValueError):
        mapping.plan(offset, mapping.size - offset + overshoot)


# --------------------------------------------------------- IMM field --


@given(
    func=st.integers(min_value=0, max_value=63),
    offset=st.integers(min_value=0, max_value=(1 << 24) - 1),
)
@settings(max_examples=200, deadline=None)
def test_property_request_imm_roundtrip(func, offset):
    kind, got_func, got_offset = unpack_imm(pack_request_imm(func, offset))
    assert (kind, got_func, got_offset) == (0, func, offset)


@given(token=st.integers(min_value=0, max_value=(1 << 30) - 1))
@settings(max_examples=200, deadline=None)
def test_property_reply_imm_roundtrip(token):
    kind, _func, got = unpack_imm(pack_reply_imm(token))
    assert (kind, got) == (1, token)
    # Requests and replies can never be confused.
    assert pack_reply_imm(token) >> 30 != 0


# ------------------------------------------------------ wire framing --


@given(
    a=st.integers(min_value=0, max_value=1 << 20),
    b=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=100, deadline=None)
def test_property_wire_bytes_monotone_and_superadditive(a, b):
    assert wire_bytes(a) >= a
    if a <= b:
        assert wire_bytes(a) <= wire_bytes(b)
    # Splitting a message never saves header bytes.
    assert wire_bytes(a) + wire_bytes(b) >= wire_bytes(a + b)


# -------------------------------------------------------- log entries --


@given(payload=st.binary(min_size=0, max_size=2048))
@settings(max_examples=100, deadline=None)
def test_property_log_entry_roundtrip(payload):
    blob = LogEntry(payload).encoded()
    entry, end = LogEntry.decode(blob, 0)
    assert entry.payload == payload
    assert end == len(blob)


@given(payloads=st.lists(st.binary(min_size=0, max_size=64), min_size=1,
                         max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_log_entries_concatenate(payloads):
    blob = b"".join(LogEntry(p).encoded() for p in payloads)
    cursor = 0
    decoded = []
    for _ in payloads:
        entry, cursor = LogEntry.decode(blob, cursor)
        decoded.append(entry.payload)
    assert decoded == payloads
    assert cursor == len(blob)


# -------------------------------------------- split_evenly invariants --


@given(
    size=st.integers(min_value=1, max_value=1 << 20),
    parts=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=100, deadline=None)
def test_property_split_evenly(size, parts):
    shares = LiteContext._split_evenly(size, parts)
    assert sum(shares) == size
    assert len(shares) == parts
    assert max(shares) - min(shares) <= 1


# ------------------------------------- end-to-end write/read algebra --


@pytest.fixture(scope="module")
def prop_env():
    from repro.hw import SimParams

    cluster = Cluster(3, params=SimParams(lite_chunk_bytes=1 << 12))
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "prop")
    holder = {}

    def setup():
        # 12 KB LMR spread across nodes 2 and 3, chunked at 4 KB.
        holder["lh"] = yield from ctx.lt_malloc(12 * 1024, nodes=[2, 3])

    cluster.run_process(setup())
    return cluster, ctx, holder["lh"]


@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_property_write_read_roundtrip_any_range(prop_env, data):
    """Any write followed by a read of the same range returns the bytes,
    across chunk and node boundaries."""
    cluster, ctx, lh = prop_env
    offset = data.draw(st.integers(min_value=0, max_value=lh.size - 1))
    nbytes = data.draw(st.integers(min_value=1, max_value=lh.size - offset))
    payload = data.draw(st.binary(min_size=nbytes, max_size=nbytes))

    def proc():
        yield from ctx.lt_write(lh, offset, payload)
        got = yield from ctx.lt_read(lh, offset, nbytes)
        return got

    assert cluster.run_process(proc()) == payload


# ------------------------------------------------- permission lattice --


@given(
    held=st.sampled_from([
        Permission.NONE, Permission.READ, Permission.WRITE,
        Permission.READ | Permission.WRITE, Permission.full(),
    ]),
    wanted=st.sampled_from([
        Permission.READ, Permission.WRITE, Permission.MASTER,
        Permission.READ | Permission.WRITE,
    ]),
)
@settings(max_examples=60, deadline=None)
def test_property_acl_check_is_subset_test(held, wanted):
    from repro.core.lmr import MasterRecord

    record = MasterRecord(1, "x", 8, [], creator="owner")
    record.acl["user"] = held
    assert record.check("user", wanted) == ((held & wanted) == wanted)
    # The creator always passes.
    assert record.check("owner", wanted)
