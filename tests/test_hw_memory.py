"""Unit + property tests for the host physical-memory allocator."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import HostMemory, OutOfMemoryError, PhysRegion


def make_mem(capacity=1 << 20):
    return HostMemory(node_id=0, capacity=capacity)


def test_alloc_and_data_roundtrip():
    mem = make_mem()
    region = mem.alloc(4096)
    region.write(100, b"hello")
    assert region.read(100, 5) == b"hello"
    assert region.read(0, 4) == b"\x00\x00\x00\x00"


def test_alloc_distinct_extents():
    mem = make_mem()
    a = mem.alloc(1000)
    b = mem.alloc(1000)
    assert a.addr + a.size <= b.addr or b.addr + b.size <= a.addr


def test_out_of_memory():
    mem = make_mem(capacity=1024)
    mem.alloc(1024)
    with pytest.raises(OutOfMemoryError):
        mem.alloc(1)


def test_free_and_reuse():
    mem = make_mem(capacity=1024)
    region = mem.alloc(1024)
    mem.free(region)
    again = mem.alloc(1024)
    assert again.addr == region.addr


def test_double_free_rejected():
    mem = make_mem()
    region = mem.alloc(64)
    mem.free(region)
    with pytest.raises(ValueError):
        mem.free(region)


def test_access_after_free_rejected():
    mem = make_mem()
    region = mem.alloc(64)
    mem.free(region)
    with pytest.raises(ValueError):
        region.read(0, 1)
    with pytest.raises(ValueError):
        region.write(0, b"x")


def test_coalescing_restores_full_extent():
    mem = make_mem(capacity=3000)
    a = mem.alloc(1000)
    b = mem.alloc(1000)
    c = mem.alloc(1000)
    mem.free(a)
    mem.free(c)
    mem.free(b)  # middle free must merge all three
    assert mem.fragment_count == 1
    assert mem.largest_free == 3000


def test_external_fragmentation_blocks_large_alloc():
    """Free space exists but no contiguous extent — the §4.1 problem."""
    mem = make_mem(capacity=4000)
    keep = []
    holes = []
    for index in range(4):
        region = mem.alloc(500)
        region2 = mem.alloc(500)
        holes.append(region)
        keep.append(region2)
    for region in holes:
        mem.free(region)
    assert mem.free_bytes == 2000
    with pytest.raises(OutOfMemoryError):
        mem.alloc(1500)


def test_resolve_physical_address():
    mem = make_mem()
    region = mem.alloc(4096)
    region.write(10, b"abc")
    found, offset = mem.resolve(region.addr + 10, 3)
    assert found is region
    assert offset == 10


def test_resolve_unbacked_address_raises():
    mem = make_mem()
    mem.alloc(4096)
    with pytest.raises(ValueError):
        mem.resolve(1 << 19, 8)


def test_resolve_after_free_raises():
    mem = make_mem()
    region = mem.alloc(4096)
    addr = region.addr
    mem.free(region)
    with pytest.raises(ValueError):
        mem.resolve(addr, 1)


def test_page_ids_span():
    mem = make_mem()
    region = mem.alloc(3 * 4096)
    pages = region.page_ids(4096, offset=0, nbytes=3 * 4096)
    assert len(pages) == 3
    # A 2-byte access crossing a page boundary touches 2 pages.
    pages = region.page_ids(4096, offset=4095, nbytes=2)
    assert len(pages) == 2


def test_read_write_bounds():
    mem = make_mem()
    region = mem.alloc(64)
    with pytest.raises(ValueError):
        region.write(60, b"hello")
    with pytest.raises(ValueError):
        region.read(-1, 4)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=40),
    free_mask=st.lists(st.booleans(), min_size=40, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_property_allocator_accounting(sizes, free_mask):
    mem = make_mem(capacity=1 << 17)
    live = []
    for size, do_free in zip(sizes, free_mask):
        try:
            region = mem.alloc(size)
        except OutOfMemoryError:
            continue
        if do_free:
            mem.free(region)
        else:
            live.append(region)
    assert mem.allocated_bytes == sum(r.size for r in live)
    assert mem.free_bytes == mem.capacity - mem.allocated_bytes
    # Every live region resolvable, non-overlapping.
    spans = sorted((r.addr, r.addr + r.size) for r in live)
    for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
        assert ahi <= blo
    for region in live:
        found, offset = mem.resolve(region.addr, region.size)
        assert found is region and offset == 0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_property_free_always_coalesces_adjacent(data):
    mem = make_mem(capacity=1 << 16)
    regions = [mem.alloc(1024) for _ in range(16)]
    order = data.draw(st.permutations(range(16)))
    for index in order:
        mem.free(regions[index])
    assert mem.fragment_count == 1
    assert mem.largest_free == mem.capacity


def test_sparse_read_materializes_no_blocks():
    """Reading untouched ranges must not allocate backing blocks."""
    mem = make_mem()
    region = mem.alloc(1 << 20)
    data = region.read(0, 1 << 20)
    assert data == bytes(1 << 20)
    assert region.resident_bytes == 0


def test_read_crossing_blocks_with_holes():
    mem = make_mem()
    region = mem.alloc(4 * 65536)
    # Touch only the second block; read a range spanning all four.
    region.write(65536 + 10, b"island")
    data = region.read(65530, 3 * 65536)
    expected = bytearray(3 * 65536)
    expected[16 : 16 + 6] = b"island"
    assert data == bytes(expected)


def test_read_into_matches_read():
    mem = make_mem()
    region = mem.alloc(3 * 65536)
    payload = bytes(range(256)) * 700  # 179200 B, crosses all blocks
    region.write(100, payload)
    buf = bytearray(len(payload))
    n = region.read_into(100, buf)
    assert n == len(payload)
    assert bytes(buf) == payload == region.read(100, len(payload))


def test_write_accepts_memoryview_slices():
    mem = make_mem()
    region = mem.alloc(3 * 65536)
    backing = bytes(range(256)) * 400
    view = memoryview(backing)[17 : 17 + 90000]
    region.write(65000, view)
    assert region.read(65000, 90000) == bytes(view)


# ------------------------------------------- demand-paged backing store --

KB, MB = 1 << 10, 1 << 20


def _source(rng, data):
    """``data`` as one of the buffer kinds callers hand to write()."""
    kind = rng.randrange(4)
    if kind == 0:
        return data                                   # bytes: may alias
    if kind == 1:
        return bytearray(data)                        # mutable: must copy
    if kind == 2:
        return memoryview(data)                       # whole-bytes view
    return memoryview(b"<" + data + b">")[1:-1]       # partial bytes view


def _short_page_cases(size):
    """Short pages against the flat-bytearray oracle, one fresh region
    per case; every step re-reads the first block (and past it)."""
    block = PhysRegion(0, 0, size)._block
    rng = random.Random(size)

    def fresh():
        return PhysRegion(0, 0, size), bytearray(size)

    def write(region, oracle, offset, data):
        region.write(offset, _source(rng, data))
        oracle[offset : offset + len(data)] = data
        for lo, n in ((0, min(size, block + 4096)), (150, 100),
                      (offset, len(data)), (offset + len(data) - 3, 3)):
            n = min(n, size - lo)
            assert region.read(lo, n) == oracle[lo : lo + n]
            buf = bytearray(n)
            region.read_into(lo, buf)
            assert buf == oracle[lo : lo + n]

    # A short page (held to byte 164), a read straddling its end, then a
    # second write inside it.
    region, oracle = fresh()
    write(region, oracle, 100, rng.randbytes(64))
    assert region.resident_bytes == 164
    write(region, oracle, 120, rng.randbytes(8))
    assert region.resident_bytes == 4096
    # A write past a short page's end.
    region, oracle = fresh()
    write(region, oracle, 100, rng.randbytes(64))
    write(region, oracle, 1000, rng.randbytes(16))
    assert region.resident_bytes == 4096
    # Promoting a block that holds short pages: one small write per page
    # until the block turns dense (the second write, in a one-page block).
    region, oracle = fresh()
    for index in range(max(2, block // 4096 // 4 + 1)):
        write(region, oracle, index * 4096 % block + 200 + index,
              rng.randbytes(8))
    assert region.resident_bytes == block
    # A whole-block alias over a sparse block, then copy-on-write.
    region, oracle = fresh()
    write(region, oracle, 50, rng.randbytes(8))
    data = rng.randbytes(block)
    region.write(0, data)
    oracle[:block] = data
    assert region.read(0, block) is data
    write(region, oracle, 7, rng.randbytes(3))
    assert region.read(0, size) == oracle


@pytest.mark.parametrize("size", [4 * KB, 1 * MB, 64 * MB])
def test_reference_model_mixed_ops(size):
    """PhysRegion behaves exactly like one flat bytearray.

    Offsets cluster around a few hot spots (region start, the first
    64 KiB and 1 MiB boundaries, the region end) so the ops straddle
    pages and blocks, re-hit whole-block writes with partial ones
    (alias then copy-on-write) and pile small writes onto one block
    until it is promoted from sparse to dense.  A directed prelude first
    walks a short first-touch page through each of its transitions.
    """
    _short_page_cases(size)
    spots = sorted({0, min(64 * KB, size) - 1, min(MB, size) - 1,
                    size // 2, size - 1})
    lengths = [0, 1, 8, 64, 64, 4095, 4096, 4097, 3 * 4096 + 5,
               64 * KB, 256 * KB, MB, MB + 17, 2 * MB]
    for round_ in range(4):
        # Fresh regions, so every round starts from absent blocks.
        rng = random.Random(size + round_)
        region = PhysRegion(0, 0, size)
        oracle = bytearray(size)
        for _step in range(400):
            if rng.random() < 0.2:
                # Block-aligned: whole-block writes take the alias path.
                grain = min(rng.choice([64 * KB, 64 * KB, MB]), size)
                offset = rng.randrange(min(size // grain, 4)) * grain
                length = min(rng.choice([grain, grain, 2 * grain, 64]),
                             size - offset)
            else:
                offset = rng.choice(spots) + rng.randrange(-9000, 9000)
                offset = max(0, min(size - 1, offset))
                length = min(rng.choice(lengths), size - offset)
            op = rng.random()
            if op < 0.5:
                data = rng.randbytes(length)
                region.write(offset, _source(rng, data))
                oracle[offset : offset + length] = data
            elif op < 0.8:
                assert (region.read(offset, length)
                        == oracle[offset : offset + length])
            else:
                buf = bytearray(length)
                assert region.read_into(offset, buf) == length
                assert buf == oracle[offset : offset + length]
        assert region.read(0, size) == oracle
        assert region.resident_bytes <= size


def test_sparse_block_promotes_to_dense_without_losing_bytes():
    """Page-sized steps across one 1 MiB block: each first touch holds
    a short page (up to the write's end), then the block jumps to its
    full size once, when a quarter of its pages are touched, and
    contents survive the promotion."""
    region = PhysRegion(0, 0, 8 * MB)
    oracle = bytearray(8 * MB)
    seen = [0]
    for page in range(256):
        data = bytes([page % 251 + 1]) * 64
        offset = MB + page * 4096 + 100
        region.write(offset, data)
        oracle[offset : offset + 64] = data
        resident = region.resident_bytes
        assert resident - seen[-1] == 164 or resident == MB
        seen.append(resident)
        assert region.read(MB, MB) == oracle[MB : 2 * MB]
    assert seen[1] == 164 and seen[-1] == MB
    assert seen.index(MB) == 64
    assert region.read(0, 8 * MB) == oracle


def test_first_touch_cost_is_proportional_to_bytes_written():
    """A page written once holds bytes up to the end of that write; a
    page written twice holds a full page."""
    rng = random.Random(14)
    region = PhysRegion(0, 0, 1 << 30)
    offsets = [rng.randrange((1 << 30) // 64) * 64 for _ in range(2000)]
    tracemalloc.start()
    try:
        for offset in offsets:
            region.write(offset, b"y" * 64)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    by_page = {}
    for offset in offsets:
        by_page.setdefault(offset // 4096, []).append(offset % 4096 + 64)
    assert any(len(ends) > 1 for ends in by_page.values())
    assert region.resident_bytes == sum(
        ends[0] if len(ends) == 1 else 4096 for ends in by_page.values())
    assert region.resident_bytes < 0.6 * len(by_page) * 4096
    assert peak < 8 * MB
    assert region.read(offsets[0], 64) == b"y" * 64

    # A write inside a one-page region stays a short page; the second
    # write makes the block dense.
    small = PhysRegion(0, 0, 4096)
    small.write(128, b"y" * 64)
    assert small.resident_bytes == 192
    assert small.read(0, 4096) == bytes(128) + b"y" * 64 + bytes(3904)
    small.write(0, b"z")
    assert small.resident_bytes == 4096
    assert small.read(0, 256) == b"z" + bytes(127) + b"y" * 64 + bytes(64)
    # A region nothing has written holds no block table of its own.
    assert PhysRegion(0, 0, 4096)._blocks is PhysRegion(0, 8192, 64)._blocks


def test_exact_extent_read_of_aliased_block_is_zero_copy():
    region = PhysRegion(0, 0, 4 * MB)
    data = random.Random(3).randbytes(MB)
    region.write(MB, data)
    assert region.read(MB, MB) is data
    region.write(2 * MB, memoryview(data))
    assert region.read(2 * MB, MB) is data
    # Copy-on-write: a partial overwrite must not reach the source.
    region.write(MB + 5, b"patch")
    assert region.read(MB, 16) == data[:5] + b"patch" + data[10:16]
    assert region.read(2 * MB, MB) is data


def test_host_memory_resident_bytes_follows_live_regions():
    mem = make_mem(capacity=1 << 30)
    a = mem.alloc(4096)
    b = mem.alloc(64 * MB)
    assert mem.resident_bytes == 0
    a.write(100, b"xy")
    b.write(5 * MB + 10, b"x")
    assert mem.resident_bytes == a.resident_bytes + b.resident_bytes == 113
    b.write(5 * MB + 20, b"x")  # second touch: b's page grows to 4 KB
    assert mem.resident_bytes == 102 + 4096
    mem.free(b)
    assert mem.resident_bytes == 102
