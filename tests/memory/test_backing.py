"""Tests for the functional backing memory."""

import os

import pytest

from repro.errors import MemoryError_
from repro.ir.types import F32, I8, I32, I64, ptr
from repro.memory import MainMemory


class TestConstruction:
    @pytest.mark.parametrize("size", [0, -1, 1024.0, "1024", None])
    def test_bad_size_rejected(self, size):
        with pytest.raises(MemoryError_, match="positive int"):
            MainMemory(size)

    def test_fresh_memory_reads_zero(self):
        mem = MainMemory(1 << 16)
        assert mem.read_bytes(64, 1 << 15) == bytes(1 << 15)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_private(self):
        """Sweep workers are forked: a child's writes into an inherited
        memory must not reach the parent's image."""
        mem = MainMemory(1 << 16)
        addr = mem.alloc(4)
        mem.write_int(addr, 4, 7)
        pid = os.fork()
        if pid == 0:
            try:
                mem.write_int(addr, 4, 99)
                os._exit(0 if mem.read_int(addr, 4) == 99 else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert mem.read_int(addr, 4) == 7


class TestAllocation:
    def test_alloc_respects_alignment(self):
        mem = MainMemory(1 << 16)
        a = mem.alloc(10, align=8)
        b = mem.alloc(10, align=8)
        assert a % 8 == 0 and b % 8 == 0
        assert b >= a + 10

    def test_address_zero_never_allocated(self):
        mem = MainMemory(1 << 16)
        assert mem.alloc(8) > 0

    def test_out_of_memory(self):
        mem = MainMemory(1024)
        with pytest.raises(MemoryError_, match="out of simulated memory"):
            mem.alloc(4096)

    def test_zero_byte_alloc_rejected(self):
        mem = MainMemory(1024)
        with pytest.raises(MemoryError_):
            mem.alloc(0)


class TestTypedAccess:
    def setup_method(self):
        self.mem = MainMemory(1 << 16)

    def test_i32_roundtrip(self):
        addr = self.mem.alloc(4)
        self.mem.write_value(addr, I32, -12345)
        assert self.mem.read_value(addr, I32) == -12345

    def test_i32_wraps(self):
        addr = self.mem.alloc(4)
        self.mem.write_value(addr, I32, 2 ** 31)  # overflow
        assert self.mem.read_value(addr, I32) == -(2 ** 31)

    def test_i8_roundtrip(self):
        addr = self.mem.alloc(1)
        self.mem.write_value(addr, I8, -5)
        assert self.mem.read_value(addr, I8) == -5

    def test_f32_roundtrip(self):
        addr = self.mem.alloc(4)
        self.mem.write_value(addr, F32, 3.5)
        assert self.mem.read_value(addr, F32) == 3.5

    def test_pointer_roundtrip(self):
        addr = self.mem.alloc(8)
        self.mem.write_value(addr, ptr(I32), 0xDEAD)
        assert self.mem.read_value(addr, ptr(I32)) == 0xDEAD

    def test_adjacent_values_do_not_clobber(self):
        addr = self.mem.alloc(8)
        self.mem.write_value(addr, I32, 1)
        self.mem.write_value(addr + 4, I32, 2)
        assert self.mem.read_value(addr, I32) == 1
        assert self.mem.read_value(addr + 4, I32) == 2


class TestBoundsChecking:
    def test_null_access_faults(self):
        mem = MainMemory(1024)
        with pytest.raises(MemoryError_, match="null"):
            mem.read_value(0, I32)

    def test_out_of_range_faults(self):
        mem = MainMemory(1024)
        with pytest.raises(MemoryError_, match="out of range"):
            mem.read_value(1022, I32)
        with pytest.raises(MemoryError_, match="out of range"):
            mem.write_value(2048, I32, 1)


class TestArrays:
    def test_array_roundtrip(self):
        mem = MainMemory(1 << 16)
        base = mem.alloc_array(I32, range(100))
        assert mem.read_array(base, I32, 100) == list(range(100))

    def test_i64_array(self):
        mem = MainMemory(1 << 16)
        vals = [2 ** 40, -2 ** 40, 7]
        base = mem.alloc_array(I64, vals)
        assert mem.read_array(base, I64, 3) == vals
