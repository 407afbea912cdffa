"""Functional backing store: the byte-addressed shared memory.

Timing is modelled by the cache/DRAM components; *data* always lives here,
so host and accelerator observe one coherent memory image — the paper's
shared-memory programming model (§III-E).

The image is a private anonymous mapping: the OS supplies zero pages on
first touch, so building a memory costs what the program touches, not
its size. Private, because sweep workers are forked and must not write
into their parent's image. (A mapping cannot be pickled.)
"""

from __future__ import annotations

import mmap
import struct

from repro.errors import MemoryError_
from repro.ir.types import FloatType, IntType, PointerType, Type


class MainMemory:
    """Flat byte-addressed memory with a bump allocator for host data."""

    def __init__(self, size_bytes: int = 1 << 22):
        if not isinstance(size_bytes, int) or size_bytes <= 0:
            raise MemoryError_(
                f"memory size must be a positive int, not {size_bytes!r}")
        self.size = size_bytes
        self.data = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)
        # address 0 is kept unmapped so null pointers fault loudly
        self._next_free = 64

    # -- allocation ---------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Host-side bump allocation; returns the base address."""
        if nbytes <= 0:
            raise MemoryError_(f"allocation of {nbytes} bytes")
        base = (self._next_free + align - 1) // align * align
        if base + nbytes > self.size:
            raise MemoryError_(
                f"out of simulated memory: need {nbytes} at {base}, size {self.size}")
        self._next_free = base + nbytes
        return base

    def reserve_region(self, nbytes: int) -> int:
        """Reserve a dedicated region (e.g. the task-frame stack), aligned
        to a 64-byte cache line."""
        return self.alloc(nbytes, 64)

    # -- raw access -----------------------------------------------------------

    def _check(self, addr: int, size: int):
        if addr < 0 or addr + size > self.size:
            raise MemoryError_(f"access [{addr}, {addr + size}) out of range")
        if addr == 0:
            raise MemoryError_("null pointer access")

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return self.data[addr:addr + size]

    def write_bytes(self, addr: int, payload: bytes):
        self._check(addr, len(payload))
        self.data[addr:addr + len(payload)] = payload

    # -- typed access -----------------------------------------------------

    def read_int(self, addr: int, size: int, signed: bool = True) -> int:
        return int.from_bytes(self.read_bytes(addr, size), "little", signed=signed)

    def write_int(self, addr: int, size: int, value: int):
        mask = (1 << (8 * size)) - 1
        self.write_bytes(addr, (int(value) & mask).to_bytes(size, "little"))

    def read_f32(self, addr: int) -> float:
        return struct.unpack("<f", self.read_bytes(addr, 4))[0]

    def write_f32(self, addr: int, value: float):
        self.write_bytes(addr, struct.pack("<f", float(value)))

    def read_value(self, addr: int, type_: Type):
        """Read a value of an IR type."""
        if isinstance(type_, FloatType):
            return self.read_f32(addr)
        if isinstance(type_, IntType):
            raw = self.read_int(addr, type_.size_bytes, signed=(type_.bits > 1))
            return type_.wrap(raw)
        if isinstance(type_, PointerType):
            return self.read_int(addr, 8, signed=False)
        raise MemoryError_(f"cannot read value of type {type_!r}")

    def write_value(self, addr: int, type_: Type, value):
        if isinstance(type_, FloatType):
            self.write_f32(addr, value)
        elif isinstance(type_, IntType):
            self.write_int(addr, type_.size_bytes, int(value))
        elif isinstance(type_, PointerType):
            self.write_int(addr, 8, int(value))
        else:
            raise MemoryError_(f"cannot write value of type {type_!r}")

    # -- array convenience (host runtime) ------------------------------------

    def alloc_array(self, type_: Type, values) -> int:
        """Allocate and initialise an array; returns the base address."""
        values = list(values)
        elem = type_.size_bytes
        base = self.alloc(max(1, elem * len(values)), align=8)
        for i, v in enumerate(values):
            self.write_value(base + i * elem, type_, v)
        return base

    def read_array(self, addr: int, type_: Type, count: int):
        elem = type_.size_bytes
        return [self.read_value(addr + i * elem, type_) for i in range(count)]
