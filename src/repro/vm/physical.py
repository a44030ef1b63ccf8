"""Per-node physical memory with real backing bytes.

Every node owns one :class:`PhysicalMemory`. All data that applications
read or write — local loads/stores, RMC line reads at the destination of
a remote read, payload deposits by the RCP — ultimately lands here, so
functional correctness (does the remote read return the bytes that were
written?) is enforced by construction and independently of any timing
model. See DESIGN.md, "Functional-accuracy note".

The :class:`FrameAllocator` hands out physical page frames to address
spaces; the OS-model device driver uses it to back and pin context
segments (paper §5.1).
"""

from __future__ import annotations

import mmap
from typing import List

from .address import PAGE_SIZE

__all__ = ["PhysicalMemory", "FrameAllocator", "OutOfMemoryError"]


class OutOfMemoryError(MemoryError):
    """No free physical frames remain on this node."""


class PhysicalMemory:
    """A flat byte-addressable physical memory of ``size`` bytes.

    Backed by an anonymous ``mmap``: it reads as zeros and the host
    commits a page only when it is first written.
    """

    def __init__(self, size: int):
        if size <= 0 or size % PAGE_SIZE != 0:
            raise ValueError(
                f"physical memory size must be a positive multiple of the "
                f"page size ({PAGE_SIZE}), got {size}"
            )
        self.size = size
        self._data = mmap.mmap(-1, size)

    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes at physical address ``paddr``."""
        self._check_range(paddr, length)
        return self._data[paddr:paddr + length]

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` at physical address ``paddr``."""
        self._check_range(paddr, len(data))
        self._data[paddr:paddr + len(data)] = data

    def read_u64(self, paddr: int) -> int:
        """Read an 8-byte little-endian unsigned integer (atomics use this)."""
        return int.from_bytes(self.read(paddr, 8), "little")

    def write_u64(self, paddr: int, value: int) -> None:
        """Write an 8-byte little-endian unsigned integer."""
        self.write(paddr, (value & (2 ** 64 - 1)).to_bytes(8, "little"))

    def _check_range(self, paddr: int, length: int) -> None:
        if paddr < 0 or length < 0 or paddr + length > self.size:
            raise IndexError(
                f"physical access [{paddr}, {paddr + length}) outside "
                f"memory of size {self.size}"
            )


class FrameAllocator:
    """Allocates physical page frames from a :class:`PhysicalMemory`.

    Frames are handed out low-to-high and recycled via a free list. The
    device driver "pins" frames simply by holding the allocation for the
    lifetime of the context segment.
    """

    def __init__(self, memory: PhysicalMemory, reserved_bytes: int = 0):
        if reserved_bytes % PAGE_SIZE != 0:
            raise ValueError("reserved_bytes must be page-aligned")
        self.memory = memory
        self._next_frame = reserved_bytes // PAGE_SIZE
        self._total_frames = memory.size // PAGE_SIZE
        self._free: List[int] = []
        self.allocated_frames = 0

    @property
    def free_frames(self) -> int:
        remaining = self._total_frames - self._next_frame
        return remaining + len(self._free)

    def alloc_frame(self) -> int:
        """Return the physical base address of a fresh (zeroed) frame."""
        if self._free:
            frame = self._free.pop()
        elif self._next_frame < self._total_frames:
            frame = self._next_frame
            self._next_frame += 1
        else:
            raise OutOfMemoryError(
                f"out of physical frames ({self._total_frames} total)"
            )
        self.allocated_frames += 1
        paddr = frame * PAGE_SIZE
        self.memory.write(paddr, bytes(PAGE_SIZE))  # zero the frame
        return paddr

    def alloc_frames(self, count: int) -> List[int]:
        """Allocate ``count`` frames; all-or-nothing."""
        if count > self.free_frames:
            raise OutOfMemoryError(
                f"requested {count} frames, only {self.free_frames} free"
            )
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, paddr: int) -> None:
        """Return a frame to the allocator."""
        if paddr % PAGE_SIZE != 0:
            raise ValueError(f"frame address {paddr:#x} not page-aligned")
        self._free.append(paddr // PAGE_SIZE)
        self.allocated_frames -= 1
