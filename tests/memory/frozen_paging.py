"""Frozen copies of the paging code before the lazy pool and fused fault path.

Test-only oracles for ``test_lazy_pool_identity.py`` and
``test_fault_path_identity.py``: the eager :class:`EagerFramePool`, and
the per-page ``touch`` / ``touch_sequential`` / ``_obtain_frame`` paths
with the throttled ``touch`` override.  They are kept verbatim in
behaviour so the optimized code can be checked against them step by step;
do not "fix" them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import MemoryError_
from repro.memory import DEFAULT_PAGE_SIZE, ThrottledVirtualMemory, VirtualMemory
from repro.memory.pagetable import AddressSpace
from repro.memory.physical import Frame
from repro.memory.vm import AccessResult


class EagerFramePool:
    """A fixed pool of physical frames with a free list, built up front."""

    def __init__(self, total_bytes: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise MemoryError_("page size must be positive")
        if total_bytes < page_size:
            raise MemoryError_("physical memory smaller than one page")
        self.page_size = page_size
        self.total_frames = total_bytes // page_size
        self.frames: List[Frame] = [Frame(i) for i in range(self.total_frames)]
        self._free: List[Frame] = list(reversed(self.frames))
        for frame in self._free:
            frame.free = True

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def used_frames(self) -> int:
        return self.total_frames - len(self._free)

    def pin(self, nbytes: int) -> int:
        npages = -(-nbytes // self.page_size)
        if npages > self.free_frames:
            raise MemoryError_(
                f"cannot pin {npages} frames; only {self.free_frames} free"
            )
        for _ in range(npages):
            frame = self._free.pop()
            frame.free = False
            frame.pinned = True
        return npages

    def allocate(self) -> Optional[Frame]:
        if not self._free:
            return None
        frame = self._free.pop()
        frame.free = False
        frame.dirty = False
        frame.referenced = False
        return frame

    def release(self, frame: Frame) -> None:
        if frame.pinned:
            raise MemoryError_(f"cannot release pinned frame {frame.index}")
        if frame.free:
            raise MemoryError_(f"double free of frame {frame.index}")
        frame.owner = None
        frame.vpn = None
        frame.dirty = False
        frame.referenced = False
        frame.free = True
        self._free.append(frame)


class _FrozenAccessPaths:
    """The per-page access path: ``touch`` → ``_obtain_frame`` per page."""

    def _fault(self, space, vpn, write):  # pragma: no cover - guard
        raise AssertionError("the oracle must not reach the fused fault path")

    def touch(
        self, space: AddressSpace, vpn: int, *, write: bool = False
    ) -> AccessResult:
        frame = space.lookup(vpn)
        if frame is not None:
            self.policy.access(frame)
            if write:
                frame.dirty = True
            space.hits += 1
            self.total_hits += 1
            if self._obs is not None:
                self._count_hits(1)
            return AccessResult(self.HIT_LATENCY_MS, False, 0, 0)

        space.faults += 1
        self.total_faults += 1
        if self._obs is not None:
            counter = self._faults_counter
            if counter is None:
                counter = self._faults_counter = self._obs.metrics.counter(
                    "mem.faults"
                )
            counter.value += 1
        latency = 0.0
        evicted = 0
        to_read = [vpn]
        for next_vpn in range(vpn + 1, vpn + self.read_cluster):
            if next_vpn < space.num_pages and space.lookup(next_vpn) is None:
                to_read.append(next_vpn)
            else:
                break

        mapped = 0
        for fault_vpn in to_read:
            frame, evict_latency, evict_count = self._obtain_frame(space)
            if frame is None:
                if mapped:
                    break
                raise MemoryError_(
                    "out of memory: no free frames and no evictable pages"
                )
            latency += evict_latency
            evicted += evict_count
            space.map(fault_vpn, frame)
            if write and fault_vpn == vpn:
                frame.dirty = True
            self.policy.insert(frame)
            mapped += 1

        latency += self.disk.read_ms(mapped)
        if self._obs is not None:
            hist = self._fault_latency_hist
            if hist is None:
                hist = self._fault_latency_hist = self._obs.metrics.histogram(
                    "mem.fault_latency_ms"
                )
            hist.observe(latency)
        return AccessResult(latency, True, evicted, mapped)

    def touch_sequential(
        self, space: AddressSpace, start_vpn: int, npages: int, *, write: bool = False
    ) -> float:
        total = 0.0
        hit_run = 0
        hit_latency = self.HIT_LATENCY_MS
        lookup = space.lookup
        access = self.policy.access
        num_pages = space.num_pages
        for vpn in range(start_vpn, start_vpn + npages):
            v = vpn % num_pages
            frame = lookup(v)
            if frame is not None:
                access(frame)
                if write:
                    frame.dirty = True
                hit_run += 1
                total += hit_latency
            else:
                total += self.touch(space, v, write=write).latency_ms
        if hit_run:
            space.hits += hit_run
            self.total_hits += hit_run
            if self._obs is not None:
                self._count_hits(hit_run)
        return total

    def _obtain_frame(self, requester: AddressSpace):
        frame = self.pool.allocate()
        if frame is not None:
            return frame, 0.0, 0
        victim = self._select_victim(requester)
        if victim is None:
            return None, 0.0, 0
        latency = self._evict(victim)
        frame = self.pool.allocate()
        assert frame is not None
        return frame, latency, 1


class FrozenVirtualMemory(_FrozenAccessPaths, VirtualMemory):
    """:class:`VirtualMemory` with the frozen per-page access path."""


class FrozenThrottledVirtualMemory(_FrozenAccessPaths, ThrottledVirtualMemory):
    """:class:`ThrottledVirtualMemory` throttling in its frozen ``touch``."""

    def touch(
        self, space: AddressSpace, vpn: int, *, write: bool = False
    ) -> AccessResult:
        pressured = self.under_pressure
        result = _FrozenAccessPaths.touch(self, space, vpn, write=write)
        if result.faulted and pressured and not space.interactive:
            self.throttled_faults += 1
            result.latency_ms += self.throttle_ms
        return result
