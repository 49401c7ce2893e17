"""The virtual-memory manager: faults, eviction, page-in latency.

:class:`VirtualMemory` ties together the frame pool, per-process address
spaces, a replacement policy, and the paging disk.  It is *clock-agnostic*:
``touch`` returns the latency the access cost, and callers (experiments,
the thin-client server composition) account for that time on their own
clocks.  This keeps the module usable both inside the event simulator and
in closed-form experiments.

The latency structure is the paper's (§5.2): while the active data set fits,
access latency is bounded by the memory hierarchy (modelled as a small
constant); when physical memory is exhausted, every miss pays a disk
service time, which dwarfs everything else.

Every miss, whether from :meth:`VirtualMemory.touch` or from a streamed
:meth:`VirtualMemory.touch_sequential`, runs :meth:`VirtualMemory._fault`:
it is the single override point for fault-time policy, which is how
:class:`repro.memory.throttle.ThrottledVirtualMemory` adds its penalty.
The frame pool creates frames lazily (see :mod:`repro.memory.physical`)
but hands them out in the same order an eager pool would.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MemoryError_
from ..obs import current_observation
from .disk import PagingDisk
from .pagetable import AddressSpace
from .physical import Frame, FramePool
from .replacement import ReplacementPolicy


class AccessResult:
    """Outcome of a single page touch."""

    __slots__ = ("latency_ms", "faulted", "evicted", "pages_read")

    def __init__(
        self, latency_ms: float, faulted: bool, evicted: int, pages_read: int
    ) -> None:
        self.latency_ms = latency_ms
        self.faulted = faulted
        self.evicted = evicted  #: frames evicted to satisfy this access
        self.pages_read = pages_read  #: pages transferred from disk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "fault" if self.faulted else "hit"
        return f"<AccessResult {kind} {self.latency_ms:.3f}ms>"


class VirtualMemory:
    """Global-replacement demand paging over a fixed frame pool."""

    #: Latency of a memory-hierarchy hit, in ms.  Negligible next to disk
    #: service times, but non-zero so hit paths consume simulated time.
    HIT_LATENCY_MS = 0.0002

    def __init__(
        self,
        pool: FramePool,
        disk: PagingDisk,
        policy: ReplacementPolicy,
        *,
        read_cluster: int = 1,
        synchronous_writeback: bool = False,
    ) -> None:
        if read_cluster < 1:
            raise MemoryError_("read cluster must be >= 1")
        self.pool = pool
        self.disk = disk
        self.policy = policy
        self.read_cluster = read_cluster
        self.synchronous_writeback = synchronous_writeback
        self.spaces: List[AddressSpace] = []

        # Global accounting.
        self.total_faults = 0
        self.total_hits = 0
        self.total_evictions = 0
        self.total_writebacks = 0
        self._obs = current_observation()
        # Lazily-resolved instrument handles: the hit/fault paths are the
        # hottest loops in the memory experiments and must not pay a
        # registry name lookup per access — but instruments may only be
        # registered on first actual use, so an untouched VM never emits
        # zero-valued metrics (which would change the golden snapshots).
        self._hits_counter = None
        self._faults_counter = None
        self._fault_latency_hist = None
        self._writebacks_counter = None
        self._evictions_counter = None

    # -- process management ----------------------------------------------------

    def create_process(
        self, name: str, size_bytes: int, *, interactive: bool = False
    ) -> AddressSpace:
        """Create an address space of ``ceil(size_bytes / page_size)`` pages."""
        num_pages = -(-size_bytes // self.pool.page_size)
        space = AddressSpace(name, num_pages, interactive=interactive)
        self.spaces.append(space)
        return space

    def destroy_process(self, space: AddressSpace) -> None:
        """Free every resident frame of *space*."""
        for vpn in list(space.resident_vpns()):
            frame = space.lookup(vpn)
            assert frame is not None
            self.policy.remove(frame)
            space.unmap(vpn)
            self.pool.release(frame)
        self.spaces.remove(space)

    # -- the access path -----------------------------------------------------------

    def touch(
        self, space: AddressSpace, vpn: int, *, write: bool = False
    ) -> AccessResult:
        """Access one page; fault it (and its read cluster) in if needed."""
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
        latency, evicted, mapped = self._fault(space, vpn, write)
        return AccessResult(latency, True, evicted, mapped)

    def touch_sequential(
        self, space: AddressSpace, start_vpn: int, npages: int, *, write: bool = False
    ) -> float:
        """Touch ``[start_vpn, start_vpn + npages)`` in order; total latency.

        Batch-aware: runs of hits are accounted inline — no per-page
        :class:`AccessResult` allocation, one counter update per run —
        and each miss goes straight to :meth:`_fault`.  Totals
        (``space.hits``, ``total_hits``, the ``mem.hits`` counter) end
        identical to *npages* individual :meth:`touch` calls.
        """
        total = 0.0
        hit_run = 0
        hit_latency = self.HIT_LATENCY_MS
        # ``vpn % num_pages`` is always in range, so the page table is read
        # directly rather than through the range-checking ``space.lookup``.
        lookup = space._table.get
        access = self.policy.access
        fault = self._fault
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
                total += fault(space, v, write)[0]
        if hit_run:
            space.hits += hit_run
            self.total_hits += hit_run
            if self._obs is not None:
                self._count_hits(hit_run)
        return total

    def _count_hits(self, n: int) -> None:
        counter = self._hits_counter
        if counter is None:
            counter = self._hits_counter = self._obs.metrics.counter("mem.hits")
        counter.value += n

    def resident_fraction(self, space: AddressSpace) -> float:
        """Fraction of *space*'s pages currently in physical memory."""
        return space.resident_pages / space.num_pages

    # -- internals --------------------------------------------------------------

    def _fault(self, space: AddressSpace, vpn: int, write: bool):
        """Page fault on the non-resident *vpn*: bring in its read cluster.

        Maps *vpn* plus the following non-resident pages, up to
        ``read_cluster`` in all, evicting a victim whenever the pool is
        empty.  Returns ``(latency_ms, evicted, pages_mapped)``.  This is
        the one fault path — :meth:`touch` and :meth:`touch_sequential`
        both end here — and so the single override point for fault-time
        policy such as throttling.
        """
        space.faults += 1
        self.total_faults += 1
        obs = self._obs
        if obs is not None:
            counter = self._faults_counter
            if counter is None:
                counter = self._faults_counter = obs.metrics.counter("mem.faults")
            counter.value += 1

        # The cluster is vpn and the non-resident pages right after it.
        table = space._table
        end = vpn + self.read_cluster
        if end > space.num_pages:
            end = space.num_pages
        stop = vpn + 1
        while stop < end and stop not in table:
            stop += 1

        pool = self.pool
        insert = self.policy.insert
        latency = 0.0
        evicted = 0
        mapped = 0
        for fault_vpn in range(vpn, stop):
            frame = pool.allocate()
            if frame is None:
                victim = self._select_victim(space)
                if victim is None:
                    if mapped:
                        break  # cluster truncated by memory pressure
                    raise MemoryError_(
                        "out of memory: no free frames and no evictable pages"
                    )
                latency += self._evict(victim)
                evicted += 1
                frame = pool.allocate()
                assert frame is not None
            space.map(fault_vpn, frame)
            if write and fault_vpn == vpn:
                frame.dirty = True
            insert(frame)
            mapped += 1

        latency += self.disk.read_ms(mapped)
        if obs is not None:
            hist = self._fault_latency_hist
            if hist is None:
                hist = self._fault_latency_hist = obs.metrics.histogram(
                    "mem.fault_latency_ms"
                )
            hist.observe(latency)
        return latency, evicted, mapped

    def _select_victim(self, requester: AddressSpace) -> Optional[Frame]:
        if len(self.policy) == 0:
            return None
        return self.policy.select_victim()

    def _evict(self, victim: Frame) -> float:
        """Unmap and free *victim*; returns synchronous write-back latency."""
        owner = victim.owner
        assert isinstance(owner, AddressSpace)
        assert victim.vpn is not None
        latency = 0.0
        if victim.dirty:
            self.total_writebacks += 1
            write_ms = self.disk.write_ms(1)
            if self.synchronous_writeback:
                latency = write_ms
            if self._obs is not None:
                counter = self._writebacks_counter
                if counter is None:
                    counter = self._writebacks_counter = (
                        self._obs.metrics.counter("mem.writebacks")
                    )
                counter.value += 1
        owner.unmap(victim.vpn)
        self.pool.release(victim)
        self.total_evictions += 1
        if self._obs is not None:
            counter = self._evictions_counter
            if counter is None:
                counter = self._evictions_counter = self._obs.metrics.counter(
                    "mem.evictions"
                )
            counter.value += 1
        return latency
