"""Physical memory: a pool of page frames.

The unit of management is the **frame** — a physical page of ``page_size``
bytes.  Frames are either free, pinned (kernel/OS base usage that is never
paged, §5.1.1's "memory unavailable to user applications"), or owned by a
process page table.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MemoryError_
from ..units import KB

#: The page size of both measured systems (i386): 4 KB.
DEFAULT_PAGE_SIZE = 4 * KB


class Frame:
    """One physical page frame."""

    __slots__ = ("index", "owner", "vpn", "dirty", "referenced", "pinned", "free")

    def __init__(self, index: int) -> None:
        self.index = index
        self.owner: Optional[object] = None  #: the AddressSpace using it
        self.vpn: Optional[int] = None  #: virtual page number within owner
        self.dirty = False
        self.referenced = False
        self.pinned = False
        self.free = False  #: on the pool's released-frame stack

    @property
    def in_use(self) -> bool:
        """True when owned by a process or pinned by the OS."""
        return self.owner is not None or self.pinned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.index} owner={self.owner!r} vpn={self.vpn}>"


class FramePool:
    """A fixed pool of physical frames, created on first use.

    A pool of ``total_frames`` frames creates no :class:`Frame` up front:
    frame ``i`` is built by the first allocation or pin that needs it, so
    a large pool that a run only partly touches costs only what it uses.
    ``frames`` holds the frames created so far, in index order.

    ``_free`` is a LIFO stack of *released* frames only.  A request pops it
    first and otherwise creates frame ``len(frames)``.  This hands out the
    same frames in the same order as an eager pool whose free list starts
    as ``reversed(frames)``: there the never-used frames always form the
    bottom of the stack in descending index order, so pops yield
    0, 1, 2, ... until a frame is released, and released frames, pushed on
    top, come back LIFO before the next never-used one.
    """

    def __init__(self, total_bytes: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise MemoryError_("page size must be positive")
        if total_bytes < page_size:
            raise MemoryError_("physical memory smaller than one page")
        self.page_size = page_size
        self.total_frames = total_bytes // page_size
        self.frames: List[Frame] = []
        self._free: List[Frame] = []

    @property
    def free_frames(self) -> int:
        """Frames neither allocated nor pinned (created or not)."""
        return self.total_frames - len(self.frames) + len(self._free)

    @property
    def used_frames(self) -> int:
        """Frames allocated or pinned."""
        return len(self.frames) - len(self._free)

    def pin(self, nbytes: int) -> int:
        """Permanently reserve *nbytes* (rounded up to whole frames).

        Models the OS base memory usage (17 MB Linux / 19 MB TSE idle).
        Returns the number of frames pinned.
        """
        npages = -(-nbytes // self.page_size)
        if npages > self.free_frames:
            raise MemoryError_(
                f"cannot pin {npages} frames; only {self.free_frames} free"
            )
        free = self._free
        reused = min(npages, len(free))
        for _ in range(reused):
            frame = free.pop()
            frame.free = False
            frame.pinned = True
        frames = self.frames
        start = len(frames)
        for index in range(start, start + npages - reused):
            frame = Frame(index)
            frame.pinned = True
            frames.append(frame)
        return npages

    def allocate(self) -> Optional[Frame]:
        """Take a free frame, or None if physical memory is exhausted."""
        free = self._free
        if free:
            frame = free.pop()
            frame.free = False
            frame.dirty = False
            frame.referenced = False
            return frame
        frames = self.frames
        index = len(frames)
        if index < self.total_frames:
            frame = Frame(index)
            frames.append(frame)
            return frame
        return None

    def release(self, frame: Frame) -> None:
        """Return *frame* to the free list."""
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
