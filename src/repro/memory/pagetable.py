"""Per-process page tables and address spaces."""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import MemoryError_
from .physical import Frame


class AddressSpace:
    """A process's virtual memory: ``num_pages`` pages, a resident subset.

    The page table maps virtual page numbers (vpn) to physical frames for
    the resident pages; everything else lives on the paging disk.
    """

    def __init__(
        self,
        name: str,
        num_pages: int,
        *,
        interactive: bool = False,
    ) -> None:
        if num_pages <= 0:
            raise MemoryError_("address space needs at least one page")
        self.name = name
        self.num_pages = num_pages
        #: Interactive processes are the beneficiaries of Evans et al.'s
        #: throttling/working-set protection (see repro.memory.throttle).
        self.interactive = interactive
        self._table: Dict[int, Frame] = {}

        # Accounting.
        self.faults = 0
        self.hits = 0
        self.evicted_pages = 0

    def _check_vpn(self, vpn: int) -> None:
        if not 0 <= vpn < self.num_pages:
            raise MemoryError_(
                f"{self.name}: vpn {vpn} out of range [0, {self.num_pages})"
            )

    def lookup(self, vpn: int) -> Optional[Frame]:
        """The frame holding *vpn*, or None if not resident."""
        if not 0 <= vpn < self.num_pages:
            self._check_vpn(vpn)  # raises
        return self._table.get(vpn)

    def map(self, vpn: int, frame: Frame) -> None:
        """Install the translation vpn → frame."""
        if not 0 <= vpn < self.num_pages:
            self._check_vpn(vpn)  # raises
        if vpn in self._table:
            raise MemoryError_(f"{self.name}: vpn {vpn} already mapped")
        frame.owner = self
        frame.vpn = vpn
        self._table[vpn] = frame

    def unmap(self, vpn: int) -> Frame:
        """Remove the translation for *vpn*, returning its frame."""
        self._check_vpn(vpn)
        frame = self._table.pop(vpn, None)
        if frame is None:
            raise MemoryError_(f"{self.name}: vpn {vpn} is not resident")
        frame.owner = None
        frame.vpn = None
        self.evicted_pages += 1
        return frame

    @property
    def resident_pages(self) -> int:
        """How many of this space's pages are in physical memory."""
        return len(self._table)

    def resident_vpns(self) -> list:
        """Sorted virtual page numbers currently resident."""
        return sorted(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AddressSpace {self.name!r} {self.resident_pages}"
            f"/{self.num_pages} resident>"
        )
