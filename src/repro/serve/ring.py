"""Per-UE report ring buffers.

Each subscribed UE owns one :class:`ReportRing`: a bounded,
epoch-indexed buffer of not-yet-processed measurement reports.  The
ring accepts reports for the current service epoch and up to
``capacity - 1`` epochs ahead (out-of-order arrival within the window
is fine), and classifies everything else deterministically:

* ``late`` — the report's epoch already closed; dropped, counted;
* ``duplicate`` — an epoch already buffered; first report wins;
* ``overflow`` — beyond the ring's look-ahead window; dropped, counted.

The classification is a pure function of ``(report.epoch,
current_epoch, buffered epochs)``, so any replay of the same report
sequence produces the same accept/drop decisions — the property the
epoch-close tests pin.
"""

from __future__ import annotations

from .protocol import Report

__all__ = ["ReportRing", "DEFAULT_RING_CAPACITY"]

#: Default per-UE look-ahead window, in epochs.
DEFAULT_RING_CAPACITY = 64

#: The push() verdicts, in the order the stats counters report them.
PUSH_STATUSES = ("accepted", "late", "duplicate", "overflow")


class ReportRing:
    """A bounded epoch-indexed buffer of one UE's pending reports."""

    __slots__ = ("capacity", "_slots")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._slots: dict[int, Report] = {}

    def push(self, report: Report, current_epoch: int) -> str:
        """Classify and (when accepted) buffer one report.

        Returns one of :data:`PUSH_STATUSES`.
        """
        epoch = report.epoch
        if epoch < current_epoch:
            return "late"
        if epoch >= current_epoch + self.capacity:
            return "overflow"
        if epoch in self._slots:
            return "duplicate"
        self._slots[epoch] = report
        return "accepted"

    def pop(self, epoch: int):
        """Remove and return the report buffered for ``epoch``
        (``None`` when the UE has not reported it)."""
        return self._slots.pop(epoch, None)

    def has(self, epoch: int) -> bool:
        return epoch in self._slots

    def epochs(self) -> list[int]:
        """The epochs this ring holds a buffered report for."""
        return list(self._slots)

    def pending(self) -> int:
        """Number of buffered (unprocessed) reports."""
        return len(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:
        return (
            f"ReportRing(capacity={self.capacity}, "
            f"pending={len(self._slots)})"
        )
