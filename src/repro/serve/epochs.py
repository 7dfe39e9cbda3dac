"""Deterministic epoch scheduling over per-UE report rings.

The :class:`EpochScheduler` is the pure (asyncio-free) core of the
service's epoch semantics: UEs subscribe and unsubscribe, reports are
offered into per-UE :class:`~repro.serve.ring.ReportRing` buffers, and
the *current* epoch closes either on the **watermark** (every currently
subscribed UE has reported it) or when the caller forces a close (the
server's deadline timer, an explicit ``close_epoch`` request).

Semantics pinned by the ``serve`` test suite:

* out-of-order and ahead-of-time reports within the ring window are
  buffered and processed when their epoch closes;
* duplicates within an epoch: first report wins, later ones counted;
* late reports (epoch already closed): dropped and counted;
* unsubscribe removes a UE from the watermark immediately, but reports
  it already buffered stay and are processed when their epochs close
  (so a UE can stream its full trace and leave without losing its tail);
* reports from never-subscribed or unsubscribed UEs are rejected and
  counted (``rejected``).

Everything is a deterministic function of the call sequence — no
clocks, no tasks — which is what makes the watermark/timer semantics
testable without real time.

Cost: next to the rings the scheduler keeps two per-epoch indexes —
``reporters[e]``, how many *subscribed* UEs hold a report for epoch
``e``, and ``holders[e]``, every UE (subscribed or not) holding one —
so ``offer`` and every watermark/pending query are O(1), and a close
costs O(k log k) in that epoch's k reporters (near-linear, since
bursts arrive in ascending UE order) instead of a scan of every ring.
``unsubscribe`` and re-subscribing a UE with buffered reports cost
O(ring capacity).
"""

from __future__ import annotations

from .protocol import Report
from .ring import DEFAULT_RING_CAPACITY, ReportRing

__all__ = ["EpochScheduler"]


class EpochScheduler:
    """Aligns per-UE report streams into closable service epochs."""

    def __init__(
        self,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        start_epoch: int = 0,
    ) -> None:
        if ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {ring_capacity}"
            )
        if start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {start_epoch}")
        self.ring_capacity = int(ring_capacity)
        self.current_epoch = int(start_epoch)
        self._subscribed: set[int] = set()
        # rings persist past unsubscribe so already-buffered reports
        # still close with their epochs
        self._rings: dict[int, ReportRing] = {}
        # unsubscribed UEs whose rings still exist (dead-ring cleanup)
        self._detached: set[int] = set()
        # epoch -> number of subscribed UEs holding a report for it
        self._reporters: dict[int, int] = {}
        # epoch -> UEs (subscribed or not) holding a report for it
        self._holders: dict[int, list[int]] = {}
        self._pending = 0
        self.accepted = 0
        self.late = 0
        self.duplicate = 0
        self.overflow = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    @property
    def subscribed(self) -> frozenset[int]:
        return frozenset(self._subscribed)

    @property
    def n_subscribed(self) -> int:
        return len(self._subscribed)

    def is_subscribed(self, ue: int) -> bool:
        return ue in self._subscribed

    def subscribe(self, ue: int) -> None:
        ue = int(ue)
        if ue < 0:
            raise ValueError(f"ue must be >= 0, got {ue}")
        if ue in self._subscribed:
            raise ValueError(f"UE {ue} is already subscribed")
        self._subscribed.add(ue)
        ring = self._rings.get(ue)
        if ring is None:
            self._rings[ue] = ReportRing(self.ring_capacity)
            return
        # a returning UE's buffered reports count toward the watermark
        # again
        self._detached.discard(ue)
        for epoch in ring.epochs():
            self._reporters[epoch] += 1

    def unsubscribe(self, ue: int) -> bool:
        """Remove ``ue`` from the watermark; its buffered reports stay.
        Returns whether the UE was subscribed."""
        ue = int(ue)
        if ue not in self._subscribed:
            return False
        self._subscribed.discard(ue)
        self._detached.add(ue)
        for epoch in self._rings[ue].epochs():
            self._reporters[epoch] -= 1
        return True

    # ------------------------------------------------------------------
    def offer(self, report: Report) -> str:
        """Classify one report deterministically.

        Returns ``accepted`` / ``late`` / ``duplicate`` / ``overflow``
        / ``rejected`` (the last for UEs not currently subscribed) and
        bumps the matching counter.
        """
        ue = report.ue
        if ue not in self._subscribed:
            self.rejected += 1
            return "rejected"
        status = self._rings[ue].push(report, self.current_epoch)
        setattr(self, status, getattr(self, status) + 1)
        if status == "accepted":
            epoch = report.epoch
            self._reporters[epoch] = self._reporters.get(epoch, 0) + 1
            self._holders.setdefault(epoch, []).append(ue)
            self._pending += 1
        return status

    def watermark_reached(self) -> bool:
        """Every currently subscribed UE has reported the current epoch
        (``False`` with no subscribers — an empty fleet never closes
        epochs on its own)."""
        n = len(self._subscribed)
        return n > 0 and self._reporters.get(self.current_epoch, 0) == n

    def has_current_reports(self) -> bool:
        """At least one report is buffered for the current epoch."""
        return self.current_epoch in self._holders

    def pending_reports(self) -> int:
        """Total buffered reports across all rings (any epoch)."""
        return self._pending

    def current_report_count(self) -> int:
        """How many reports are buffered for the current epoch (the
        count a close would collect right now)."""
        return len(self._holders.get(self.current_epoch, ()))

    # ------------------------------------------------------------------
    def close_epoch(self) -> tuple[int, list[Report]]:
        """Close the current epoch: collect its buffered reports (in
        ascending UE order — deterministic for any arrival order) and
        advance.  Empty closes are legal (a forced close before anyone
        reported)."""
        epoch = self.current_epoch
        holders = self._holders.pop(epoch, [])
        self._reporters.pop(epoch, None)
        holders.sort()
        rings = self._rings
        reports = [rings[ue].pop(epoch) for ue in holders]
        self._pending -= len(reports)
        self.current_epoch = epoch + 1
        # drop rings that are empty and no longer subscribed, so a
        # churning fleet doesn't accumulate dead buffers
        dead = [ue for ue in self._detached if not rings[ue].pending()]
        for ue in dead:
            del rings[ue]
            self._detached.discard(ue)
        return epoch, reports

    def counters(self) -> dict[str, int]:
        return {
            "accepted": self.accepted,
            "late": self.late,
            "duplicate": self.duplicate,
            "overflow": self.overflow,
            "rejected": self.rejected,
        }

    def __repr__(self) -> str:
        return (
            f"EpochScheduler(epoch={self.current_epoch}, "
            f"subscribed={len(self._subscribed)}, "
            f"pending={self.pending_reports()})"
        )
