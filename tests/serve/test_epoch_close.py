"""Deterministic watermark/timer epoch-close semantics.

These tests drive the pure :class:`EpochScheduler` and the in-process
:class:`DecisionService` with hand-built report sequences and pin the
classification rules: out-of-order and ahead-of-window buffering,
first-wins duplicates, late-after-close drops (counted), forced closes
with partial fleets, and mid-stream subscribe/unsubscribe churn.  A
hypothesis oracle pins the indexed scheduler against a brute-force
scan of every ring, and a call-counting test pins its per-report cost.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationParameters
from repro.serve import (
    DecisionService,
    EpochScheduler,
    Report,
    ReportRing,
)

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells


def make_report(ue: int, epoch: int, power: float = -80.0) -> Report:
    powers = np.full(N_CELLS, -120.0)
    powers[0] = power
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(1.0, 1.0),
        distance_km=0.1 * epoch,
        power_dbw=powers,
    )


# ----------------------------------------------------------------------
# ring classification
# ----------------------------------------------------------------------
def test_ring_statuses_are_deterministic():
    ring = ReportRing(capacity=4)
    assert ring.push(make_report(0, 0), current_epoch=0) == "accepted"
    assert ring.push(make_report(0, 0), current_epoch=0) == "duplicate"
    assert ring.push(make_report(0, 3), current_epoch=0) == "accepted"
    assert ring.push(make_report(0, 4), current_epoch=0) == "overflow"
    assert ring.push(make_report(0, 1), current_epoch=2) == "late"
    assert ring.pending() == 2


def test_ring_duplicate_first_wins():
    ring = ReportRing(capacity=4)
    first = make_report(0, 1, power=-70.0)
    second = make_report(0, 1, power=-60.0)
    ring.push(first, current_epoch=0)
    ring.push(second, current_epoch=0)
    assert ring.pop(1) is first


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ReportRing(capacity=0)


# ----------------------------------------------------------------------
# scheduler watermark
# ----------------------------------------------------------------------
def test_watermark_requires_every_subscribed_ue():
    sched = EpochScheduler()
    sched.subscribe(0)
    sched.subscribe(1)
    assert not sched.watermark_reached()
    sched.offer(make_report(0, 0))
    assert not sched.watermark_reached()
    sched.offer(make_report(1, 0))
    assert sched.watermark_reached()
    epoch, reports = sched.close_epoch()
    assert epoch == 0
    assert [r.ue for r in reports] == [0, 1]
    assert not sched.watermark_reached()


def test_empty_fleet_never_reaches_watermark():
    sched = EpochScheduler()
    assert not sched.watermark_reached()


def test_out_of_order_reports_buffer_until_their_epoch():
    sched = EpochScheduler()
    sched.subscribe(0)
    # epochs arrive 2, 0, 1
    assert sched.offer(make_report(0, 2)) == "accepted"
    assert not sched.watermark_reached()
    assert sched.offer(make_report(0, 0)) == "accepted"
    assert sched.offer(make_report(0, 1)) == "accepted"
    closed = []
    while sched.watermark_reached():
        epoch, reports = sched.close_epoch()
        closed.append((epoch, [r.epoch for r in reports]))
    assert closed == [(0, [0]), (1, [1]), (2, [2])]


def test_late_reports_are_dropped_and_counted():
    sched = EpochScheduler()
    sched.subscribe(0)
    sched.offer(make_report(0, 0))
    sched.close_epoch()
    assert sched.offer(make_report(0, 0)) == "late"
    assert sched.counters()["late"] == 1
    # the late report did not re-enter any buffer
    assert sched.pending_reports() == 0


def test_unsubscribed_reports_rejected_but_buffered_tail_survives():
    sched = EpochScheduler()
    sched.subscribe(0)
    sched.subscribe(1)
    sched.offer(make_report(0, 0))
    sched.offer(make_report(0, 1))  # buffered ahead
    assert sched.unsubscribe(0)
    # rejected from now on...
    assert sched.offer(make_report(0, 2)) == "rejected"
    # ...but the watermark now only needs UE 1, and UE 0's buffered
    # reports still ride along
    sched.offer(make_report(1, 0))
    assert sched.watermark_reached()
    _, reports = sched.close_epoch()
    assert [r.ue for r in reports] == [0, 1]
    sched.offer(make_report(1, 1))
    _, reports = sched.close_epoch()
    assert [r.ue for r in reports] == [0, 1]
    # tail consumed; the dead ring is garbage-collected
    sched.offer(make_report(1, 2))
    _, reports = sched.close_epoch()
    assert [r.ue for r in reports] == [1]


def test_duplicate_subscribe_raises():
    sched = EpochScheduler()
    sched.subscribe(3)
    with pytest.raises(ValueError):
        sched.subscribe(3)
    assert not sched.unsubscribe(99)


# ----------------------------------------------------------------------
# service-level close semantics
# ----------------------------------------------------------------------
def test_forced_close_with_partial_fleet():
    service = DecisionService()
    service.subscribe(0)
    service.subscribe(1)
    assert service.submit(make_report(0, 0)) == "accepted"
    # watermark not reached; force the close with half the fleet
    assert service.stats.epochs_closed == 0
    epoch = service.force_close()
    assert epoch == 0
    assert service.stats.epochs_closed == 1
    assert service.stats.forced_closes == 1
    assert service.stats.watermark_closes == 0
    # UE 1's report for the closed epoch is now late
    assert service.submit(make_report(1, 0)) == "late"
    assert service.stats.reports_late == 1
    # UE 0 advanced one local epoch, UE 1 none
    metrics = service.metrics()
    np.testing.assert_array_equal(metrics.epochs_per_ue, [1, 0])


def test_watermark_close_cascades_through_buffered_epochs():
    service = DecisionService()
    service.subscribe(0)
    service.subscribe(1)
    # UE 0 streams three epochs ahead; nothing closes until UE 1 reports
    for k in range(3):
        service.submit(make_report(0, k))
    assert service.stats.epochs_closed == 0
    service.submit(make_report(1, 0))
    assert service.stats.epochs_closed == 1
    service.submit(make_report(1, 1))
    service.submit(make_report(1, 2))
    assert service.stats.epochs_closed == 3
    assert service.stats.watermark_closes == 3


def test_mid_stream_subscribe_starts_at_current_epoch():
    service = DecisionService()
    service.subscribe(0)
    service.submit(make_report(0, 0))
    assert service.stats.epochs_closed == 1
    # a newcomer joins at service epoch 1; its local epoch 0 report is
    # offered against service epochs >= 1 via the UE-local numbering
    service.subscribe(7)
    assert service.submit(make_report(7, 1)) == "accepted"
    service.submit(make_report(0, 1))
    assert service.stats.epochs_closed == 2
    metrics = service.metrics()
    # subscription order: UE 0 then UE 7
    np.testing.assert_array_equal(metrics.epochs_per_ue, [2, 1])


def test_resubscribe_continues_retained_state():
    service = DecisionService()
    service.subscribe(0)
    service.submit(make_report(0, 0))
    service.unsubscribe(0)
    assert service.stats.epochs_closed == 1
    service.subscribe(0)  # rejoins the watermark, state intact
    service.submit(make_report(0, 1))
    assert service.stats.epochs_closed == 2
    np.testing.assert_array_equal(service.metrics().epochs_per_ue, [2])


def test_bad_power_vector_rejected_before_buffering():
    service = DecisionService()
    service.subscribe(0)
    bad = Report(
        ue=0,
        epoch=0,
        position_km=(0.0, 0.0),
        distance_km=0.0,
        power_dbw=np.full(3, -80.0),  # wrong cell count
    )
    with pytest.raises(ValueError, match="cells"):
        service.submit(bad)
    assert service.scheduler.pending_reports() == 0


def test_deadline_close_fires_without_watermark():
    """The server's watchdog force-closes an epoch whose reports have
    been pending longer than the deadline."""
    from repro.serve import ServeClient, ServeServer

    async def run():
        service = DecisionService(epoch_deadline_s=0.05)
        server = ServeServer(service)
        host, port = await server.start()
        try:
            client = ServeClient(host, port)
            await client.connect()
            await client.subscribe(0)
            await client.subscribe(1)
            await client.report(make_report(0, 0))
            # UE 1 never reports epoch 0: only the deadline can close it
            deadline = asyncio.get_event_loop().time() + 5.0
            while True:
                stats = await client.stats()
                if stats["epochs_closed"] >= 1:
                    break
                assert asyncio.get_event_loop().time() < deadline, (
                    "deadline close never fired"
                )
                await asyncio.sleep(0.01)
            assert stats["forced_closes"] >= 1
            assert stats["watermark_closes"] == 0
            await client.close()
        finally:
            await server.stop()

    asyncio.run(run())


# ----------------------------------------------------------------------
# indexed scheduler == brute-force ring scan
# ----------------------------------------------------------------------
class ScanScheduler:
    """Reference scheduler: answers every query by scanning all rings."""

    def __init__(self, ring_capacity: int) -> None:
        self.ring_capacity = ring_capacity
        self.current_epoch = 0
        self.subscribed: set[int] = set()
        self.rings: dict[int, ReportRing] = {}
        self.counts = dict.fromkeys(
            ("accepted", "late", "duplicate", "overflow", "rejected"), 0
        )

    def subscribe(self, ue: int) -> None:
        if ue in self.subscribed:
            raise ValueError(f"UE {ue} is already subscribed")
        self.subscribed.add(ue)
        self.rings.setdefault(ue, ReportRing(self.ring_capacity))

    def unsubscribe(self, ue: int) -> bool:
        if ue not in self.subscribed:
            return False
        self.subscribed.discard(ue)
        return True

    def offer(self, report: Report) -> str:
        if report.ue not in self.subscribed:
            status = "rejected"
        else:
            status = self.rings[report.ue].push(report, self.current_epoch)
        self.counts[status] += 1
        return status

    def watermark_reached(self) -> bool:
        epoch = self.current_epoch
        return bool(self.subscribed) and all(
            self.rings[ue].has(epoch) for ue in self.subscribed
        )

    def current_report_count(self) -> int:
        epoch = self.current_epoch
        return sum(ring.has(epoch) for ring in self.rings.values())

    def has_current_reports(self) -> bool:
        return self.current_report_count() > 0

    def pending_reports(self) -> int:
        return sum(ring.pending() for ring in self.rings.values())

    def close_epoch(self) -> tuple[int, list[Report]]:
        epoch = self.current_epoch
        reports = [
            r
            for ue in sorted(self.rings)
            if (r := self.rings[ue].pop(epoch)) is not None
        ]
        self.current_epoch += 1
        for ue in [
            ue
            for ue, ring in self.rings.items()
            if ue not in self.subscribed and not ring.pending()
        ]:
            del self.rings[ue]
        return epoch, reports

    def counters(self) -> dict[str, int]:
        return dict(self.counts)


def _observe(sched) -> tuple:
    return (
        sched.current_epoch,
        sched.watermark_reached(),
        sched.has_current_reports(),
        sched.current_report_count(),
        sched.pending_reports(),
        sched.counters(),
    )


# few UEs so subscribe/offer/unsubscribe/close collide often; offers
# are weighted up because most interesting states need several
_UES = st.integers(min_value=0, max_value=3)
_OFFER = st.tuples(
    # epoch offset from the current epoch: late, in window, ahead of
    # the window; half are for the current epoch, so closes collect
    # several UEs' reports
    st.just("offer"), _UES, st.one_of(st.just(0), st.integers(-2, 5))
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), _UES),
        st.tuples(st.just("unsubscribe"), _UES),
        # leave and rejoin at once, keeping the buffered reports
        st.tuples(st.just("resubscribe"), _UES),
        _OFFER,
        _OFFER,
        _OFFER,
        st.tuples(st.just("close")),
    ),
    min_size=4,
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    initial=st.lists(_UES, unique=True),
    ops=_OPS,
)
def test_indexed_scheduler_matches_ring_scan(capacity, initial, ops):
    sched = EpochScheduler(ring_capacity=capacity)
    oracle = ScanScheduler(capacity)
    ops = [("subscribe", ue) for ue in initial] + ops
    for serial, (op, *args) in enumerate(ops):
        if op == "resubscribe":
            assert sched.unsubscribe(args[0]) == oracle.unsubscribe(args[0])
            op = "subscribe"
        if op == "subscribe":
            outcomes = []
            for s in (sched, oracle):
                try:
                    s.subscribe(args[0])
                    outcomes.append("ok")
                except ValueError:
                    outcomes.append("raised")
            assert outcomes[0] == outcomes[1]
        elif op == "unsubscribe":
            assert sched.unsubscribe(args[0]) == oracle.unsubscribe(args[0])
        elif op == "offer":
            ue, offset = args
            epoch = max(0, sched.current_epoch + offset)
            # distance_km tags each offer, so first-wins is checked too
            report = Report(
                ue=ue,
                epoch=epoch,
                position_km=(0.0, 0.0),
                distance_km=float(serial),
                power_dbw=np.zeros(1),
            )
            assert sched.offer(report) == oracle.offer(report)
        else:
            got_epoch, got = sched.close_epoch()
            want_epoch, want = oracle.close_epoch()
            assert got_epoch == want_epoch
            assert [(r.ue, r.distance_km) for r in got] == [
                (r.ue, r.distance_km) for r in want
            ]
        assert _observe(sched) == _observe(oracle)


def test_full_epoch_costs_linear_ring_calls(monkeypatch):
    """One ascending burst from N UEs closes with O(N) ring probes (a
    per-report scan of every subscribed ring would make ~N^2/2)."""
    n = 2000
    calls = {"has": 0, "pop": 0}

    def counting(name):
        original = getattr(ReportRing, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)

        return wrapper

    monkeypatch.setattr(ReportRing, "has", counting("has"))
    monkeypatch.setattr(ReportRing, "pop", counting("pop"))
    service = DecisionService()
    for ue in range(n):
        service.subscribe(ue)
    for ue in range(n):
        assert service.submit(make_report(ue, 0)) == "accepted"
    assert service.stats.epochs_closed == 1
    assert service.stats.watermark_closes == 1
    assert calls["has"] + calls["pop"] <= 3 * n, calls
