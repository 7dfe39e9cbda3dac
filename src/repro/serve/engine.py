"""The streaming fleet decision engine.

:class:`StreamingFleetEngine` is the online counterpart of
:class:`~repro.sim.batch.BatchSimulator`: instead of sweeping a
measurement series epoch by epoch, it consumes one batch of per-UE
:class:`~repro.serve.protocol.Report` objects per closed service epoch.
Both engines run the package's single decision kernel,
:func:`repro.sim.kernel.step`, on one
:class:`~repro.sim.kernel.UEStateBlock`: here the block grows one slot
per subscribed UE (in subscription order) and each closed epoch steps
the slots of the UEs that reported.

**Byte-identity argument.**  The kernel is elementwise in the UE and
indexes time by each UE's own local epoch, and every UE starts at epoch
0 — so grouping UEs into service epochs in *any* combination reproduces
the offline per-UE state and metrics bit for bit, as long as each UE's
reports arrive in its own epoch order and none are skipped.  The
``serve`` identity suite pins this against ``BatchSimulator.run_metrics``.

Heterogeneous policies are policy ids in the same block (see
:meth:`StreamingFleetEngine.add_policy`); the kernel makes one
``decision_outputs_batch`` call per policy per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.system import FuzzyHandoverSystem
from ..geometry.layout import CellLayout
from ..sim.kernel import UEStateBlock, step
from ..sim.metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetrics,
)
from .protocol import Report

__all__ = ["HandoverCommand", "StreamingFleetEngine"]


@dataclass(frozen=True)
class HandoverCommand:
    """One handover decision emitted by the decision loop.

    ``epoch`` is the service epoch the decision was made in;
    ``local_epoch`` the UE's own epoch index (equal to the replayed
    report's ``epoch``); ``source``/``target`` are BS indices in the
    layout, with the axial cell coordinates alongside.
    """

    ue: int
    epoch: int
    local_epoch: int
    source: int
    target: int
    source_cell: tuple[int, int]
    target_cell: tuple[int, int]
    output: float

    def to_payload(self) -> dict:
        """JSON-safe ``commands`` list entry."""
        return {
            "ue": self.ue,
            "epoch": self.epoch,
            "local_epoch": self.local_epoch,
            "source": self.source,
            "target": self.target,
            "source_cell": list(self.source_cell),
            "target_cell": list(self.target_cell),
            "output": self.output,
        }


class StreamingFleetEngine:
    """Per-epoch batched FLC decisions over an online fleet."""

    def __init__(
        self,
        layout: CellLayout,
        system: Optional[FuzzyHandoverSystem] = None,
        *,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
    ) -> None:
        self.layout = layout
        self.block = UEStateBlock(
            layout,
            [system if system is not None else FuzzyHandoverSystem()],
            window_km=window_km,
            outage_dbw=outage_dbw,
        )
        self._slots: dict[int, int] = {}  # ue -> slot
        self._order: list[int] = []  # slot -> ue (subscription order)
        self._cohorts: list[Optional[str]] = []  # slot -> cohort label
        self.epochs_processed = 0

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return len(self._order)

    def knows(self, ue: int) -> bool:
        return ue in self._slots

    def add_policy(self, system: FuzzyHandoverSystem) -> int:
        """Register a handover policy; returns its policy id (0 is the
        default system's)."""
        return self.block.add_policy(system)

    def add_ue(
        self,
        ue: int,
        speed_kmh: float = 0.0,
        group: int = 0,
        cohort: Optional[str] = None,
    ) -> None:
        """Register a UE under policy ``group``.  Its first processed
        report initialises the serving cell by strongest-BS argmax —
        exactly the offline engine's first-epoch initialisation."""
        ue = int(ue)
        if ue in self._slots:
            raise ValueError(f"UE {ue} is already registered")
        (slot,) = self.block.add(speed_kmh, group)
        self._slots[ue] = int(slot)
        self._order.append(ue)
        self._cohorts.append(cohort)

    # ------------------------------------------------------------------
    def step_epoch(
        self, reports: Sequence[Report], epoch: Optional[int] = None
    ) -> list[HandoverCommand]:
        """Run one batched decision sweep over a closed epoch's reports.

        Each report advances its UE by one local epoch through the full
        POTLC → FLC → PRTLC pipeline and the streaming metric counters.
        UEs without a report this epoch are untouched.  Returns the
        executed handovers, ordered by position in ``reports``.
        """
        service_epoch = self.epochs_processed if epoch is None else int(epoch)
        n_cells = self.layout.n_cells
        slots = np.empty(len(reports), dtype=np.intp)
        seen: set[int] = set()
        for pos, report in enumerate(reports):
            slot = self._slots.get(report.ue)
            if slot is None:
                raise ValueError(f"report from unregistered UE {report.ue}")
            if report.ue in seen:
                raise ValueError(
                    f"UE {report.ue} has two reports in one epoch batch"
                )
            seen.add(report.ue)
            if report.power_dbw.shape[0] != n_cells:
                raise ValueError(
                    f"UE {report.ue} reported {report.power_dbw.shape[0]} "
                    f"cells, layout has {n_cells}"
                )
            slots[pos] = slot
        commands: list[HandoverCommand] = []
        if reports:
            local_epochs = self.block.epochs[slots]
            d = step(
                self.block,
                slots,
                np.stack([r.power_dbw for r in reports]),
                np.stack([r.position_km for r in reports]),
                np.array([r.distance_km for r in reports]),
            )
            cells = self.layout.cells
            for pos, s, t, o in zip(
                d.flc[d.handed], d.sources, d.targets, d.out[d.handed]
            ):
                commands.append(
                    HandoverCommand(
                        ue=reports[pos].ue,
                        epoch=service_epoch,
                        local_epoch=int(local_epochs[pos]),
                        source=int(s),
                        target=int(t),
                        source_cell=tuple(cells[s]),
                        target_cell=tuple(cells[t]),
                        output=float(o),
                    )
                )
        self.epochs_processed += 1
        return commands

    # ------------------------------------------------------------------
    # crash-recovery snapshots (the supervisor's restore unit)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A deep snapshot of the state block and the UE registry.

        Policy *systems* are configuration, not state, and stay attached
        to the live engine; :meth:`load_state_dict` restores into the
        same engine instance, which is exactly the supervisor's
        restart-from-last-epoch-boundary path.
        """
        return {
            "epochs_processed": self.epochs_processed,
            "order": list(self._order),
            "cohorts": list(self._cohorts),
            "block": self.block.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place (policies are
        only ever appended, and the supervisor re-snapshots after every
        registration, so the engine always has the snapshot's
        policies)."""
        self.block.load_state_dict(state["block"])
        self._order = list(state["order"])
        self._cohorts = list(state["cohorts"])
        self._slots = {ue: slot for slot, ue in enumerate(self._order)}
        self.epochs_processed = int(state["epochs_processed"])

    # ------------------------------------------------------------------
    def metrics(self) -> FleetMetrics:
        """The fleet's quality metrics so far, in UE subscription order.

        Non-destructive, so it can be sampled mid-stream; after a full
        trace replay it is byte-identical to
        ``BatchSimulator.run_metrics`` over the same measurements.
        """
        if not self._order:
            raise ValueError("no UEs registered")
        if int(self.block.epochs[: self.block.n].sum()) == 0:
            raise ValueError("no epochs processed yet")
        metrics = self.block.metrics()
        if all(label is not None for label in self._cohorts):
            names = tuple(sorted(set(self._cohorts)))
            ids = np.array(
                [names.index(label) for label in self._cohorts],
                dtype=np.intp,
            )
            metrics = metrics.with_cohorts(ids, names)
        return metrics
