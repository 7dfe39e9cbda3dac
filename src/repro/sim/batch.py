"""The vectorised multi-UE batch simulation engine.

:class:`BatchSimulator` advances N UEs in lockstep over a
:class:`~repro.sim.measurement.BatchMeasurementSeries` or an epoch-tiled
:class:`~repro.sim.measurement.TiledBatchMeasurement`.  Each epoch is
one call of the package's single decision kernel,
:func:`repro.sim.kernel.step`, over every UE still inside its walk: the
full POTLC → FLC → PRTLC pipeline of
:class:`~repro.core.system.FuzzyHandoverSystem` as masked NumPy stage
gates, one guard-banded FLC call per handover policy, vectorised
serving-cell bookkeeping and streaming metric counters, all held in one
:class:`~repro.sim.kernel.UEStateBlock`.  The streaming service and
checkpoint resume run the same kernel on the same block, which is what
makes them byte-identical to this engine.

The per-UE semantics are exactly the scalar
:class:`~repro.sim.engine.Simulator` driving a fresh
``FuzzyHandoverSystem``: same stage sequence, same FLC outputs (the
controller's batch path is elementwise, so subset evaluation is
bit-identical to one-sample evaluation), same tie-breaking on the
target-cell argmax, same CSSP-lag history window.  The equivalence test
suite pins this step-for-step; it is what lets the fleet path replace N
scalar runs wholesale.

:meth:`BatchSimulator.run` keeps the fleet's logs as arrays in a
:class:`BatchSimulationResult`, whose
:meth:`~BatchSimulationResult.ue_result` materialises any single UE as a
scalar-compatible :class:`~repro.sim.engine.SimulationResult`;
:meth:`BatchSimulator.run_metrics` keeps only the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from ..core.inputs import HandoverInputs
from ..core.system import Decision, FuzzyHandoverSystem, Stage
from ..geometry.layout import CellLayout
from .engine import HandoverEvent, SimulationResult
from .kernel import EpochDecisions, Slots, UEStateBlock, step
from .measurement import (
    BatchMeasurementSeries,
    MeasurementTile,
    TiledBatchMeasurement,
)
from .metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetrics,
    compute_fleet_metrics,
)

__all__ = ["BatchSimulator", "BatchSimulationResult"]

#: A measurement source the epoch loop can drive: the fully materialised
#: series, or the epoch-tiled stream (constant-memory large-N path).
MeasurementSource = Union[BatchMeasurementSeries, TiledBatchMeasurement]


def _measurement_tiles(source: MeasurementSource) -> Iterator[MeasurementTile]:
    """The source's epoch tiles: a materialised series is one full-width
    tile of views, a tiled stream yields its generator."""
    if isinstance(source, TiledBatchMeasurement):
        return source.tiles()
    return iter(
        (
            MeasurementTile(
                start=0,
                positions_km=source.positions_km,
                distance_km=source.distance_km,
                power_dbw=source.power_dbw,
            ),
        )
    )


# Stage codes of the (n_ues, n_epochs) stage log; -1 marks padded epochs.
_STAGE_CODES: tuple[str, ...] = (
    Stage.WARMUP,
    Stage.NO_NEIGHBOR,
    Stage.POTLC_PASS,
    Stage.FLC_REJECT,
    Stage.PRTLC_REJECT,
    Stage.HANDOVER,
)
_WARMUP, _NO_NEIGHBOR, _POTLC_PASS, _FLC_REJECT, _PRTLC_REJECT, _HANDOVER = (
    range(6)
)


@dataclass(frozen=True)
class BatchSimulationResult:
    """Fleet-wide simulation log in array form.

    Attributes
    ----------
    series:
        The batch measurement series that was simulated.
    speeds_kmh:
        ``(n_ues,)`` per-UE speed.
    serving_history:
        ``(n_ues, n_epochs)`` serving-BS index per epoch (after that
        epoch's decision); ``-1`` on padded epochs.
    stages:
        ``(n_ues, n_epochs)`` pipeline-stage code per epoch (see
        :data:`Stage`); ``-1`` on padded epochs.
    outputs:
        ``(n_ues, n_epochs)`` FLC output (NaN where the FLC did not run).
    cssp_db, ssn_db, dmb:
        ``(n_ues, n_epochs)`` crisp FLC inputs (NaN where the FLC did
        not run).
    event_ue, event_step, event_source, event_target, event_output:
        Flat, step-ordered arrays of every executed handover across the
        fleet (``event_ue[k]`` names the UE).
    """

    series: BatchMeasurementSeries
    speeds_kmh: np.ndarray
    serving_history: np.ndarray
    stages: np.ndarray
    outputs: np.ndarray
    cssp_db: np.ndarray
    ssn_db: np.ndarray
    dmb: np.ndarray
    event_ue: np.ndarray
    event_step: np.ndarray
    event_source: np.ndarray
    event_target: np.ndarray
    event_output: np.ndarray

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return self.serving_history.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return self.series.lengths

    @property
    def n_handovers(self) -> int:
        """Total executed handovers across the fleet."""
        return int(self.event_ue.shape[0])

    def handovers_per_ue(self) -> np.ndarray:
        """``(n_ues,)`` executed-handover count per UE."""
        return np.bincount(self.event_ue, minlength=self.n_ues)

    # ------------------------------------------------------------------
    def ue_result(self, i: int) -> SimulationResult:
        """UE ``i``'s log as a scalar-compatible
        :class:`SimulationResult` (decision objects, events, serving
        history — field-for-field what the scalar simulator returns)."""
        if not (0 <= i < self.n_ues):
            raise IndexError(f"UE index {i} out of range [0, {self.n_ues})")
        layout = self.series.layout
        t = int(self.lengths[i])
        mine = self.event_ue == i
        by_step: dict[int, tuple[int, float]] = {
            int(s): (int(tgt), float(out))
            for s, tgt, out in zip(
                self.event_step[mine],
                self.event_target[mine],
                self.event_output[mine],
            )
        }
        decisions: list[Decision] = []
        events: list[HandoverEvent] = []
        for k in range(t):
            code = int(self.stages[i, k])
            if code in (_FLC_REJECT, _PRTLC_REJECT, _HANDOVER):
                output: Optional[float] = float(self.outputs[i, k])
                inputs: Optional[HandoverInputs] = HandoverInputs(
                    cssp_db=float(self.cssp_db[i, k]),
                    ssn_db=float(self.ssn_db[i, k]),
                    dmb=float(self.dmb[i, k]),
                )
            else:
                output = None
                inputs = None
            if code == _HANDOVER:
                target_idx, _ = by_step[k]
                # the first epoch is always warm-up, so a handover can
                # never occur at k == 0
                assert k > 0, "handover at the warm-up epoch"
                source = layout.cells[int(self.serving_history[i, k - 1])]
                target = layout.cells[target_idx]
                decisions.append(
                    Decision(
                        handover=True,
                        target=target,
                        output=output,
                        stage=Stage.HANDOVER,
                        inputs=inputs,
                    )
                )
                events.append(
                    HandoverEvent(
                        step=k,
                        source=source,
                        target=target,
                        position_km=self.series.positions_km[i, k].copy(),
                        distance_km=float(self.series.distance_km[i, k]),
                        output=output,
                        stage=Stage.HANDOVER,
                    )
                )
            else:
                decisions.append(
                    Decision(
                        handover=False,
                        output=output,
                        stage=_STAGE_CODES[code],
                        inputs=inputs,
                    )
                )
        return SimulationResult(
            serving_history=tuple(
                layout.cells[int(c)] for c in self.serving_history[i, :t]
            ),
            decisions=tuple(decisions),
            events=tuple(events),
            outputs=self.outputs[i, :t].copy(),
            series=self.series.ue_series(i),
            speed_kmh=float(self.speeds_kmh[i]),
        )

    def ue_results(self) -> Iterator[SimulationResult]:
        """Every UE's scalar-compatible result, in UE order."""
        for i in range(self.n_ues):
            yield self.ue_result(i)

    def fleet_metrics(
        self,
        window_km: Optional[float] = None,
        outage_dbw: Optional[float] = None,
    ):
        """Aggregate fleet quality metrics (see
        :func:`repro.sim.metrics.compute_fleet_metrics`)."""
        return compute_fleet_metrics(
            self,
            DEFAULT_WINDOW_KM if window_km is None else window_km,
            DEFAULT_OUTAGE_DBW if outage_dbw is None else outage_dbw,
        )


class _FleetLog:
    """Materialises the ``(n_ues, n_epochs)`` arrays of a
    :class:`BatchSimulationResult` from the kernel's per-epoch
    :class:`~repro.sim.kernel.EpochDecisions`."""

    def __init__(self, source: BatchMeasurementSeries, block: UEStateBlock):
        n, t_max = source.n_ues, source.max_epochs
        self._block = block
        self._ues = np.arange(n)
        self.serving = np.full((n, t_max), -1, dtype=np.intp)
        self.stages = np.full((n, t_max), -1, dtype=np.int8)
        self.outputs = np.full((n, t_max), np.nan)
        self.cssp = np.full((n, t_max), np.nan)
        self.ssn = np.full((n, t_max), np.nan)
        self.dmb = np.full((n, t_max), np.nan)
        # per-handover-epoch parts of the flat event arrays: UE, step,
        # source, target, output
        self.events: tuple[list[np.ndarray], ...] = ([], [], [], [], [])

    def record(self, k: int, slots: Slots, d: EpochDecisions) -> None:
        ues = self._ues[slots]
        stages = self.stages[:, k]
        stages[ues[d.warm]] = _WARMUP
        stages[ues[d.no_nbr]] = _NO_NEIGHBOR
        stages[ues[d.gated]] = _POTLC_PASS
        flc = ues[d.flc]
        self.outputs[flc, k] = d.out
        self.cssp[flc, k] = d.cssp
        self.ssn[flc, k] = d.ssn
        self.dmb[flc, k] = d.dmb
        stages[flc[d.rej_flc]] = _FLC_REJECT
        stages[flc[d.rej_prtlc]] = _PRTLC_REJECT
        if d.handed.any():
            ho = flc[d.handed]
            stages[ho] = _HANDOVER
            for parts, values in zip(
                self.events,
                (
                    ho,
                    np.full(ho.shape[0], k, dtype=np.intp),
                    d.sources,
                    d.targets,
                    d.out[d.handed],
                ),
            ):
                parts.append(values)
        self.serving[ues, k] = self._block.serving[ues]

    def result(
        self, source: BatchMeasurementSeries, speeds: np.ndarray
    ) -> BatchSimulationResult:
        ue, step_, src, tgt, out = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
            for parts, dtype in zip(self.events, (np.intp,) * 4 + (float,))
        )
        return BatchSimulationResult(
            series=source,
            speeds_kmh=speeds,
            serving_history=self.serving,
            stages=self.stages,
            outputs=self.outputs,
            cssp_db=self.cssp,
            ssn_db=self.ssn,
            dmb=self.dmb,
            event_ue=ue,
            event_step=step_,
            event_source=src,
            event_target=tgt,
            event_output=out,
        )


def _drive(
    block: UEStateBlock,
    source: MeasurementSource,
    *,
    resume: Optional[dict] = None,
    on_tile_end: Optional[Callable[[int], None]] = None,
    on_epoch: Optional[Callable[[int, Slots, EpochDecisions], None]] = None,
) -> UEStateBlock:
    """Step every UE of ``source`` through its epochs with the kernel.

    Slot ``i`` of ``block`` is UE ``i`` of the source; each epoch steps
    the UEs still inside their walk (all of them, as one contiguous
    slice, until the shortest walk ends).  Every UE starts at epoch 0,
    so a UE's local epoch is the global epoch ``k``.  The loop walks the
    source's tiles (a materialised series is one full-width tile), so
    the per-UE state flows across tile boundaries and the streamed path
    is bit-identical to the materialised one.

    ``resume`` restarts a tiled source from a tile boundary: a snapshot
    dict with ``next_epoch``, the block's ``state_dict`` under
    ``"block"`` and the stream's ``fading_state``.  ``on_tile_end``
    receives the next tile-boundary epoch after every tile — the
    checkpoint hook.
    """
    n, t_max = source.n_ues, source.max_epochs
    if t_max == 0:
        raise ValueError("cannot simulate an empty measurement series")
    if block.n != n:
        raise ValueError(f"{n} UEs but the state block has {block.n} slots")
    if resume is not None:
        if not isinstance(source, TiledBatchMeasurement):
            raise TypeError(
                "resume requires a TiledBatchMeasurement (checkpoints "
                "are taken at tile boundaries)"
            )
        block.load_state_dict(resume["block"])
        tiles = source.tiles(
            start_epoch=int(resume["next_epoch"]),
            fading_state=resume.get("fading_state"),
        )
    else:
        tiles = _measurement_tiles(source)

    lengths = source.lengths
    everyone = slice(0, n)
    all_active = int(lengths.min())
    for tile in tiles:
        for j in range(tile.n_epochs):
            k = tile.start + j
            slots: Slots = everyone
            if k >= all_active:
                slots = np.nonzero(k < lengths)[0]
                if slots.shape[0] == 0:
                    continue
            decisions = step(
                block,
                slots,
                tile.power_dbw[slots, j],
                tile.positions_km[slots, j],
                tile.distance_km[slots, j],
            )
            if on_epoch is not None:
                on_epoch(k, slots, decisions)
        if on_tile_end is not None:
            on_tile_end(tile.stop)
    return block


class BatchSimulator:
    """Drives the fuzzy handover pipeline over a whole fleet at once.

    Parameters
    ----------
    system:
        The fuzzy handover system whose configuration (threshold, POTLC
        gate, PRTLC switch, CSSP lag, cell radius) and FLC are applied
        per UE; defaults to the paper configuration.  The system object
        itself is never mutated — all per-UE state lives in the
        :class:`~repro.sim.kernel.UEStateBlock`.  (Baselines and
        measurement-filter wrappers are scalar-only; use
        :class:`~repro.sim.engine.Simulator` for those.)
    speed_kmh:
        MS speed — a scalar for a homogeneous fleet or an ``(n_ues,)``
        array for mixed-speed scenarios.
    initial_cell:
        Serving cell of every UE at its first epoch; defaults to the
        per-UE strongest BS at the starting position.
    """

    def __init__(
        self,
        system: Optional[FuzzyHandoverSystem] = None,
        speed_kmh: Union[float, np.ndarray] = 0.0,
        initial_cell: Optional[tuple[int, int]] = None,
    ) -> None:
        self.system = system if system is not None else FuzzyHandoverSystem()
        speeds = np.atleast_1d(np.asarray(speed_kmh, dtype=float))
        if speeds.ndim != 1:
            raise ValueError(
                f"speed_kmh must be a scalar or 1-D, got shape {speeds.shape}"
            )
        if (speeds < 0).any():
            raise ValueError("speed_kmh must be >= 0")
        self._speeds = speeds
        self.initial_cell = tuple(initial_cell) if initial_cell else None

    # ------------------------------------------------------------------
    def _ue_speeds(self, n: int) -> np.ndarray:
        if self._speeds.shape[0] == 1:
            return np.full(n, self._speeds[0])
        if self._speeds.shape[0] == n:
            return self._speeds
        raise ValueError(f"{n} UEs but {self._speeds.shape[0]} speeds")

    def state_block(
        self,
        layout: CellLayout,
        n_ues: int,
        window_km: Optional[float] = None,
        outage_dbw: Optional[float] = None,
    ) -> UEStateBlock:
        """A fresh state block of ``n_ues`` slots: every UE on this
        simulator's system, at its speed."""
        if window_km is None:
            window_km = DEFAULT_WINDOW_KM
        if outage_dbw is None:
            outage_dbw = DEFAULT_OUTAGE_DBW
        block = UEStateBlock(
            layout, [self.system], window_km=window_km, outage_dbw=outage_dbw
        )
        block.add(self._ue_speeds(n_ues))
        if self.initial_cell is not None:
            block.serving[:n_ues] = layout.index_of(self.initial_cell)
        return block

    def run(self, series: BatchMeasurementSeries) -> BatchSimulationResult:
        """Simulate the whole fleet, one vectorised epoch at a time,
        keeping the full decision log."""
        if isinstance(series, TiledBatchMeasurement):
            raise TypeError(
                "run() materialises the full fleet log and requires a "
                "BatchMeasurementSeries; drive a tile stream through "
                "run_metrics() (or materialize() it first)"
            )
        block = self.state_block(series.layout, series.n_ues)
        log = _FleetLog(series, block)
        _drive(block, series, on_epoch=log.record)
        return log.result(series, self._ue_speeds(series.n_ues))

    def run_metrics(
        self,
        series: MeasurementSource,
        window_km: Optional[float] = None,
        outage_dbw: Optional[float] = None,
        *,
        block: Optional[UEStateBlock] = None,
        resume: Optional[dict] = None,
        on_tile_end: Optional[Callable[[int], None]] = None,
    ) -> FleetMetrics:
        """Simulate the fleet and return only its
        :class:`~repro.sim.metrics.FleetMetrics` — O(n_ues) counters, no
        ``(n_ues, n_epochs)`` histories.

        Accepts the materialised series or an epoch-tiled
        :class:`~repro.sim.measurement.TiledBatchMeasurement` (the
        constant-memory large-N path); both produce bit-identical
        metrics, equal to ``compute_fleet_metrics(self.run(series))``.
        ``outage_dbw`` sets the serving-power sensitivity below which an
        epoch counts as outage (default
        :data:`~repro.sim.metrics.DEFAULT_OUTAGE_DBW`).

        ``block`` drives a caller-built
        :class:`~repro.sim.kernel.UEStateBlock` instead of a fresh one
        for this simulator's system and speeds — per-UE policies, and
        the checkpoint path, which keeps a handle on the block to
        snapshot it; its window and outage threshold then apply.
        ``resume`` / ``on_tile_end`` are the checkpoint hooks of
        :func:`_drive`: the resumed drive is byte-identical to the
        uninterrupted one.
        """
        if block is None:
            block = self.state_block(
                series.layout, series.n_ues, window_km, outage_dbw
            )
        _drive(block, series, resume=resume, on_tile_end=on_tile_end)
        return block.metrics()


    def __repr__(self) -> str:
        return (
            f"BatchSimulator(system={self.system!r}, "
            f"initial_cell={self.initial_cell})"
        )
