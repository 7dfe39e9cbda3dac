"""The per-UE handover decision kernel: one state block, one epoch step.

Every engine in the package advances UEs through the same per-epoch
pipeline of :class:`~repro.core.system.FuzzyHandoverSystem` — POTLC
gate → FLC (CSSP, SSN, DMB) → PRTLC — and folds each epoch into the
same streaming metric counters.  This module is that pipeline, written
once:

* :class:`UEStateBlock` — slot-addressed per-UE state: serving cell,
  CSSP history window, local epoch, speed penalty, policy id, and the
  per-UE counters :class:`~repro.sim.metrics.FleetMetrics` is built
  from.  An offline fleet sizes it once; the online service grows it
  one subscription at a time.  :meth:`UEStateBlock.state_dict` is the
  one snapshot unit of checkpoints and supervisor rollback.
* :func:`step` — one epoch for any subset of slots.  The FLC runs once
  per policy present in the subset, each call on that policy's own
  guard-banded ``decision_outputs_batch`` (the guard band needs the
  policy's threshold).

Every quantity the step touches is elementwise in the UE — the stage
masks, the FLC inputs from the UE's own history and power row, the
controller's batch path, the counter updates — and the only epoch index
it uses is the UE's own local epoch.  So stepping the slots of one
epoch together, in any grouping, or one service epoch at a time gives
each UE the same state and metrics bit for bit, as long as each UE is
stepped through its own epochs in order.  That is why the batch engine
(:mod:`repro.sim.batch`), the streaming service (:mod:`repro.serve`)
and checkpoint resume all agree byte for byte: they run this one
function.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from ..core.system import FuzzyHandoverSystem
from ..geometry.layout import CellLayout
from ..radio.fading import speed_penalty_db
from .metrics import DEFAULT_OUTAGE_DBW, DEFAULT_WINDOW_KM, FleetMetrics

__all__ = ["EpochDecisions", "Slots", "UEStateBlock", "step"]

#: Slot selection of one :func:`step`: an index array, or a slice for a
#: contiguous run of slots (whose state is then updated through views).
Slots = Union[slice, np.ndarray]

#: Every per-slot vector: ``(name, dtype, fill of a fresh slot)``.  The
#: first five are pipeline state, the rest the metric counters.
_SLOT_ARRAYS = (
    ("serving", np.intp, -1),  # -1: set from the UE's first report
    ("hist_len", np.intp, 0),
    ("epochs", np.intp, 0),  # local epoch: epochs stepped so far
    ("penalty", float, 0.0),
    ("policy", np.intp, 0),
    ("handovers", np.intp, 0),
    ("ping_pongs", np.intp, 0),
    ("necessary", np.intp, 0),
    ("wrong", np.intp, 0),
    ("outage", np.intp, 0),
    ("dwell_sum", np.intp, 0),
    ("dwell_count", np.intp, 0),
    ("last_event", np.intp, 0),
    ("prev_src", np.intp, -1),
    ("prev_tgt", np.intp, -1),
    ("prev_dist", float, 0.0),
    ("out_sum", float, 0.0),
    ("out_count", np.intp, 0),
    ("out_max", float, -np.inf),
    ("prev_strongest", np.intp, -1),
)


class UEStateBlock:
    """Per-UE decision state and metric counters, one slot per UE.

    Parameters
    ----------
    layout:
        The cell layout the power rows index.
    systems:
        The handover policies; a slot's ``policy`` id indexes this
        list.  Systems are configuration, never mutated.
    window_km / outage_dbw:
        Metric definitions: the ping-pong walked-distance window and the
        serving-power sensitivity below which an epoch is outage.
    """

    def __init__(
        self,
        layout: CellLayout,
        systems: Sequence[FuzzyHandoverSystem],
        *,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
    ) -> None:
        if window_km <= 0:
            raise ValueError(f"window_km must be positive, got {window_km}")
        if not math.isfinite(outage_dbw):
            raise ValueError(f"outage_dbw must be finite, got {outage_dbw}")
        if not systems:
            raise ValueError("a state block needs at least one policy")
        self.layout = layout
        self.window_km = float(window_km)
        self.outage_dbw = float(outage_dbw)
        self.nbr_idx, self.nbr_mask, self.nbr_deg = layout.neighbor_table()
        self.systems: list[FuzzyHandoverSystem] = []
        self.n = 0
        self._cap = 0
        self.hist = np.zeros((0, 1))
        self._allocate(8)
        for system in systems:
            self.add_policy(system)

    # ------------------------------------------------------------------
    def _allocate(self, cap: int) -> None:
        """(Re)allocate every slot array at ``cap`` slots, keeping the
        first :attr:`n` slots and filling the rest fresh."""
        n = self.n
        for name, dtype, fill in _SLOT_ARRAYS:
            new = np.full(cap, fill, dtype=dtype)
            if n:
                new[:n] = getattr(self, name)[:n]
            setattr(self, name, new)
        hist = np.zeros((cap, self.hist.shape[1]))
        hist[:n] = self.hist[:n]
        self.hist = hist
        self._cap = cap

    def add_policy(self, system: FuzzyHandoverSystem) -> int:
        """Register a handover policy; returns its policy id."""
        self.systems.append(system)
        sys = self.systems
        self.threshold = np.array([s.threshold for s in sys])
        self.gate = np.array([s.potlc_gate_dbw for s in sys])
        self.prtlc = np.array([s.prtlc_enabled for s in sys])
        self.radius = np.array([s.cell_radius_km for s in sys])
        self.lag = np.array([s.cssp_lag for s in sys], dtype=np.intp)
        # the history window is as wide as the longest CSSP lag; a
        # shorter-lag UE only ever reads its first `lag` columns
        width = int(self.lag.max())
        if width > self.hist.shape[1]:
            pad = np.zeros((self._cap, width - self.hist.shape[1]))
            self.hist = np.hstack([self.hist, pad])
        return len(sys) - 1

    def add(self, speeds_kmh, policy=0) -> np.ndarray:
        """Append fresh slots, one per speed, under ``policy`` (one id
        for all, or one per slot); returns the new slot indices."""
        speeds = np.atleast_1d(np.asarray(speeds_kmh, dtype=float))
        policy = np.asarray(policy, dtype=np.intp)
        if policy.size and not (
            0 <= policy.min() and policy.max() < len(self.systems)
        ):
            raise ValueError(
                f"policy ids must lie in [0, {len(self.systems)}), "
                f"got {policy}"
            )
        k = speeds.shape[0]
        if self.n + k > self._cap:
            self._allocate(max(2 * self._cap, self.n + k))
        slots = np.arange(self.n, self.n + k)
        self.penalty[slots] = speed_penalty_db(speeds)
        self.policy[slots] = policy
        self.n += k
        return slots

    # ------------------------------------------------------------------
    # snapshots (checkpoint resume, supervisor rollback)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A deep copy of every slot array over the live slots."""
        state = {
            name: getattr(self, name)[: self.n].copy()
            for name, _, _ in _SLOT_ARRAYS
        }
        state["hist"] = self.hist[: self.n].copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.  The block
        must carry the policies the snapshot was taken under; slots
        beyond the snapshot come back fresh."""
        n = int(state["epochs"].shape[0])
        if state["hist"].shape[1] != self.hist.shape[1]:
            raise ValueError(
                f"snapshot history window is {state['hist'].shape[1]} "
                f"wide, block's is {self.hist.shape[1]}"
            )
        self.n = 0
        self._allocate(max(self._cap, n))
        for name, _, _ in _SLOT_ARRAYS:
            getattr(self, name)[:n] = state[name]
        self.hist[:n] = state["hist"]
        self.n = n

    # ------------------------------------------------------------------
    def metrics(self) -> FleetMetrics:
        """The live slots' metrics, in slot order.

        Non-destructive: the dwell tail (the segment after the last
        handover) is closed out on copies, so the block can keep
        stepping afterwards.
        """
        n = self.n
        epochs = self.epochs[:n].copy()
        dwell_sum = self.dwell_sum[:n].copy()
        dwell_count = self.dwell_count[:n].copy()
        tail = epochs - self.last_event[:n]
        has_tail = tail > 0
        dwell_sum[has_tail] += tail[has_tail]
        dwell_count[has_tail] += 1
        return FleetMetrics.from_per_ue(
            window_km=self.window_km,
            outage_dbw=self.outage_dbw,
            epochs=epochs,
            handovers=self.handovers[:n].copy(),
            ping_pongs=self.ping_pongs[:n].copy(),
            necessary=self.necessary[:n].copy(),
            wrong_epochs=self.wrong[:n].copy(),
            outage_epochs=self.outage[:n].copy(),
            dwell_epochs=dwell_sum,
            dwell_counts=dwell_count,
            output_sums=self.out_sum[:n].copy(),
            output_counts=self.out_count[:n].copy(),
            output_maxes=self.out_max[:n].copy(),
        )

    def __repr__(self) -> str:
        return (
            f"UEStateBlock(n={self.n}, policies={len(self.systems)}, "
            f"window_km={self.window_km}, outage_dbw={self.outage_dbw})"
        )


class EpochDecisions(NamedTuple):
    """What one :func:`step` decided, positions relative to its slots.

    ``warm``/``no_nbr``/``gated`` are ``(m,)`` stage masks (warm-up,
    serving cell without neighbours, POTLC pass).  ``flc`` lists the
    positions that reached the controller, with their crisp inputs,
    outputs and rejection masks alongside; ``handed`` flags the ones
    that handed over from ``sources`` to ``targets``.
    """

    warm: np.ndarray
    no_nbr: np.ndarray
    gated: np.ndarray
    flc: np.ndarray
    cssp: np.ndarray
    ssn: np.ndarray
    dmb: np.ndarray
    out: np.ndarray
    rej_flc: np.ndarray
    rej_prtlc: np.ndarray
    handed: np.ndarray
    sources: np.ndarray
    targets: np.ndarray


def step(
    block: UEStateBlock,
    slots: Slots,
    power: np.ndarray,
    positions: np.ndarray,
    distances: np.ndarray,
) -> EpochDecisions:
    """Advance ``slots`` by one local epoch each.

    ``power`` is ``(m, n_cells)`` received power, ``positions``
    ``(m, 2)`` and ``distances`` ``(m,)`` walked distance, row ``i``
    belonging to the ``i``-th selected slot.  A slot's first step
    initialises its serving cell to the strongest BS.
    """
    if isinstance(slots, slice):
        ids = np.arange(*slots.indices(block.n))
    else:
        ids = np.asarray(slots, dtype=np.intp)
    m = ids.shape[0]
    rows = np.arange(m)
    single = len(block.systems) == 1
    pol = None if single else block.policy[ids]

    def per_policy(values, at=None):
        # a policy knob for each selected row (or for rows `at`)
        if single:
            return values[0]
        return values[pol if at is None else pol[at]]

    serving = block.serving[ids]
    unset = serving < 0
    if unset.any():
        serving[unset] = power[unset].argmax(axis=1)
    p_serv = np.asarray(power[rows, serving], dtype=float)
    hist_len = block.hist_len[ids]

    warm = hist_len == 0
    considered = ~warm
    no_nbr = (block.nbr_deg[serving] == 0) & considered
    considered &= ~no_nbr
    gated = (p_serv >= per_policy(block.gate)) & considered
    flc = np.nonzero(~gated & considered)[0]
    remembered = np.ones(m, dtype=bool)

    f = flc.shape[0]
    out = cssp = ssn = dmb = np.zeros(0)
    rej_flc = rej_prtlc = handed = np.zeros(0, dtype=bool)
    sources = targets = np.zeros(0, dtype=np.intp)
    if f:
        fid = ids[flc]
        f_len = hist_len[flc]
        reference = block.hist[fid, 0]
        previous = block.hist[fid, f_len - 1]
        srv = serving[flc]
        nb = block.nbr_idx[srv]  # (f, max_degree)
        nb_p = np.where(block.nbr_mask[srv], power[flc[:, None], nb], -np.inf)
        best_col = nb_p.argmax(axis=1)  # first max: the scalar tie-break
        best_idx = nb[np.arange(f), best_col]
        best_p = nb_p[np.arange(f), best_col]
        delta = positions[flc] - block.layout.bs_positions[srv]
        d_serv = np.hypot(delta[:, 0], delta[:, 1])

        cssp = p_serv[flc] - reference
        ssn = best_p - block.penalty[fid]
        dmb = d_serv / per_policy(block.radius, flc)
        # one guard-banded decision call per policy: compiled FLC
        # kernels evaluate the bulk and borderline outputs (around the
        # policy's own threshold) are re-evaluated exactly
        if single:
            out = block.systems[0].decision_outputs_batch(cssp, ssn, dmb)
        else:
            out = np.empty(f)
            f_pol = pol[flc]
            for p in np.unique(f_pol):
                sel = f_pol == p
                out[sel] = block.systems[p].decision_outputs_batch(
                    cssp[sel], ssn[sel], dmb[sel]
                )

        rej_flc = out <= per_policy(block.threshold, flc)
        rej_prtlc = (
            ~rej_flc
            & per_policy(block.prtlc, flc)
            & (p_serv[flc] >= previous)
        )
        handed = ~rej_flc & ~rej_prtlc

        finite = np.isfinite(out)
        block.out_sum[fid] += np.where(finite, out, 0.0)
        block.out_count[fid] += finite
        block.out_max[fid] = np.maximum(
            block.out_max[fid], np.where(finite, out, -np.inf)
        )

        if handed.any():
            ho = flc[handed]
            hid = ids[ho]
            sources = serving[ho]
            targets = best_idx[handed]
            dist = distances[ho]
            block.handovers[hid] += 1
            # a bounce straight back: A->B then B->A within the window
            # (prev_tgt == -1 rows can never match a real source index)
            bounce = (
                (block.prev_tgt[hid] == sources)
                & (block.prev_src[hid] == targets)
                & (dist - block.prev_dist[hid] <= block.window_km)
            )
            block.ping_pongs[hid] += bounce
            block.prev_src[hid] = sources
            block.prev_tgt[hid] = targets
            block.prev_dist[hid] = dist
            k = block.epochs[hid]
            gap = k - block.last_event[hid]
            positive = gap > 0
            block.dwell_sum[hid] += np.where(positive, gap, 0)
            block.dwell_count[hid] += positive
            block.last_event[hid] = k
            serving[ho] = targets
            block.hist_len[hid] = 0  # the history restarts, and the
            remembered[ho] = False  # handover epoch is not kept

    # remember this epoch's serving power for every non-handover row:
    # full windows slide left, short ones append
    lag = per_policy(block.lag)
    full = remembered & (hist_len == lag)
    if full.any():
        fid = ids[full]
        block.hist[fid, :-1] = block.hist[fid, 1:]
        block.hist[fid, (lag if single else lag[full]) - 1] = p_serv[full]
    short = remembered & (hist_len < lag)
    if short.any():
        sid = ids[short]
        block.hist[sid, hist_len[short]] = p_serv[short]
        block.hist_len[sid] += 1

    # epoch counters, on the post-handover serving assignment
    strongest = power.argmax(axis=1)
    block.wrong[slots] += serving != strongest
    block.outage[slots] += power[rows, serving] < block.outage_dbw
    prev_strongest = block.prev_strongest[slots]
    block.necessary[slots] += (strongest != prev_strongest) & (
        prev_strongest >= 0  # -1: the UE's first epoch
    )
    block.prev_strongest[slots] = strongest
    block.serving[slots] = serving
    block.epochs[slots] += 1

    return EpochDecisions(
        warm=warm,
        no_nbr=no_nbr,
        gated=gated,
        flc=flc,
        cssp=cssp,
        ssn=ssn,
        dmb=dmb,
        out=out,
        rej_flc=rej_flc,
        rej_prtlc=rej_prtlc,
        handed=handed,
        sources=sources,
        targets=targets,
    )
