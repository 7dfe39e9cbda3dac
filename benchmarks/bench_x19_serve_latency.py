"""X19 — streaming decision-service throughput and latency SLOs.

Records a fleet trace, replays it through the in-process
:class:`~repro.serve.service.DecisionService` (the same code path the
TCP front-end drives, minus socket I/O), and pins:

* **identity** — the streamed metrics equal the offline
  ``BatchSimulator`` metrics byte-for-byte (re-asserted here at bench
  size, not just in the test-suite sizes);
* **sustained ingest** — reports/second through submit → watermark
  close → batched FLC sweep, at least ``REPORTS_PER_S_FLOOR``;
* **p99 per-epoch decision latency** — the time from closing an epoch
  to the commands being fanned out, at most ``P99_LATENCY_S`` (one
  epoch sweeps the whole fleet, so this is the service's
  command-freshness SLO);
* **scaling** — the same replay at 10·N sustains at least
  ``SCALING_FLOOR`` of the N-UE reports/second.  Ingest is O(1) per
  report and a close is near-linear in its reporters, so throughput
  should not fall with fleet size; a per-report scan of the fleet
  (O(N²) per epoch) fails this pin.

Headline numbers land in ``BENCH_x19.json`` (same schema as X12–X18:
``schema``/``n``/``timings_s``/``speedups``/``memory`` with
``max_rss_kb`` and tracemalloc peaks; ``speedups`` also carries the
10·N reports/second and the 10·N-over-N ratio) **before** any assert.

Environment knobs: ``X19_FLEET_SIZE`` (default 300; the scaling replay
runs 10x that), ``X19_WALKS`` (default 4).  CI smoke runs N = 48 (and
480); the SLO and scaling pins assert only at the full N = 300.
"""

import os
import time

import pytest
from conftest import run_measured, write_bench_artifact

from repro.sim import (
    FleetSpec,
    SimulationParameters,
    offline_reference_metrics,
    record_fleet_trace,
)
from repro.serve import identity_report, replay_in_process, service_for_trace

N = int(os.environ.get("X19_FLEET_SIZE", "300"))
WALKS = int(os.environ.get("X19_WALKS", "4"))
N_ACCEPT = 300              # the acceptance-criterion fleet size
REPORTS_PER_S_FLOOR = 2000  # sustained ingest, reports/second
P99_LATENCY_S = 0.25        # p99 per-epoch decision sweep, seconds
SCALE = 10                  # the scaling replay's fleet-size multiple
SCALING_FLOOR = 0.8         # SCALE·N reports/s over N reports/s

PARAMS = SimulationParameters(shadow_sigma_db=6.0, n_walks=WALKS)
SPEC = FleetSpec(n_ues=N, n_walks=WALKS, base_seed=4000, params=PARAMS)
SCALE_SPEC = FleetSpec(
    n_ues=SCALE * N, n_walks=WALKS, base_seed=4000, params=PARAMS
)


def timed_replay(trace):
    """Untraced in-process replay; returns ``(service, seconds)``."""
    service = service_for_trace(trace)
    t0 = time.perf_counter()
    replay_in_process(trace, service)
    return service, time.perf_counter() - t0


@pytest.mark.serve
def test_x19_serve_throughput_and_latency():
    trace = record_fleet_trace(SPEC)
    n_reports = int(sum(trace.lengths))

    # untraced timing run (headline numbers)...
    service, elapsed = timed_replay(trace)
    streamed = service.metrics()
    latency = service.latency_summary()
    reports_per_s = n_reports / elapsed

    # ...and a traced re-run for the memory numbers
    _, _t_traced, mem_peak = run_measured(
        lambda: replay_in_process(trace, service_for_trace(trace))
    )

    reference = offline_reference_metrics(trace)
    problems = identity_report(streamed, reference)

    # the same replay at SCALE·N: throughput must not fall with N
    scale_trace = record_fleet_trace(SCALE_SPEC)
    _, scale_elapsed = timed_replay(scale_trace)
    scale_reports_per_s = int(sum(scale_trace.lengths)) / scale_elapsed
    scaling_ratio = scale_reports_per_s / reports_per_s
    del scale_trace

    print(
        f"\nx19: {n_reports} reports over {trace.n_ues} UEs x "
        f"{trace.max_epochs} epochs in {elapsed:.3f} s -> "
        f"{reports_per_s:,.0f} reports/s; decision latency "
        f"p50 {latency['p50_s'] * 1e3:.2f} ms / "
        f"p99 {latency['p99_s'] * 1e3:.2f} ms / "
        f"max {latency['max_s'] * 1e3:.2f} ms; "
        f"peak {mem_peak / 2**20:.0f} MiB; "
        f"identity {'OK' if not problems else 'FAILED'}; "
        f"N={SCALE * N}: {scale_reports_per_s:,.0f} reports/s "
        f"(x{scaling_ratio:.2f})"
    )
    # persist the record before any assert: the perf trajectory matters
    # most on exactly the runs where a pin fails
    write_bench_artifact(
        "x19",
        n=N,
        timings_s={
            "replay_total": elapsed,
            "decision_p50": latency["p50_s"],
            "decision_p99": latency["p99_s"],
            "decision_max": latency["max_s"],
            "replay_total_scale": scale_elapsed,
        },
        speedups={
            "reports_per_s": reports_per_s,
            "reports_per_s_scale": scale_reports_per_s,
            "scaling_ratio": scaling_ratio,
        },
        memory={"tracemalloc_peak_replay": mem_peak},
        walks=WALKS,
        n_reports=n_reports,
        epochs_closed=int(service.stats.epochs_closed),
        commands_emitted=int(service.stats.commands_emitted),
        identity_ok=not problems,
        scale_n=SCALE * N,
    )

    assert not problems, "\n".join(problems)
    if N < N_ACCEPT:
        pytest.skip(
            f"SLO and scaling pins asserted at N={N_ACCEPT}, ran N={N} "
            "(smoke mode)"
        )
    assert reports_per_s >= REPORTS_PER_S_FLOOR, (
        f"sustained ingest {reports_per_s:,.0f} reports/s below the "
        f"{REPORTS_PER_S_FLOOR} floor at N={N}"
    )
    assert latency["p99_s"] <= P99_LATENCY_S, (
        f"p99 decision latency {latency['p99_s'] * 1e3:.1f} ms over the "
        f"{P99_LATENCY_S * 1e3:.0f} ms SLO at N={N}"
    )
    assert scaling_ratio >= SCALING_FLOOR, (
        f"{SCALE * N}-UE replay sustains {scale_reports_per_s:,.0f} "
        f"reports/s, x{scaling_ratio:.2f} of the {N}-UE "
        f"{reports_per_s:,.0f} (floor x{SCALING_FLOOR})"
    )
