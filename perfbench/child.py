"""One unit of benchmark work, run in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays the cold costs a user pays: imports, LUT compiles, worker and
server start-up.  The workload seed arrives as an argument and the
program under test only ever sees inputs generated from it.

Roles (first argument):

``fleet_fading_ckpt`` / ``fleet_mixed_dist``
    one timed fleet run; writes its ``FleetMetrics`` pickle next to the
    JSON result.
``fleet_check``
    the serial, un-checkpointed reference run(s) of a fleet workload,
    then the identity gate over every repetition's pickle.
``serve_a`` / ``serve_b``
    phase A (open loop on a fixed tick) or phase B (saturated
    ``replay_to_server``) against a freshly spawned ``repro serve``.
``serve_setup``
    phase A's set-up alone (one more ``setup_s`` sample), then the
    offline reference summary of the served trace.
``listen``
    the command listener of phase A (its own process, so decoding
    commands never competes with the report generator's event loop).

Every role writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

# Workload sizes (``--ues``/``--epochs`` shrink them only for the smoke
# tests).
FADING_UES = 4000
FLEET_WALKS = 10
SIGMA_DB = 6.0
MIXED_UES = 4000
MIXED_SHARDS = 8
MIXED_WORKERS = 2
SERVE_UES = 1000
#: 120 epochs give the phase-A p90 twelve samples beyond it; 14 legs
#: keep the whole fleet walking through all of them
SERVE_EPOCHS = 120
SERVE_WALKS = 14
TICK_S = 0.3
#: a phase-A epoch whose burst left later than this after its due time
#: was not offered open-loop, so it counts as a failed operation
LAG_BOUND_S = 0.03

_ANNOUNCE = re.compile(r"(?:listening|serving) on (\S+):(\d+)")


def seeds(seed: int) -> dict:
    """Per-workload seed bases; UE ``i`` uses ``base + i``."""
    return {
        "base_seed": 1_000_000 + 7919 * seed,
        "fading_base_seed": 5_000_000 + 7919 * seed,
    }


def fading_spec(seed: int, n_ues: int, n_walks: int = FLEET_WALKS):
    from repro.sim import FleetSpec, SimulationParameters

    return FleetSpec(
        n_ues=n_ues,
        n_walks=n_walks,
        params=SimulationParameters(shadow_sigma_db=SIGMA_DB),
        **seeds(seed),
    )


def mixed_spec(seed: int, n_ues: int):
    """``urban_mix``-shaped: pedestrians, vehicles with their own
    handover policy, stationary users; no fading."""
    from dataclasses import replace

    from repro.sim import FleetSpec, SimulationParameters
    from repro.sim.population import (
        POPULATION_MIXES,
        PolicyConfig,
        PopulationSpec,
    )

    mix = {c.name: c for c in POPULATION_MIXES["urban_mix"]}
    cohorts = (
        mix["pedestrian"],
        replace(
            mix["vehicular"],
            policy=PolicyConfig(threshold=0.8, prtlc_enabled=False),
        ),
        mix["stationary"],
    )
    population = PopulationSpec(
        n_ues=n_ues,
        cohorts=cohorts,
        params=SimulationParameters(),
        speed_base_seed=9_000_000 + 7919 * seed,
        **seeds(seed),
    )
    return FleetSpec.from_population(population)


def serve_trace(seed: int, n_ues: int, epochs: int):
    """The served trace: a σ=6 dB homogeneous fleet, cut to its first
    ``epochs`` lockstep epochs so every epoch carries (almost) the whole
    fleet and the offered rate is flat."""
    import numpy as np

    from repro.sim.tracefile import FleetTrace

    trace = FleetTrace.record(fading_spec(seed, n_ues, SERVE_WALKS))
    t = min(epochs, trace.max_epochs)
    return FleetTrace(
        positions_km=trace.positions_km[:, :t],
        distance_km=trace.distance_km[:, :t],
        power_dbw=trace.power_dbw[:, :t],
        lengths=np.minimum(trace.lengths, t),
        speeds_kmh=trace.speeds_kmh,
        params=trace.params,
    )


# ----------------------------------------------------------------------
# subprocesses of the system under test
# ----------------------------------------------------------------------
def launch(command: str) -> subprocess.Popen:
    """Start ``repro worker``/``repro serve`` through the benchmark's
    launcher (which installs the span wrappers in a traced run)."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), command,
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def address_of(proc: subprocess.Popen, timeout: float = 60.0) -> tuple:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _ANNOUNCE.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise RuntimeError(f"subprocess did not announce an address (rc={proc.poll()})")


def stop(procs) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def peak_rss_mib() -> float:
    """Max RSS of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# fleet roles
# ----------------------------------------------------------------------
def role_fleet_fading_ckpt(args) -> dict:
    from repro.resilience.checkpoint import run_fleet_checkpointed

    spec = fading_spec(args.seed, args.ues or FADING_UES)
    ckdir = tempfile.mkdtemp(prefix="ckpt-", dir=args.workdir)
    try:
        t0 = time.monotonic()
        metrics = run_fleet_checkpointed(spec, checkpoint_dir=ckdir)
        t1 = time.monotonic()
    finally:
        shutil.rmtree(ckdir, ignore_errors=True)
    Path(args.out + ".pkl").write_bytes(pickle.dumps(metrics))
    return {
        "t_work0": t0,
        "t_work1": t1,
        "ue_epochs": int(metrics.n_epochs_total),
        "shards": 1,
        "reissues": 0,
        "serial_fallback": 0,
    }


def role_fleet_mixed_dist(args) -> dict:
    from repro.sim.distributed import DistributedExecutor
    from repro.sim.fleet import run_fleet

    workers = [launch("worker") for _ in range(MIXED_WORKERS)]
    try:
        spec = mixed_spec(args.seed, args.ues or MIXED_UES)
        hosts = [f"{h}:{p}" for h, p in map(address_of, workers)]
        executor = DistributedExecutor(hosts)
        t0 = time.monotonic()
        metrics = run_fleet(spec, n_shards=MIXED_SHARDS, executor=executor)
        t1 = time.monotonic()
    finally:
        stop(workers)
    attempts = executor.last_map_stats["attempts"]
    Path(args.out + ".pkl").write_bytes(pickle.dumps(metrics))
    return {
        "t_work0": t0,
        "t_work1": t1,
        "ue_epochs": int(metrics.n_epochs_total),
        "shards": len(attempts),
        "reissues": sum(attempts) - len(attempts),
        "serial_fallback": executor.last_map_stats["serial_fallback_tasks"],
    }


_DECISION_FIELDS = (
    "handovers_per_ue", "ping_pongs_per_ue", "necessary_per_ue",
    "epochs_per_ue", "wrong_epochs_per_ue", "outage_epochs_per_ue",
    "dwell_epochs_per_ue", "dwell_count_per_ue", "output_count_per_ue",
)


def decision_problems(a, b) -> list:
    """Mismatches in everything a handover decision determines: every
    per-UE counter, the cohort labels and the scalar summary apart from
    the FLC output statistics (which an approximate kernel such as
    ``lut`` reproduces only within its error bound)."""
    import numpy as np

    problems = []
    da = {k: v for k, v in a.as_dict().items() if "output" not in k}
    db = {k: v for k, v in b.as_dict().items() if "output" not in k}
    if da != db:
        problems.append(f"decision summary differs: {da} != {db}")
    for name in _DECISION_FIELDS:
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            problems.append(f"per-UE field {name!r} differs")
    if a.cohort_names != b.cohort_names or not np.array_equal(
        a.cohort_ids_per_ue, b.cohort_ids_per_ue
    ):
        problems.append("cohorts differ")
    return problems


def role_fleet_check(args) -> dict:
    """Reference run(s) outside any timed region, then the gate."""
    from repro.serve.replay import identity_report
    from repro.sim.fleet import run_fleet

    if args.workload == "fleet_fading_ckpt":
        spec = fading_spec(args.seed, args.ues or FADING_UES)
    else:
        spec = mixed_spec(args.seed, args.ues or MIXED_UES)
    reference = run_fleet(spec, flc_backend="reference")
    # the distributed run pins the lut kernel: it must equal the serial
    # lut run byte for byte, and the reference run in every decision
    same_backend = (
        run_fleet(spec) if args.workload == "fleet_mixed_dist" else reference
    )
    results = []
    for path in args.check:
        metrics = pickle.loads(Path(path).read_bytes())
        problems = identity_report(metrics, same_backend)
        if same_backend is not reference:
            problems += decision_problems(metrics, reference)
        results.append(problems)
    return {"mismatches": results}


# ----------------------------------------------------------------------
# serve roles
# ----------------------------------------------------------------------
def _reports_by_epoch(trace):
    from repro.serve.replay import iter_epoch_reports

    import numpy as np

    lengths = np.asarray(trace.lengths)
    for k, reports in iter_epoch_reports(trace):
        finished = [
            r.ue for r in reports
            if lengths[r.ue] == k + 1 and k + 1 < trace.max_epochs
        ]
        yield k, reports, finished


async def _phase_a(trace, address, listener, tick: float,
                   setup_only: bool = False) -> dict:
    """Open-loop generator: epoch ``k``'s reports leave as one burst at
    ``t0 + k * tick`` whatever the server is doing.  ``setup_only`` stops
    once the fleet is subscribed and the listener is ready."""
    from repro.serve.protocol import encode_frame, read_frame

    reader, writer = await asyncio.open_connection(*address)
    for i in range(trace.n_ues):
        writer.write(encode_frame(
            {"type": "subscribe", "ue": i,
             "speed_kmh": float(trace.speeds_kmh[i])}, "json"))
    await writer.drain()
    for _ in range(trace.n_ues):
        message, _codec = await read_frame(reader)
        if message.get("type") != "ok":
            raise RuntimeError(f"subscribe refused: {message}")
    line = await asyncio.get_running_loop().run_in_executor(
        None, listener.stdout.readline)
    if line.strip() != "ready":
        raise RuntimeError(f"listener failed to start: {line!r}")
    if setup_only:
        writer.close()
        return {"t_first": time.monotonic()}

    def burst(reports, finished) -> bytes:
        frames = [encode_frame(r.to_payload(), "json") for r in reports]
        frames += [encode_frame({"type": "unsubscribe", "ue": ue}, "json")
                   for ue in finished]
        return b"".join(frames)

    epochs = _reports_by_epoch(trace)
    k, reports, finished = next(epochs)
    payload = burst(reports, finished)
    sent = len(reports)
    t_first = time.monotonic()
    t0 = t_first + tick  # the first due time leaves room to settle
    due, lag = {}, {}
    while True:
        due[k] = t0 + k * tick
        delay = due[k] - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        lag[k] = time.monotonic() - due[k]
        writer.write(payload)
        await writer.drain()
        try:
            k, reports, finished = next(epochs)
        except StopIteration:
            break
        # encode the next burst while the server works on this one
        payload = burst(reports, finished)
        sent += len(reports)
    writer.write(encode_frame({"type": "stats"}, "json"))
    await writer.drain()
    stats = None
    while stats is None:
        message, _codec = await read_frame(reader)
        if message.get("type") == "stats":
            stats = message["stats"]
    while stats["pending_reports"] > 0:
        for request in ({"type": "close_epoch"}, {"type": "stats"}):
            writer.write(encode_frame(request, "json"))
            await writer.drain()
            message, _codec = await read_frame(reader)
        stats = message["stats"]
    writer.write(encode_frame({"type": "metrics"}, "json"))
    await writer.drain()
    message, _codec = await read_frame(reader)
    writer.close()
    return {
        "t_first": t_first,
        "due": due,
        "lag": lag,
        "sent": sent,
        "stats": stats,
        "metrics": message["metrics"],
    }


def _serve_setup(args):
    server = launch("serve")
    trace = serve_trace(
        args.seed, args.ues or SERVE_UES, args.epochs or SERVE_EPOCHS)
    return server, trace, address_of(server)


def role_serve_setup(args) -> dict:
    return role_serve_a(args, setup_only=True)


def role_serve_a(args, setup_only: bool = False) -> dict:
    server, trace, address = _serve_setup(args)
    listener = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "listen",
         "--host", address[0], "--port", str(address[1]),
         "--epochs", str(trace.max_epochs), "--out", args.out + ".listen",
         "--seed", str(args.seed), "--workdir", args.workdir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={k: v for k, v in os.environ.items() if k != spans.SPAN_DIR_ENV},
    )
    try:
        out = asyncio.run(_phase_a(
            trace, address, listener, args.tick or TICK_S, setup_only))
        if not setup_only:
            listener.wait(timeout=60)
    finally:
        stop([listener, server])
    if setup_only:
        from repro.sim.tracefile import offline_reference_metrics

        return {"t_work0": out["t_first"],
                "summary": offline_reference_metrics(trace).as_dict()}
    heard = json.loads(Path(args.out + ".listen").read_text())
    latency_ms, missing = [], 0
    for k, t_due in out["due"].items():
        got = heard["recv"].get(str(k))
        if got is None:
            missing += 1
        else:
            latency_ms.append((got - t_due) * 1e3)
    return {
        "t_work0": out["t_first"],
        "t_work1": max(heard["recv"].values(), default=out["t_first"]),
        "sent": out["sent"],
        "epochs": len(out["due"]),
        "stats": out["stats"],
        "metrics": out["metrics"],
        "latency_ms": latency_ms,
        "lag_ms": [v * 1e3 for v in out["lag"].values()],
        "late_epochs": sum(v > LAG_BOUND_S for v in out["lag"].values()),
        "epochs_missing": missing,
        "listener": {k: v for k, v in heard.items() if k != "recv"},
    }


def role_serve_b(args) -> dict:
    from repro.serve.replay import replay_to_server

    server, trace, address = _serve_setup(args)
    try:
        t0 = time.monotonic()
        stats, metrics = asyncio.run(
            replay_to_server(trace, *address, codec="json"))
        t1 = time.monotonic()
    finally:
        stop([server])
    return {
        "t_work0": t0,
        "t_work1": t1,
        "sent": int(sum(trace.lengths)),
        "stats": stats,
        "metrics": metrics,
    }


def role_listen(args) -> dict:
    from repro.serve.server import ServeClient

    async def run() -> dict:
        client = ServeClient(args.host, args.port, codec="json")
        await client.connect()
        await client.listen()
        print("ready", flush=True)
        recv, frames, commands, dropped = {}, 0, 0, 0
        try:
            while len(recv) < args.epochs:
                message = await asyncio.wait_for(client.next_commands(), 30)
                now = time.monotonic()
                frames += 1
                recv.setdefault(str(message["epoch"]), now)
                commands += len(message["commands"])
                dropped = max(dropped, message["dropped"])
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            await client.close()
        return {"recv": recv, "frames": frames, "commands": commands,
                "dropped": dropped}

    return asyncio.run(run())


ROLES = {
    "fleet_fading_ckpt": role_fleet_fading_ckpt,
    "fleet_mixed_dist": role_fleet_mixed_dist,
    "fleet_check": role_fleet_check,
    "serve_a": role_serve_a,
    "serve_b": role_serve_b,
    "serve_setup": role_serve_setup,
    "listen": role_listen,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--ues", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--tick", type=float, default=None)
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--check", nargs="*", default=())
    args = parser.parse_args(argv)
    # the reporter's own frame decoding is client work, not the server's
    spans.start_from_env(
        args.role, ("serve.",) if args.role.startswith("serve") else ())
    result = ROLES[args.role](args)
    result["peak_rss_mib"] = peak_rss_mib()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
