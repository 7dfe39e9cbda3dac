"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

``fleet``
    repeated pairs of cold fleet runs, each part in its own interpreter:
    ``fleet_fading_ckpt`` (N=4000 UEs, 10 legs, σ=6 dB fading,
    ``reference`` FLC, one serial shard through ``run_fleet_checkpointed``
    writing a checkpoint per tile), then ``fleet_mixed_dist`` (N=4000
    ``urban_mix``-shaped population, vehicles on their own handover
    policy, cold ``lut`` FLC, 8 shards over 2 local ``repro worker``
    processes).
``serve_tcp``
    a spawned ``repro serve`` on the JSON codec, N=1000 σ=6 dB trace of
    120 epochs: phase A offers each epoch as a burst on a fixed 0.3 s
    tick (open loop); phase B replays the trace as fast as the socket
    drains (``replay_to_server``).

Every repetition is a fresh interpreter (``child.py``) with fresh
workers or a fresh server, with the backend environment pinned.
``fleet`` starts another pair while one more is expected to end within
``--seconds``; ``serve_tcp`` runs phase A once (its length is set by the
tick) and phase B until ``--seconds`` have been spent.  Outputs are
checked against a reference computed outside the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of separate traced
repetitions, the tracing overhead and the share of wall time the layer
spans cover.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("fleet", "serve_tcp")
#: the two cold runs that make up one ``fleet`` repetition, in order
FLEET_PARTS = ("fleet_fading_ckpt", "fleet_mixed_dist")

#: the program environment of each fleet part and of ``serve_tcp``,
#: pinned so that a stray variable or the timing-dependent ``auto``
#: probe cannot change it; the tile pins are what ``auto`` picks at
#: these sizes
PINS = {
    "fleet_fading_ckpt": {"REPRO_FLC_BACKEND": "reference",
                          "REPRO_TILE_EPOCHS": "16"},
    "fleet_mixed_dist": {"REPRO_FLC_BACKEND": "lut",
                         "REPRO_TILE_EPOCHS": "0"},
    "serve_tcp": {"REPRO_FLC_BACKEND": "reference",
                  "REPRO_TILE_EPOCHS": "0"},
}

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ue_epochs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts child repetitions in their own process groups and keeps
    their outputs in a scratch directory inside the checkout."""

    def __init__(self, args) -> None:
        self.args = args
        self.workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n = 0

    def env(self, part: str, span_dir=None) -> dict:
        env = dict(os.environ)
        env.pop(spans.SPAN_DIR_ENV, None)
        # a user cache, should the program ever keep one, starts empty
        # for every repetition and stays inside the checkout
        env["XDG_CACHE_HOME"] = str(self.workdir / f"{self.n:03d}-cache")
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_PATHLOSS_BACKEND"] = "numpy"
        env.update(PINS[part])
        if span_dir is not None:
            env[spans.SPAN_DIR_ENV] = str(span_dir)
        return env

    def child(self, role: str, traced: bool = False, extra=(),
              part=None) -> dict:
        """Run one child ``role``; ``part`` (default: the workload)
        picks the pinned environment and the child's ``--workload``."""
        part = part or self.args.workload
        self.n += 1
        out = self.workdir / f"{self.n:03d}-{role}.json"
        span_dir = None
        if traced:
            span_dir = self.workdir / f"{self.n:03d}-spans"
            span_dir.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), role,
               "--seed", str(self.args.seed), "--out", str(out),
               "--workdir", str(self.workdir),
               "--workload", part, *extra]
        for flag in ("ues", "epochs", "tick"):
            value = getattr(self.args, flag)
            if value is not None:
                cmd += [f"--{flag}", str(value)]
        log = self.workdir / f"{self.n:03d}-{role}.log"
        with log.open("w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=err, stderr=err,
                                    env=self.env(part, span_dir),
                                    start_new_session=True, cwd=ROOT)
            try:
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                _kill_group(proc)
            t_exit = time.monotonic()
        if rc != 0:
            tail = log.read_text()[-2000:]
            raise BenchError(f"{role} failed (rc={rc}):\n{tail}")
        result = json.loads(out.read_text())
        result.update(t_spawn=t_spawn, t_exit=t_exit, out=str(out))
        if span_dir is not None:
            result["spans"] = spans.load_dir(span_dir)
        return result

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop whatever the child left behind in its process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timed(r: dict) -> float:
    return r["t_work1"] - r["t_work0"]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def measure_fleet(runner: Runner, traced: bool) -> dict:
    """Repeat cold fleet pairs (one run of each of :data:`FLEET_PARTS`)
    while one more pair is expected to end within the time budget; a
    traced run alternates untraced and traced pairs."""
    args = runner.args
    plain, tr = [], []
    t_start = time.monotonic()
    while True:
        if plain and (tr or not traced):
            pair_s = median([_pair_wall(p) for p in plain + tr])
            if time.monotonic() - t_start + pair_s > args.seconds:
                break
        use_trace = traced and len(tr) < len(plain)
        (tr if use_trace else plain).append(
            {part: runner.child(part, use_trace, part=part)
             for part in FLEET_PARTS})
    pairs = plain + tr
    mismatched = []
    for part in FLEET_PARTS:
        check = runner.child(
            "fleet_check", part=part,
            extra=["--check", *(p[part]["out"] + ".pkl" for p in pairs)])
        mismatched += [p for p in check["mismatches"] if p]
    for problems in mismatched:
        print("IDENTITY MISMATCH: " + "; ".join(problems), file=sys.stderr)
    reps = [r for p in pairs for r in p.values()]
    out = {
        "correct": not mismatched,
        "attempted": sum(r["shards"] for r in reps) + len(reps),
        # a reissued shard, or one the parent had to run itself because
        # every worker was gone, is a failed distributed operation
        "failed": sum(r["reissues"] + r["serial_fallback"] for r in reps)
        + len(mismatched),
        "samples": dict.fromkeys(E2E_UNITS, len(plain)),
        "e2e": {
            "setup_s": median([sum(r["t_work0"] - r["t_spawn"]
                                   for r in p.values()) for p in plain]),
            "peak_rss_mib": median([max(r["peak_rss_mib"] for r in p.values())
                                    for p in plain]),
            "ue_epochs_per_s": median([
                sum(r["ue_epochs"] for r in p.values())
                / sum(_timed(r) for r in p.values()) for p in plain]),
            "latency_p50_ms": spans.nearest_rank(
                [_pair_result_ms(p) for p in plain], 0.5),
            "latency_p90_ms": spans.tail_percentile(
                [_pair_result_ms(p) for p in plain]),
        },
        "notes": [
            "UE-epochs per pair: " + ", ".join(
                f"{part} {plain[0][part]['ue_epochs']}" for part in FLEET_PARTS),
            "latency = cold time-to-result of one pair (spawn -> merged "
            "metrics of each part, summed); with fewer than 20 pairs p90 "
            "falls back to the median",
            f"shards run: {sum(r['shards'] for r in reps)}, reissued: "
            f"{sum(r['reissues'] for r in reps)}, run by the parent: "
            f"{sum(r['serial_fallback'] for r in reps)}, identity mismatches: "
            f"{len(mismatched)} of {len(reps)}",
        ],
    }
    if traced:
        layers = [spans.summarise([_traced(r) for r in p.values()]) for p in tr]
        out["layers"] = {k: median([m[k] for m in layers]) for k in layers[0]}
        out["missing"] = _missing([r for p in tr for r in p.values()])
        out["layers"]["trace.overhead_pct"] = 100.0 * (
            median([_pair_timed(p) for p in tr])
            / median([_pair_timed(p) for p in plain]) - 1.0)
    return out


def _pair_wall(pair: dict) -> float:
    return max(r["t_exit"] for r in pair.values()) - min(
        r["t_spawn"] for r in pair.values())


def _pair_timed(pair: dict) -> float:
    return sum(_timed(r) for r in pair.values())


def _pair_result_ms(pair: dict) -> float:
    return sum(r["t_work1"] - r["t_spawn"] for r in pair.values()) * 1e3


def _traced(rep: dict) -> tuple:
    return rep["spans"], (rep["t_work0"], rep["t_work1"])


def _missing(reps) -> list:
    return sorted({m for r in reps for f in r["spans"] for m in f["missing"]})


def measure_serve(runner: Runner, traced: bool) -> dict:
    """Phase A once; phase B until the time budget (counted from the
    start of phase A) is spent; then one set-up alone, which also
    computes the offline reference."""
    args = runner.args
    t_start = time.monotonic()
    a = runner.child("serve_a", traced)
    bs = []
    while not bs or (time.monotonic() - t_start < args.seconds):
        bs.append(runner.child("serve_b", traced))
    setup_only = runner.child("serve_setup")
    setups = [r["t_work0"] - r["t_spawn"] for r in [a, *bs, setup_only]]
    reference = setup_only["summary"]
    b_plain = runner.child("serve_b") if traced else None

    failures, notes = [], []
    sent = a["sent"] + sum(b["sent"] for b in bs)
    failed_reports = 0
    for name, r in [("A", a)] + [("B", b) for b in bs]:
        # late, duplicate, overflow, rejected and lost reports alike
        failed_reports += r["sent"] - r["stats"]["reports_accepted"]
        if r["metrics"] != reference:
            failures.append(f"phase {name}: served metrics != offline "
                            f"reference: {r['metrics']} != {reference}")
    heard = a["listener"]
    st = a["stats"]
    if heard["frames"] != st["epochs_closed"] or a["epochs_missing"]:
        failures.append(f"listener saw {heard['frames']} command frames, "
                        f"{st['epochs_closed']} epochs closed, "
                        f"{a['epochs_missing']} epochs missing")
    if heard["dropped"] != 0:
        failures.append(f"listener dropped {heard['dropped']} batches")
    if heard["commands"] != st["commands_emitted"]:
        failures.append(f"listener got {heard['commands']} commands, "
                        f"service emitted {st['commands_emitted']}")
    for problem in failures:
        print("SERVE CHECK FAILED: " + problem, file=sys.stderr)
    n_epochs = len(a["latency_ms"])
    notes += [
        f"phase A: {a['epochs']} epochs on a {args.tick or 0.3:g} s tick, "
        f"{a['sent']} reports, generator lag max "
        f"{max(a['lag_ms'], default=0.0):.2f} ms, "
        f"{a['late_epochs']} epochs over the lag bound",
        f"phase B: {len(bs)} replays of {bs[0]['sent']} reports",
        f"reports sent {sent}, not accepted {failed_reports}",
    ]
    out = {
        "correct": not failures,
        "attempted": sent + a["epochs"],
        "failed": (failed_reports + a["late_epochs"] + a["epochs_missing"]
                   + len(failures)),
        "samples": {
            "setup_s": len(setups), "peak_rss_mib": 1 + len(bs),
            "ue_epochs_per_s": len(bs), "latency_p50_ms": n_epochs,
            "latency_p90_ms": n_epochs,
        },
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in [a] + bs),
            "ue_epochs_per_s": sum(b["sent"] for b in bs)
            / sum(_timed(b) for b in bs),
            "latency_p50_ms": spans.nearest_rank(a["latency_ms"], 0.5),
            "latency_p90_ms": spans.tail_percentile(a["latency_ms"]),
        },
        "notes": notes,
    }
    if traced:
        phases = (a, bs[0])
        layers = spans.summarise([_traced(r) for r in phases])
        out["missing"] = _missing(phases)
        for key in ("commands_dropped", "reports_rejected"):
            layers[f"serve.service.{key}"] = sum(r["stats"][key] for r in phases)
        layers["gen.lag_p50_ms"] = spans.nearest_rank(a["lag_ms"], 0.5)
        layers["gen.lag_max_ms"] = max(a["lag_ms"], default=0.0)
        layers["trace.overhead_pct"] = 100.0 * (
            _timed(bs[0]) / _timed(b_plain) - 1.0)
        out["layers"] = layers
    return out


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller inputs, for the benchmark's own smoke tests only
    parser.add_argument("--ues", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--epochs", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--tick", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        body = measure_serve if args.workload == "serve_tcp" else measure_fleet
        result = body(runner, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    if args.trace:
        result["notes"].append("entry points not found (figures read 0): "
                               + (", ".join(result["missing"]) or "none"))
    for note in result["notes"]:
        print(f"  {note}")
    if args.trace:
        metrics = {name: {"value": float(result["layers"][name]), "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {name: {"value": float(result["e2e"][name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for name, m in metrics.items():
        n = result["samples"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']}{suffix}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
