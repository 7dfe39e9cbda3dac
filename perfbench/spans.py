"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public entry points of the ``repro`` package from the
outside: nothing under ``src/`` is edited.  Each wrapped call records a
span ``(id, parent, name, start, end, request)`` in memory on the
calling thread's stack; counters are bumped at the same boundaries.  At
process exit the spans and counters are written as one JSON file into
the directory named by ``PERFBENCH_SPAN_DIR``, and :func:`summarise`
turns the files of traced repetitions into per-layer figures.

Times come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), which
all processes of one host share, so spans of the benchmark process, its
workers and its server can be laid on one time axis.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import json
import math
import os
import pickle
import signal
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


class SpanRecorder:
    """In-memory spans and counters of one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, rid=None) -> list:
        st = self.stack()
        # frame: [id, parent, name, start, request, reference-eval calls]
        frame = [next(self._ids), st[-1][0] if st else 0, name, 0.0, rid, 0]
        st.append(frame)
        frame[3] = time.monotonic()
        return frame

    def close(self, frame: list) -> None:
        end = time.monotonic()
        self.stack().pop()
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end, frame[4]))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def innermost(self):
        st = self.stack()
        return st[-1] if st else None

    def dump(self, directory: str) -> Path:
        path = Path(directory) / f"spans-{self.role}-{os.getpid()}.json"
        payload = {
            "role": self.role,
            "pid": os.getpid(),
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _span_wrapper(rec: SpanRecorder, name: str, fn, rid=None, after=None):
    def wrapped(*args, **kwargs):
        frame = rec.open(name, rid(args, kwargs) if rid else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(frame)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.__doc__ = getattr(fn, "__doc__", None)
    return wrapped


def _traced_tiles(rec: SpanRecorder, fn):
    """``TiledBatchMeasurement.tiles`` returns a generator; each
    ``next()`` on it (one tile produced) becomes one span."""

    def wrapped(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def gen():
            while True:
                frame = rec.open("sim.measurement.tile")
                try:
                    item = next(inner)
                except StopIteration:
                    rec.close(frame)
                    return
                except BaseException:
                    rec.close(frame)
                    raise
                rec.close(frame)
                rec.count("sim.measurement.tiles")
                yield item

        return gen()

    wrapped.__wrapped__ = fn
    return wrapped


def _evaluate_batch(rec: SpanRecorder, fn):
    """Counts guard-band re-evaluations: a ``reference`` call made
    directly inside a ``decision_outputs_batch`` span after its first
    (main) evaluation."""

    def wrapped(self, inputs, backend=None, *args, **kwargs):
        top = rec.innermost()
        if top is not None and top[2] == "core.flc":
            top[5] += 1
            if top[5] > 1 and backend == "reference":
                rec.count("fuzzy.guard_reeval_samples", _batch_len(inputs))
        return fn(self, inputs, backend, *args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def _batch_len(inputs) -> int:
    first = next(iter(inputs.values())) if hasattr(inputs, "values") else inputs[0]
    return int(getattr(first, "size", 1))


def _size(x) -> int:
    return int(getattr(x, "size", 0))


# after-hooks: (recorder, args, kwargs, result) -> None
def _after_densify(rec, args, kwargs, out):
    rec.count("mobility.points", int(out.lengths.sum()))


def _after_pathloss(rec, args, kwargs, out):
    rec.count("radio.pathloss_calls")
    rec.count("radio.pathloss_bytes_computed", int(out.nbytes))


def _after_fading(rec, args, kwargs, out):
    rec.count("radio.fading_calls")
    rec.count("radio.fading_samples", _size(out))


def _after_flc(rec, args, kwargs, out):
    rec.count("core.flc_samples", _size(out))


def _after_policy_groups(rec, args, kwargs, out):
    rec.count("sim.population.policy_groups", len(out))


def _after_map(rec, args, kwargs, out):
    executor = args[0]
    stats = getattr(executor, "last_map_stats", None) or {}
    attempts = stats.get("attempts", [])
    rec.count("sim.distributed.tasks", len(attempts))
    rec.count("sim.distributed.reissues", sum(attempts) - len(attempts))


def _after_frame(rec, args, kwargs, out):
    # the worker wire is pickle; size the frame the way send_frame does
    message = args[1] if len(args) > 1 else out
    rec.count(
        "sim.distributed.wire_bytes",
        len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)) + 4,
    )


def _after_checkpoint(rec, args, kwargs, out):
    rec.count("resilience.checkpoint_writes")
    rec.count("resilience.checkpoint_bytes", os.path.getsize(args[0]))


def _after_decode(rec, args, kwargs, out):
    rec.count("serve.protocol.frames")
    rec.count("serve.protocol.bytes_in", len(args[0]))


def _after_watermark(rec, args, kwargs, out):
    rec.count("serve.epochs.watermark_calls")


def _after_sweep(rec, args, kwargs, out):
    rec.count("serve.engine.ues", len(args[1]))


def _after_push(rec, args, kwargs, out):
    rec.count("serve.service.commands", len(args[1].commands))


def _shard_rid(args, kwargs):
    return args[0].lo


def _epoch_rid(args, kwargs):
    return kwargs.get("epoch")


# (module, attribute path, span name, request-id fn, after-hook)
SPAN_TARGETS = (
    ("repro.mobility.random_walk", "RandomWalk.generate_batch_seeded",
     "mobility.walks", None, None),
    ("repro.sim.population", "UECohort.generate_traces",
     "mobility.walks", None, None),
    ("repro.mobility.base", "TraceBatch.densify",
     "mobility.densify", None, _after_densify),
    ("repro.radio.propagation", "PropagationModel.power_from_sites_batch",
     "radio.pathloss", None, _after_pathloss),
    ("repro.radio.fading", "ShadowFadingStream.sample_next",
     "radio.fading", None, _after_fading),
    ("repro.core.system", "FuzzyHandoverSystem.decision_outputs_batch",
     "core.flc", None, _after_flc),
    ("repro.fuzzy.compiled", "build_lut", "fuzzy.lut_build", None, None),
    ("repro.sim.batch", "BatchSimulator.run_metrics",
     "sim.batch.drive", None, None),
    ("repro.sim.batch", "BatchSimulator.drive_metrics",
     "sim.batch.drive", None, None),
    ("repro.sim.population", "PopulationSpec.run_metrics",
     "sim.population", None, None),
    ("repro.sim.population", "PopulationSpec.policy_groups",
     "sim.population.policy_groups", None, _after_policy_groups),
    ("repro.sim.fleet", "FleetShard.metrics",
     "sim.distributed.shard", _shard_rid, None),
    ("repro.sim.distributed", "DistributedExecutor.map",
     "sim.distributed.map", None, _after_map),
    ("repro.sim.distributed", "send_frame",
     "sim.distributed.send", None, _after_frame),
    ("repro.sim.distributed", "recv_frame",
     "sim.distributed.recv", None, _after_frame),
    ("repro.sim.metrics", "merge_fleet_metrics", "sim.metrics.merge",
     None, None),
    ("repro.resilience.checkpoint", "_atomic_write",
     "resilience.checkpoint_write", None, _after_checkpoint),
    ("repro.serve.protocol", "decode_payload", "serve.protocol.decode",
     None, _after_decode),
    ("repro.serve.epochs", "EpochScheduler.offer", "serve.epochs.offer",
     None, None),
    ("repro.serve.epochs", "EpochScheduler.watermark_reached",
     "serve.epochs.watermark", None, _after_watermark),
    ("repro.serve.epochs", "EpochScheduler.close_epoch",
     "serve.epochs.close", None, None),
    ("repro.serve.engine", "StreamingFleetEngine.step_epoch",
     "serve.engine.sweep", _epoch_rid, _after_sweep),
    ("repro.serve.service", "CommandListener.push", "serve.service.fanout",
     None, _after_push),
)


def _rebind_everywhere(original, replacement) -> None:
    """Replace ``original`` in every loaded ``repro`` module that bound
    it by name (``from .metrics import merge_fleet_metrics``)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: SpanRecorder, skip_prefixes: tuple = ()) -> SpanRecorder:
    """Wrap every entry point of :data:`SPAN_TARGETS` (and the FLC's
    ``evaluate_batch`` and the tile generator).  A target the installed
    ``repro`` no longer has is listed in ``rec.missing`` and skipped."""
    importlib.import_module("repro")
    extra = (
        ("repro.sim.measurement", "TiledBatchMeasurement.tiles",
         "sim.measurement.tile", _traced_tiles),
        ("repro.fuzzy.controller", "FuzzyController.evaluate_batch",
         "core.flc", _evaluate_batch),
    )
    for module_name, path, name, *_ in SPAN_TARGETS + extra:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    for module_name, path, name, rid, after in SPAN_TARGETS:
        if name.startswith(skip_prefixes):
            continue
        _patch(rec, module_name, path,
               lambda fn, name=name, rid=rid, after=after:
               _span_wrapper(rec, name, fn, rid, after))
    for module_name, path, name, factory in extra:
        if name.startswith(skip_prefixes):
            continue
        _patch(rec, module_name, path, lambda fn, f=factory: f(rec, fn))
    return rec


def _patch(rec: SpanRecorder, module_name: str, path: str, make) -> None:
    module = sys.modules.get(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = module
    if owner is not None and owner_name:
        owner = getattr(module, owner_name, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        rec.missing.append(f"{module_name}:{path}")
        return
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if not owner_name:
        _rebind_everywhere(original, wrapped)


def start_from_env(role: str, skip_prefixes: tuple = ()):
    """Install the wrappers when ``PERFBENCH_SPAN_DIR`` is set; spans are
    written at interpreter exit or on SIGTERM.  Returns the recorder, or
    ``None`` for an untraced run."""
    directory = os.environ.get(SPAN_DIR_ENV)
    if not directory:
        return None
    rec = install(SpanRecorder(role), skip_prefixes)

    def flush() -> None:
        try:
            from repro.fuzzy.compiled import lut_build_count
        except ImportError:
            pass
        else:
            rec.counts["fuzzy.lut_builds"] = lut_build_count()
        rec.dump(directory)

    def on_term(signum, frame):
        flush()
        os._exit(0)

    atexit.register(flush)
    signal.signal(signal.SIGTERM, on_term)
    return rec


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def union_length(intervals, lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Total length of the union of ``(start, end)`` intervals, clipped
    to ``[lo, hi]``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval covered by its
    direct children."""
    children: dict[int, list] = defaultdict(list)
    for sid, parent, _name, start, end, _rid in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end, _rid in spans
    }


def outermost(spans) -> list[tuple]:
    """Spans with no ancestor of the same name (so nested calls of one
    layer are not counted twice in its busy time)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for span in spans:
        parent = by_id.get(span[1])
        while parent is not None and parent[2] != span[2]:
            parent = by_id.get(parent[1])
        if parent is None:
            out.append(span)
    return out


def load_dir(directory) -> list[dict]:
    return [
        json.loads(p.read_text())
        for p in sorted(Path(directory).glob("spans-*.json"))
    ]


#: per-layer metrics and units, in print order
LAYER_METRICS = (
    ("mobility.walks_s", "s"), ("mobility.densify_s", "s"),
    ("mobility.points", "count"),
    ("radio.pathloss_s", "s"), ("radio.pathloss_calls", "count"),
    ("radio.pathloss_bytes_computed", "bytes"),
    ("radio.fading_s", "s"), ("radio.fading_calls", "count"),
    ("radio.fading_samples", "count"),
    ("sim.measurement.tiles", "count"), ("sim.measurement.tile_self_s", "s"),
    ("core.flc_s", "s"), ("core.flc_samples", "count"),
    ("fuzzy.guard_reeval_samples", "count"),
    ("fuzzy.guard_reeval_frac", "ratio"),
    ("fuzzy.lut_builds", "count"), ("fuzzy.lut_build_s", "s"),
    ("sim.batch.drive_self_s", "s"),
    ("sim.population.policy_groups", "count"),
    ("sim.population.self_s", "s"),
    ("sim.distributed.shards", "count"), ("sim.distributed.reissues", "count"),
    ("sim.distributed.wire_bytes", "bytes"),
    ("sim.distributed.shard_s_max", "s"), ("sim.distributed.shard_s_mean", "s"),
    ("sim.distributed.parent_wait_s", "s"),
    ("sim.metrics.merge_s", "s"),
    ("resilience.checkpoint_writes", "count"),
    ("resilience.checkpoint_bytes", "bytes"),
    ("resilience.checkpoint_write_s", "s"),
    ("serve.protocol.frames", "count"), ("serve.protocol.bytes_in", "bytes"),
    ("serve.protocol.decode_s", "s"),
    ("serve.epochs.offer_s", "s"), ("serve.epochs.watermark_calls", "count"),
    ("serve.epochs.watermark_s", "s"), ("serve.epochs.close_s", "s"),
    ("serve.engine.sweep_p50_ms", "ms"), ("serve.engine.sweep_p90_ms", "ms"),
    ("serve.engine.ues_per_sweep", "count"),
    ("serve.service.fanout_s", "s"), ("serve.service.commands", "count"),
    ("serve.service.commands_dropped", "count"),
    ("serve.service.reports_rejected", "count"),
    ("gen.lag_p50_ms", "ms"), ("gen.lag_max_ms", "ms"),
    ("trace.overhead_pct", "%"), ("trace.span_coverage", "ratio"),
)

# busy time of a layer: the outermost spans of that name
_BUSY = {
    "mobility.walks_s": "mobility.walks",
    "mobility.densify_s": "mobility.densify",
    "radio.pathloss_s": "radio.pathloss",
    "radio.fading_s": "radio.fading",
    "core.flc_s": "core.flc",
    "fuzzy.lut_build_s": "fuzzy.lut_build",
    "sim.distributed.parent_wait_s": "sim.distributed.map",
    "sim.metrics.merge_s": "sim.metrics.merge",
    "resilience.checkpoint_write_s": "resilience.checkpoint_write",
    "serve.protocol.decode_s": "serve.protocol.decode",
    "serve.epochs.offer_s": "serve.epochs.offer",
    "serve.epochs.watermark_s": "serve.epochs.watermark",
    "serve.epochs.close_s": "serve.epochs.close",
    "serve.service.fanout_s": "serve.service.fanout",
}
# self time of a layer: duration minus child coverage, summed
_SELF = {
    "sim.measurement.tile_self_s": "sim.measurement.tile",
    "sim.batch.drive_self_s": "sim.batch.drive",
    "sim.population.self_s": "sim.population",
}
# counters copied as they are
_COUNTS = (
    "mobility.points", "radio.pathloss_calls", "radio.pathloss_bytes_computed",
    "radio.fading_calls", "radio.fading_samples", "sim.measurement.tiles",
    "core.flc_samples", "fuzzy.guard_reeval_samples", "fuzzy.lut_builds",
    "sim.population.policy_groups", "sim.distributed.reissues",
    "sim.distributed.wire_bytes", "resilience.checkpoint_writes",
    "resilience.checkpoint_bytes", "serve.protocol.frames",
    "serve.protocol.bytes_in", "serve.epochs.watermark_calls",
    "serve.service.commands",
)


def nearest_rank(values, q: float) -> float:
    """The ``q``-quantile by nearest rank (``q=0.9`` of 100 samples
    leaves exactly 10 above it)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_percentile(values) -> float:
    """The highest percentile, up to p90, that leaves at least ten
    samples above it; the median when there are fewer than 20."""
    q = 0.9 if len(values) >= 100 else max(0.5, 1.0 - 10.0 / max(len(values), 1))
    return nearest_rank(values, q)


def summarise(reps) -> dict:
    """Per-layer figures from traced repetitions, each given as
    ``(span files of every process, (start, end) of its measured
    window)``.  Counts and busy times add up over the repetitions;
    ``trace.span_coverage`` is the share of the windows' total length
    that root spans of any process cover."""
    out = {name: 0.0 for name, _unit in LAYER_METRICS}
    shards, sweeps = [], []
    covered = measured = 0.0
    for files, (lo, hi) in reps:
        roots = []
        for f in files:
            spans = [tuple(s) for s in f["spans"]]
            selfs = self_times(spans)
            for span in outermost(spans):
                for metric, name in _BUSY.items():
                    if span[2] == name:
                        out[metric] += span[4] - span[3]
            for span in spans:
                for metric, name in _SELF.items():
                    if span[2] == name:
                        out[metric] += selfs[span[0]]
                if span[2] == "sim.distributed.shard":
                    shards.append(span[4] - span[3])
                elif span[2] == "serve.engine.sweep":
                    sweeps.append(span[4] - span[3])
            counts = f["counts"]
            for key in _COUNTS:
                out[key] += counts.get(key, 0)
            out["sim.distributed.shards"] += counts.get("sim.distributed.tasks", 0)
            out["serve.engine.ues_per_sweep"] += counts.get("serve.engine.ues", 0)
            roots += [(s[3], s[4]) for s in spans if not s[1]]
        covered += union_length(roots, lo, hi)
        measured += max(hi - lo, 0.0)
    if out["core.flc_samples"]:
        out["fuzzy.guard_reeval_frac"] = (
            out["fuzzy.guard_reeval_samples"] / out["core.flc_samples"])
    if shards:
        out["sim.distributed.shard_s_max"] = max(shards)
        out["sim.distributed.shard_s_mean"] = sum(shards) / len(shards)
    if sweeps:
        out["serve.engine.sweep_p50_ms"] = nearest_rank(sweeps, 0.5) * 1e3
        out["serve.engine.sweep_p90_ms"] = nearest_rank(sweeps, 0.9) * 1e3
        out["serve.engine.ues_per_sweep"] /= len(sweeps)
    if measured:
        out["trace.span_coverage"] = covered / measured
    return out
