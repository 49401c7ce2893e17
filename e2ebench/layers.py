"""Per-layer accounting for the traced run, from outside the program.

Nothing under ``src/`` is edited.  The traced pass:

* wraps public calls in spans — each experiment's ``repro.cli.main`` call,
  ``SweepExecutor.map``, ``ResultCache.load``/``store`` and the
  ``write_run_artifacts`` call the CLI makes — keeping them in memory until
  the run ends;
* profiles the pass with :mod:`cProfile` and sums self time by ``repro``
  subpackage (C functions, such as NumPy draws, count toward the Python
  function that called them; everything outside ``src/repro`` is
  ``other``);
* reads the counters that ``repro trace`` writes to ``<exp>.metrics.json``.

Worker processes of ``--jobs`` runs are not profiled: their work appears as
``exec.point_s``, and the parent's wait for them as ``other``.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import pstats
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Subpackages of ``repro`` whose self time is reported, plus ``cli`` for the
#: top-level modules (``cli.py``, ``units.py``, ``errors.py``) and ``other``
#: for everything outside ``src/repro``, so the shares add up to the total.
LAYERS = (
    "sim", "cpu", "memory", "net", "protocols", "scale", "fleet", "slo",
    "exec", "obs", "core", "analytic", "gui", "workloads", "cli", "other",
)

#: Per-layer metrics the traced run reports, with their units.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "cpu.dispatches": "count",
    "cpu.context_switches": "count",
    "memory.faults": "count",
    "memory.evictions": "count",
    "memory.hit_ratio": "ratio",
    "net.packets": "count",
    "net.bytes": "bytes",
    "protocols.bytes": "bytes",
    "protocols.rdp_cache_hit_ratio": "ratio",
    "exec.map_s": "s",
    "exec.point_s": "s",
    "exec.overhead_s": "s",
    "exec.cache_hits": "count",
    "exec.cache_misses": "count",
    "exec.cache_load_s": "s",
    "exec.cache_store_s": "s",
    "exec.fallbacks": "count",
    "obs.write_s": "s",
    "obs.trace_events": "count",
    "obs.trace_dropped": "count",
    "obs.artifact_bytes": "bytes",
    "trace_overhead": "ratio",
}


class Spans:
    """An in-memory span recorder: name, start, end, parent, point id.

    Times are seconds since the recorder was created; ``parent`` is the
    index of the enclosing span in :attr:`records`, or ``None``.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, point: Optional[str] = None) -> Iterator[None]:
        record = {
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "point": point,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)


class ExecTally:
    """What the wrapped ``SweepExecutor.map`` calls report about themselves."""

    def __init__(self) -> None:
        self.point_s = 0.0
        self.parallel_point_s = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.fallbacks = 0


@contextlib.contextmanager
def instrumented(cli, spans: Spans, tally: ExecTally) -> Iterator[None]:
    """Wrap the executor, the result cache and artifact writing in spans.

    The originals are restored on exit, so untraced passes run the
    program exactly as shipped.
    """
    from repro.exec import ResultCache, SweepExecutor

    orig_map = SweepExecutor.map
    orig_load = ResultCache.load
    orig_store = ResultCache.store
    orig_write = cli.write_run_artifacts

    def map_(self, name, fn, values, *, seed=0):
        before = self.cache.stats if self.cache is not None else None
        with spans.span("exec.map", point=name):
            results = orig_map(self, name, fn, values, seed=seed)
        seconds = sum(self.last_point_seconds.values())
        # Points of a process pool run side by side on `jobs` workers.
        if self.last_backend_used == "process":
            tally.parallel_point_s += seconds / self.jobs
        else:
            tally.parallel_point_s += seconds
        tally.point_s += seconds
        if self.last_fallback_reason is not None:
            tally.fallbacks += 1
        if before is not None:
            after = self.cache.stats
            tally.cache_hits += after.hits - before.hits
            tally.cache_misses += after.misses - before.misses
        return results

    def load(self, experiment, value, seed):
        with spans.span("exec.cache_load", point=f"{experiment}:{value!r}"):
            return orig_load(self, experiment, value, seed)

    def store(self, experiment, value, seed, payload):
        with spans.span("exec.cache_store", point=f"{experiment}:{value!r}"):
            return orig_store(self, experiment, value, seed, payload)

    def write(directory, experiment, seed, observations):
        with spans.span("obs.write", point=experiment):
            return orig_write(directory, experiment, seed, observations)

    SweepExecutor.map = map_
    ResultCache.load = load
    ResultCache.store = store
    cli.write_run_artifacts = write
    try:
        yield
    finally:
        SweepExecutor.map = orig_map
        ResultCache.load = orig_load
        ResultCache.store = orig_store
        cli.write_run_artifacts = orig_write


def layer_of(filename: str, repro_dir: Path) -> str:
    """The layer a profiled function's source file belongs to."""
    prefix = str(repro_dir) + "/"
    if not filename.startswith(prefix):
        return "other"
    head, sep, _ = filename[len(prefix):].partition("/")
    if not sep:
        return "cli"
    return head if head in LAYERS else "other"


def self_time_by_layer(profile: cProfile.Profile, repro_dir: Path) -> Dict[str, float]:
    """Self seconds per layer; C functions are charged to their callers."""
    totals = dict.fromkeys(LAYERS, 0.0)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            totals[layer_of(filename, repro_dir)] += tt
            continue
        charged = 0.0
        for (caller_file, _l, _n), caller_stats in callers.items():
            share = caller_stats[2]
            totals[layer_of(caller_file, repro_dir)] += share
            charged += share
        totals["other"] += max(tt - charged, 0.0)
    return totals


def read_counters(trace_dir: Path) -> Dict[str, float]:
    """Counter totals and trace volume summed over every metrics artifact."""
    counters: Dict[str, float] = {}
    for path in sorted(trace_dir.glob("*.metrics.json")):
        doc = json.loads(path.read_text())
        for name, value in doc["totals"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        counters["trace.events"] = counters.get("trace.events", 0) + doc["trace"]["events"]
        counters["trace.dropped"] = counters.get("trace.dropped", 0) + doc["trace"]["dropped"]
    return counters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    *,
    self_s: Dict[str, float],
    counters: Dict[str, float],
    spans: Spans,
    tally: ExecTally,
    artifact_bytes: int,
    untraced_wall_s: float,
    traced_wall_s: float,
    time_scale: float,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER_UNITS`, from one traced pass.

    Seconds measured inside the traced pass are multiplied by *time_scale*,
    the pass's calibrated over raw time, so they read in the same
    calibrated seconds as the wall times.
    """
    c = counters.get
    proto_bytes = sum(v for k, v in counters.items()
                      if k.startswith("proto.") and k.endswith(".bytes"))
    map_s = spans.total("exec.map")
    metrics: Dict[str, float] = {f"{layer}.self_s": s for layer, s in self_s.items()}
    metrics.update({
        "sim.events": c("sim.events_dispatched", 0),
        "sim.events_per_s": _ratio(c("sim.events_dispatched", 0), untraced_wall_s),
        "cpu.dispatches": c("cpu.dispatches", 0),
        "cpu.context_switches": c("cpu.context_switches", 0),
        "memory.faults": c("mem.faults", 0),
        "memory.evictions": c("mem.evictions", 0),
        "memory.hit_ratio": _ratio(c("mem.hits", 0), c("mem.hits", 0) + c("mem.faults", 0)),
        "net.packets": c("net.packets_sent", 0),
        "net.bytes": c("net.bytes_sent", 0),
        "protocols.bytes": proto_bytes,
        "protocols.rdp_cache_hit_ratio": _ratio(
            c("proto.rdp.cache_hits", 0),
            c("proto.rdp.cache_hits", 0) + c("proto.rdp.cache_misses", 0),
        ),
        "exec.map_s": map_s,
        "exec.point_s": tally.point_s,
        "exec.overhead_s": map_s - tally.parallel_point_s,
        "exec.cache_hits": tally.cache_hits,
        "exec.cache_misses": tally.cache_misses,
        "exec.cache_load_s": spans.total("exec.cache_load"),
        "exec.cache_store_s": spans.total("exec.cache_store"),
        "exec.fallbacks": tally.fallbacks,
        "obs.write_s": spans.total("obs.write"),
        "obs.trace_events": c("trace.events", 0),
        "obs.trace_dropped": c("trace.dropped", 0),
        "obs.artifact_bytes": artifact_bytes,
        "trace_overhead": _ratio(traced_wall_s, untraced_wall_s),
    })
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            metrics[name] *= time_scale
    return metrics
