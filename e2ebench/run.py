"""End-to-end and per-layer host-time benchmark of the ``repro`` simulator.

Run from the repository root::

    python3 e2ebench/run.py --workload cpu_sched --seed 0 --seconds 10 --trace 0

Every workload is a fixed batch of registered experiments run through
``repro.cli.main`` in this one process (see ``harness.WORKLOADS``).  One run:

1. a warm-up pass, untimed; for serial workloads it also fills the result
   cache that the warm replays read;
2. timed passes until ``--seconds`` have elapsed: serial and uncached, or
   for ``traced_replay`` a cold ``--jobs 2`` pass on a fresh cache and
   trace directory followed by warm passes that replay it;
3. for serial workloads, warm replays from the result cache, in a block
   after the warm-up and after every timed pass;
4. with ``--trace 1``, one more pass under spans and the profiler
   (``layers.py``), whose numbers never feed the end-to-end metrics;
5. with ``--trace 0``, fresh interpreters timed up to ``import repro.cli``.

Times are calibrated seconds (``speed.py``): host time scaled by a speed
probe that runs beside the measurement, so a neighbour slowing the shared
core does not read as a regression.  Raw seconds go to the results file.

Every experiment run is digested (stdout, CSVs, trace artifacts) and
checked against ``digests.json`` when it holds the seed, else against the
run's own first digest.  Results, provenance and digests go to
``e2ebench/out/``; the last stdout line is the JSON summary.
``--update-digests`` records the digests of the seed in ``digests.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import harness
import layers
from speed import SpeedProbe

#: Timed passes a run makes even when one pass outlasts ``--seconds``.
MIN_PASSES = 1
#: Warm replays per cold pass of ``traced_replay``.  Serial workloads
#: replay in blocks, one after the warm-up and one after every cold pass,
#: each for at least ``WARM_BLOCK_SECONDS`` and ``MIN_WARM_BLOCK`` replays:
#: one replay of theirs takes only milliseconds, and blocks spread over the
#: run keep one slow moment of the host from setting the median.
REPLAY_WARM_REPEATS = 5
WARM_BLOCK_SECONDS = 0.8
MIN_WARM_BLOCK = 5
#: Fresh interpreters timed for ``setup_s``.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class Measurement:
    """One benchmark run of one workload at one seed."""

    def __init__(self, cli, workload: harness.Workload, seed: int, workdir: Path) -> None:
        self.cli = cli
        self.runner = harness.Runner(cli, workload, seed, workdir)
        self.workload = workload
        self.workdir = workdir
        self.passes: List[harness.PassResult] = []
        self.cold: List[harness.PassResult] = []
        self.warm: List[harness.PassResult] = []
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"state{self._dirs}"
        path.mkdir()
        return path

    def _pass(self, kind: str, state_dir: Path, **kw) -> harness.PassResult:
        result = self.runner.run_pass(kind, state_dir, **kw)
        self.passes.append(result)
        return result

    def untraced(self, seconds: float) -> None:
        """Warm-up, timed cold passes, and warm replays (steps 1–3)."""
        if self.workload.replay:
            warmup = self.fresh_dir()
            self._pass("warmup-cold", warmup)
            self._pass("warmup-warm", warmup)
        else:
            cache_dir = self.fresh_dir()
            self._pass("warmup", cache_dir, cached=True)
            self._warm_block(cache_dir)
            scratch = self.fresh_dir()
        start = time.perf_counter()
        while len(self.cold) < MIN_PASSES or time.perf_counter() - start < seconds:
            state = self.fresh_dir() if self.workload.replay else scratch
            self.cold.append(self._pass("cold", state))
            if self.workload.replay:
                for _ in range(REPLAY_WARM_REPEATS):
                    self.warm.append(self._pass("warm", state))
                shutil.rmtree(state)
            else:
                self._warm_block(cache_dir)

    def _warm_block(self, cache_dir: Path) -> None:
        start = time.perf_counter()
        replays = 0
        while replays < MIN_WARM_BLOCK or time.perf_counter() - start < WARM_BLOCK_SECONDS:
            self.warm.append(self._pass("warm", cache_dir, cached=True))
            replays += 1

    def traced(self) -> Tuple[harness.PassResult, layers.Spans, layers.ExecTally,
                              cProfile.Profile, Path]:
        """One pass under spans and the profiler (step 4)."""
        spans = layers.Spans()
        tally = layers.ExecTally()
        profile = cProfile.Profile()

        @contextlib.contextmanager
        def experiment_span(exp: str):
            with spans.span("experiment", point=exp):
                profile.enable()
                try:
                    yield
                finally:
                    profile.disable()

        # Worker processes forked mid-profile would inherit the profiler and
        # run slower, although their profiles are never collected.
        os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
        state = self.fresh_dir()
        self.runner.hook = experiment_span
        try:
            with layers.instrumented(self.cli, spans, tally):
                with spans.span("pass", point=self.workload.name):
                    traced_cold = self._pass("traced-cold", state, traced=True)
                    if self.workload.replay:
                        self._pass("traced-warm", state, traced=True)
        finally:
            self.runner.hook = None
        return traced_cold, spans, tally, profile, state / "trace"


def calibrated(probe: SpeedProbe, passes: Sequence[harness.PassResult]) -> List[float]:
    """Calibrated seconds of each pass: the sum over its experiment runs."""
    return [sum(probe.seconds(o.start, o.end) for o in p.outcomes) for p in passes]


def peak_rss_mb(replay: bool) -> Dict[str, float]:
    """Peak RSS of this process and of its largest worker process, in MB.

    ``total`` adds the worker only for workloads that run workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self": own, "worker": worker, "total": own + worker if replay else own}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-digests",
        action="store_true",
        help="record this seed's digests in digests.json instead of checking",
    )
    return parser.parse_args(argv)


def update_digests(seed: int, workload: str, digests: Dict[str, str]) -> None:
    """Store *digests* for (*seed*, *workload*) with the versions beside them."""
    path = harness.DIGESTS_PATH
    doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    entry = doc["seeds"].setdefault(str(seed), {})
    prov = harness.provenance(seed)
    if {k: entry.get(k) for k in ("python", "numpy")} != harness.versions():
        entry.clear()
    entry.update({k: prov[k] for k in ("python", "numpy", "commit", "dirty")})
    entry.setdefault("digests", {})[workload] = digests
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    try:
        cli = harness.load_cli()
    except harness.MissingProgram as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1

    if args.update_digests:
        expected, source = None, "recording"
    else:
        expected, source = harness.load_expected(args.seed, workload.name)
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=harness.OUT_DIR))
    setup_spans: List[Tuple[float, float]] = []
    try:
        with SpeedProbe() as probe:
            m = Measurement(cli, workload, args.seed, workdir)
            m.untraced(args.seconds)
            rss = peak_rss_mb(workload.replay)
            if args.trace:
                traced_pass, spans, tally, profile, trace_dir = m.traced()
                counters = layers.read_counters(trace_dir)
                artifact_bytes = sum(p.stat().st_size for p in trace_dir.iterdir())
            else:
                setup_spans = harness.setup_spans(SETUP_REPEATS)
            probe.settle()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cold_s = calibrated(probe, m.cold)
    warm_s = calibrated(probe, m.warm)
    wall_s = statistics.median(cold_s)
    attempted, failed, digests, problems = harness.check_outcomes(m.passes, expected)
    samples: Dict[str, Tuple[float, int]] = {
        "wall_s": (wall_s, len(cold_s)),
        "warm_wall_s": (statistics.median(warm_s), len(warm_s)),
        "peak_rss_mb": (rss["total"], 1),
        "success_rate": ((attempted - failed) / attempted, attempted),
    }
    raw = {
        "wall_s": [p.seconds for p in m.cold],
        "warm_wall_s": [p.seconds for p in m.warm],
    }
    if setup_spans:
        setup_s = [probe.seconds(a, b) for a, b in setup_spans]
        samples["setup_s"] = (statistics.median(setup_s), len(setup_s))
        raw["setup_s"] = [b - a for a, b in setup_spans]

    prov = harness.provenance(args.seed)
    print(f"workload {workload.name}: {', '.join(workload.experiments)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"digests ({source}):")
    for exp, digest in digests.items():
        print(f"  {exp:20s} {digest}")
    for line in problems:
        print(f"FAILED {line}")
    print(f"error_rate {failed / attempted:.4f} ({failed}/{attempted} runs)")
    for name, (value, n) in samples.items():
        raw_note = f", raw median {statistics.median(raw[name]):.4f}" if name in raw else ""
        print(f"{name:14s} {value:12.4f} {END_TO_END_UNITS[name]:6s} "
              f"(median of {n}{raw_note})")

    if args.trace:
        self_s = layers.self_time_by_layer(profile, harness.REPRO_DIR)
        traced_s = calibrated(probe, [traced_pass])[0]
        per_layer = layers.per_layer_metrics(
            self_s=self_s,
            counters=counters,
            spans=spans,
            tally=tally,
            artifact_bytes=artifact_bytes,
            untraced_wall_s=wall_s,
            traced_wall_s=traced_s,
            time_scale=traced_s / traced_pass.seconds,
        )
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit in layers.PER_LAYER_UNITS.items()
        }
        for name, item in metrics.items():
            print(f"{name:32s} {item['value']:16.4f} {item['unit']}")
    else:
        metrics = {
            name: {"value": samples[name][0], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov,
        "workload": workload.name,
        "experiments": list(workload.experiments),
        "digests": digests,
        "digest_source": source,
        "failures": problems,
        "calibrated_s": {"wall_s": cold_s, "warm_wall_s": warm_s},
        "raw_s": raw,
        "rss_mb": rss,
        "metrics": metrics,
    }
    (harness.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (harness.OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(
            {"provenance": prov, "spans": spans.records, "self_s": self_s}, indent=1
        ) + "\n")
    if args.update_digests and failed == 0:
        update_digests(args.seed, workload.name, digests)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
