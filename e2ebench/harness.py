"""Workloads, timed passes and output digests for the end-to-end benchmark.

A workload is a fixed batch of registered experiments.  One *pass* runs
every experiment of the batch once, in order, through the public CLI entry
point ``repro.cli.main`` inside this process, and records for each run its
host wall time and a sha256 digest of everything it wrote: stdout, the CSV
series and, for the replay workload, the trace artifacts.

Digests are compared against ``digests.json``, which holds the digests for a
few seeds together with the Python and NumPy versions that produced them
(NumPy's NEP 19 does not promise stable ``Generator`` streams across
releases, so a digest means nothing without the version beside it).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REPRO_DIR = SRC / "repro"
OUT_DIR = BENCH_DIR / "out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Worker processes of the replay workload (the 2-core reference machine).
REPLAY_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """A named batch of experiments and how one pass runs them.

    ``replay`` workloads run every experiment with ``--jobs``, a result
    cache and a trace directory: a cold pass on an empty directory, then
    warm passes that replay the cache.  The others run serially with no
    cache, which keeps the ``exec`` and ``obs`` layers out of ``wall_s``.
    """

    name: str
    experiments: Tuple[str, ...]
    replay: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cpu_sched", ("fig1", "fig2", "fig3")),
        Workload(
            "mem_net",
            ("tab-mem", "fleet_capacity", "fig8", "fig9", "chaos", "tab-proto"),
        ),
        Workload("scale_hybrid", ("scale_load_curve", "scale_closed_curve")),
        Workload(
            "traced_replay",
            ("fig3", "fig8", "tab-proto", "fleet_placement", "slo_burst"),
            replay=True,
        ),
    )
}


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def load_cli():
    """Import ``repro.cli`` from this checkout's ``src`` tree."""
    if not (REPRO_DIR / "cli.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.cli

    if Path(repro.cli.__file__).resolve().parent != REPRO_DIR:
        raise MissingProgram(f"imported repro from {repro.cli.__file__}")
    return repro.cli


# -- digests -------------------------------------------------------------------


def digest_outputs(
    stdout: str, csv_dir: Path, trace_dir: Optional[Path], exp: str
) -> str:
    """sha256 over stdout, the CSV directory and *exp*'s trace artifacts."""
    files = [
        ("csv/" + p.relative_to(csv_dir).as_posix(), p)
        for p in sorted(csv_dir.rglob("*"))
        if p.is_file()
    ]
    if trace_dir is not None:
        files += [("trace/" + p.name, p) for p in sorted(trace_dir.glob(f"{exp}.*"))]
    h = hashlib.sha256()
    h.update(b"stdout\0")
    h.update(stdout.encode("utf-8"))
    for label, path in files:
        data = path.read_bytes()
        h.update(f"\0{label}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def strip_metrics_summary(stdout: str, exp: str) -> str:
    """The untraced stdout of a ``repro trace`` run without ``--jobs``.

    ``trace`` appends ``<exp>: metrics summary`` and a blank line where
    ``run`` writes only the blank line; everything before is identical.
    """
    marker = f"{exp}: metrics summary\n"
    cut = stdout.rfind(marker)
    if cut < 0 or (cut > 0 and stdout[cut - 1] != "\n"):
        return stdout
    return stdout[:cut] + "\n"


def versions() -> Dict[str, Optional[str]]:
    """The interpreter and NumPy versions the outputs depend on.

    Read from package metadata: importing NumPy here would add its memory
    to ``peak_rss_mb`` for workloads that never use it.
    """
    try:
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version}


def provenance(seed: int) -> dict:
    """Where a result came from: commit, dirty flag, versions, cores, seed."""
    commit: Optional[str] = None
    dirty: Optional[bool] = None
    # Only this checkout's own repository: git would otherwise search the
    # parent directories of an exported tree.
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            pass
        else:
            if head.returncode == 0 and status.returncode == 0:
                commit = head.stdout.strip()
                dirty = bool(status.stdout.strip())
    return {
        "commit": commit,
        "dirty": dirty,
        **versions(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def load_expected(seed: int, workload: str) -> Tuple[Optional[Dict[str, str]], str]:
    """Committed digests for (*seed*, *workload*), or ``None`` and why not."""
    try:
        entries = json.loads(DIGESTS_PATH.read_text())["seeds"]
    except (OSError, ValueError, KeyError):
        return None, f"no readable {DIGESTS_PATH.name}"
    entry = entries.get(str(seed))
    if entry is None or workload not in entry["digests"]:
        return None, f"no committed digests for seed {seed}"
    recorded = {k: entry[k] for k in ("python", "numpy")}
    if recorded != versions():
        return None, f"digests were made with {recorded}, running {versions()}"
    return entry["digests"][workload], "committed"


# -- passes ----------------------------------------------------------------------


@dataclass
class Outcome:
    """One experiment run: its ``perf_counter`` span, digest or error."""

    experiment: str
    start: float
    end: float
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class PassResult:
    """One pass over a workload's experiments."""

    kind: str
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


class Runner:
    """Runs passes of one workload at one seed under a work directory.

    *hook*, when given, wraps every ``main`` call; the traced run uses it
    to open one span per experiment.
    """

    def __init__(self, cli, workload: Workload, seed: int, workdir: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.hook: Optional[Callable[[str], ContextManager]] = None

    def run_pass(
        self,
        kind: str,
        state_dir: Path,
        *,
        cached: bool = False,
        traced: bool = False,
    ) -> PassResult:
        """Run every experiment once; *state_dir* holds cache and traces.

        Replay workloads always run with ``--jobs``, the cache and the
        trace directory of *state_dir*.  Serial workloads use the cache
        only when *cached*, and a trace directory only when *traced*.
        """
        result = PassResult(kind)
        gc.collect()
        for exp in self.workload.experiments:
            result.outcomes.append(
                self._run_one(exp, state_dir, cached=cached, traced=traced)
            )
        return result

    def _run_one(self, exp: str, state_dir: Path, *, cached: bool, traced: bool) -> Outcome:
        csv_dir = self.workdir / "csv"
        shutil.rmtree(csv_dir, ignore_errors=True)
        trace_dir = state_dir / "trace"
        argv = [
            "trace" if traced else "run", exp,
            "--seed", str(self.seed),
            "--csv", str(csv_dir),
        ]
        if self.workload.replay:
            argv += ["--jobs", str(REPLAY_JOBS)]
        if self.workload.replay or cached:
            argv += ["--cache-dir", str(state_dir / "cache")]
        if self.workload.replay or traced:
            argv += ["--trace-dir", str(trace_dir)]
        out = io.StringIO()
        context = self.hook(exp) if self.hook is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with context:
                code = self.cli.main(argv, out=out, progress=None)
        except Exception as exc:  # a failed run is counted, not fatal
            return Outcome(exp, start, time.perf_counter(), error=f"raised {exc!r}")
        end = time.perf_counter()
        if code != 0:
            return Outcome(exp, start, end, error=f"exit code {code}")
        stdout = out.getvalue()
        if traced and not self.workload.replay:
            stdout = strip_metrics_summary(stdout, exp)
        digest = digest_outputs(
            stdout, csv_dir, trace_dir if self.workload.replay else None, exp
        )
        return Outcome(exp, start, end, digest=digest)


def check_outcomes(
    passes: Sequence[PassResult], expected: Optional[Dict[str, str]]
) -> Tuple[int, int, Dict[str, str], List[str]]:
    """Count attempted and failed runs across *passes*.

    A run fails if it raised or exited non-zero, if its digest differs
    from the committed one, or — with no committed digest for this seed —
    if it differs from the first digest the run produced for the same
    experiment (cold, warm, cached and traced passes must all agree).
    Returns ``(attempted, failed, digests, messages)``.
    """
    attempted = failed = 0
    reference: Dict[str, str] = dict(expected or {})
    seen: Dict[str, str] = {}
    messages: List[str] = []
    for p in passes:
        for o in p.outcomes:
            attempted += 1
            if o.error is not None:
                failed += 1
                messages.append(f"{p.kind} {o.experiment}: {o.error}")
                continue
            seen.setdefault(o.experiment, o.digest)
            want = reference.setdefault(o.experiment, o.digest)
            if o.digest != want:
                failed += 1
                messages.append(
                    f"{p.kind} {o.experiment}: digest {o.digest[:12]} != "
                    f"expected {want[:12]}"
                )
    return attempted, failed, seen, messages


def setup_spans(repeats: int) -> List[Tuple[float, float]]:
    """``perf_counter`` spans of fresh interpreters importing ``repro.cli``.

    One untimed import first, so byte-compiling a fresh checkout is not
    counted; then *repeats* timed ones.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-c", "import repro.cli"]
    spans: List[Tuple[float, float]] = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        if i:
            spans.append((start, time.perf_counter()))
    return spans
