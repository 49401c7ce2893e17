"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest e2ebench
"""

from __future__ import annotations

import json
import re

import harness
import layers
import run
import speed

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_every_workload_names_registered_experiments():
    cli = harness.load_cli()
    for workload in harness.WORKLOADS.values():
        assert workload.experiments
        for exp in workload.experiments:
            assert exp in cli.REGISTRY, (workload.name, exp)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(run.END_TO_END_UNITS) + list(layers.PER_LAYER_UNITS)
    for name in names:
        assert NAME.fullmatch(name), name


def _tiny_runner(tmp_path, *experiments):
    workload = harness.Workload("tiny", experiments)
    return harness.Runner(harness.load_cli(), workload, 0, tmp_path)


def test_corrupted_expected_digest_counts_as_failure(tmp_path):
    runner = _tiny_runner(tmp_path, "tab-setup")
    passes = [runner.run_pass("cold", tmp_path)]
    digest = passes[0].outcomes[0].digest
    assert harness.check_outcomes(passes, {"tab-setup": digest})[:2] == (1, 0)
    corrupted = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    attempted, failed, _, problems = harness.check_outcomes(
        passes, {"tab-setup": corrupted}
    )
    assert (attempted, failed) == (1, 1)
    assert "digest" in problems[0]


def test_failed_run_and_drifting_digest_count_as_failures(tmp_path):
    runner = _tiny_runner(tmp_path, "no-such-experiment")
    passes = [runner.run_pass("cold", tmp_path)]
    assert harness.check_outcomes(passes, None)[:2] == (1, 1)
    a = harness.PassResult("cold", [harness.Outcome("x", 0.0, 0.1, digest="a" * 64)])
    b = harness.PassResult("warm", [harness.Outcome("x", 0.0, 0.1, digest="b" * 64)])
    assert harness.check_outcomes([a, b], None)[:2] == (2, 1)


def test_traced_pass_digests_like_the_untraced_one(tmp_path):
    runner = _tiny_runner(tmp_path, "tab-setup", "fig5")
    cold = runner.run_pass("cold", tmp_path / "a")
    traced = runner.run_pass("traced", tmp_path / "b", traced=True)
    assert [o.digest for o in traced.outcomes] == [o.digest for o in cold.outcomes]
    assert harness.check_outcomes([cold, traced], None)[:2] == (4, 0)


def test_calibrated_seconds_scale_by_probe_speed():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_KERNEL_S
    # Samples every 0.1 s; the host runs at half speed from t = 1.0 on.
    probe._times = [i / 10 for i in range(1, 21)]
    probe._costs = [ref if t <= 1.0 else 2 * ref for t in probe._times]
    assert abs(probe.seconds(0.2, 0.6) - 0.4) < 1e-9
    assert abs(probe.seconds(1.4, 1.8) - 0.2) < 1e-9
    assert abs(probe.seconds(2.5, 3.0) - 0.25) < 1e-9  # after the last sample
