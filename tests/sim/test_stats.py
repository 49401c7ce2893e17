"""Unit and property tests for summary statistics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    Histogram,
    Summary,
    cumulative_latency_by_duration,
    ecdf,
    mean,
    percentile,
    stddev,
    variance,
)
from repro.sim.stats import jitter, rate_per_second

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_mean_simple():
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_mean_empty_raises():
    with pytest.raises(SimulationError):
        mean([])


def test_variance_and_stddev():
    xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    assert variance(xs) == pytest.approx(4.0)
    assert stddev(xs) == pytest.approx(2.0)


def test_variance_of_constant_is_zero():
    assert variance([3.0] * 10) == 0.0


def test_percentile_endpoints_and_median():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == pytest.approx(2.5)


def test_percentile_single_element():
    assert percentile([7.0], 30) == 7.0


def test_percentile_out_of_range():
    with pytest.raises(SimulationError):
        percentile([1.0], 101)


@given(st.lists(floats, min_size=1, max_size=50))
def test_percentile_bounded_by_min_max(xs):
    for p in (0, 25, 50, 75, 100):
        value = percentile(xs, p)
        assert min(xs) - 1e-9 <= value <= max(xs) + 1e-9


@given(st.lists(floats, min_size=1, max_size=50))
def test_mean_between_min_and_max(xs):
    assert min(xs) - 1e-6 <= mean(xs) <= max(xs) + 1e-6


@given(st.lists(floats, min_size=1, max_size=50))
def test_variance_nonnegative(xs):
    assert variance(xs) >= 0.0


def test_summary_of():
    s = Summary.of([1.0, 2.0, 3.0])
    assert s.count == 3
    assert s.minimum == 1.0
    assert s.average == 2.0
    assert s.maximum == 3.0
    assert "avg=2.0" in str(s)


class TestHistogram:
    def test_binning(self):
        h = Histogram(0.0, 10.0, 10)
        h.add(0.5)
        h.add(9.9)
        h.add(-1.0)
        h.add(10.0)
        assert h.counts[0] == 1
        assert h.counts[9] == 1
        assert h.underflow == 1
        assert h.overflow == 1
        assert h.total == 4

    def test_weighted_add(self):
        h = Histogram(0.0, 1.0, 1)
        h.add(0.5, weight=5)
        assert h.counts[0] == 5

    def test_bin_edges(self):
        h = Histogram(0.0, 10.0, 2)
        assert h.bin_edges() == [0.0, 5.0, 10.0]

    def test_bad_bounds_raise(self):
        with pytest.raises(SimulationError):
            Histogram(1.0, 1.0, 10)
        with pytest.raises(SimulationError):
            Histogram(0.0, 1.0, 0)


def test_ecdf():
    values, fracs = ecdf([3.0, 1.0, 2.0])
    assert values == [1.0, 2.0, 3.0]
    assert fracs == pytest.approx([1 / 3, 2 / 3, 1.0])


def test_ecdf_empty_raises():
    with pytest.raises(SimulationError):
        ecdf([])


def test_cumulative_latency_by_duration():
    durations = [10.0, 100.0, 400.0]
    out = cumulative_latency_by_duration(durations, [0.0, 50.0, 100.0, 500.0])
    assert out == pytest.approx([0.0, 0.01, 0.11, 0.51])


def test_cumulative_latency_is_monotone():
    durations = [5.0, 7.0, 3.0, 100.0]
    thresholds = [1.0, 5.0, 10.0, 1000.0]
    out = cumulative_latency_by_duration(durations, thresholds)
    assert out == sorted(out)
    assert out[-1] == pytest.approx(sum(durations) / 1000.0)


def reference_cumulative_latency(durations_ms, thresholds_ms):
    """The original O(n * thresholds) loop, kept as a bit-exact oracle."""
    out = []
    ordered = sorted(durations_ms)
    for threshold in thresholds_ms:
        total_ms = 0.0
        for duration in ordered:
            if duration > threshold:
                break
            total_ms += duration
        out.append(total_ms / 1000.0)
    return out


finite_ms = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(
    durations=st.lists(
        st.one_of(finite_ms, st.integers(min_value=0, max_value=10**6)),
        max_size=60,
    ),
    thresholds=st.lists(
        st.one_of(finite_ms, st.floats(min_value=-10.0, max_value=0.0)),
        max_size=12,
    ),
)
def test_cumulative_latency_matches_the_direct_loop_exactly(durations, thresholds):
    # Unsorted thresholds, ties, zeros and integer durations included:
    # every value must equal the direct loop's float, not approximate it.
    out = cumulative_latency_by_duration(durations, thresholds)
    want = reference_cumulative_latency(durations, thresholds)
    assert [x.hex() for x in out] == [x.hex() for x in want]


def test_jitter_is_stddev():
    xs = [1.0, 2.0, 3.0]
    assert jitter(xs) == pytest.approx(stddev(xs))


def test_rate_per_second():
    assert rate_per_second(20, 1000.0) == 20.0
    assert rate_per_second(20, 500.0) == 40.0
    with pytest.raises(SimulationError):
        rate_per_second(1, 0.0)
