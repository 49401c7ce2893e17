"""Batch samplers vs the per-event generators: the statistics contract.

Three layers of assertion, strongest first:

* **Exact invariances** (Hypothesis over splits and populations): batch
  boundaries never change a sequence — drawing ``a`` ticks then ``b``
  ticks equals drawing ``a + b`` at once, element for element — and the
  Poisson superposition law holds *exactly* (N sources at λ is one
  source at N·λ, same seed → same array).
* **Law checks** (pinned seeds, CLT-width tolerances): per-tick means,
  interarrival mean and CV, and on-off burstiness (variance strictly
  above equal-mean Poisson) match the distributions the per-event
  generators realize one event at a time.
* **Cross-tier totals**: a per-event :class:`PoissonLoadGenerator` run
  and a batch sampler at the same rate offer statistically equal packet
  totals.

numpy is required here (the batch tier is the subject under test); the
whole module skips if it is absent, mirroring the lazy import in
:mod:`repro.net.loadgen`.
"""

import math

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.loadgen import (
    BatchClosedLoopSampler,
    BatchOnOffSampler,
    BatchPoissonSampler,
    PoissonLoadGenerator,
)

COMMON = dict(
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    max_examples=25,
)


class TestBoundaryInvariance:
    @given(
        split=st.integers(min_value=0, max_value=200),
        total=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**COMMON)
    def test_poisson_tick_counts_split_free(self, split, total, seed):
        split = min(split, total)
        one = BatchPoissonSampler(0.4, 2.0, sources=977, seed=seed)
        two = BatchPoissonSampler(0.4, 2.0, sources=977, seed=seed)
        whole = one.tick_counts(total)
        parts = np.concatenate(
            [two.tick_counts(split), two.tick_counts(total - split)]
        )
        assert np.array_equal(whole, parts)

    @given(
        split=st.integers(min_value=0, max_value=150),
        total=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**COMMON)
    def test_onoff_tick_counts_split_free(self, split, total, seed):
        split = min(split, total)
        kw = dict(sources=500, seed=seed, on_fraction=0.25, cycle_ms=100.0)
        one = BatchOnOffSampler(0.2, 5.0, **kw)
        two = BatchOnOffSampler(0.2, 5.0, **kw)
        whole = one.tick_counts(total)
        parts = np.concatenate(
            [two.tick_counts(split), two.tick_counts(total - split)]
        )
        assert np.array_equal(whole, parts)

    @given(
        split=st.integers(min_value=0, max_value=500),
        total=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**COMMON)
    def test_interarrival_gaps_split_free(self, split, total, seed):
        split = min(split, total)
        one = BatchPoissonSampler(0.5, 1.0, sources=10, seed=seed)
        two = BatchPoissonSampler(0.5, 1.0, sources=10, seed=seed)
        whole = one.interarrivals(total)
        parts = np.concatenate(
            [two.interarrivals(split), two.interarrivals(total - split)]
        )
        assert np.array_equal(whole, parts)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(**COMMON)
    def test_counts_and_gaps_use_independent_streams(self, seed):
        """Interleaving gap draws never perturbs the count sequence."""
        plain = BatchPoissonSampler(0.4, 2.0, sources=100, seed=seed)
        mixed = BatchPoissonSampler(0.4, 2.0, sources=100, seed=seed)
        first = plain.tick_counts(50)
        mixed.interarrivals(37)
        second = mixed.tick_counts(50)
        assert np.array_equal(first, second)


class TestSuperposition:
    @given(
        sources=st.integers(min_value=1, max_value=100_000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**COMMON)
    def test_n_sources_equal_one_fat_stream_exactly(self, sources, seed):
        """Poisson superposition is exact, not approximate: same law,
        and with split-stable streams the same seed gives the same draw."""
        rate = 0.001
        many = BatchPoissonSampler(rate, 10.0, sources=sources, seed=seed)
        one = BatchPoissonSampler(rate * sources, 10.0, sources=1, seed=seed)
        assert many.mean_per_tick == pytest.approx(one.mean_per_tick)
        assert np.array_equal(many.tick_counts(64), one.tick_counts(64))

    def test_aggregate_totals_follow_the_population(self):
        """Doubling the population doubles the offered totals (to CLT noise)."""
        base = BatchPoissonSampler(0.01, 10.0, sources=10_000, seed=7)
        double = BatchPoissonSampler(0.01, 10.0, sources=20_000, seed=7)
        n = 2_000
        a, b = base.tick_counts(n).sum(), double.tick_counts(n).sum()
        assert b / a == pytest.approx(2.0, rel=0.02)


class TestLaws:
    def test_poisson_tick_mean_and_variance(self):
        sampler = BatchPoissonSampler(0.02, 5.0, sources=1_000, seed=11)
        n = 20_000
        counts = sampler.tick_counts(n)
        m = sampler.mean_per_tick  # 100 packets/tick
        # CLT bounds: sd of the sample mean is sqrt(m/n).
        assert counts.mean() == pytest.approx(m, abs=6 * math.sqrt(m / n))
        # Poisson: variance == mean (index of dispersion 1).
        assert counts.var() / counts.mean() == pytest.approx(1.0, rel=0.05)

    def test_interarrival_mean_and_cv_are_exponential(self):
        sampler = BatchPoissonSampler(0.5, 1.0, sources=8, seed=13)
        gaps = sampler.interarrivals(200_000)
        expected = 1.0 / sampler.aggregate_rate_per_ms
        assert gaps.mean() == pytest.approx(expected, rel=0.02)
        cv = gaps.std() / gaps.mean()
        assert cv == pytest.approx(1.0, rel=0.02)

    def test_onoff_long_run_mean_matches_spec(self):
        sampler = BatchOnOffSampler(
            0.004, 10.0, sources=5_000, seed=17, on_fraction=0.25,
            cycle_ms=200.0,
        )
        counts = sampler.tick_counts(30_000)
        assert counts.mean() == pytest.approx(sampler.mean_per_tick, rel=0.05)

    def test_onoff_is_burstier_than_equal_mean_poisson(self):
        """Equal means, unequal variance: the tail argument, batch-side."""
        # Burstiness needs whole bursts per tick: the variance excess over
        # Poisson is f(1-f) * (burst_rate * tick)^2 / mean_per_tick, so a
        # source must land many packets per tick while ON to show it.
        onoff = BatchOnOffSampler(
            0.2, 10.0, sources=500, seed=19, on_fraction=0.25,
            cycle_ms=500.0,
        )
        poisson = BatchPoissonSampler(0.2, 10.0, sources=500, seed=19)
        a, b = onoff.tick_counts(20_000), poisson.tick_counts(20_000)
        assert a.mean() == pytest.approx(b.mean(), rel=0.05)
        assert a.var() > 2.0 * b.var()

    def test_onoff_all_on_degenerates_to_poisson_law(self):
        sampler = BatchOnOffSampler(
            0.01, 10.0, sources=1_000, seed=23, on_fraction=1.0
        )
        counts = sampler.tick_counts(20_000)
        assert counts.mean() == pytest.approx(sampler.mean_per_tick, rel=0.03)
        assert counts.var() / counts.mean() == pytest.approx(1.0, rel=0.05)

    def test_tick_bytes_scale_counts(self):
        a = BatchPoissonSampler(0.1, 1.0, sources=10, seed=3, packet_bytes=200)
        b = BatchPoissonSampler(0.1, 1.0, sources=10, seed=3, packet_bytes=200)
        assert np.array_equal(a.tick_bytes(100), b.tick_counts(100) * 200)


def closed_sampler(seed, *, sources=500, tick_ms=5.0, echo_servers=None):
    return BatchClosedLoopSampler(
        2_000.0,
        100.0,
        50.0,
        tick_ms,
        sources=sources,
        seed=seed,
        burst_keys=4.0,
        echo_servers=echo_servers,
    )


class TestClosedLoopInvariants:
    @given(
        sources=st.integers(min_value=1, max_value=100_000),
        ticks=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**COMMON)
    def test_state_counts_are_conserved_every_tick(
        self, sources, ticks, seed
    ):
        """Sessions move between states; they never appear or vanish."""
        sampler = closed_sampler(seed, sources=sources)
        for __ in range(ticks):
            sampler.step()
            assert (
                sampler.thinking + sampler.typing + sampler.blocked == sources
            )
            assert sampler.thinking >= 0
            assert sampler.typing >= 0
            assert sampler.blocked >= 0

    @given(
        split=st.integers(min_value=0, max_value=200),
        total=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**COMMON)
    def test_advance_is_split_free(self, split, total, seed):
        """Batch boundaries never change the trajectory, key for key."""
        split = min(split, total)
        one = closed_sampler(seed)
        two = closed_sampler(seed)
        whole_keys, whole_done = one.advance(total)
        a_keys, a_done = two.advance(split)
        b_keys, b_done = two.advance(total - split)
        assert np.array_equal(whole_keys, np.concatenate([a_keys, b_keys]))
        assert np.array_equal(whole_done, np.concatenate([a_done, b_done]))
        assert (one.thinking, one.typing, one.blocked) == (
            two.thinking, two.typing, two.blocked
        )

    @given(
        split=st.integers(min_value=0, max_value=200),
        total=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**COMMON)
    def test_shared_echo_station_is_split_free_too(self, split, total, seed):
        split = min(split, total)
        one = closed_sampler(seed, echo_servers=4)
        two = closed_sampler(seed, echo_servers=4)
        whole_keys, whole_done = one.advance(total)
        parts = [two.advance(split), two.advance(total - split)]
        assert np.array_equal(
            whole_keys, np.concatenate([parts[0][0], parts[1][0]])
        )
        assert np.array_equal(
            whole_done, np.concatenate([parts[0][1], parts[1][1]])
        )

    @given(
        tick_ms=st.floats(min_value=0.5, max_value=50.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**{**COMMON, "max_examples": 10})
    def test_stationary_think_fraction_at_any_tick_width(
        self, tick_ms, seed
    ):
        """The discretized chain keeps the exact stationary law no matter
        how coarse the tick: the geometric holding times rescale with the
        per-tick hazards, so occupancy fractions are tick-free."""
        sampler = closed_sampler(seed, sources=20_000, tick_ms=tick_ms)
        sampler.advance(max(400, int(6_000.0 / tick_ms)))
        expected = sampler.stationary_fractions()
        total = float(
            sampler.thinking_ticks
            + sampler.typing_ticks
            + sampler.blocked_ticks
        )
        for observed_ticks, pi in zip(
            (
                sampler.thinking_ticks,
                sampler.typing_ticks,
                sampler.blocked_ticks,
            ),
            expected,
        ):
            assert observed_ticks / total == pytest.approx(pi, abs=0.02)

    def test_external_completions_drive_the_unblocking(self):
        sampler = closed_sampler(11, sources=1_000)
        sampler.advance(200)
        blocked = sampler.blocked
        keys, done = sampler.step(completions=blocked + 50)
        assert done == blocked  # clamped: can't complete more than blocked
        keys, done = sampler.step(completions=0)
        assert done == 0  # starved echoes leave everyone blocked

    def test_closed_sampler_rejects_bad_parameters(self):
        with pytest.raises(NetworkError):
            BatchClosedLoopSampler(0.0, 100.0, 50.0, 5.0)
        with pytest.raises(NetworkError):
            BatchClosedLoopSampler(2_000.0, 0.0, 50.0, 5.0)
        with pytest.raises(NetworkError):
            BatchClosedLoopSampler(2_000.0, 100.0, 0.0, 5.0)
        with pytest.raises(NetworkError):
            BatchClosedLoopSampler(2_000.0, 100.0, 50.0, 0.0)
        with pytest.raises(NetworkError):
            BatchClosedLoopSampler(2_000.0, 100.0, 50.0, 5.0, sources=0)
        with pytest.raises(NetworkError):
            BatchClosedLoopSampler(2_000.0, 100.0, 50.0, 5.0, burst_keys=0.5)
        with pytest.raises(NetworkError):
            BatchClosedLoopSampler(
                2_000.0, 100.0, 50.0, 5.0, echo_servers=0
            )
        sampler = closed_sampler(1)
        with pytest.raises(NetworkError):
            sampler.advance(-1)
        with pytest.raises(NetworkError):
            sampler.step(completions=-1)


def reference_onoff_tick_counts(sampler, n_ticks):
    """The original on-off chain loop, frozen as a sequence oracle."""
    levels = np.empty(n_ticks, dtype=np.int64)
    on = sampler.on
    chain = sampler._chain
    for i in range(n_ticks):
        levels[i] = on
        if sampler._p_off > 0.0:
            on += int(chain.binomial(sampler.sources - on, sampler._p_on)) - int(
                chain.binomial(on, sampler._p_off)
            )
    sampler.on = on
    sampler.ticks_sampled += n_ticks
    lam = levels * (sampler.burst_rate_per_ms * sampler.tick_ms)
    return sampler._counts.poisson(lam)


def reference_closed_step(sampler, completions=None):
    """The original ``BatchClosedLoopSampler.step``, frozen as an oracle."""
    thinking, typing, blocked = sampler.thinking, sampler.typing, sampler.blocked
    sampler.thinking_ticks += thinking
    sampler.typing_ticks += typing
    sampler.blocked_ticks += blocked
    chain = sampler._chain
    t2y = int(chain.binomial(thinking, sampler.p_think)) if thinking else 0
    keys = int(chain.binomial(typing, sampler.p_type)) if typing else 0
    if completions is not None:
        done = min(int(completions), blocked)
    elif sampler.echo_servers is None:
        done = int(sampler._echo.binomial(blocked, sampler.p_echo)) if blocked else 0
    else:
        busy = min(blocked, sampler.echo_servers)
        mean = busy * (sampler.tick_ms / sampler.echo_ms)
        done = min(blocked, int(sampler._echo.poisson(mean))) if busy else 0
    resume = (
        int(sampler._echo.binomial(done, sampler.continue_prob)) if done else 0
    )
    sampler.thinking = thinking + done - resume - t2y
    sampler.typing = typing + t2y + resume - keys
    sampler.blocked = blocked + keys - done
    sampler.ticks_sampled += 1
    sampler.keystrokes_total += keys
    sampler.completions_total += done
    return keys, done


def assert_same_streams(a, b):
    """Two generators agree on their state *and* on what they draw next."""
    assert a.bit_generator.state == b.bit_generator.state
    assert np.array_equal(a.integers(0, 2**62, size=4), b.integers(0, 2**62, size=4))


def onoff_pair(seed, sources, on_fraction, tick_ms, cycle_ms):
    return [
        BatchOnOffSampler(
            0.02,
            tick_ms,
            sources=sources,
            seed=seed,
            on_fraction=on_fraction,
            cycle_ms=cycle_ms,
        )
        for __ in range(2)
    ]


class TestSequenceIdentity:
    """The fast loops draw exactly what the original loops drew."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        sources=st.integers(min_value=1, max_value=2_000_000),
        on_fraction=st.one_of(
            st.just(1.0), st.floats(min_value=0.001, max_value=1.0)
        ),
        tick_ms=st.floats(min_value=0.5, max_value=200.0),
        cycle_ms=st.floats(min_value=1.0, max_value=5_000.0),
        start=st.sampled_from(["stationary", "all_off", "all_on"]),
        batches=st.lists(st.integers(min_value=0, max_value=150), max_size=3),
    )
    @settings(**COMMON)
    def test_onoff_chain_matches_the_original_loop(
        self, seed, sources, on_fraction, tick_ms, cycle_ms, start, batches
    ):
        fast, slow = onoff_pair(seed, sources, on_fraction, tick_ms, cycle_ms)
        if start == "all_off":
            fast.on = slow.on = 0
        elif start == "all_on":
            fast.on = slow.on = sources
        for n in batches:
            got = fast.tick_counts(n)
            want = reference_onoff_tick_counts(slow, n)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert fast.on == slow.on
            assert type(fast.on) is int
        assert fast.ticks_sampled == slow.ticks_sampled
        assert_same_streams(fast._chain, slow._chain)
        assert_same_streams(fast._counts, slow._counts)

    @pytest.mark.parametrize("on", ["zero", "sources"])
    def test_onoff_chain_from_an_absorbing_looking_edge(self, on):
        # on == 0 makes binomial(0, p_off) a no-draw call; on == sources
        # does the same for binomial(0, p_on).  Both loops must agree.
        fast, slow = onoff_pair(5, 40, 0.3, 10.0, 200.0)
        fast.on = slow.on = 0 if on == "zero" else 40
        assert np.array_equal(
            fast.tick_counts(300), reference_onoff_tick_counts(slow, 300)
        )
        assert fast.on == slow.on
        assert_same_streams(fast._chain, slow._chain)
        assert_same_streams(fast._counts, slow._counts)

    def test_all_on_population_draws_nothing_from_the_chain(self):
        fast, slow = onoff_pair(9, 1_000, 1.0, 10.0, 500.0)
        untouched = fast._chain.bit_generator.state
        assert np.array_equal(
            fast.tick_counts(50), reference_onoff_tick_counts(slow, 50)
        )
        assert fast.on == 1_000
        assert fast._chain.bit_generator.state == untouched
        assert_same_streams(fast._counts, slow._counts)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        sources=st.integers(min_value=1, max_value=100_000),
        burst_keys=st.one_of(
            st.just(1.0), st.floats(min_value=1.0, max_value=30.0)
        ),
        echo=st.sampled_from(["dedicated", "shared", "external"]),
        ticks=st.integers(min_value=0, max_value=150),
    )
    @settings(**COMMON)
    def test_closed_step_matches_the_original_step(
        self, seed, sources, burst_keys, echo, ticks
    ):
        servers = 3 if echo == "shared" else None
        fast, slow = (
            BatchClosedLoopSampler(
                2_000.0,
                100.0,
                50.0,
                5.0,
                sources=sources,
                seed=seed,
                burst_keys=burst_keys,
                echo_servers=servers,
            )
            for __ in range(2)
        )
        for tick in range(ticks):
            # External mode: an arbitrary completion feed, sometimes
            # more than are blocked (clamped) and sometimes none.
            completions = (tick * 7919) % 97 if echo == "external" else None
            assert fast.step(completions) == reference_closed_step(
                slow, completions
            )
        for name in (
            "thinking", "typing", "blocked", "ticks_sampled",
            "keystrokes_total", "completions_total",
            "thinking_ticks", "typing_ticks", "blocked_ticks",
        ):
            assert getattr(fast, name) == getattr(slow, name), name
        assert_same_streams(fast._chain, slow._chain)
        assert_same_streams(fast._echo, slow._echo)


class TestNumpyNoDrawRule:
    """The skips above rely on numpy drawing nothing for degenerate
    binomials; a numpy release that changes this must fail here."""

    @pytest.mark.parametrize(
        "n, p", [(0, 0.3), (0, 0.0), (0, 1.0), (17, 0.0), (10**6, 0.0)]
    )
    def test_degenerate_binomial_consumes_no_state(self, n, p):
        drawn = np.random.Generator(np.random.PCG64(2024))
        twin = np.random.Generator(np.random.PCG64(2024))
        before = drawn.bit_generator.state
        assert drawn.binomial(n, p) == 0
        assert drawn.bit_generator.state == before
        assert_same_streams(drawn, twin)


class TestCrossTier:
    def test_batch_totals_match_per_event_generator(self):
        """The two tiers offer the same load, measured end to end."""
        import random

        from repro.net.link import Link
        from repro.sim.engine import Simulator

        mbps, duration_ms = 5.0, 30_000.0
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=100.0)
        generator = PoissonLoadGenerator(
            sim, link, mbps, random.Random(29), packet_bytes=1500
        )
        sim.run_until(duration_ms)
        rate_per_ms = mbps * 1e6 / 8.0 / 1000.0 / 1500
        sampler = BatchPoissonSampler(
            rate_per_ms, 10.0, sources=1, seed=29, packet_bytes=1500
        )
        batch_total = int(sampler.tick_counts(int(duration_ms / 10.0)).sum())
        expected = rate_per_ms * duration_ms
        sd = math.sqrt(expected)
        assert abs(generator.packets_offered - expected) < 6 * sd
        assert abs(batch_total - expected) < 6 * sd


class TestValidation:
    def test_poisson_sampler_rejects_bad_parameters(self):
        with pytest.raises(NetworkError):
            BatchPoissonSampler(-1.0, 1.0)
        with pytest.raises(NetworkError):
            BatchPoissonSampler(1.0, 0.0)
        with pytest.raises(NetworkError):
            BatchPoissonSampler(1.0, 1.0, sources=0)
        with pytest.raises(NetworkError):
            BatchPoissonSampler(1.0, 1.0, packet_bytes=0)
        sampler = BatchPoissonSampler(0.0, 1.0)
        with pytest.raises(NetworkError):
            sampler.interarrivals(1)
        with pytest.raises(NetworkError):
            sampler.tick_counts(-1)

    def test_onoff_sampler_rejects_bad_parameters(self):
        with pytest.raises(NetworkError):
            BatchOnOffSampler(1.0, 1.0, on_fraction=0.0)
        with pytest.raises(NetworkError):
            BatchOnOffSampler(1.0, 1.0, on_fraction=1.5)
        with pytest.raises(NetworkError):
            BatchOnOffSampler(1.0, 1.0, cycle_ms=0.0)
        sampler = BatchOnOffSampler(1.0, 1.0)
        with pytest.raises(NetworkError):
            sampler.tick_counts(-1)
