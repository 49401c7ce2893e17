"""FluidBackground: the piecewise-linear workload math, deterministically.

Every case here is closed-form: constant-rate ticks make W(t) a sequence
of linear ramps, so build-up, drain, idle tails, discrete steps, and the
pro-rata window accounting can all be asserted exactly — no sampling, no
tolerance.

``TestBitIdentity`` goes further for the reductions that reach the CSVs:
the vectorized :meth:`FluidBackground.offered_bytes` must return the very
float the original scalar loop returns, over random ticks and windows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.scale.fluid import FluidBackground
from repro.sim.engine import Simulator


def make_link(**kwargs):
    return Link(Simulator(), **kwargs)


class TestWorkloadIntegration:
    def test_overloaded_ticks_build_then_drain(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        # rho = 2 for 10 ticks of 1 ms: W grows 1 ms per ms, then drains.
        fluid = FluidBackground(link, 1.0, [2.0 * cap] * 10, attach=False)
        assert fluid.queueing_delay_ms(5.0) == pytest.approx(5.0)
        assert fluid.queueing_delay_ms(10.0) == pytest.approx(10.0)
        assert fluid.queueing_delay_ms(15.0) == pytest.approx(5.0)
        assert fluid.queueing_delay_ms(25.0) == 0.0
        assert fluid.peak_backlog_ms == pytest.approx(10.0)

    def test_subcritical_load_never_accumulates(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [0.5 * cap] * 100, attach=False)
        for t in (0.25, 1.0, 7.5, 60.0, 100.0, 150.0):
            assert fluid.queueing_delay_ms(t) == 0.0

    def test_queries_interleave_with_exact_boundaries(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        # Bytes are per 2 ms tick: rho = bytes / (tick * capacity).
        fluid = FluidBackground(
            link, 2.0, [6.0 * cap, 0.0, 3.0 * cap, 0.0], attach=False
        )
        # Tick 0 (rho=3): +2 per tick of 2ms -> W(2)=4.
        assert fluid.queueing_delay_ms(1.0) == pytest.approx(2.0)
        assert fluid.queueing_delay_ms(2.0) == pytest.approx(4.0)
        # Tick 1 (rho=0): drains 1/ms.
        assert fluid.queueing_delay_ms(3.5) == pytest.approx(2.5)
        # Tick 2 (rho=1.5): +0.5/ms from t=4 (W(4)=2).
        assert fluid.queueing_delay_ms(6.0) == pytest.approx(3.0)
        # Tick 3 and beyond: drains to empty and stays there.
        assert fluid.queueing_delay_ms(11.0) == 0.0
        assert fluid.queueing_delay_ms(1000.0) == 0.0

    def test_time_never_runs_backwards(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [2.0 * cap] * 4, attach=False)
        assert fluid.queueing_delay_ms(4.0) == pytest.approx(4.0)
        # A query at an earlier time returns current state, unchanged.
        assert fluid.queueing_delay_ms(2.0) == pytest.approx(4.0)

    def test_discrete_work_adds_a_step(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 1.0, [0.0] * 10, attach=False)
        fluid.add_work_ms(3.0)
        assert fluid.queueing_delay_ms(0.0) == pytest.approx(3.0)
        # The step drains at full capacity through the idle ticks.
        assert fluid.queueing_delay_ms(2.0) == pytest.approx(1.0)
        assert fluid.queueing_delay_ms(4.0) == 0.0

    def test_step_on_top_of_fluid_sums(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [1.0 * cap] * 20, attach=False)
        # rho = 1 exactly: fluid neither builds nor drains, so the
        # discrete step survives verbatim.
        fluid.add_work_ms(2.0)
        assert fluid.queueing_delay_ms(10.0) == pytest.approx(2.0)


class TestWindowAccounting:
    def test_offered_bytes_pro_rata_at_edges(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(
            link, 10.0, [1000.0, 2000.0, 4000.0], attach=False
        )
        assert fluid.offered_bytes(0.0, 30.0) == pytest.approx(7000.0)
        assert fluid.offered_bytes(5.0, 15.0) == pytest.approx(1500.0)
        assert fluid.offered_bytes(25.0, 95.0) == pytest.approx(2000.0)
        assert fluid.offered_bytes(100.0, 200.0) == 0.0

    def test_utilization_is_offered_over_capacity(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [0.5 * cap] * 10, attach=False)
        assert fluid.utilization(0.0, 10.0) == pytest.approx(0.5)
        assert fluid.utilization(0.0, 20.0) == pytest.approx(0.25)

    def test_totals_and_horizon(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 2.5, [100.0, 300.0], attach=False)
        assert fluid.offered_bytes_total == pytest.approx(400.0)
        assert fluid.n_ticks == 2
        assert fluid.end_ms == pytest.approx(5.0)

    def test_empty_window_rejected(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 1.0, [0.0], attach=False)
        with pytest.raises(NetworkError):
            fluid.offered_bytes(5.0, 5.0)


class TestLinkIntegration:
    def test_quiet_background_means_plain_delay(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.05)
        FluidBackground(link, 1.0, [0.0] * 100)
        packet = Packet(64, channel="probe")
        delivered = []
        link.send(packet, lambda p: delivered.append(sim.now))
        sim.run(10.0)
        service = packet.wire_bytes / link.bytes_per_ms
        assert delivered == [pytest.approx(service + 0.05)]

    def test_probe_waits_behind_fluid_backlog(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
        cap = link.bytes_per_ms
        FluidBackground(link, 1.0, [2.0 * cap] * 4)
        packet = Packet(64, channel="probe")
        delivered = []

        def fire():
            link.send(packet, lambda p: delivered.append(sim.now))

        sim.schedule(4.0, fire)
        sim.run(20.0)
        # Sent at t=4 into W(4) = 4 ms of backlog, then its own service.
        service = packet.wire_bytes / cap
        assert delivered == [pytest.approx(4.0 + 4.0 + service)]

    def test_consecutive_probes_keep_fifo_order(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
        FluidBackground(link, 1.0, [0.0] * 10)
        order = []
        for name in ("a", "b", "c"):
            link.send(
                Packet(1250, channel=name),
                lambda p, n=name: order.append((n, sim.now)),
            )
        sim.run(20.0)
        service = 1250 / link.bytes_per_ms
        assert [n for n, _ in order] == ["a", "b", "c"]
        # Each packet queues behind its predecessors' unfinished work.
        for i, (_, at) in enumerate(order):
            assert at == pytest.approx((i + 1) * service)

    def test_hybrid_path_still_counts_packets(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0)
        FluidBackground(link, 1.0, [0.0] * 10)
        link.send(Packet(64, channel="probe"))
        sim.run(10.0)
        assert link.packets_sent == 1
        assert link.bytes_sent == 64
        assert link.trace.times  # trace records hybrid sends too

    def test_attach_guards(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0)
        FluidBackground(link, 1.0, [0.0])
        with pytest.raises(NetworkError):
            link.attach_background(object())
        busy = Link(sim, bandwidth_mbps=10.0)
        busy.send(Packet(1500))
        with pytest.raises(NetworkError):
            busy.attach_background(object())

    def test_constructor_validation(self):
        link = make_link()
        with pytest.raises(NetworkError):
            FluidBackground(link, 0.0, [0.0], attach=False)
        with pytest.raises(NetworkError):
            FluidBackground(link, 1.0, [0.0], start_ms=-1.0, attach=False)
        fluid = FluidBackground(link, 1.0, [0.0], attach=False)
        with pytest.raises(NetworkError):
            fluid.add_work_ms(-1.0)


def reference_offered_bytes(fluid, t0, t1):
    """The original scalar ``offered_bytes`` loop: the bit-exact oracle."""
    total = 0.0
    tick = fluid.tick_ms
    for i, b in enumerate(fluid._bytes):
        lo = fluid.start_ms + i * tick
        hi = lo + tick
        overlap = min(hi, t1) - max(lo, t0)
        if overlap > 0:
            total += b * (overlap / tick)
    return total


def same_float(got, want):
    """Equal bit for bit, the sign of zero included."""
    return isinstance(got, float) and got.hex() == want.hex()


TICK_BYTES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.integers(min_value=0, max_value=700).map(lambda n: n * 1500.0),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        # Inexact values, so that any reordering of the sum shows.
        st.integers(min_value=0, max_value=10**9).map(lambda n: n / 7.0),
    ),
    max_size=80,
)
TICK_MS = st.one_of(
    st.sampled_from([0.1, 1.0, 10.0, 50.0]),
    st.floats(min_value=0.01, max_value=100.0),
)
START_MS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5000.0))
EXACT = dict(
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    max_examples=60,
)


class TestBitIdentity:
    @given(
        tick_bytes=TICK_BYTES,
        tick=TICK_MS,
        start=START_MS,
        lo_frac=st.floats(min_value=-0.5, max_value=1.5),
        width_frac=st.floats(min_value=1e-6, max_value=2.0),
    )
    @settings(**EXACT)
    def test_random_windows_match_the_scalar_loop(
        self, tick_bytes, tick, start, lo_frac, width_frac
    ):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(
            link, tick, tick_bytes, start_ms=start, attach=False
        )
        span = tick * max(len(tick_bytes), 1)
        t0 = start + lo_frac * span
        t1 = t0 + width_frac * span
        if t1 <= t0:
            return
        got = fluid.offered_bytes(t0, t1)
        assert same_float(got, reference_offered_bytes(fluid, t0, t1))
        want_util = reference_offered_bytes(fluid, t0, t1) / (
            link.bytes_per_ms * (t1 - t0)
        )
        assert same_float(fluid.utilization(t0, t1), want_util)

    def test_long_run_matches_the_scalar_loop(self):
        # A scale-sized horizon: pairwise or compensated summation would
        # round differently from the running total over this many terms.
        np = pytest.importorskip("numpy")
        rng = np.random.Generator(np.random.PCG64(7))
        ticks = rng.poisson(40.0, size=20_000) * 1500.0 * rng.random(20_000)
        fluid = FluidBackground(
            make_link(), 50.0, ticks, start_ms=12.5, attach=False
        )
        for t0, t1 in ((0.0, 1e6), (1_000.0, 999_975.3), (333.3, 40_000.0)):
            got = fluid.offered_bytes(t0, t1)
            assert same_float(got, reference_offered_bytes(fluid, t0, t1))

    @given(
        tick_bytes=TICK_BYTES,
        tick=TICK_MS,
        start=START_MS,
        k=st.integers(min_value=-3, max_value=90),
        m=st.integers(min_value=1, max_value=12),
    )
    @settings(**EXACT)
    def test_tick_boundary_windows_match_the_scalar_loop(
        self, tick_bytes, tick, start, k, m
    ):
        # Windows that start and end exactly on tick edges, including ones
        # wholly before start_ms and wholly past end_ms.
        fluid = FluidBackground(
            make_link(), tick, tick_bytes, start_ms=start, attach=False
        )
        t0 = start + k * tick
        t1 = start + (k + m) * tick
        if t1 <= t0:
            return
        got = fluid.offered_bytes(t0, t1)
        assert same_float(got, reference_offered_bytes(fluid, t0, t1))

    @given(tick_bytes=TICK_BYTES, tick=TICK_MS, start=START_MS)
    @settings(**EXACT)
    def test_windows_outside_the_horizon_match_the_scalar_loop(
        self, tick_bytes, tick, start
    ):
        # Past end_ms the last tick's rounded edge can still overlap by an
        # ulp; whatever the scalar loop adds there must be added here too.
        fluid = FluidBackground(
            make_link(), tick, tick_bytes, start_ms=start, attach=False
        )
        before = (start - 3.0 * tick, start)
        past = (fluid.end_ms, fluid.end_ms + 5.0 * tick)
        for t0, t1 in (before, past):
            if t1 <= t0:
                continue
            got = fluid.offered_bytes(t0, t1)
            assert same_float(got, reference_offered_bytes(fluid, t0, t1))

    @given(
        tick_bytes=TICK_BYTES,
        tick=TICK_MS,
        start=START_MS,
        query_every=st.integers(min_value=1, max_value=5),
    )
    @settings(**EXACT)
    def test_streamed_ticks_match_presampled_and_the_scalar_loop(
        self, tick_bytes, tick, start, query_every
    ):
        link = make_link(bandwidth_mbps=10.0)
        presampled = FluidBackground(
            link, tick, tick_bytes, start_ms=start, attach=False
        )
        streamed = FluidBackground(link, tick, (), start_ms=start, attach=False)
        for i, b in enumerate(tick_bytes):
            streamed.offer_tick(b)
            if i % query_every == 0:
                # Queries at each appended tick's start, as the closed-loop
                # driver makes them, must not disturb the accounting.
                streamed.queueing_delay_ms(start + i * tick)
        assert streamed._bytes == presampled._bytes
        assert streamed._rho == presampled._rho
        t0, t1 = start, presampled.end_ms + tick
        got = streamed.offered_bytes(t0, t1)
        assert same_float(got, reference_offered_bytes(presampled, t0, t1))
        assert same_float(got, presampled.offered_bytes(t0, t1))

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=5000), max_size=80),
        tick=TICK_MS,
    )
    @settings(**EXACT)
    def test_numpy_and_list_ticks_build_identical_state(self, counts, tick):
        np = pytest.importorskip("numpy")
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        as_floats = np.array(counts, dtype=np.int64) * 1500.0
        sources = {
            "float array": as_floats,
            "int array": np.array(counts, dtype=np.int64) * 1500,
            "list": [c * 1500.0 for c in counts],
        }
        # The original constructor boxed one numpy scalar per tick.
        want_bytes = [float(b) for b in as_floats]
        want_rho = [float(b) / tick / cap for b in as_floats]
        for name, ticks in sources.items():
            fluid = FluidBackground(link, tick, ticks, attach=False)
            assert fluid._bytes == want_bytes, name
            assert fluid._rho == want_rho, name
            assert all(type(b) is float for b in fluid._bytes), name
            assert fluid.offered_bytes_total == float(sum(want_bytes)), name
