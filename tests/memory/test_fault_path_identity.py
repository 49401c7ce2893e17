"""The fused fault path against the frozen per-page path, bit for bit.

Random programs interleave ``touch``, wrapping ``touch_sequential`` and
``destroy_process`` over one to three address spaces.  Each program runs
twice from the same disk seed: once on the current :class:`VirtualMemory`
(or :class:`ThrottledVirtualMemory`) over the lazy pool, once on the
frozen oracle over the eager pool.  Every returned latency must be the
same float, every :class:`AccessResult` field and every raised error the
same, and after every step the page tables, frame indices, counters, disk
accounting, disk RNG state and metrics snapshot must agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_paging import (
    EagerFramePool,
    FrozenThrottledVirtualMemory,
    FrozenVirtualMemory,
)
from repro.errors import MemoryError_
from repro.memory import (
    FramePool,
    PagingDisk,
    ThrottledVirtualMemory,
    VirtualMemory,
    make_policy,
)
from repro.obs import observe

PAGE = 4096

configs = st.fixed_dictionaries(
    {
        "frames": st.integers(min_value=2, max_value=12),
        # Capped at the pool size; a fully pinned pool covers the
        # out-of-memory error.
        "pinned": st.integers(min_value=0, max_value=4),
        "policy": st.sampled_from(["lru", "clock", "fifo"]),
        "read_cluster": st.integers(min_value=1, max_value=4),
        "throttled": st.booleans(),
        "pressure": st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        "sync_writeback": st.booleans(),
        "observed": st.booleans(),
        "disk_seed": st.integers(min_value=0, max_value=3),
        "spaces": st.lists(
            st.tuples(st.integers(min_value=1, max_value=9), st.booleans()),
            min_size=1,
            max_size=3,
        ),
    }
)

programs = st.lists(
    st.one_of(
        # touch(space, vpn, write); vpn may be out of range.
        st.tuples(
            st.just("touch"),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=-1, max_value=9),
            st.booleans(),
        ),
        # touch_sequential(space, start, npages, write); wraps modulo size.
        st.tuples(
            st.just("seq"),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=14),
            st.booleans(),
        ),
        # destroy_process(space), then recreate it empty.
        st.tuples(st.just("destroy"), st.integers(min_value=0, max_value=2)),
    ),
    max_size=40,
)


class Run:
    """One VM under test, built from a config."""

    def __init__(self, config, *, frozen):
        pool_cls = EagerFramePool if frozen else FramePool
        if config["throttled"]:
            vm_cls = FrozenThrottledVirtualMemory if frozen else ThrottledVirtualMemory
            extra = {"pressure_threshold": config["pressure"], "throttle_ms": 7.5}
        else:
            vm_cls = FrozenVirtualMemory if frozen else VirtualMemory
            extra = {}
        self.pool = pool_cls(config["frames"] * PAGE)
        self.pool.pin(min(config["pinned"], config["frames"]) * PAGE)
        self.disk = PagingDisk(random.Random(config["disk_seed"]))
        self.vm = vm_cls(
            self.pool,
            self.disk,
            make_policy(config["policy"]),
            read_cluster=config["read_cluster"],
            synchronous_writeback=config["sync_writeback"],
            **extra,
        )
        self.spaces = [
            self.vm.create_process(f"p{i}", pages * PAGE, interactive=interactive)
            for i, (pages, interactive) in enumerate(config["spaces"])
        ]

    def step(self, op):
        kind = op[0]
        space = self.spaces[op[1] % len(self.spaces)]
        try:
            if kind == "touch":
                r = self.vm.touch(space, op[2], write=op[3])
                return (r.latency_ms.hex(), r.faulted, r.evicted, r.pages_read)
            if kind == "seq":
                return self.vm.touch_sequential(space, op[2], op[3], write=op[4]).hex()
            index = self.spaces.index(space)
            self.vm.destroy_process(space)
            self.spaces[index] = self.vm.create_process(
                space.name, space.num_pages * PAGE, interactive=space.interactive
            )
            return "destroyed"
        except MemoryError_ as exc:
            return ("error", str(exc))

    def state(self):
        vm, disk = self.vm, self.disk
        return {
            "tables": [
                {
                    vpn: (f.index, f.dirty, f.referenced)
                    for vpn, f in sorted(space._table.items())
                }
                for space in self.spaces
            ],
            "spaces": [
                (s.faults, s.hits, s.evicted_pages) for s in self.spaces
            ],
            "vm": (
                vm.total_faults,
                vm.total_hits,
                vm.total_evictions,
                vm.total_writebacks,
                getattr(vm, "throttled_faults", None),
                getattr(vm, "protected_skips", None),
            ),
            "pool": (self.pool.free_frames, self.pool.used_frames),
            "disk": (
                disk.reads,
                disk.writes,
                disk.pages_read,
                disk.pages_written,
                disk.busy_ms.hex(),
            ),
            "rng": disk.rng.getstate(),
        }


def run_program(config, program, *, frozen):
    outcomes, states = [], []
    if config["observed"]:
        with observe() as obs:
            run = Run(config, frozen=frozen)
            for op in program:
                outcomes.append(run.step(op))
                states.append(run.state())
        snapshot = obs.metrics.snapshot()
    else:
        run = Run(config, frozen=frozen)
        for op in program:
            outcomes.append(run.step(op))
            states.append(run.state())
        snapshot = None
    return outcomes, states, snapshot


@settings(max_examples=300, deadline=None)
@given(configs, programs)
def test_fault_path_matches_frozen_oracle(config, program):
    expected = run_program(config, program, frozen=True)
    actual = run_program(config, program, frozen=False)
    exp_outcomes, exp_states, exp_snapshot = expected
    act_outcomes, act_states, act_snapshot = actual
    for i, op in enumerate(program):
        assert act_outcomes[i] == exp_outcomes[i], (i, op)
        assert act_states[i] == exp_states[i], (i, op)
    assert act_snapshot == exp_snapshot


def test_streamed_faults_are_throttled():
    """touch_sequential faults pay the throttle penalty, as touch faults do."""
    config = {
        "frames": 4,
        "pinned": 0,
        "policy": "lru",
        "read_cluster": 1,
        "throttled": True,
        "pressure": 1.0,
        "sync_writeback": False,
        "observed": False,
        "disk_seed": 0,
        "spaces": [(6, False)],
    }
    program = [("seq", 0, 0, 6, False)]
    expected = run_program(config, program, frozen=True)
    actual = run_program(config, program, frozen=False)
    assert actual == expected
    # Every streamed fault but the first, taken with the pool all free.
    assert actual[1][-1]["vm"][4] == 5
