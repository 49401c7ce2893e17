"""The lazy :class:`FramePool` against the frozen eager pool, step by step.

Random ``pin`` / ``allocate`` / ``release`` programs run on both pools.
Every step must hand out the same frame index (or ``None``), raise the
same error, and leave the same ``free_frames`` / ``used_frames``; the
frames the lazy pool has created must carry the same state as the eager
pool's frames of the same index, and the ones it has not created must
still be untouched in the eager pool.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_paging import EagerFramePool
from repro.errors import MemoryError_
from repro.memory import FramePool

ops = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.just(0)),
        # Pin 0..(pool + 2) pages' worth of bytes, partly unaligned.
        st.tuples(st.just("pin"), st.integers(min_value=0, max_value=14)),
        # Release some frame handed out so far (pinned or already freed
        # ones included, for the pinned-release and double-free checks).
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=40)),
    ),
    max_size=60,
)


def frame_state(frame):
    return (
        frame.index,
        frame.owner,
        frame.vpn,
        frame.dirty,
        frame.referenced,
        frame.pinned,
        frame.free,
    )


def run_step(pool, op, arg, page_size, created):
    """One program step; returns a comparable outcome."""
    try:
        if op == "allocate":
            frame = pool.allocate()
            return None if frame is None else frame.index
        if op == "pin":
            return pool.pin(arg * page_size // 2)
        pool.release(pool.frames[arg % created])
        return "released"
    except MemoryError_ as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([1, 16, 4096]),
    st.integers(min_value=0, max_value=4095),
    ops,
)
def test_lazy_pool_matches_eager_pool(nframes, page_size, slack, program):
    total_bytes = nframes * page_size + slack % page_size
    eager = EagerFramePool(total_bytes, page_size)
    lazy = FramePool(total_bytes, page_size)
    assert lazy.total_frames == eager.total_frames

    for op, arg in program:
        # Frames handed out so far are exactly the ones the lazy pool built.
        created = len(lazy.frames)
        if op == "release" and not created:
            continue
        expected = run_step(eager, op, arg, page_size, created)
        actual = run_step(lazy, op, arg, page_size, created)
        assert actual == expected, (op, arg)
        assert lazy.free_frames == eager.free_frames
        assert lazy.used_frames == eager.used_frames
        assert len(lazy.frames) <= lazy.total_frames
        assert [f.index for f in lazy.frames] == list(range(len(lazy.frames)))
        for frame in lazy.frames:
            assert frame_state(frame) == frame_state(eager.frames[frame.index])
        for frame in eager.frames[len(lazy.frames) :]:
            assert frame.free and not frame.pinned and frame.owner is None


def test_pool_creates_frames_on_demand():
    pool = FramePool(4096 * 1000)
    assert pool.frames == []
    assert pool.free_frames == 1000
    pool.pin(4096 * 3)
    frame = pool.allocate()
    assert frame.index == 3
    assert len(pool.frames) == 4
    assert pool.used_frames == 4
    assert pool.free_frames == 996
