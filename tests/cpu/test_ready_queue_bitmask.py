"""``PriorityReadyQueues`` with its non-empty bitmask against a linear scan.

The frozen :class:`LinearScanQueues` below is the queue before the bitmask:
``pop_best`` and ``best_priority`` scan every level from the top.  Random
programs of ``push`` (tail or front), ``pop_best``, ``best_priority``,
``remove``, ``len`` and ``in`` must give the same answers, thread for
thread, on both.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import PriorityReadyQueues
from repro.cpu.thread import Thread
from repro.errors import SchedulerError


class LinearScanQueues:
    """Multilevel FIFO ready queues that scan for the best level."""

    def __init__(self, levels):
        if levels <= 0:
            raise SchedulerError("need at least one priority level")
        self.levels = levels
        self._queues = [deque() for _ in range(levels)]
        self._count = 0

    def push(self, thread, *, front=False):
        priority = thread.priority
        if not 0 <= priority < self.levels:
            raise SchedulerError(
                f"priority {priority} out of range [0, {self.levels})"
            )
        if front:
            self._queues[priority].appendleft(thread)
        else:
            self._queues[priority].append(thread)
        self._count += 1

    def pop_best(self):
        for priority in range(self.levels - 1, -1, -1):
            queue = self._queues[priority]
            if queue:
                self._count -= 1
                return queue.popleft()
        return None

    def best_priority(self):
        for priority in range(self.levels - 1, -1, -1):
            if self._queues[priority]:
                return priority
        return None

    def remove(self, thread):
        for queue in self._queues:
            try:
                queue.remove(thread)
            except ValueError:
                continue
            self._count -= 1
            return True
        return False

    def ready_threads(self):
        out = []
        for priority in range(self.levels - 1, -1, -1):
            out.extend(self._queues[priority])
        return out

    def __len__(self):
        return self._count

    def __contains__(self, thread):
        return any(thread in queue for queue in self._queues)


LEVELS = 32
POOL = 8

programs = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=POOL - 1),
            st.integers(min_value=-1, max_value=LEVELS),  # out of range too
            st.booleans(),
        ),
        st.tuples(st.just("pop_best")),
        st.tuples(st.just("best_priority")),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=POOL - 1)),
        st.tuples(st.just("contains"), st.integers(min_value=0, max_value=POOL - 1)),
    ),
    max_size=80,
)


def step(queues, threads, op):
    kind = op[0]
    try:
        if kind == "push":
            thread = threads[op[1]]
            thread.priority = op[2]
            queues.push(thread, front=op[3])
            return None
        if kind == "pop_best":
            thread = queues.pop_best()
            return None if thread is None else thread.name
        if kind == "best_priority":
            return queues.best_priority()
        if kind == "remove":
            return queues.remove(threads[op[1]])
        return threads[op[1]] in queues
    except SchedulerError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 5, LEVELS]), programs)
def test_bitmask_queues_match_linear_scan(levels, program):
    fast = PriorityReadyQueues(levels)
    slow = LinearScanQueues(levels)
    # Separate thread objects per side: push mutates ``priority``.
    fast_threads = [Thread(f"t{i}") for i in range(POOL)]
    slow_threads = [Thread(f"t{i}") for i in range(POOL)]
    for op in program:
        assert step(fast, fast_threads, op) == step(slow, slow_threads, op), op
        assert len(fast) == len(slow)
        assert [t.name for t in fast.ready_threads()] == [
            t.name for t in slow.ready_threads()
        ]
        assert fast.best_priority() == slow.best_priority()
