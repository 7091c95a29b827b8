"""Self-time arithmetic of the outside-in tracer.

Run from the repository root with
``python3 -m pytest perfbench/test_tracer.py`` (or
``python3 perfbench/test_tracer.py``).  A fake clock makes every span
boundary exact.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from tracer import Tracer, self_times  # noqa: E402


class FakeClock:
    """Reads ``now``; work advances it explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_subtract_children():
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6].
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0]


def test_overlapping_children_count_once_and_clip_to_parent():
    # Children [1, 5] and [3, 7] overlap on [3, 5]; child [8, 12] sticks
    # out of its parent [0, 10] and is clipped to [8, 10].
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 10.0 - 6.0 - 2.0


def test_wrapped_function_nests_under_fiber_resume():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Layer:
        def leaf(self):
            clock.work(2.0)

        def fiber(self):
            clock.work(1.0)
            self.leaf()
            yield "wait"
            clock.work(3.0)
            return "done"

    original = Layer.leaf
    tracer.wrap(Layer, "leaf", "x.leaf")
    tracer.wrap(Layer, "fiber", "x.fiber")
    gen = Layer().fiber()
    assert gen.send(None) == "wait"
    clock.work(100.0)  # suspended: billed to nobody
    try:
        gen.send(None)
    except StopIteration as stop:
        assert stop.value == "done"
    tracer.restore()
    assert tracer.self_by_name() == {"x.leaf": 2.0, "x.fiber": 4.0}
    assert tracer.calls == [1, 1]
    assert Layer.leaf is original


def test_interleaved_fibers_bill_only_their_own_resumes():
    from repro.sim.engine import Simulator

    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.wrap(Simulator, "run", "sim.run")
    tracer.wrap_fibers(Simulator)

    def fiber(sim, cost, rounds, gap_ns):
        for _ in range(rounds):
            clock.work(cost)
            yield sim.timeout(gap_ns)
        clock.work(cost)

    sim = Simulator(race_check=False)
    # a and b wake alternately (a at 0, 10, 20; b at 5, 15, 25 ns), so
    # their resumes interleave inside one sim.run span.
    sim.process(fiber(sim, 1.0, 2, 10), name="a")

    def late_start():
        yield sim.timeout(5)
        clock.work(0.5)
        yield from fiber(sim, 10.0, 2, 10)

    sim.process(late_start(), name="b")
    sim.run()
    tracer.restore()
    order = [tracer.names[tracer.name_id[i]] for i in range(len(tracer))]
    assert order[0] == "sim.run"
    # Every fiber resume is a child of the run span; the two fibers'
    # resumes alternate in host time.
    assert all(tracer.parent[i] == 0 for i in range(1, len(tracer)))
    selfs = tracer.self_by_name()
    assert selfs["other.fiber"] == 3 * 1.0 + 0.5 + 3 * 10.0
    assert selfs["sim.run"] == 0.0
    assert tracer.calls[tracer.names.index("other.fiber")] == 2


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
