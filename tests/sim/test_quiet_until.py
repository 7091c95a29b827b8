"""Simulator.quiet_until(): the earliest instant another entry can dispatch.

The quiet-window host read (repro.host.io) finishes in one timeout only
when it would fire strictly before this bound, so the bound must see the
heap head, the undispatched tail of the current same-timestamp batch and
the deadline of a ``run(until=int)`` in progress — under every way of
driving the loop.
"""

import math

import pytest

from repro.sim.engine import Simulator


def _record_at(sim, delay, seen, tag=None):
    """Timeout whose callback records ``quiet_until()`` when it runs."""
    event = sim.timeout(delay)
    event.add_callback(
        lambda _e: seen.append((tag, sim.now, sim.quiet_until())))
    return event


def test_empty_heap_is_unbounded():
    sim = Simulator()
    assert sim.quiet_until() == math.inf
    seen = []
    _record_at(sim, 5, seen)
    sim.run()
    assert seen == [(None, 5, math.inf)]


def test_heap_head_bounds_the_window():
    sim = Simulator()
    sim.timeout(70)
    assert sim.quiet_until() == 70
    seen = []
    _record_at(sim, 20, seen)
    sim.run()
    assert seen == [(None, 20, 70)]


@pytest.mark.parametrize("race_check", (False, True))
def test_undispatched_batch_entries_close_the_window(race_check):
    sim = Simulator(race_check=race_check)
    seen = []
    _record_at(sim, 10, seen, "a")
    _record_at(sim, 10, seen, "b")
    sim.timeout(30)
    sim.run()
    # "a" runs with "b" still popped but undispatched: no window at all.
    # "b" is the batch's last entry, so the heap head bounds it again.
    assert sorted(seen) == [("a", 10, 10), ("b", 10, 30)]


def test_same_time_entry_scheduled_mid_batch_closes_the_window():
    sim = Simulator()
    seen = []

    def fiber():
        yield sim.timeout(10)
        sim.timeout(0)
        seen.append(sim.quiet_until())

    sim.process(fiber())
    sim.run()
    assert seen == [10]


def test_run_until_deadline_caps_the_window():
    sim = Simulator()
    seen = []
    later = sim.timeout(100)
    _record_at(sim, 10, seen)
    sim.run(until=40)
    # Entries at the deadline still dispatch, so the cap is one past it.
    assert seen == [(None, 10, 41)]
    assert sim.quiet_until() == 100  # the deadline ended with the run
    sim.run()
    assert later.processed


def test_entry_exactly_at_the_deadline_dispatches_inside_the_run():
    sim = Simulator()
    fired = []

    def fiber():
        yield sim.timeout(10)
        bound = sim.quiet_until()
        assert bound == 41
        # A closed-form timeout landing on the deadline is inside the window.
        yield sim.timeout(bound - 1 - sim.now)
        fired.append(sim.now)

    sim.process(fiber())
    sim.run(until=40)
    assert fired == [40]


def test_each_run_until_sets_its_own_deadline():
    sim = Simulator()
    seen = []
    _record_at(sim, 10, seen)
    sim.run(until=5)
    sim.run(until=20)
    assert seen == [(None, 10, 21)]
    assert sim.quiet_until() == math.inf


def test_batch_counter_resets_after_a_callback_raises():
    sim = Simulator()
    boom = sim.timeout(10)

    def explode(_event):
        raise RuntimeError("boom")

    boom.add_callback(explode)
    seen = []
    _record_at(sim, 10, seen, "survivor")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    # The survivor went back to the heap, which bounds the window now.
    assert sim.quiet_until() == 10
    # run(until=int) never touches the batch counter: a stale one would pin
    # the bound at "now" here instead of one past the deadline.
    sim.run(until=100)
    assert seen == [("survivor", 10, 101)]


def test_deadline_resets_after_a_callback_raises():
    sim = Simulator()
    boom = sim.timeout(10)
    boom.add_callback(lambda _e: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        sim.run(until=50)
    assert sim.quiet_until() == math.inf


def test_later_callbacks_of_the_dispatching_event_close_the_window():
    sim = Simulator()
    shared = sim.timeout(10)
    sim.timeout(30)
    seen = []
    for tag in ("first", "last"):
        shared.add_callback(
            lambda _e, tag=tag: seen.append((tag, sim.quiet_until())))
    single = sim.timeout(20)
    single.add_callback(lambda _e: seen.append(("single", sim.quiet_until())))
    sim.run()
    # Every callback of a shared event sees a closed window: the others run
    # at the same instant.  A lone callback sees the heap head again.
    assert seen == [("first", 10), ("last", 10), ("single", 30)]


def test_step_returns_control_so_the_window_stays_closed():
    sim = Simulator()
    seen = []
    _record_at(sim, 10, seen, "stepped")
    sim.timeout(25)
    sim.step()
    assert seen == [("stepped", 10, 10)]
    assert sim.quiet_until() == 25


def test_run_until_event_closes_the_window_at_the_sentinel_only():
    sim = Simulator()
    seen = []
    _record_at(sim, 10, seen, "before")
    sentinel = _record_at(sim, 15, seen, "sentinel")
    sim.timeout(25)
    sim.run(until=sentinel)
    # run() hands control back right after the sentinel's dispatch.
    assert seen == [("before", 10, 15), ("sentinel", 15, 15)]
    assert sim.quiet_until() == 25
    sim.run()
    assert sim.quiet_until() == math.inf
