"""Quiet-window host reads against the per-event path, exactly.

A seeded QD1 stream of host preads runs in three arms on the same world:

* ``quiet``  — ``sim_fast_path`` on: uncontended reads finish as one
  closed-form timeout (:meth:`HostIO._plan_quiet_read`);
* ``fused``  — ``sim_fast_path`` on with the quiet window disabled, so
  every read steps through the driver, NVMe slot, firmware, fused channel
  and link events;
* ``slow``   — ``sim_fast_path`` off: every read is fully per-event.

``quiet`` must equal ``fused`` on every timestamp, busy integral and
counter, and equal ``slow`` on everything but the fused-path counters.  A
companion fiber overlaps some reads (forcing the fallback), background
load stretches the driver work, and a ``run(until=int)`` cut through a
read must leave the same mid-run state in every arm.
"""

import random

import pytest

from repro.host.platform import System
from repro.ssd.config import SSDConfig

PAGES = 512
ARMS = ("quiet", "fused", "slow")
#: Counters only the fused NAND path moves (zero with the fast path off).
FUSED_ONLY = ("fused_commands", "fused_stripes")


def _lpns(rng: random.Random):
    """A single page, several pages of one physical page, or a spread."""
    shape = rng.random()
    if shape < 0.7:
        return [rng.randrange(PAGES)]
    if shape < 0.9:
        base = rng.randrange(PAGES // 4) * 4
        return [base + i for i in range(rng.randint(2, 4))]
    return rng.sample(range(PAGES), rng.randint(2, 5))


def _system(arm, background=0):
    """One arm's system; returns (system, log) with quiet reads counted."""
    system = System(ssd_config=SSDConfig(sim_fast_path=arm != "slow"),
                    background_threads=background)
    io = system.io
    log = {"reads": [], "quiet": 0, "single_fallbacks": 0}
    if arm == "fused":
        io._plan_quiet_read = lambda lpns: None
    settle = io._settle_quiet_read

    def counting_settle(plan):
        log["quiet"] += 1
        settle(plan)

    io._settle_quiet_read = counting_settle
    return system, log


def _world(arm, seed, *, mapped, background, companion, reads=150):
    """Build one arm's system and start its fibers; returns (system, log)."""
    system, log = _system(arm, background)
    sim, io, device = system.sim, system.io, system.device

    def reader():
        if mapped:
            for start in range(0, PAGES, 64):
                yield from device.controller.write_pages(
                    range(start, start + 64))
        rng = random.Random(seed)
        for _ in range(reads):
            think = rng.choice((0, 0, rng.randint(1, 50_000)))
            if think:
                yield sim.timeout(think)
            lpns = _lpns(rng)
            start, settled = sim.now, log["quiet"]
            yield from io.pread_pages(lpns)
            log["reads"].append((tuple(lpns), start, sim.now))
            if len(lpns) == 1 and log["quiet"] == settled:
                log["single_fallbacks"] += 1

    def interferer():
        rng = random.Random(seed * 7919 + 1)
        for _ in range(40):
            yield sim.timeout(rng.randint(100_000, 1_500_000))
            kind = rng.randrange(3)
            if kind == 0:
                yield from system.cpu.occupy(rng.uniform(1.0, 40.0))
            elif kind == 1:
                yield from device.internal_read([rng.randrange(PAGES)])
            else:
                yield from io.pread_pages([rng.randrange(PAGES)])

    sim.process(reader(), name="reader")
    if companion:
        sim.process(interferer(), name="companion")
    return system, log


def _snapshot(system):
    device = system.device
    interface = device.interface
    channels = device.nand.channels
    resources = [system.cpu.cores, interface.queue_slots, device.cores,
                 interface.link]
    for channel in channels:
        resources += [channel.dies, channel.bus]
    io = system.io
    return {
        "now": system.sim.now,
        "busy": {r.name: r.busy_area() for r in resources},
        "busy_us": system.cpu.busy_us,
        "stats": device.controller.stats.snapshot(),
        "fastpath": [channel.fastpath.counters() for channel in channels],
        "channel_io": [(channel.bytes_read, channel.reads)
                       for channel in channels],
        "hostio": (io.reads, io.pages_read, io.writes, io.pages_written),
        "interface": (interface.bytes_to_host, interface.bytes_to_device,
                      interface.commands),
    }


def _without_fused(snapshot, mid_run=False):
    trimmed = dict(snapshot)
    trimmed.pop("fastpath")
    trimmed["stats"] = {key: value for key, value in snapshot["stats"].items()
                        if key not in FUSED_ONLY}
    if mid_run:
        # A fused channel plan in flight settles its die/bus integrals and
        # byte counters when it retires, so mid-plan they lag the
        # per-event arm (see repro.sim.fastpath); the host side may not.
        trimmed.pop("channel_io")
        trimmed["busy"] = {name: area for name, area in trimmed["busy"].items()
                           if not name.startswith("ch")}
    return trimmed


def _run_arms(seed, cut_ns=None, **world):
    """Run every arm; returns {arm: (mid-run snapshot, final snapshot,
    log, events)}."""
    out = {}
    for arm in ARMS:
        system, log = _world(arm, seed, **world)
        mid = None
        if cut_ns is not None:
            system.sim.run(until=cut_ns)
            mid = _snapshot(system)
        system.sim.run()
        out[arm] = (mid, _snapshot(system), log,
                    system.sim.events_processed)
    return out


def _assert_equal_arms(out):
    quiet, fused, slow = (out[arm] for arm in ARMS)
    for index in (0, 1):
        if quiet[index] is None:
            continue
        assert quiet[index] == fused[index]
        mid_run = index == 0
        assert (_without_fused(quiet[index], mid_run)
                == _without_fused(slow[index], mid_run))
    assert quiet[2]["reads"] == fused[2]["reads"] == slow[2]["reads"]
    # Both branches engaged: some reads went quiet, some stepped per-event.
    quiet_reads, total_reads = quiet[2]["quiet"], quiet[1]["hostio"][0]
    assert 0 < quiet_reads < total_reads
    assert fused[2]["quiet"] == slow[2]["quiet"] == 0
    assert quiet[3] < fused[3] < slow[3]


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("mapped,background,companion", [
    (False, 0, False),
    (True, 0, False),
    (False, 12, True),
    (True, 24, True),
])
def test_quiet_reads_match_per_event(seed, mapped, background, companion):
    out = _run_arms(seed, mapped=mapped, background=background,
                    companion=companion)
    _assert_equal_arms(out)
    # Single-page reads fall back only when the companion overlaps them.
    fallbacks = out["quiet"][2]["single_fallbacks"]
    assert (fallbacks > 0) == companion


@pytest.mark.parametrize("mapped", (False, True))
def test_run_until_cut_through_a_read(mapped):
    world = dict(mapped=mapped, background=6, companion=True, reads=60)
    reference = _run_arms(5, **world)
    reads = reference["slow"][2]["reads"]
    _lpns_, start, end = reads[len(reads) // 2]
    # Mid-read: the read spanning the deadline must step per-event, so the
    # state the caller of run() sees there is the per-event one.
    _assert_equal_arms(_run_arms(5, cut_ns=(start + end) // 2, **world))
    # Exactly at a completion: the read finishing on the deadline may go
    # quiet and must still be settled when run() returns.
    _assert_equal_arms(_run_arms(5, cut_ns=end, **world))


def test_fibers_woken_by_one_event_read_per_event():
    """Two readers resumed by the same event issue their preads at the
    same instant: the first must not open a quiet window the second would
    then run inside.  On odd rounds only one reader wakes, and goes quiet."""
    out = {}
    for arm in ARMS:
        system, log = _system(arm)
        sim, io = system.sim, system.io
        gates = [sim.event() for _ in range(20)]

        def opener():
            for gate in gates:
                yield sim.timeout(1_000_000)
                gate.succeed()
            yield sim.timeout(1_000_000)  # outlive the last round's reads

        def reader(lpn, every):
            for gate in gates[::every]:
                yield gate
                yield from io.pread_pages([lpn])
                log["reads"].append((lpn, sim.now))

        sim.process(opener())
        # Pages 0 and 64 share channel 0, so the two reads also contend.
        sim.process(reader(0, 1))
        sim.process(reader(64, 2))
        sim.run()
        out[arm] = (None, _snapshot(system), log, sim.events_processed)
    _assert_equal_arms(out)
    assert out["quiet"][2]["quiet"] == 10
