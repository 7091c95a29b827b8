"""Property-style GC coverage: sustained seeded random overwrites must never
lose a live page, must keep the map and the block slot arrays mutually
consistent, and must spread erases across blocks (wear leveling).
"""

import random

import pytest

from repro.core.errors import UncorrectableReadError
from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.ftl import FTL
from repro.ssd.nand import NandArray
from repro.testing.faults import FaultInjector, FaultPlan

SEEDS = [0, 1, 2, 3, 4]


def make_ftl(channels=2, dies=1, blocks=8, pages=4):
    sim = Simulator()
    config = SSDConfig(
        channels=channels, dies_per_channel=dies,
        blocks_per_die=blocks, pages_per_block=pages,
    )
    nand = NandArray(sim, config)
    return sim, config, FTL(sim, config, nand)


def write(sim, ftl, lpns):
    sim.run(sim.process(ftl.write(list(lpns))))


def check_invariants(ftl, config, live_lpns):
    # 1. Exactly the written working set is mapped — GC lost nothing.
    assert set(ftl._map) == live_lpns

    # 2. Every mapping points at a slot that holds exactly that lpn.
    for lpn, addr in ftl._map.items():
        die = ftl._die_at(addr.channel, addr.die)
        assert die.blocks[addr.block].slots[addr.page][addr.slot] == lpn

    # 3. Per-block valid counters agree with the slot arrays, and no lpn
    #    occupies two slots.
    seen = []
    for die in ftl._dies:
        for block in die.blocks:
            slot_lpns = [lpn for page in block.slots for lpn in page
                         if lpn is not None]
            assert block.valid == len(slot_lpns)
            seen.extend(slot_lpns)
    assert len(seen) == len(set(seen))
    assert set(seen) == live_lpns

    # 4. Free blocks hold no slot table: it is allocated on open and
    #    released on erase.
    for die in ftl._dies:
        assert not any(block.slots for block in die.free)


@pytest.mark.parametrize("seed", SEEDS)
def test_sustained_random_overwrites_keep_ftl_consistent(seed):
    sim, config, ftl = make_ftl()
    rng = random.Random(seed)
    # Working set at ~55% of raw capacity: plenty of room, constant churn.
    capacity = (config.channels * config.dies_per_channel
                * config.blocks_per_die * config.pages_per_block
                * config.logical_pages_per_physical)
    working_set = int(capacity * 0.55)

    write(sim, ftl, range(working_set))  # initial fill
    for _round in range(30):
        batch = [rng.randrange(working_set)
                 for _ in range(rng.randint(4, working_set // 2))]
        write(sim, ftl, batch)

    live = set(range(working_set))
    check_invariants(ftl, config, live)
    assert ftl.gc_runs > 0, "workload never triggered GC"
    assert ftl.write_amplification > 1.0

    # Invariants survive a flush of the half-filled open pages too.
    sim.run(sim.process(ftl.flush()))
    check_invariants(ftl, config, live)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_trim_then_overwrite_consistency(seed):
    sim, config, ftl = make_ftl()
    rng = random.Random(seed)
    working_set = 48
    write(sim, ftl, range(working_set))
    live = set(range(working_set))
    for _round in range(20):
        if rng.random() < 0.3 and live:
            victims = rng.sample(sorted(live), rng.randint(1, min(8, len(live))))
            ftl.trim(victims)
            live.difference_update(victims)
        else:
            batch = [rng.randrange(working_set) for _ in range(rng.randint(4, 24))]
            write(sim, ftl, batch)
            live.update(batch)
    check_invariants(ftl, config, live)


def test_wear_leveling_bounds_erase_spread():
    sim, config, ftl = make_ftl()
    rng = random.Random(99)
    working_set = 40
    write(sim, ftl, range(working_set))
    # Skewed overwrites (hot set) — the classic wear-leveling stressor.
    for _round in range(800):
        hot = rng.random() < 0.8
        lpn = rng.randrange(8) if hot else rng.randrange(working_set)
        write(sim, ftl, [lpn])
    counts = ftl.erase_counts()
    assert ftl.gc_runs > 0
    assert max(counts) > 0
    # Least-erased-first free-block selection keeps the spread tight: no
    # block may be erased more than a handful of times past the minimum.
    assert max(counts) - min(counts) <= 3
    check_invariants(ftl, config, set(range(working_set)))


def test_gc_relocation_read_failure_is_typed_with_context():
    sim, config, ftl = make_ftl()
    write(sim, ftl, range(40))
    # From here on every media read fails: the next GC must surface a
    # context-rich typed error instead of silently dropping live pages.
    ftl.nand.attach_injector(FaultInjector(FaultPlan(seed=1, ecc_rate=1.0)))
    rng = random.Random(7)
    with pytest.raises(UncorrectableReadError) as info:
        # Random churn keeps GC victims partially live, forcing relocation
        # reads — the first of which must fail loudly.
        for _round in range(800):
            write(sim, ftl, [rng.randrange(40)])
    assert info.value.block is not None
    assert info.value.page is not None
    assert "GC relocation read failed" in str(info.value)
