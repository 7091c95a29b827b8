"""The benchmark's four workloads, one seeded pass each.

A pass builds its inputs from the seed (set-up), then runs its operations
back to back under :class:`Recorder` (the timed phase), then checks every
output against an independent reference (untimed).  It returns a
:class:`PassResult`; ``run.py`` turns several passes into the metrics.

Why each workload exists, and which layers it bypasses, is in README.md.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from tracer import CHECKING

from repro.apps.string_search import (
    PAPER_LOG_BYTES,
    install_weblog,
    install_weblog_analytic,
    run_biscuit_search,
    run_conv_search,
)
from repro.bench.cluster import run_cluster_bench
from repro.bench.experiments import PAPER, exp_table3_read_latency
from repro.bench.resilience import run_resilience_bench
from repro.db.executor import ExecutionMode
from repro.db.planner import create_engine
from repro.db.reference import REFERENCE_QUERIES, reference_result
from repro.db.storage import Database
from repro.db.tpch.datagen import generate_tables
from repro.db.tpch.queries import ALL_QUERIES, OFFLOADED_QUERIES, run_query
from repro.db.tpch.schema import TPCH_SCHEMAS
from repro.host.platform import System
from repro.instrument.events import EventBus
from repro.sim.engine import Simulator, all_of
from repro.sim.units import KIB, MIB

TPCH_SF = 0.01
TPCH_TABLES = ("region", "nation", "supplier", "customer", "part",
               "partsupp", "orders", "lineitem")
#: Engine column positions the reference returns, where it omits columns:
#: db.reference's Q18 leaves out the two join keys the engine repeats
#: (o_orderkey, c_custkey).
REFERENCE_COLUMNS = {18: (0, 1, 3, 4, 5, 7)}

#: Fig. 7 shape: QD32 bulk reads at large request sizes, three data paths.
READ_MODES = ("conv", "biscuit", "matcher")
READ_SIZES = (256 * KIB, 1 * MIB, 4 * MIB)
READ_BYTES = 64 * MIB
QUEUE_DEPTH = 32
BULK_FILE_BYTES = 512 * MIB
#: The mixed phase: QD32 1 MiB Conv reads with a host writer beside them.
MIXED_READ_BYTES = 256 * MIB
WRITES = 512
WRITE_BYTES = 64 * KIB
#: Table V shape: a real log for the match-count check, an analytic one
#: (scaled linearly to the paper's 7.8 GiB) for the paper's seconds.
KEYWORD = "ERRORKEY"
EXACT_LOG_BYTES = 4 * MIB
ANALYTIC_LOG_BYTES = 128 * MIB
SEARCH_LOADS = (0, 24)
#: Conv grep reads the log in chunks of this size (conv_string_search).
GREP_CHUNK = 1 * MIB
#: Serial 4 KiB reads per data path in fleet_storm's Table III node probe.
PROBE_READS = 32
#: Resilience fault storms per fleet_storm pass.  Seeds differ in how much
#: recovery their storm needs; several storms per pass even that out.
STORMS = 3


class Recorder:
    """Times the operations of one pass in host seconds.

    ``setup_clock`` is a tracer over the constructors and loaders that a
    workload may call inside an operation (``run_cluster_bench`` builds its
    fleet internally); host time inside them counts as set-up, not as the
    operation.  ``tracer``, when given, is told which op is in flight.
    """

    def __init__(self, setup_clock: Any, tracer: Any = None,
                 check: bool = True):
        self.setup_clock = setup_clock
        self.tracer = tracer
        self.check = check
        self.first_op_epoch: Optional[float] = None
        self.op_walls: List[float] = []
        self.setup_inside_s = 0.0
        #: Peak resident set (MB) up to the end of the last op; the output
        #: checks after the timed phase are left out.
        self.peak_rss_mb = 0.0

    def _root_setup_s(self, since: int) -> float:
        clock = self.setup_clock
        return sum(clock.end[i] - clock.start[i]
                   for i in range(since, len(clock)) if clock.parent[i] < 0)

    @contextmanager
    def op(self) -> Iterator[None]:
        if self.first_op_epoch is None:
            self.first_op_epoch = time.time()
        if self.tracer is not None:
            self.tracer.current_op = len(self.op_walls)
        mark = len(self.setup_clock)
        started = time.perf_counter()
        yield
        wall = time.perf_counter() - started
        if self.tracer is not None:
            self.tracer.current_op = -1
        inside = self._root_setup_s(mark)
        self.setup_inside_s += inside
        self.op_walls.append(wall - inside)
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def checking(self) -> bool:
        """The timed phase is over; what follows checks outputs.

        Returns whether this pass runs the costly checks: passes of one run
        must agree on their digest (which covers every result), so the
        run checks those in one pass only.
        """
        if self.tracer is not None:
            self.tracer.current_op = CHECKING
        return self.check


class PassResult:
    """What one pass reports: work, checks, digest and model outputs."""

    def __init__(self) -> None:
        self.sim_ns = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Deterministic simulated outcomes, folded into the digest.
        self.outcomes: List[Any] = []
        #: (measured, paper) pairs for paper_error_pct.
        self.paper: List[Tuple[float, float]] = []
        self.storm_goodput = 1.0
        #: Deterministic layer counts the workload owns (per-layer metrics).
        self.counts: Dict[str, float] = {}

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` checked answers, ``failed`` of them wrong."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append("%s: %d of %d wrong" % (what, failed,
                                                         attempted))

    def digest(self) -> str:
        return hashlib.sha256(repr(self.outcomes).encode()).hexdigest()

    def paper_error_pct(self) -> float:
        """Mean |ln(measured / paper)| x 100 over the paper's numbers."""
        return 100.0 * sum(abs(math.log(m / p)) for m, p in self.paper) \
            / len(self.paper)


def rows_close(a: List[tuple], b: List[tuple]) -> bool:
    """Row sets equal up to float summation order (1e-9 relative)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(sorted(a, key=repr), sorted(b, key=repr)):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-6):
                    return False
            elif va != vb:
                return False
    return True


def _rows_hash(rows: List[tuple]) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# ------------------------------------------------------------------ tpch
def run_tpch(seed: int, rec: Recorder) -> PassResult:
    """All 22 TPC-H queries, Conv then Biscuit per query, cold per query."""
    out = PassResult()
    data = generate_tables(TPCH_SF, seed=seed)
    system = System()
    db = Database(system.fs)
    for name in TPCH_TABLES:
        db.load_table(TPCH_SCHEMAS[name], data[name])
    engines = {"conv": create_engine(system, db, ExecutionMode.CONV),
               "biscuit": create_engine(system, db, ExecutionMode.BISCUIT)}
    rows: Dict[Tuple[int, str], List[tuple]] = {}
    sim_s: Dict[Tuple[int, str], float] = {}
    stats: Dict[Tuple[int, str], Tuple[int, float, int]] = {}
    for number in sorted(ALL_QUERIES):
        for mode in ("conv", "biscuit"):
            engine = engines[mode]
            started = system.sim.now
            with rec.op():
                rel, _ = run_query(engine, number)
            elapsed = system.sim.now - started
            out.sim_ns += elapsed
            rows[number, mode] = rel.rows
            sim_s[number, mode] = elapsed / 1e9
            stats[number, mode] = (engine.host_pages_read,
                                   engine.biscuit_pages_equivalent,
                                   engine.ndp_scans)
            out.outcomes.append((number, mode, elapsed, _rows_hash(rel.rows),
                                 stats[number, mode]))

    for number in sorted(ALL_QUERIES) if rec.checking() else ():
        out.check(rows_close(rows[number, "conv"], rows[number, "biscuit"]),
                  "Q%d: Conv and Biscuit rows differ" % number)
        if number in REFERENCE_QUERIES:
            got = rows[number, "conv"]
            if number in REFERENCE_COLUMNS:
                got = [tuple(row[i] for i in REFERENCE_COLUMNS[number])
                       for row in got]
            out.check(rows_close(got, reference_result(number, data)),
                      "Q%d: rows differ from db.reference" % number)

    speedup = {n: sim_s[n, "conv"] / sim_s[n, "biscuit"] for n in ALL_QUERIES}
    offloaded = sorted(n for n in ALL_QUERIES if stats[n, "biscuit"][2] > 0)
    gains = sorted((speedup[n] for n in offloaded), reverse=True)
    suite = (sum(sim_s[n, "conv"] for n in ALL_QUERIES)
             / sum(sim_s[n, "biscuit"] for n in ALL_QUERIES))
    out.paper = [
        (suite, PAPER["suite_speedup"]),
        (math.exp(sum(math.log(g) for g in gains) / len(gains)),
         PAPER["geomean_8"]),
        (sum(gains[:5]) / len(gains[:5]), PAPER["top5_mean"]),
        (speedup[14], PAPER["q14_speedup"]),
        (stats[14, "conv"][0] / max(1.0, stats[14, "biscuit"][1]),
         PAPER["q14_io_reduction"]),
        (len(offloaded), len(OFFLOADED_QUERIES)),
    ]
    conv_pages = sum(stats[n, "conv"][0] for n in ALL_QUERIES)
    biscuit_pages = sum(stats[n, "biscuit"][1] for n in ALL_QUERIES)
    out.counts = {
        "db.host_pages_read": float(sum(s[0] for s in stats.values())),
        "db.ndp_scans": float(sum(s[2] for s in stats.values())),
        "db.io_reduction": conv_pages / biscuit_pages,
    }
    out.outcomes.append(("events", system.sim.events_processed))
    return out


# ------------------------------------------------------------- scan shapes
def _bulk_offsets(rng: random.Random, size: int) -> List[int]:
    """Distinct size-aligned offsets in the bulk file, in seeded order."""
    count = max(QUEUE_DEPTH, READ_BYTES // size)
    return [slot * size
            for slot in rng.sample(range(BULK_FILE_BYTES // size), count)]


def _read_plan(seed: int) -> List[Tuple[str, int, List[int]]]:
    rng = random.Random(seed)
    return [(mode, size, _bulk_offsets(rng, size))
            for mode in READ_MODES for size in READ_SIZES]


def _qd_reads(system: System, handle: Any, size: int, offsets: List[int],
              writer: Optional[Callable[[], Any]] = None) -> int:
    """QD32 closed-loop reads (plus an optional writer); returns sim ns."""
    def worker(first: int) -> Any:
        for index in range(first, len(offsets), QUEUE_DEPTH):
            yield from handle.read_timing_only(offsets[index], size)

    def program() -> Any:
        fibers = [system.sim.process(worker(i), name="bw%d" % i)
                  for i in range(QUEUE_DEPTH)]
        if writer is not None:
            fibers.append(system.sim.process(writer(), name="writer"))
        yield all_of(system.sim, fibers)

    started = system.sim.now
    system.run_fiber(program())
    return system.sim.now - started


def _open(system: System, path: str, mode: str) -> Any:
    if mode == "conv":
        return system.open_host(path)
    return system.open_internal(path, use_matcher=(mode == "matcher"))


def _read_phase(system: System, seed: int, rec: Recorder,
                out: PassResult) -> List[int]:
    """The Fig. 7 reads; records per-op sim ns and the paper's two caps."""
    durations = []
    best = {mode: 0.0 for mode in READ_MODES}
    for mode, size, offsets in _read_plan(seed):
        handle = _open(system, "/bench/bulk.dat", mode)
        with rec.op():
            elapsed = _qd_reads(system, handle, size, offsets)
        out.check(elapsed > 0, "%s %d: no simulated time" % (mode, size))
        durations.append(elapsed)
        out.sim_ns += elapsed
        gbps = len(offsets) * size / elapsed
        best[mode] = max(best[mode], gbps)
        out.outcomes.append(("read", mode, size, elapsed))
    out.paper += [(best["conv"], PAPER["conv_bw_cap_gbps"]),
                  (best["biscuit"], PAPER["internal_bw_gbps"])]
    return durations


def _scan_system(sim: Optional[Simulator] = None) -> System:
    system = System(sim=sim)
    system.fs.install_synthetic("/bench/bulk.dat", BULK_FILE_BYTES)
    return system


def _ssd_counts(system: System, out: PassResult) -> None:
    device = system.device
    out.outcomes.append(("events", system.sim.events_processed,
                         sorted(device.controller.stats.snapshot().items()),
                         device.nand.bytes_read, device.ftl.gc_runs,
                         device.ftl.relocated_pages))


def run_scan_mixed(seed: int, rec: Recorder) -> PassResult:
    """Fig. 7 reads, reads beside a host writer, and Table V search."""
    out = PassResult()
    rng = random.Random(seed + 1)
    system = _scan_system()
    system.fs.create_empty("/bench/written.dat")
    payloads = [rng.randbytes(WRITE_BYTES) for _ in range(WRITES)]
    install_weblog(system, "/bench/web.log", EXACT_LOG_BYTES, KEYWORD, 0.01,
                   seed=seed)
    install_weblog_analytic(system, "/bench/paper.log", ANALYTIC_LOG_BYTES,
                            KEYWORD)

    _read_phase(system, seed, rec, out)

    writer_handle = system.open_host("/bench/written.dat")
    write_order = rng.sample(range(WRITES), WRITES)

    def writer() -> Any:
        for index in write_order:
            yield from writer_handle.write(index * WRITE_BYTES,
                                           payloads[index])

    mixed_offsets = [slot * MIB for slot in rng.sample(
        range(BULK_FILE_BYTES // MIB), MIXED_READ_BYTES // MIB)]
    with rec.op():
        elapsed = _qd_reads(system, system.open_host("/bench/bulk.dat"),
                            MIB, mixed_offsets, writer=writer)
    out.sim_ns += elapsed
    out.outcomes.append(("mixed", elapsed))

    counts = {}
    for side, search in (("conv", run_conv_search),
                         ("matcher", run_biscuit_search)):
        started = system.sim.now
        with rec.op():
            count, _ = search(system, "/bench/web.log", KEYWORD)
        out.sim_ns += system.sim.now - started
        counts[side] = count
        out.outcomes.append(("grep", side, system.sim.now - started, count))

    scale = PAPER_LOG_BYTES / ANALYTIC_LOG_BYTES
    for load in SEARCH_LOADS:
        system.set_background_load(load)
        index = (0, 6, 12, 18, 24).index(load)
        for side, search, paper in (
                ("conv", run_conv_search, PAPER["search_conv_s"]),
                ("matcher", run_biscuit_search, PAPER["search_biscuit_s"])):
            started = system.sim.now
            with rec.op():
                count, seconds = search(system, "/bench/paper.log", KEYWORD)
            out.sim_ns += system.sim.now - started
            out.paper.append((seconds * scale, paper[index]))
            out.outcomes.append(("tableV", load, side,
                                 system.sim.now - started, count))
    system.set_background_load(0)

    rec.checking()
    written = system.run_fiber(writer_handle.read(0, WRITES * WRITE_BYTES))
    out.check(written == b"".join(payloads),
              "written bytes do not read back exactly")
    log = system.fs.read_range(system.fs.lookup("/bench/web.log"), 0,
                               system.fs.lookup("/bench/web.log").size)
    needle = KEYWORD.encode()
    page = system.fs.page_size
    # Each path is held to what it can see: Conv greps 1 MiB chunks, the
    # matcher SSDlet single pages; occurrences across those boundaries are
    # missed by the program today and reported as per-layer counts.
    grep_ref = sum(log[i:i + GREP_CHUNK].count(needle)
                   for i in range(0, len(log), GREP_CHUNK))
    matcher_ref = sum(log[i:i + page].count(needle)
                      for i in range(0, len(log), page))
    out.check(counts["conv"] == grep_ref,
              "Conv grep %d != chunk reference %d"
              % (counts["conv"], grep_ref))
    out.check(counts["matcher"] == matcher_ref,
              "matcher %d != page reference %d"
              % (counts["matcher"], matcher_ref))
    out.counts = {
        "host.grep_missed_matches": float(log.count(needle) - counts["conv"]),
        "ssd.matcher.missed_matches":
            float(log.count(needle) - counts["matcher"]),
    }
    _ssd_counts(system, out)
    return out


def run_scan_observed(seed: int, rec: Recorder) -> PassResult:
    """scan_mixed's read phase with the program's EventBus attached."""
    out = PassResult()
    sim = Simulator()
    bus = EventBus(sim)
    system = _scan_system(sim)
    observed = _read_phase(system, seed, rec, out)
    out.counts = {"instrument.events_recorded": float(len(bus))}
    out.outcomes.append(("bus_events", len(bus)))
    _ssd_counts(system, out)

    # Observing must not change any simulated time.
    if not rec.checking():
        return out
    plain = _scan_system()
    untimed = Recorder(rec.setup_clock)
    reference = _read_phase(plain, seed, untimed, PassResult())
    for index, (got, want) in enumerate(zip(observed, reference)):
        out.check(got == want, "read op %d: observed %d ns != untraced %d ns"
                  % (index, got, want))
    return out


# ------------------------------------------------------------- fleet_storm
def run_fleet_storm(seed: int, rec: Recorder) -> PassResult:
    """Table III node probe, the cluster crash storm, device fault storms."""
    out = PassResult()
    with rec.op():
        probe = exp_table3_read_latency(samples=PROBE_READS)
    for key in ("conv_read_us", "biscuit_read_us"):
        out.check(probe.metrics[key] > 0, "probe %s" % key)
        out.paper.append((probe.metrics[key], PAPER[key]))
        out.sim_ns += int(probe.metrics[key] * PROBE_READS * 1000)
    out.outcomes.append(("probe", sorted(probe.metrics.items())))

    with rec.op():
        cluster = run_cluster_bench(seed=seed)
    out.sim_ns += int(cluster["elapsed_sim_s"] * 1e9)
    # The SQL stream, 6 point lookups, one KV batch and the mid-storm SQL.
    out.tally(cluster["queries"] + 8, cluster["wrong_results"], "cluster")
    out.storm_goodput = cluster["storm_goodput"]
    out.outcomes.append(("cluster", sorted(cluster.items())))

    storms = []
    for index in range(STORMS):
        with rec.op():
            storm = run_resilience_bench(seed=seed * STORMS + index)
        out.sim_ns += int(storm["elapsed_sim_s"] * 1e9)
        out.tally(storm["queries"], storm["wrong_results"],
                  "resilience storm %d" % index)
        out.outcomes.append(("resilience", sorted(storm.items())))
        storms.append(storm)

    def share(wins: float, fired: float) -> float:
        return wins / fired if fired else 0.0

    def total(key: str) -> float:
        return float(sum(storm[key] for storm in storms))

    out.counts = {
        "cluster.shard_rpcs": float(cluster["shard_rpcs"]),
        "cluster.fan_out_mean": float(cluster["mean_fan_out"]),
        "cluster.retries": float(cluster["retries"]),
        "cluster.failovers": float(cluster["failovers"]),
        "net.bytes_per_nand_byte": float(cluster["network_to_nand_ratio"]),
        "net.hedges_fired": float(cluster["hedge_hedges_fired"]),
        "net.hedge_win_share": share(cluster["hedge_hedge_wins"],
                                     cluster["hedge_hedges_fired"]),
        "db.ndp_scans": float(cluster["ndp_scans"]),
        "serve.jobs_done": float(cluster["storm_jobs_done"]),
        "serve.jobs_failed": float(cluster.get("jobs_failed", 0)),
        "resilience.retries": total("driver_retries"),
        "resilience.failovers": total("driver_failovers"),
        "resilience.resumes": total("driver_resumes"),
        "resilience.hedge_win_share": share(total("driver_hedge_wins"),
                                            total("driver_hedges_fired")),
    }
    return out


WORKLOADS: Dict[str, Callable[[int, Recorder], PassResult]] = {
    "tpch": run_tpch,
    "scan_mixed": run_scan_mixed,
    "fleet_storm": run_fleet_storm,
    "scan_observed": run_scan_observed,
}

#: Functions that build systems, fleets or data.  Host time inside them is
#: set-up, also when a workload calls them from inside an operation.
SETUP_FUNCTIONS = (
    ("repro.host.platform", "System", "__init__"),
    ("repro.db.tpch.datagen", None, "generate_tables"),
    ("repro.db.storage", "Database", "load_table"),
    ("repro.cluster.fleet", "ShardedFleet", "__init__"),
    ("repro.cluster.fleet", "ShardedFleet", "load_sharded"),
    ("repro.cluster.fleet", "ShardedKVStore", "build"),
    ("repro.cluster.serve", "ClusterServeDriver", "__init__"),
)
