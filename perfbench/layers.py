"""Which public functions the traced run wraps, and the per-layer metrics.

Every span name is ``<layer>.<what>``; the layer is a ``repro`` package.
Fibers are named ``<layer>.fiber`` by the package defining their generator
(:meth:`Tracer.wrap_fibers`).  Counts come from the program's own public
counters on the instances the run built, from wrapper call counts, and from
the counts the workload itself owns (``PassResult.counts``).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Tuple

from tracer import CHECKING, Tracer, self_times

#: (module, class or None, attribute, span name, per-call item measure).
WRAPS: Tuple[Tuple[str, Optional[str], str, str, Any], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.run", None),
    ("repro.ssd.controller", "Controller", "read_pages", "ssd.controller", None),
    ("repro.ssd.controller", "Controller", "write_pages", "ssd.controller", None),
    ("repro.ssd.pattern_matcher", "PatternMatcher", "match_bytes",
     "ssd.matcher", None),
    ("repro.ssd.pattern_matcher", "PatternMatcher", "match_page_analytic",
     "ssd.matcher", None),
    ("repro.host.platform", "System", "__init__", "ssd.build", None),
    ("repro.host.io", "HostIO", "pread_pages", "host.pread", None),
    ("repro.host.io", "HostIO", "pwrite_pages", "host.pwrite", None),
    ("repro.fs.filesystem", "FileSystem", "install", "fs.install", None),
    ("repro.fs.filesystem", "FileSystem", "install_synthetic", "fs.install",
     None),
    ("repro.core.runtime", "BiscuitRuntime", "start_application",
     "core.start_app", None),
    ("repro.core.ports", "DeviceOutputPort", "put", "core.port_put", None),
    ("repro.core.ports", "HostOutputPort", "put", "core.port_put", None),
    ("repro.db.tpch.datagen", None, "generate_tables", "db.datagen", None),
    ("repro.db.storage", "Database", "load_table", "db.load", None),
    ("repro.db.storage", None, "decode_rows", "db.decode", len),
    ("repro.db.storage", "TableStorage", "index_pages", "db.index_probe", None),
    ("repro.db.planner", "NDPPlanner", "peek", "db.plan", None),
    ("repro.db.sql", None, "compile_sql", "db.sql_compile", None),
    ("repro.db.tpch.queries", None, "run_query", "db.query", None),
    ("repro.cluster.executor", "ClusterExecutor", "_ordered_merge",
     "cluster.merge", None),
    # Only the cluster coordinator's binding: the single-device engine
    # merges aggregate states too, and that is db work.
    ("repro.cluster.executor", None, "merge_agg_states", "cluster.merge", None),
    ("repro.serve.manager", "JobManager", "submit", "serve.submit", None),
    ("repro.serve.slo", "SLOTracker", "retried", "serve.retry", None),
    ("repro.instrument.events", "EventBus", "instant", "instrument.emit", None),
    ("repro.instrument.events", "EventBus", "complete", "instrument.emit", None),
)

#: Classes whose instances the traced run keeps, to read counters from.
COLLECT = (
    ("repro.sim.engine", "Simulator"),
    ("repro.host.platform", "System"),
    ("repro.cluster.fleet", "ShardedFleet"),
    ("repro.instrument.events", "EventBus"),
)

#: Per-layer metrics and units, in report order (BENCHMARK.json lists
#: the same).
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.fused_pages", "count"),
    ("sim.fused_share", "ratio"),
    ("sim.materializations", "count"),
    ("ssd.read_commands", "count"),
    ("ssd.pages_per_command", "pages"),
    ("ssd.controller.self_s", "s"),
    ("ssd.write_commands", "count"),
    ("ssd.pages_written", "count"),
    ("ssd.gc_runs", "count"),
    ("ssd.relocated_pages", "count"),
    ("ssd.matcher.pages", "count"),
    ("ssd.matcher.self_s", "s"),
    ("ssd.matcher.missed_matches", "count"),
    ("ssd.read_retries", "count"),
    ("ssd.unrecoverable_reads", "count"),
    ("ssd.nand_bytes_read", "bytes"),
    ("ssd.build_s", "s"),
    ("host.preads", "count"),
    ("host.pages_per_pread", "pages"),
    ("host.pread.self_s", "s"),
    ("host.pwrites", "count"),
    ("host.grep_missed_matches", "count"),
    ("fs.install_s", "s"),
    ("core.apps_started", "count"),
    ("core.port_packets", "count"),
    ("core.self_s", "s"),
    ("db.datagen_s", "s"),
    ("db.load_s", "s"),
    ("db.decode_calls", "count"),
    ("db.decode_rows", "count"),
    ("db.decode_s", "s"),
    ("db.index_probes", "count"),
    ("db.query.self_s", "s"),
    ("db.host_pages_read", "count"),
    ("db.ndp_scans", "count"),
    ("db.io_reduction", "x"),
    ("db.plan_s", "s"),
    ("db.sql_compile_s", "s"),
    ("cluster.shard_rpcs", "count"),
    ("cluster.fan_out_mean", "shards"),
    ("cluster.merge_s", "s"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("net.messages", "count"),
    ("net.bytes_per_nand_byte", "ratio"),
    ("net.hedges_fired", "count"),
    ("net.hedge_win_share", "ratio"),
    ("resilience.retries", "count"),
    ("resilience.failovers", "count"),
    ("resilience.resumes", "count"),
    ("resilience.hedge_win_share", "ratio"),
    ("serve.jobs_done", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.job_retries", "count"),
    ("serve.self_s", "s"),
    ("instrument.events_recorded", "count"),
    ("instrument.emit_s", "s"),
    ("bench.trace_overhead", "x"),
)

#: Span names whose time is reported on its own, not in ``db.query.self_s``.
_DB_NAMED = ("db.datagen", "db.load", "db.decode", "db.plan",
             "db.sql_compile", "db.index_probe")


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPS, every fiber, and COLLECT classes."""
    for module_name, class_name, attr, name, measure in WRAPS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        tracer.wrap(owner, attr, name, measure)
    for module_name, class_name in COLLECT:
        tracer.collect(getattr(importlib.import_module(module_name),
                               class_name))
    tracer.wrap_fibers(importlib.import_module("repro.sim.engine").Simulator)


def _span_times(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(self, total) seconds per span name, output checks excluded."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    self_s = [0.0] * len(tracer.names)
    total_s = [0.0] * len(tracer.names)
    name_id, start, end, op = (tracer.name_id, tracer.start, tracer.end,
                               tracer.op)
    for index, value in enumerate(selfs):
        if op[index] == CHECKING:
            continue
        nid = name_id[index]
        self_s[nid] += value
        total_s[nid] += end[index] - start[index]
    return (dict(zip(tracer.names, self_s)), dict(zip(tracer.names, total_s)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, counts: Dict[str, float]) -> Dict[str, float]:
    """Every PER_LAYER metric except the two the parent fills in
    (``sim.ns_per_event`` and ``bench.trace_overhead``)."""
    self_s, total_s = _span_times(tracer)
    calls = dict(zip(tracer.names, tracer.calls))
    items = dict(zip(tracer.names, tracer.items))

    def layer_self(layer: str, exclude: Tuple[str, ...] = ()) -> float:
        return sum(value for name, value in self_s.items()
                   if name.split(".")[0] == layer and name not in exclude)

    systems: List[Any] = tracer.instances.get("System", [])
    devices = [device for system in systems for device in system.devices]
    ios = [io for system in systems for io in system.ios]
    channels = [channel for device in devices
                for channel in device.nand.channels]
    fused = [channel.fastpath.counters() for channel in channels]
    stats = [device.controller.stats for device in devices]
    nand_pages = sum(channel.reads for channel in channels)
    fused_pages = sum(c["fused_pages"] for c in fused)
    read_commands = sum(s.read_commands for s in stats)
    preads = sum(io.reads for io in ios)

    out: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    out.update({
        "sim.events": float(sum(sim.events_processed for sim in
                                tracer.instances.get("Simulator", []))),
        "sim.self_s": layer_self("sim"),
        "sim.fused_pages": float(fused_pages),
        "sim.fused_share": _ratio(fused_pages, nand_pages),
        "sim.materializations": float(sum(c["materializations"]
                                          for c in fused)),
        "ssd.read_commands": float(read_commands),
        "ssd.pages_per_command": _ratio(
            sum(s.logical_pages_read for s in stats), read_commands),
        "ssd.controller.self_s": self_s.get("ssd.controller", 0.0),
        "ssd.write_commands": float(sum(s.write_commands for s in stats)),
        "ssd.pages_written": float(sum(s.logical_pages_written
                                       for s in stats)),
        "ssd.gc_runs": float(sum(d.ftl.gc_runs for d in devices)),
        "ssd.relocated_pages": float(sum(d.ftl.relocated_pages
                                         for d in devices)),
        "ssd.matcher.pages": float(calls.get("ssd.matcher", 0)),
        "ssd.matcher.self_s": self_s.get("ssd.matcher", 0.0),
        "ssd.read_retries": float(sum(s.read_retries for s in stats)),
        "ssd.unrecoverable_reads": float(sum(s.unrecoverable_reads
                                             for s in stats)),
        "ssd.nand_bytes_read": float(sum(d.nand.bytes_read
                                         for d in devices)),
        "ssd.build_s": total_s.get("ssd.build", 0.0),
        "host.preads": float(preads),
        "host.pages_per_pread": _ratio(sum(io.pages_read for io in ios),
                                       preads),
        "host.pread.self_s": self_s.get("host.pread", 0.0),
        "host.pwrites": float(sum(io.writes for io in ios)),
        "fs.install_s": total_s.get("fs.install", 0.0),
        "core.apps_started": float(calls.get("core.start_app", 0)),
        "core.port_packets": float(calls.get("core.port_put", 0)),
        "core.self_s": layer_self("core"),
        "db.datagen_s": total_s.get("db.datagen", 0.0),
        "db.load_s": total_s.get("db.load", 0.0),
        "db.decode_calls": float(calls.get("db.decode", 0)),
        "db.decode_rows": float(items.get("db.decode", 0)),
        "db.decode_s": total_s.get("db.decode", 0.0),
        "db.index_probes": float(calls.get("db.index_probe", 0)),
        "db.query.self_s": layer_self("db", _DB_NAMED),
        "db.plan_s": total_s.get("db.plan", 0.0),
        "db.sql_compile_s": total_s.get("db.sql_compile", 0.0),
        "cluster.merge_s": total_s.get("cluster.merge", 0.0),
        "net.messages": float(sum(fleet.network_messages() for fleet in
                                  tracer.instances.get("ShardedFleet", []))),
        "serve.job_retries": float(calls.get("serve.retry", 0)),
        "serve.self_s": layer_self("serve"),
        "instrument.events_recorded": float(sum(
            len(bus) for bus in tracer.instances.get("EventBus", []))),
        "instrument.emit_s": total_s.get("instrument.emit", 0.0),
    })
    out.update(counts)
    return out
