"""Host-side I/O paths (pread / async read), charging driver CPU time.

Calibration (Table III): a 4 KiB host read is the device-internal read
(75.9 µs) + PCIe transfer (~1.2 µs) + ``nvme_command_overhead_us`` (12.8 µs)
of host driver work ≈ 90.0 µs.  The driver work is memory-bound host CPU
time, so it inflates under background load — which is exactly the Conv
degradation in Table IV.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Tuple

from repro.host.cpu import HostCPU
from repro.sim.engine import Event, Simulator
from repro.sim.units import us_to_ns
from repro.ssd.device import SSDDevice

__all__ = ["HostIO"]


class HostIO:
    """The conventional (Conv) I/O path: host syscall → NVMe → SSD → PCIe."""

    def __init__(self, sim: Simulator, cpu: HostCPU, device: SSDDevice):
        self.sim = sim
        self.cpu = cpu
        self.device = device
        # Trace track for driver/nvme events; System numbers it ("host/io0").
        self.trace_track = "host/io"
        self.reads = 0
        self.writes = 0
        self.pages_read = 0
        self.pages_written = 0

    def _driver_work(self, duration_us: float, label: str) -> Generator:
        """Fiber: host driver CPU time, emitted as a ``driver`` span."""
        trace = self.sim.trace
        start_ns = self.sim.now if trace is not None else 0
        yield from self.cpu.occupy(duration_us)
        if trace is not None:
            trace.complete("driver", label, self.trace_track, start_ns)

    def _driver_us(self) -> Tuple[float, float]:
        """(submit, complete) host driver work of one NVMe command."""
        overhead_us = self.device.config.nvme_command_overhead_us
        submit_us = overhead_us / 2
        return submit_us, overhead_us - submit_us

    # ------------------------------------------------------------------- read
    def pread_pages(self, lpns: Sequence[int]) -> Generator:
        """Fiber: synchronous host read of logical pages.

        When nothing else can run before the read would finish (see
        :meth:`_plan_quiet_read`), the whole round trip is one timeout,
        settled when it fires; otherwise it steps per-event below.

        With tracing on, the NVMe command lifecycle is emitted as instants
        (submit → fetch → execute → complete) plus one ``nvme/read`` span
        enveloping the whole round trip — the unit the latency-breakdown
        report decomposes into driver / firmware / NAND / transfer time.
        """
        quiet = self._plan_quiet_read(lpns)
        if quiet is not None:
            yield self.sim.timeout(quiet[0])
            self._settle_quiet_read(quiet[1])
            return
        submit_us, complete_us = self._driver_us()
        trace = self.sim.trace
        cmd_id = trace.next_id() if trace is not None else 0
        start_ns = self.sim.now if trace is not None else 0
        if trace is not None:
            trace.instant("nvme", "submit", self.trace_track,
                          cmd=cmd_id, pages=len(lpns))
        yield from self._driver_work(submit_us, "submit")
        slot_wait_ns = self.sim.now if trace is not None else 0
        yield from self.device.interface.acquire_slot()
        try:
            if trace is not None:
                if self.sim.now > slot_wait_ns:
                    # Host-side queueing: the submission queue was full.
                    trace.complete("nvme", "slot-wait", self.trace_track,
                                   slot_wait_ns, cmd=cmd_id)
                trace.instant("nvme", "fetch", self.trace_track, cmd=cmd_id)
                trace.instant("nvme", "execute", self.trace_track, cmd=cmd_id)
            yield from self.device.host_read(list(lpns))
        finally:
            self.device.interface.release_slot()
        yield from self._driver_work(complete_us, "complete")
        self.reads += 1
        self.pages_read += len(lpns)
        if trace is not None:
            trace.instant("nvme", "complete", self.trace_track, cmd=cmd_id)
            trace.complete("nvme", "read", self.trace_track, start_ns,
                           cmd=cmd_id, pages=len(lpns))

    def _plan_quiet_read(
            self, lpns: Sequence[int]) -> Optional[Tuple[int, tuple]]:
        """Time a host read in closed form when it runs in a quiet window.

        The quiet window: the read would finish strictly before
        ``sim.quiet_until()``, so no other event runs (and no ``run()``
        caller regains control) while it is in flight.  Every resource on
        the path must grant at once — a free host core, NVMe slot, device
        core, link and idle channel, none with waiters — so each hold
        starts the moment the previous one ends and the per-event chain's
        timing is the sum of its segments.  Tracing and the race monitor
        need every event, so either one keeps reads per-event.  Returns
        ``(duration_ns, plan)`` for :meth:`_settle_quiet_read`, or None.
        """
        sim = self.sim
        cpu = self.cpu
        slots = self.device.interface.queue_slots
        if (sim.trace is not None or sim.race is not None
                or not cpu.cores.grantable() or not slots.grantable()):
            return None
        lpns = list(lpns)
        device_read = self.device.plan_quiet_host_read(lpns)
        if device_read is None:
            return None
        submit_us, complete_us = self._driver_us()
        submit_us = cpu.work_us(submit_us)
        complete_us = cpu.work_us(complete_us)
        slot_ns = device_read[0]
        duration = us_to_ns(submit_us) + slot_ns + us_to_ns(complete_us)
        if sim.now + duration >= sim.quiet_until():
            return None
        return duration, (len(lpns), submit_us, slot_ns, device_read[1],
                          complete_us)

    def _settle_quiet_read(self, plan: tuple) -> None:
        """Move every counter and busy integral as the per-event read would
        have by its completion, in the same order (``cpu.busy_us`` is a
        float sum)."""
        pages, submit_us, slot_ns, device_plan, complete_us = plan
        self.cpu.settle_work(submit_us)
        self.device.interface.queue_slots.backfill_busy(slot_ns)
        self.device.settle_quiet_host_read(device_plan)
        self.cpu.settle_work(complete_us)
        self.reads += 1
        self.pages_read += pages

    def apread_pages(self, lpns: Sequence[int]) -> Event:
        """Asynchronous host read; returns the completion event."""
        return self.sim.process(self.pread_pages(lpns), name="apread")

    # ------------------------------------------------------------------ write
    def pwrite_pages(self, lpns: Sequence[int]) -> Generator:
        """Fiber: synchronous host write of logical pages."""
        submit_us, complete_us = self._driver_us()
        trace = self.sim.trace
        cmd_id = trace.next_id() if trace is not None else 0
        start_ns = self.sim.now if trace is not None else 0
        if trace is not None:
            trace.instant("nvme", "submit", self.trace_track,
                          cmd=cmd_id, pages=len(lpns))
        yield from self._driver_work(submit_us, "submit")
        slot_wait_ns = self.sim.now if trace is not None else 0
        yield from self.device.interface.acquire_slot()
        try:
            if trace is not None:
                if self.sim.now > slot_wait_ns:
                    trace.complete("nvme", "slot-wait", self.trace_track,
                                   slot_wait_ns, cmd=cmd_id)
                trace.instant("nvme", "fetch", self.trace_track, cmd=cmd_id)
                trace.instant("nvme", "execute", self.trace_track, cmd=cmd_id)
            yield from self.device.host_write(list(lpns))
        finally:
            self.device.interface.release_slot()
        yield from self._driver_work(complete_us, "complete")
        self.writes += 1
        self.pages_written += len(lpns)
        if trace is not None:
            trace.instant("nvme", "complete", self.trace_track, cmd=cmd_id)
            trace.complete("nvme", "write", self.trace_track, start_ns,
                           cmd=cmd_id, pages=len(lpns))
