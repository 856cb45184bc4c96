"""The per-layer metrics, computed the same way on every workload.

Every workload reports every metric, so that runs of different workloads
can be read side by side.  A workload that makes no call of a function
reports 0 for it: no calls, no time and no count.  A share or a
per-unit figure whose base is 0 (hits per ``first_fit`` call when there
is no call, appends per job when there are no jobs) is 0 too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import tracing
from common import p50, pct


def _p50(values) -> float:
    return p50(values) if values else 0.0


def _p99(values) -> float:
    return pct(values, 0.99) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass
class Inputs:
    """What a workload measured in its traced run.

    ``work`` holds the spans of the workload's main phase (the daemon's, or
    the in-process replay's); ``startup`` those of the daemon starts whose
    recovery is reported (``churn``: the restarts on the burst's journal;
    ``attach``: each round's fresh start); ``client`` the client's own.
    """

    rounds: int
    work: tracing.Spans
    startup: tracing.Spans = field(default_factory=lambda: tracing.Spans([]))
    client: tracing.Spans = field(default_factory=lambda: tracing.Spans([]))
    jobs: int = 0               # jobs submitted to the daemon
    journal_bytes: int = 0      # the daemon's journal size, summed over rounds
    cpu_s: float = 0.0          # the daemon's user plus system CPU, summed over rounds
    mb_streamed: float = 0.0    # session bytes sent to clients, live and replayed, in MB
    live_chunks: list[int] = field(default_factory=list)  # sizes of the live attach's reads
    submit_rtt_ms: list[float] = field(default_factory=list)  # client round trips of submit


def metrics(m: Inputs) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    work, n = m.work, m.rounds
    passes = work.tags["sched.tick"]
    fit_calls = work.counts.get("sched.first_fit", 0)
    appends = work.ms["journal.append"]
    submit = work.ms["daemon.handle_request", "submit"]
    chunks = m.live_chunks
    return {
        "jobspec.parse_us": (_p50(work.ms["jobspec.parse_script"]) * 1e3, "us"),
        "sched.pass_ms": (_p50(work.ms["sched.tick"]), "ms"),
        "sched.pass_p99_ms": (_p99(work.ms["sched.tick"]), "ms"),
        "sched.passes": (len(passes) / n, "count"),
        "sched.starting_pass_ratio": (_share(sum(1 for k in passes if k), len(passes)), "ratio"),
        "sched.first_fit_calls": (fit_calls / n, "count"),
        "sched.first_fit_hit_ratio":
            (_share(work.counts.get("sched.first_fit.hits", 0), fit_calls), "ratio"),
        "sched.shadow_ms": (_p50(work.ms["sched.shadow_time"]), "ms"),
        "sched.shadow_calls": (len(work.ms["sched.shadow_time"]) / n, "count"),
        "sched.snapshot_ms": (_p50(work.ms["sched.snapshot"]), "ms"),
        "journal.append_ms": (_p50(appends), "ms"),
        "journal.append_p99_ms": (_p99(appends), "ms"),
        "journal.appends_per_job": (_share(len(appends), m.jobs), "count"),
        "journal.bytes_per_job": (_share(m.journal_bytes, m.jobs), "B"),
        "journal.recover_ms": (_p50(m.startup.ms["journal.recover"]), "ms"),
        "journal.read_entries_calls": (_share(len(m.startup.ms["journal.read_entries"]),
                                              len(m.startup.ms["daemon.init"])), "count"),
        "runtime.launch_ms": (_p50(work.ms["runtime.launch_job"]), "ms"),
        "runtime.launch_p99_ms": (_p99(work.ms["runtime.launch_job"]), "ms"),
        "runtime.reap_ms": (_p50(work.children_ms(
            "daemon.tick_once", {"runtime.collect_exits", "runtime.poll_walltime"})), "ms"),
        "runtime.ring_append_us": (_p50(work.ms["runtime.ring_append"]) * 1e3, "us"),
        "runtime.chunks": (len(chunks) / n, "count"),
        "runtime.chunk_kb": (_share(sum(chunks), len(chunks)) / 1024, "KiB"),
        "protocol.send_ms": (_p50(work.ms["protocol.send_message"]), "ms"),
        "protocol.bytes_out": (sum(work.tags["protocol.send_message"]) / n, "B"),
        "protocol.read_ms": (_p50(work.self_ms["protocol.read_message"]), "ms"),
        "protocol.frame_ms": (_p50(work.ms["protocol.data_frame"]), "ms"),
        "daemon.tick_ms": (_p50(work.ms["daemon.tick_once"]), "ms"),
        "daemon.tick_p99_ms": (_p99(work.ms["daemon.tick_once"]), "ms"),
        "daemon.ticks": (len(work.ms["daemon.tick_once"]) / n, "count"),
        "daemon.request_ms.submit": (_p50(submit), "ms"),
        "daemon.request_ms.status": (_p50(work.ms["daemon.handle_request", "status"]), "ms"),
        "daemon.request_ms.attach": (_p50(work.ms["daemon.handle_request", "attach"]), "ms"),
        # The lock wait falls on the few submits that arrive during a tick, so
        # it shows in the tail of the self time, not in its median.
        "daemon.submit_self_ms":
            (_p99(work.self_ms["daemon.handle_request", "submit"]), "ms"),
        "daemon.init_ms": (_p50(m.startup.ms["daemon.init"]), "ms"),
        "daemon.cpu_ms_per_job": (_share(m.cpu_s * 1e3, m.jobs), "ms"),
        "daemon.cpu_ms_per_mb": (_share(m.cpu_s * 1e3, m.mb_streamed), "ms"),
        "cli.connect_ms": (_p50(m.client.ms["cli.connect"]), "ms"),
        "cli.wire_ms": (_p50(m.submit_rtt_ms) - _p50(submit) if submit else 0.0, "ms"),
    }
