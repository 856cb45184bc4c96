"""Spans and counters recorded around calls into miniq, from outside it.

``install`` replaces a public function with a timing wrapper at the place
where its caller looks the name up (``miniq.daemon.launch_job``,
``ClusterState.tick``, ...), so no file of the program changes.  A span
records its name, start, end, parent and an optional tag (a request type, a
byte count, whether a pass started anything).  Parents come from a stack per
thread.  Spans stay in memory until the run ends; ``dump``/``load`` move them
out of the traced daemon.  A span's self time is its duration minus the time
its children cover.  ``first_fit`` is called once per queued job per pass,
so it is counted, not timed.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter

# Span fields, as stored in the lists ``Tracer.spans`` holds.
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, perf_counter(), 0.0, stack[-1] if stack else None, None]
        stack.append(span)
        return span

    def close(self, span: list, tag=None) -> None:
        span[END] = perf_counter()
        span[TAG] = tag
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Time every call of ``owner.attr``; ``tag(args, result)`` labels it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.close(span, tag(args, result) if tag else None)

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and the ones that returned non-None."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name] += 1
            if result is not None:
                counts[name + ".hits"] += 1
            return result

        setattr(owner, attr, counted)

    def frozen(self) -> list[tuple]:
        """Closed spans with the parent as an index into the list (or -1)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            (s[NAME], s[START], s[END], index.get(id(s[PARENT]), -1), s[TAG])
            for s in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.frozen(), "counts": dict(self.counts)}, fh)


def load(path) -> tuple[list[tuple], dict[str, int]]:
    with open(path) as fh:
        doc = json.load(fh)
    return [tuple(span) for span in doc["spans"]], doc["counts"]


class _CountingSocket:
    """Forwards ``sendall`` and counts the bytes, for ``protocol.bytes_out``."""

    __slots__ = ("sock", "sent")

    def __init__(self, sock):
        self.sock = sock
        self.sent = 0

    def sendall(self, data):
        self.sent += len(data)
        return self.sock.sendall(data)


class _TimedReader:
    """Times ``readline`` as a child span, so that the wait for the peer's
    next line is not counted as protocol work."""

    __slots__ = ("reader", "tracer")

    def __init__(self, reader, tracer: Tracer):
        self.reader = reader
        self.tracer = tracer

    def readline(self, limit=-1):
        span = self.tracer.open("protocol.readline")
        try:
            return self.reader.readline(limit)
        finally:
            self.tracer.close(span)


def _wrap_protocol(tracer: Tracer) -> None:
    from miniq import protocol

    send_message, read_message = protocol.send_message, protocol.read_message

    @functools.wraps(send_message)
    def traced_send(sock, message):
        counted = _CountingSocket(sock)
        span = tracer.open("protocol.send_message")
        try:
            send_message(counted, message)
        finally:
            tracer.close(span, counted.sent)

    @functools.wraps(read_message)
    def traced_read(reader):
        span = tracer.open("protocol.read_message")
        try:
            return read_message(_TimedReader(reader, tracer))
        finally:
            tracer.close(span)

    protocol.send_message = traced_send
    protocol.read_message = traced_read


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the daemon calls."""
    from miniq import daemon, jobspec, journal, runtime, sched

    tracer.wrap(jobspec, "parse_script", "jobspec.parse_script")
    tracer.wrap(daemon, "parse_script", "jobspec.parse_script")
    tracer.wrap(sched.ClusterState, "tick", "sched.tick", tag=lambda a, r: len(r or ()))
    tracer.wrap(sched.ClusterState, "submit", "sched.submit")
    tracer.wrap(sched.ClusterState, "snapshot", "sched.snapshot")
    tracer.wrap(sched, "shadow_time", "sched.shadow_time")
    tracer.count(sched, "first_fit", "sched.first_fit")
    tracer.wrap(journal.Journal, "append", "journal.append")
    tracer.wrap(journal, "recover", "journal.recover")
    tracer.wrap(journal, "read_entries", "journal.read_entries")
    tracer.wrap(daemon, "launch_job", "runtime.launch_job")
    tracer.wrap(daemon, "collect_exits", "runtime.collect_exits")
    tracer.wrap(daemon, "poll_walltime", "runtime.poll_walltime")
    tracer.wrap(runtime.RingBuffer, "append", "runtime.ring_append")
    tracer.wrap(runtime.Attachment, "read", "runtime.attachment_read",
                tag=lambda a, r: len(r) if r else None)
    tracer.wrap(daemon, "data_frame", "protocol.data_frame")
    _wrap_protocol(tracer)
    tracer.wrap(daemon.Daemon, "__init__", "daemon.init")
    tracer.wrap(daemon.Daemon, "tick_once", "daemon.tick_once")
    tracer.wrap(daemon.Daemon, "handle_request", "daemon.handle_request",
                tag=lambda a, r: a[1].get("type"))


def install_client(tracer: Tracer) -> None:
    """Wrap the client side the benchmark drives: connect and auth."""
    from miniq import cli

    tracer.wrap(cli.Client, "connect", "cli.connect")


class Spans:
    """Durations and self times by span name, in milliseconds."""

    def __init__(self, spans: list[tuple], counts: dict[str, int] | None = None):
        self.spans = spans
        self.counts = dict(counts or {})
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        # Keyed by span name, and by (name, tag) for tagged spans.
        self.ms: dict = defaultdict(list)
        self.self_ms: dict = defaultdict(list)
        self.tags: dict[str, list] = defaultdict(list)
        for i, span in enumerate(spans):
            name, tag = span[NAME], span[TAG]
            duration = (span[END] - span[START]) * 1e3
            self_time = duration - covered[i] * 1e3
            self.tags[name].append(tag)
            for key in (name, (name, tag)) if tag is not None else (name,):
                self.ms[key].append(duration)
                self.self_ms[key].append(self_time)

    @classmethod
    def merge(cls, traces: list[tuple[list[tuple], dict[str, int]]]) -> "Spans":
        """One view over several (spans, counts) pairs, e.g. one per round."""
        spans: list[tuple] = []
        counts: dict[str, int] = defaultdict(int)
        for trace_spans, trace_counts in traces:
            base = len(spans)
            spans += [(s[NAME], s[START], s[END], s[PARENT] + base if s[PARENT] >= 0 else -1,
                       s[TAG]) for s in trace_spans]
            for name, value in trace_counts.items():
                counts[name] += value
        return cls(spans, counts)

    def children_ms(self, parent: str, children: set[str]) -> list[float]:
        """Per ``parent`` span, the summed duration of its named children."""
        total = {i: 0.0 for i, span in enumerate(self.spans) if span[NAME] == parent}
        for span in self.spans:
            if span[NAME] in children and span[PARENT] in total:
                total[span[PARENT]] += (span[END] - span[START]) * 1e3
        return list(total.values())
