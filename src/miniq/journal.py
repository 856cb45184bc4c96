"""Append-only event journal: one JSON document per line, fsync per append.

The daemon's job ledger is reconstructable from this file alone.  Sequence
numbers are gapless from 1; entries are never rewritten.  A partial final
line (torn by a crash mid-write) is tolerated and discarded on replay; any
other damage refuses recovery.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

from .errors import JournalCorrupt, ScriptError
from .jobspec import JobSpec, expect_type
from .sched import (
    TERMINAL_STATES,
    ClusterState,
    JobRecord,
    JobStatus,
    Node,
    status_from_code,
)

EVENT_SUBMITTED = "submitted"
EVENT_STARTED = "started"
EVENT_ENDED = "ended"
EVENT_SESSION_CREATED = "session_created"
EVENT_SESSION_ENDED = "session_ended"

_KNOWN_EVENTS = {
    EVENT_SUBMITTED,
    EVENT_STARTED,
    EVENT_ENDED,
    EVENT_SESSION_CREATED,
    EVENT_SESSION_ENDED,
}


class JournalEntry(namedtuple("JournalEntry", "seq at event data")):
    __slots__ = ()

    def to_json(self) -> str:
        doc = {"seq": self.seq, "at": self.at, "event": self.event, **self.data}
        return json.dumps(doc, separators=(",", ":"), sort_keys=True)


class Entries(list):
    """A journal file's entries in seq order, and what its tail needs before
    the next append: ``torn_at`` is the offset of a torn final write to cut
    off, ``unterminated`` marks a complete last entry whose newline was never
    written."""

    torn_at: int | None = None
    unterminated: bool = False


def read_entries(path: str) -> Entries:
    """Parse the journal, enforcing the gapless-seq invariant.

    An empty or missing file is an empty journal.  Only an incomplete final
    line is forgiven (its entry was never acknowledged to any client).
    """
    entries = Entries()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return entries
    end = raw.rfind(b"\n") + 1
    body, trailing = raw[:end], raw[end:]  # trailing: text after the last newline
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None or "\x00" in text or "\ufeff" in text:
        # json.loads would not read some line as plain UTF-8 (a BOM, or NULs
        # that mean UTF-16/32): let it decode each line as it always has.
        lines = body.split(b"\n")
    else:
        lines = text.split("\n")
    lines.pop()  # the empty piece after the last newline
    for index, line in enumerate(lines):
        if not line.strip():
            raise JournalCorrupt(f"blank journal line at {index + 1}", seq=index + 1)
        try:
            doc = json.loads(line)
        except ValueError:
            raise JournalCorrupt(f"unparsable journal line at {index + 1}", seq=index + 1) from None
        entries.append(_entry_from_doc(doc, index))
    if trailing:
        try:
            doc = json.loads(trailing)
        except ValueError:
            entries.torn_at = end  # torn final line: crash mid-append, discard
        else:
            entries.append(_entry_from_doc(doc, len(entries)))
            entries.unterminated = True
    return entries


def _repair_tail(path: str, entries: Entries) -> None:
    """Make the file safe to append to after a torn final write: cut off the
    text read_entries discarded, or add the newline a complete last entry
    lacks."""
    if entries.torn_at is None and not entries.unterminated:
        return
    with open(path, "r+b") as fh:
        if entries.torn_at is not None:
            fh.truncate(entries.torn_at)
        else:
            fh.seek(0, os.SEEK_END)
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


def _entry_from_doc(doc, index: int) -> JournalEntry:
    expected = index + 1
    if not isinstance(doc, dict):
        raise JournalCorrupt(f"journal line {expected} is not an object", seq=expected)
    seq = doc.pop("seq", None)
    if seq != expected or type(seq) is not int:
        raise JournalCorrupt(f"journal gap: expected seq {expected}, found {seq}", seq=expected)
    event = doc.pop("event", None)
    if type(event) is not str or event not in _KNOWN_EVENTS:
        raise JournalCorrupt(f"unknown journal event {event!r} at seq {seq}", seq=seq)
    at = doc.pop("at", 0.0)
    if type(at) is not float and type(at) is not int:
        raise JournalCorrupt(f"journal entry {seq} has a non-numeric time {at!r}", seq=seq)
    return JournalEntry(seq=seq, at=at, event=event, data=doc)


class Journal:
    """Single-writer append handle; every append is flushed and fsynced."""

    def __init__(self, path: str, next_seq: int = 1):
        self.path = path
        self._next_seq = next_seq
        self._fh = open(path, "ab")

    def append(self, event: str, data: dict, at: float) -> JournalEntry:
        entry = JournalEntry(seq=self._next_seq, at=at, event=event, data=data)
        self._fh.write(entry.to_json().encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._next_seq += 1
        return entry

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()


class RecoveredState:
    __slots__ = ("cluster", "lost_sessions", "next_seq")

    def __init__(self, cluster: ClusterState, lost_sessions: list[tuple[str, float]],
                 next_seq: int):
        self.cluster = cluster
        self.lost_sessions = lost_sessions  # (name, created_at)
        self.next_seq = next_seq  # the seq of the next entry to append


def recover(path: str, nodes: list[Node]) -> RecoveredState:
    """Rebuild daemon state by replaying the journal in sequence order.

    Jobs Running at the crash (Started without Ended) become
    Failed("daemon-restart"), and Pending jobs the given nodes can never hold
    Failed("unsatisfiable"); sessions without a SessionEnded entry are
    reported as lost.  The file is read once.  Replay writes no entry: once
    it succeeds, it only cuts off a torn final write or adds a complete last
    entry's missing newline, so that ``Journal(path, next_seq=...)`` can
    append.
    """
    entries = read_entries(path)
    # Fresh nodes, all slots free: the caller's may still carry the slots of
    # another daemon's jobs built from the same configuration.
    cluster = ClusterState([Node(node.id, node.slots_total, node.features) for node in nodes])
    sessions_open: dict[str, float] = {}
    for entry in entries:
        try:
            _replay(entry, cluster, sessions_open)
        except (KeyError, TypeError, ValueError, ScriptError) as exc:
            reason = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise JournalCorrupt(
                f"malformed {entry.event} entry at seq {entry.seq}: {reason}", seq=entry.seq
            ) from None

    # Anything still Running in the replay has no daemon watching it: a
    # clean shutdown killed it, and after a SIGKILL it may run on unwatched.
    # A Pending job the configured nodes can no longer hold would block the
    # head of the queue for good.
    for rec in cluster.jobs.values():
        if rec.state is JobStatus.RUNNING:
            rec.state = JobStatus.FAILED
            rec.reason = "daemon-restart"
        elif rec.state is JobStatus.PENDING and not cluster.satisfiable(rec.spec.resources):
            cluster.queue.remove(rec.id)
            rec.state = JobStatus.FAILED
            rec.reason = "unsatisfiable"

    _repair_tail(path, entries)
    return RecoveredState(
        cluster=cluster,
        lost_sessions=sorted(sessions_open.items()),
        next_seq=len(entries) + 1,
    )


def _replay(entry: JournalEntry, cluster: ClusterState, sessions_open: dict[str, float]) -> None:
    """Apply one entry.  A missing field raises KeyError, and a mistyped or
    impossible one TypeError, ValueError or the spec's ScriptError."""
    data = entry.data
    if entry.event in (EVENT_SESSION_CREATED, EVENT_SESSION_ENDED):
        name = expect_type(data["name"], str, "name")
        if entry.event == EVENT_SESSION_CREATED:
            sessions_open[name] = entry.at
        else:
            sessions_open.pop(name, None)
        return
    job_id = expect_type(data["job_id"], int, "job_id")
    if entry.event == EVENT_SUBMITTED:
        if job_id < cluster._next_id:  # ids are assigned in increasing order
            raise JournalCorrupt(
                f"entry {entry.seq} submits job {job_id} out of id order", seq=entry.seq
            )
        rec = JobRecord(
            id=job_id,
            spec=JobSpec.from_dict(expect_type(data["spec"], dict, "spec")),
            submit_dir=expect_type(data["submit_dir"], str, "submit_dir"),
            submit_time=entry.at,
        )
        cluster.jobs[job_id] = rec
        cluster.queue.append(job_id)
        cluster._next_id = job_id + 1
    elif entry.event == EVENT_STARTED:
        rec = _known_job(cluster, job_id, entry.seq)
        allocation = expect_type(data["allocation"], dict, "allocation")
        cluster.queue.remove(rec.id)  # ValueError unless the job is Pending
        rec.state = JobStatus.RUNNING
        rec.start_time = entry.at
        rec.allocation = allocation
    else:  # EVENT_ENDED
        rec = _known_job(cluster, job_id, entry.seq)
        state = status_from_code(data["state"])
        if state not in TERMINAL_STATES:
            raise ValueError(f"job {job_id} cannot end in state {state.code}")
        if rec.state is JobStatus.PENDING:
            cluster.queue.remove(rec.id)
        rec.state = state
        rec.end_time = entry.at
        rec.exit_code = data.get("exit_code")
        rec.reason = data.get("reason")


def _known_job(cluster: ClusterState, job_id: int, seq: int) -> JobRecord:
    rec = cluster.jobs.get(job_id)
    if rec is None:
        raise JournalCorrupt(f"entry {seq} references unknown job {job_id}", seq=seq)
    return rec
