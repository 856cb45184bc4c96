"""Append-only event journal: one JSON document per line, fsync per append.

The daemon's job ledger is reconstructable from this file alone.  Sequence
numbers are gapless from 1; entries are never rewritten.  A partial final
line (torn by a crash mid-write) is tolerated and discarded on replay; any
other damage refuses recovery.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import JournalCorrupt
from .jobspec import JobSpec
from .sched import ClusterState, JobRecord, JobStatus, Node, status_from_code

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


@dataclass(frozen=True)
class JournalEntry:
    seq: int
    at: float
    event: str
    data: dict

    def to_json(self) -> str:
        doc = {"seq": self.seq, "at": self.at, "event": self.event, **self.data}
        return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def read_entries(path: str) -> list[JournalEntry]:
    """Parse the journal, enforcing the gapless-seq invariant.

    An empty or missing file is an empty journal.  Only an incomplete final
    line is forgiven (its entry was never acknowledged to any client).
    """
    entries: list[JournalEntry] = []
    if not os.path.exists(path):
        return entries
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        return entries
    lines = raw.split(b"\n")
    trailing = lines.pop()  # text after the last newline; must be empty
    for index, line in enumerate(lines):
        if not line.strip():
            raise JournalCorrupt(f"blank journal line at {index + 1}", seq=index + 1)
        try:
            doc = json.loads(line)
        except ValueError:
            raise JournalCorrupt(f"unparsable journal line at {index + 1}", seq=index + 1) from None
        entries.append(_entry_from_doc(doc, index))
    if trailing.strip():
        try:
            doc = json.loads(trailing)
        except ValueError:
            return entries  # torn final line: crash mid-append, discard
        entries.append(_entry_from_doc(doc, len(entries)))
    return entries


def _repair_tail(path: str, entries: list[JournalEntry]) -> None:
    """Make the file safe to append to after a torn final write.

    If the last line is a complete entry missing its newline, add the
    newline; if it is garbage that read_entries discarded, truncate it.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw or raw.endswith(b"\n"):
        return
    trailing = raw.rsplit(b"\n", 1)[-1]
    with open(path, "r+b") as fh:
        try:
            json.loads(trailing)
        except ValueError:
            fh.truncate(len(raw) - len(trailing))
        else:
            fh.seek(0, os.SEEK_END)
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


def _entry_from_doc(doc: dict, index: int) -> JournalEntry:
    expected = index + 1
    seq = doc.get("seq")
    if seq != expected:
        raise JournalCorrupt(f"journal gap: expected seq {expected}, found {seq}", seq=expected)
    event = doc.get("event")
    if event not in _KNOWN_EVENTS:
        raise JournalCorrupt(f"unknown journal event {event!r} at seq {seq}", seq=seq)
    data = {k: v for k, v in doc.items() if k not in ("seq", "at", "event")}
    return JournalEntry(seq=seq, at=doc.get("at", 0.0), event=event, data=data)


class Journal:
    """Single-writer append handle; every append is flushed and fsynced."""

    def __init__(self, path: str, next_seq: int = 1):
        self.path = path
        self._next_seq = next_seq
        self._fh = open(path, "ab")

    @classmethod
    def open(cls, path: str) -> "Journal":
        entries = read_entries(path)
        _repair_tail(path, entries)
        return cls(path, next_seq=len(entries) + 1)

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


@dataclass
class RecoveredState:
    cluster: ClusterState
    lost_sessions: list[tuple[str, float]]  # (name, created_at)


def recover(path: str, nodes: list[Node]) -> RecoveredState:
    """Rebuild daemon state by replaying the journal in sequence order.

    Jobs Running at the crash (Started without Ended) become
    Failed("daemon-restart"); sessions without a SessionEnded entry are
    reported as lost.  Replay never writes to the journal.
    """
    entries = read_entries(path)
    cluster = ClusterState(nodes)
    sessions_open: dict[str, float] = {}

    for entry in entries:
        data = entry.data
        if entry.event == EVENT_SUBMITTED:
            job_id = data["job_id"]
            rec = JobRecord(
                id=job_id,
                spec=JobSpec.from_dict(data["spec"]),
                submit_dir=data["submit_dir"],
                submit_time=entry.at,
            )
            cluster.jobs[job_id] = rec
            cluster.queue.append(job_id)
            cluster._next_id = max(cluster._next_id, job_id + 1)
        elif entry.event == EVENT_STARTED:
            rec = _known_job(cluster, data["job_id"], entry.seq)
            rec.state = JobStatus.RUNNING
            rec.start_time = entry.at
            rec.allocation = dict(data["allocation"])
            cluster.queue.remove(rec.id)
        elif entry.event == EVENT_ENDED:
            rec = _known_job(cluster, data["job_id"], entry.seq)
            if rec.state is JobStatus.PENDING:
                cluster.queue.remove(rec.id)
            rec.state = status_from_code(data["state"])
            rec.end_time = entry.at
            rec.exit_code = data.get("exit_code")
            rec.reason = data.get("reason")
        elif entry.event == EVENT_SESSION_CREATED:
            sessions_open[data["name"]] = entry.at
        elif entry.event == EVENT_SESSION_ENDED:
            sessions_open.pop(data["name"], None)

    # Child processes cannot survive the daemon: anything still Running in
    # the replay was killed with it.
    for rec in cluster.jobs.values():
        if rec.state is JobStatus.RUNNING:
            rec.state = JobStatus.FAILED
            rec.reason = "daemon-restart"

    return RecoveredState(
        cluster=cluster,
        lost_sessions=sorted(sessions_open.items()),
    )


def _known_job(cluster: ClusterState, job_id: int, seq: int) -> JobRecord:
    rec = cluster.jobs.get(job_id)
    if rec is None:
        raise JournalCorrupt(f"entry {seq} references unknown job {job_id}", seq=seq)
    return rec
