"""Append-only event journal: one JSON document per line, fsync per append.

The daemon's job ledger is reconstructable from this file alone.  Sequence
numbers are gapless from 1; entries are never rewritten.  A partial final
line (torn by a crash mid-write) is tolerated and discarded on replay; any
other damage refuses recovery.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple

from .errors import InvalidField, JournalCorrupt, MiniqError, NoSuchJob
from .jobspec import REQUIRED, JobSpec, read_fields
from .sched import TERMINAL_STATES, ClusterState, JobRecord, JobStatus, Node, Outcome

EVENT_SUBMITTED = "submitted"
EVENT_STARTED = "started"
EVENT_ENDED = "ended"
EVENT_SESSION_CREATED = "session_created"
EVENT_SESSION_ENDED = "session_ended"
_MAX_TIME = sys.float_info.max  # compared, never converted: float() overflows on a 400-digit int
# json.dumps with any option builds a new encoder per call; this one is built once.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

# The fields of each event's entry beside its seq, at and event.
_EVENT_FIELDS = {
    EVENT_SUBMITTED: (("job_id", int, REQUIRED), ("spec", dict, REQUIRED),
                      ("submit_dir", str, REQUIRED)),
    EVENT_STARTED: (("job_id", int, REQUIRED), ("allocation", dict[str, int], REQUIRED)),
    EVENT_ENDED: (("job_id", int, REQUIRED), ("state", JobStatus, REQUIRED),
                  ("exit_code", int, None), ("reason", str, None)),
    EVENT_SESSION_CREATED: (("name", str, REQUIRED),),
    EVENT_SESSION_ENDED: (("name", str, REQUIRED),),
}


class JournalEntry(namedtuple("JournalEntry", "seq at event data")):
    __slots__ = ()

    def to_json(self) -> str:
        doc = {"seq": self.seq, "at": self.at, "event": self.event, **self.data}
        return _encode(doc)


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
    if type(event) is not str or event not in _EVENT_FIELDS:
        raise JournalCorrupt(f"unknown journal event {event!r} at seq {seq}", seq=seq)
    at = doc.pop("at", 0.0)
    if (type(at) is not float and type(at) is not int) or not -_MAX_TIME <= at <= _MAX_TIME:
        raise JournalCorrupt(f"journal entry {seq}: time {at!r} is not a finite float", seq=seq)
    return JournalEntry(seq=seq, at=at, event=event, data=doc)


class Journal:
    """Single-writer append handle; every append is flushed and fsynced.
    The event writers below are the only code that builds an entry."""

    def __init__(self, path: str, next_seq: int = 1):
        self.path = path
        self._next_seq = next_seq
        self._fh = open(path, "ab")

    def append(self, event: str, data: dict, at: float) -> JournalEntry:
        entry = JournalEntry(seq=self._next_seq, at=at, event=event, data=data)
        self._fh.write(entry.to_json().encode("utf-8") + b"\n")
        # The line is the file's now, whether or not the flush or the fsync
        # fails: the next entry must not reuse its seq.  A line that never
        # fully reaches the file is a torn tail, which recovery discards.
        self._next_seq += 1
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return entry

    def submitted(self, rec: JobRecord, at: float) -> JournalEntry:
        data = {"job_id": rec.id, "spec": rec.spec.to_dict(), "submit_dir": rec.submit_dir}
        return self.append(EVENT_SUBMITTED, data, at)

    def started(self, rec: JobRecord, at: float) -> JournalEntry:
        return self.append(EVENT_STARTED, {"job_id": rec.id, "allocation": rec.allocation}, at)

    def ended(self, rec: JobRecord, at: float) -> JournalEntry:
        data = {"job_id": rec.id, "state": rec.state.value, "exit_code": rec.exit_code,
                "reason": rec.reason}
        return self.append(EVENT_ENDED, data, at)

    def session_created(self, name: str, at: float) -> JournalEntry:
        return self.append(EVENT_SESSION_CREATED, {"name": name}, at)

    def session_ended(self, name: str, at: float) -> JournalEntry:
        return self.append(EVENT_SESSION_ENDED, {"name": name}, at)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()


# lost_sessions: (name, created_at) pairs; next_seq: the seq of the next
# entry to append.
RecoveredState = namedtuple("RecoveredState", "cluster lost_sessions next_seq")


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
        except (MiniqError, ValueError) as exc:
            raise JournalCorrupt(
                f"malformed {entry.event} entry at seq {entry.seq}: {exc}", seq=entry.seq
            ) from None

    # Anything still Running in the replay has no daemon watching it: a
    # clean shutdown killed it, and after a SIGKILL it may run on unwatched,
    # so its failure has no end time (now None).  A Pending job the
    # configured nodes can no longer hold would block the head of the queue
    # for good; it holds no slots, so failing it is an edit of its record.
    for rec in cluster.jobs.values():
        if rec.state is JobStatus.RUNNING:
            cluster.transition(rec.id, Outcome.daemon_failure("daemon-restart"), None)
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
    """Apply one entry through the ``ClusterState`` lifecycle the daemon used.
    A missing, mistyped or impossible field raises InvalidField or the spec's
    ScriptError, and an entry the lifecycle refuses ValueError, NoSuchJob or
    InvalidTransition."""
    event = entry.event
    fields = read_fields(entry.data, _EVENT_FIELDS[event])
    if event == EVENT_SUBMITTED:
        job_id, spec, submit_dir = fields
        cluster.enqueue(JobRecord(job_id, JobSpec.from_dict(spec), submit_dir,
                                  submit_time=entry.at))
    elif event == EVENT_STARTED:
        job_id, allocation = fields
        rec = cluster.jobs.get(job_id)
        if rec is None:
            raise NoSuchJob(f"no such job {job_id}")
        if not allocation or min(allocation.values()) < 1:
            raise InvalidField(f"allocation must bind at least one slot per node, got {allocation}")
        cluster._start(rec, allocation, entry.at)
    elif event == EVENT_ENDED:
        job_id, state, exit_code, reason = fields
        if state not in TERMINAL_STATES:
            raise InvalidField(f"no outcome ends a job in state {state.value!r}")
        cluster.transition(job_id, Outcome(state, exit_code, reason), entry.at)
    elif event == EVENT_SESSION_CREATED:
        sessions_open[fields[0]] = entry.at
    else:  # EVENT_SESSION_ENDED
        sessions_open.pop(fields[0], None)
