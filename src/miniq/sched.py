"""Cluster and queue state: FIFO scheduling with EASY backfill.

The scheduler owns a modeled node inventory and the job lifecycle state
machine.  Placement is first-fit in node configuration order with no slot
aggregation across nodes.  When the head of the queue cannot start, a single
shadow reservation is computed for it (the earliest instant it is guaranteed
startable, assuming running jobs use their full walltime) and later queued
jobs may start early only if they cannot disturb that reservation.

All operations take an explicit ``now`` so time is injected by the caller;
state mutation is meant to be serialized by a single writer.
"""

from __future__ import annotations

import bisect
import enum
import json
from collections import namedtuple

from .errors import InvalidTransition, NoSuchJob, Unsatisfiable
from .jobspec import JobSpec, ResourceRequest

# A placed request: node id -> slots bound on that node.
Allocation = dict[str, int]


class JobStatus(enum.Enum):
    PENDING = "PD"
    RUNNING = "R"
    COMPLETED = "CD"
    FAILED = "F"
    TIMED_OUT = "TO"
    CANCELLED = "CA"

    @property
    def code(self) -> str:
        return self.value


TERMINAL_STATES = frozenset(
    {JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.TIMED_OUT, JobStatus.CANCELLED}
)

_CODE_TO_STATUS = {status.code: status for status in JobStatus}


def status_from_code(code: str) -> JobStatus:
    try:
        return _CODE_TO_STATUS[code]
    except (KeyError, TypeError):  # TypeError: a code that cannot be hashed
        raise ValueError(f"unknown state code {code!r}") from None


class Node:
    __slots__ = ("id", "slots_total", "features", "slots_free")

    def __init__(self, id: str, slots_total: int, features: frozenset[str] = frozenset(),
                 slots_free: int = -1):  # -1 means "all free"
        if slots_total < 1:
            raise ValueError(f"node {id} must have at least one slot")
        self.id = id
        self.slots_total = slots_total
        self.features = features
        self.slots_free = slots_total if slots_free < 0 else slots_free


class Outcome(namedtuple("Outcome", "kind exit_code reason", defaults=(None, None))):
    """What ended (or tried to end) a job's run: ``kind`` is exit, timeout,
    cancel or daemon_failure."""

    __slots__ = ()

    @classmethod
    def exit(cls, code: int) -> "Outcome":
        return cls(kind="exit", exit_code=code)

    @classmethod
    def timeout(cls) -> "Outcome":
        return cls(kind="timeout")

    @classmethod
    def cancel(cls) -> "Outcome":
        return cls(kind="cancel")

    @classmethod
    def daemon_failure(cls, reason: str) -> "Outcome":
        return cls(kind="daemon_failure", reason=reason)

    @classmethod
    def ending_in(cls, code: str, exit_code: int | None, reason: str | None) -> "Outcome":
        """The outcome that ended a job in the final state ``code``, as its
        ``ended`` entry records it."""
        if code not in _CODE_TO_OUTCOME:  # TypeError if code cannot be hashed
            raise ValueError(f"no outcome ends a job in state {code!r}")
        return cls(_CODE_TO_OUTCOME[code], exit_code, reason)


_OUTCOME_TO_STATUS = {
    "exit": JobStatus.COMPLETED,
    "timeout": JobStatus.TIMED_OUT,
    "cancel": JobStatus.CANCELLED,
    "daemon_failure": JobStatus.FAILED,
}
# One outcome kind per final state, so a journaled state names its outcome.
_CODE_TO_OUTCOME = {status.code: kind for kind, status in _OUTCOME_TO_STATUS.items()}


class JobRecord:
    __slots__ = ("id", "spec", "submit_dir", "state", "submit_time", "start_time",
                 "end_time", "allocation", "exit_code", "reason", "row", "proc")

    def __init__(
        self,
        id: int,
        spec: JobSpec,
        submit_dir: str,
        state: JobStatus = JobStatus.PENDING,
        submit_time: float = 0.0,
        start_time: float | None = None,
        end_time: float | None = None,
        allocation: Allocation | None = None,
        exit_code: int | None = None,
        reason: str | None = None,
        row: StatusRow | None = None,
    ):
        self.id = id
        self.spec = spec
        self.submit_dir = submit_dir
        self.state = state
        self.submit_time = submit_time
        self.start_time = start_time
        self.end_time = end_time
        self.allocation = allocation
        self.exit_code = exit_code
        self.reason = reason
        # The status row of a finished job, which never changes again.
        self.row = row
        # The leader process while the job runs, set and cleared by the
        # daemon; the scheduler never reads it.
        self.proc = None

    def __eq__(self, other):
        """Field by field, leaving out ``row``, a cache of the others, and
        ``proc``, which replay cannot rebuild."""
        if other.__class__ is not JobRecord:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__[:-2])


StartEvent = namedtuple("StartEvent", "job_id allocation")


class StatusRow:
    """One job's line in a ``status`` listing; treated as immutable."""

    __slots__ = ("id", "name", "state", "nodes", "slots_per_node", "elapsed_s", "limit_s",
                 "_json")

    def __init__(self, id: int, name: str, state: str, nodes: int, slots_per_node: int,
                 elapsed_s: int | None, limit_s: int):
        self.id = id
        self.name = name
        self.state = state
        self.nodes = nodes
        self.slots_per_node = slots_per_node
        self.elapsed_s = elapsed_s
        self.limit_s = limit_s
        self._json = None

    def __eq__(self, other):
        if other.__class__ is not StatusRow:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "nodes": self.nodes,
            "slots_per_node": self.slots_per_node,
            "elapsed_s": self.elapsed_s,
            "limit_s": self.limit_s,
        }

    @property
    def json(self) -> str:
        """The row as compact JSON, as ``json.dumps`` writes it on the wire;
        encoded on first use and kept, so a finished job's row is encoded once."""
        if self._json is None:
            self._json = json.dumps(self.to_dict(), separators=(",", ":"))
        return self._json


def status_row(rec: JobRecord, now: float) -> StatusRow:
    """The job's status row at ``now``; a finished job's row is kept on its
    record and reused."""
    if rec.row is not None:
        return rec.row
    if rec.state is JobStatus.RUNNING:
        elapsed = int(now - rec.start_time)
    elif rec.start_time is not None and rec.end_time is not None:
        elapsed = int(rec.end_time - rec.start_time)
    else:
        elapsed = None
    row = StatusRow(
        id=rec.id,
        name=rec.spec.name,
        state=rec.state.code,
        nodes=rec.spec.resources.nodes,
        slots_per_node=rec.spec.resources.slots_per_node,
        elapsed_s=elapsed,
        limit_s=rec.spec.walltime_s,
    )
    if rec.state in TERMINAL_STATES:
        rec.row = row
    return row


def first_fit(request: ResourceRequest, nodes: list[Node]) -> Allocation | None:
    """Pick the first ``request.nodes`` nodes that each hold a full slot group.

    Scans in configuration order; a node qualifies if it has at least
    ``slots_per_node`` free slots and carries every requested feature.  Slots
    are never aggregated across nodes.  Returns None when no placement exists.
    """
    needed = request.nodes
    slots = request.slots_per_node
    features = request.features
    chosen: Allocation = {}
    for node in nodes:
        if node.slots_free >= slots and features <= node.features:
            chosen[node.id] = slots
            if len(chosen) == needed:
                return chosen
    return None


def shadow_time(head_request: ResourceRequest, state: "ClusterState") -> tuple[float, frozenset[str]]:
    """Earliest instant the head request is guaranteed startable, plus the
    nodes its reservation would use.

    Assumes every running job releases its slots exactly at
    start_time + walltime.  Free slots only grow as releases apply, so each
    node carrying the head's features becomes ready (holds a full slot group)
    at one instant: now, or a release instant.  One sweep over the releases
    in time order finds the instant by which ``head_request.nodes`` nodes are
    ready; every release sharing that instant is applied first, and the
    reservation is the first ready nodes in configuration order, as
    ``first_fit`` would pick them at that instant.
    """
    needed = head_request.nodes
    slots = head_request.slots_per_node
    features = head_request.features
    eligible = [node for node in state.nodes if features <= node.features]
    # Eligible nodes still short of a group -> their free slots.
    short = {node.id: node.slots_free for node in eligible if node.slots_free < slots}
    ready = len(eligible) - len(short)
    when = state.clock
    if ready < needed:
        for end, _, allocation in state.releases:
            if ready >= needed and end != when:
                break  # every release at the shadow instant has been applied
            when = end
            for node_id, freed in allocation.items():
                if node_id in short:
                    free = short[node_id] + freed
                    if free >= slots:
                        del short[node_id]
                        ready += 1
                    else:
                        short[node_id] = free
        if ready < needed:
            raise Unsatisfiable("head request cannot fit even on an idle cluster")
    reserved = [node.id for node in eligible if node.id not in short][:needed]
    return when, frozenset(reserved)


class ClusterState:
    """Node inventory, FIFO queue and job ledger; single-writer."""

    def __init__(self, nodes: list[Node]):
        if not nodes:
            raise ValueError("cluster needs at least one node")
        self.nodes = nodes
        self.queue: list[int] = []
        self.jobs: dict[int, JobRecord] = {}
        self.running: dict[int, JobRecord] = {}  # the Running subset of jobs
        # (start_time + walltime_s, id, allocation) per Running job, ascending.
        self.releases: list[tuple[float, int, Allocation]] = []
        # The last queued id examined by the last pass, if no job examined
        # up to it can start until a job ends: the pass started nothing, or
        # it examined the whole queue and no start took slots on a node a
        # held job was placed on (see ``tick``).
        self._settled: int | None = None
        # (head id, shadow time, reserved nodes) of the last reservation made;
        # it holds until a job ends or the head changes (see ``tick``).
        self._reservation: tuple[int, float, frozenset[str]] | None = None
        self.clock = 0.0
        self._next_id = 1
        self._by_id = {node.id: node for node in nodes}
        # Every node's slots_free, ascending; ``_bind`` keeps it in step.
        self._free = sorted(node.slots_free for node in nodes)
        # Shapes known to fit an idle cluster.  Nodes never change their
        # slots_total or features, so the answer holds for good; only True is
        # kept, which bounds the set by the node inventory.
        self._satisfiable: set[ResourceRequest] = set()

    # -- submission -------------------------------------------------- #

    def satisfiable(self, request: ResourceRequest) -> bool:
        if request in self._satisfiable:
            return True
        eligible = sum(
            1
            for node in self.nodes
            if node.slots_total >= request.slots_per_node and request.features <= node.features
        )
        if eligible < request.nodes:
            return False
        self._satisfiable.add(request)
        return True

    def submit(self, spec: JobSpec, submit_dir: str, now: float) -> int:
        """Append a new Pending job; ids are strictly increasing from 1.

        Requests that exceed what the cluster could ever provide are rejected
        here rather than pending forever.
        """
        if not self.satisfiable(spec.resources):
            raise Unsatisfiable(
                f"request {spec.resources.nodes}x{spec.resources.slots_per_node}"
                f"{' with features ' + ','.join(sorted(spec.resources.features)) if spec.resources.features else ''}"
                " exceeds cluster capacity"
            )
        rec = JobRecord(id=self._next_id, spec=spec, submit_dir=submit_dir, submit_time=now)
        self.enqueue(rec)
        return rec.id

    def enqueue(self, rec: JobRecord) -> None:
        """Queue a new Pending job under its own id, above every id before."""
        if rec.id < self._next_id:
            raise ValueError(f"job {rec.id} is out of id order")
        self._next_id = rec.id + 1
        self.jobs[rec.id] = rec
        self.queue.append(rec.id)

    # -- scheduling pass ---------------------------------------------- #

    def tick(self, now: float, *, backfill: bool = True) -> list[StartEvent]:
        """One scheduling pass at instant ``now``.

        Starts head jobs while they fit; when the head is blocked, computes
        its shadow reservation and backfills later jobs that either finish by
        the shadow time or avoid the reserved nodes entirely.  One pass per
        tick, strict queue order.  A request for N nodes x S slots, the
        head's included, is probed with ``first_fit`` only if N entries of
        ``_free`` are S or more, features aside.

        After a pass that started nothing, later passes examine only the jobs
        submitted since, until a job starts or ends: free slots change only
        then, and a job held back by the reservation stays held back as time
        passes, since ``now + walltime_s`` only grows.  A pass over the whole
        queue that started jobs settles it the same way, unless a backfill
        start took slots on a node where a held job was placed: free slots
        only shrink until a job ends, so a request that found no placement
        finds none later, and ``first_fit`` hands a held job the same nodes
        while none of them loses slots.

        The head's reservation is kept across passes and backfill starts
        until a job ends or the head changes: a backfilled job either ends by
        the shadow time or stays off the reserved nodes, so at the shadow
        time the reserved nodes are still the first ready ones, and no
        instant before it gains a ready node.
        """
        if now < self.clock:
            raise ValueError(f"clock went backwards: {now} < {self.clock}")
        self.clock = now
        events: list[StartEvent] = []
        free = self._free
        # Only a pass over the whole queue has seen where every held job
        # was placed.
        settles = self._settled is None

        if settles:
            while self.queue:
                head = self.jobs[self.queue[0]]
                request = head.spec.resources
                if len(free) - bisect.bisect_left(free, request.slots_per_node) < request.nodes:
                    break
                allocation = first_fit(request, self.nodes)
                if allocation is None:
                    break
                events.append(self._start(head, allocation, now))
            if not self.queue:
                return events
            last = self.queue[0]
            rest = 1
        else:
            last = self._settled
            rest = bisect.bisect_right(self.queue, last)  # the queue ascends by id

        if backfill and rest < len(self.queue):
            last = self.queue[-1]
            # Free slots only shrink during the pass, so a shape that found
            # no placement finds none for the rest of it.  A placement found
            # holds until the next start; until then, later jobs of its shape
            # reuse it.  The reservation is looked up at the first placement,
            # which precedes every backfill start.
            unplaceable: set[ResourceRequest] = set()
            placed: dict[ResourceRequest, Allocation] = {}
            held: set[str] = set()  # the nodes of every placement held back
            shadow = None
            for job_id in self.queue[rest:]:
                rec = self.jobs[job_id]
                request = rec.spec.resources
                if request in unplaceable:
                    continue
                allocation = placed.get(request)
                if allocation is None:
                    with_group = len(free) - bisect.bisect_left(free, request.slots_per_node)
                    if with_group >= request.nodes:
                        allocation = first_fit(request, self.nodes)
                    if allocation is None:
                        unplaceable.add(request)
                        continue
                    placed[request] = allocation
                if shadow is None:
                    head_id = self.queue[0]
                    if self._reservation is None or self._reservation[0] != head_id:
                        self._reservation = (head_id, *shadow_time(
                            self.jobs[head_id].spec.resources, self))
                    _, shadow, reserved = self._reservation
                ends_in_time = now + rec.spec.walltime_s <= shadow
                if ends_in_time or reserved.isdisjoint(allocation):
                    settles = settles and held.isdisjoint(allocation)
                    events.append(self._start(rec, allocation, now))
                    placed.clear()
                else:
                    held.update(allocation)
        if settles or not events:
            self._settled = last
        return events

    def _start(self, rec: JobRecord, allocation: Allocation, now: float) -> StartEvent:
        self.queue.remove(rec.id)  # ValueError unless the job is Pending
        self._bind(allocation, -1)
        rec.state = JobStatus.RUNNING
        rec.start_time = now
        rec.allocation = allocation
        self.running[rec.id] = rec
        bisect.insort(self.releases, (now + rec.spec.walltime_s, rec.id, allocation))
        self._settled = None
        return StartEvent(job_id=rec.id, allocation=allocation)

    def _bind(self, allocation: Allocation, sign: int) -> None:
        """Take (``sign`` -1) or give back (+1) an allocation's slots, skipping
        nodes no longer configured, which only a replayed allocation names."""
        by_id = self._by_id
        free = self._free
        for node_id, slots in allocation.items():
            node = by_id.get(node_id)
            if node is not None:
                del free[bisect.bisect_left(free, node.slots_free)]
                node.slots_free += sign * slots
                bisect.insort(free, node.slots_free)

    # -- lifecycle ----------------------------------------------------- #

    def transition(self, job_id: int, outcome: Outcome, now: float | None) -> JobRecord:
        """Apply a lifecycle outcome; frees the allocation when leaving Running.
        ``now`` becomes the job's end time.

        Illegal transitions raise InvalidTransition and leave state unchanged.
        """
        rec = self.jobs.get(job_id)
        if rec is None:
            raise NoSuchJob(f"no such job {job_id}")
        target = _OUTCOME_TO_STATUS[outcome.kind]
        # Every outcome may end a Running job; a Pending one accepts only a cancel.
        if rec.state is JobStatus.RUNNING:
            self._bind(rec.allocation, 1)
            del self.running[job_id]
            releases = self.releases
            del releases[bisect.bisect_left(releases, (rec.start_time + rec.spec.walltime_s,
                                                       job_id))]
        elif rec.state is JobStatus.PENDING and target is JobStatus.CANCELLED:
            self.queue.remove(job_id)
        else:
            raise InvalidTransition(
                f"job {job_id}: {rec.state.name} does not accept {outcome.kind}"
            )
        self._settled = None
        self._reservation = None
        rec.state = target
        rec.end_time = now
        rec.exit_code = outcome.exit_code
        rec.reason = outcome.reason
        return rec

    # -- reporting ------------------------------------------------------ #

    def snapshot(
        self,
        now: float,
        *,
        states: set[JobStatus] | None = None,
        job_id: int | None = None,
    ) -> list[StatusRow]:
        """Status rows ascending by id, optionally filtered by state or id.

        ``jobs`` holds ids in ascending order (see ``assert_conservation``),
        so no sort is needed; filters apply before any row is built.
        """
        if job_id is None:
            recs = self.jobs.values()
        else:
            # An id off the wire that is not an int (true, 1.0, [1]) matches no job.
            rec = self.jobs.get(job_id) if type(job_id) is int else None
            recs = () if rec is None else (rec,)
        return [
            status_row(rec, now) for rec in recs if states is None or rec.state in states
        ]

    # -- invariants ------------------------------------------------------ #

    def assert_conservation(self) -> None:
        """slots_total - slots_free on each node equals the slots bound to it
        by Running jobs, and ``_free`` holds every node's slots_free in
        ascending order; ``running`` holds exactly the Running records, and
        ``releases`` each of them once, in end order, with its allocation; jobs
        iterate in ascending id order; queue holds exactly the Pending ids in
        ascending order."""
        ids = list(self.jobs)
        if ids != sorted(ids):
            raise AssertionError(f"jobs iterate as {ids}, not in ascending id order")
        running = {jid: rec for jid, rec in self.jobs.items() if rec.state is JobStatus.RUNNING}
        if self.running != running:
            raise AssertionError(
                f"running index {sorted(self.running)} != Running ids {sorted(running)}"
            )
        releases = sorted((rec.start_time + rec.spec.walltime_s, rec.id, rec.allocation)
                          for rec in running.values())
        if self.releases != releases:
            raise AssertionError(f"releases {self.releases} != Running jobs by end {releases}")
        bound: dict[str, int] = {node.id: 0 for node in self.nodes}
        for rec in running.values():
            for node_id, slots in rec.allocation.items():
                bound[node_id] += slots
        for node in self.nodes:
            used = node.slots_total - node.slots_free
            if used != bound[node.id]:
                raise AssertionError(
                    f"node {node.id}: {used} slots used but {bound[node.id]} bound"
                )
            if node.slots_free < 0 or node.slots_free > node.slots_total:
                raise AssertionError(f"node {node.id}: slots_free {node.slots_free} out of range")
        free = sorted(node.slots_free for node in self.nodes)
        if self._free != free:
            raise AssertionError(f"free-slot index {self._free} != nodes' slots_free {free}")
        pending = [jid for jid, rec in self.jobs.items() if rec.state is JobStatus.PENDING]
        if self.queue != pending:
            raise AssertionError(f"queue {self.queue} != pending ids {pending}")
