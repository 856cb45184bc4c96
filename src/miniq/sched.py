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

# json.dumps with any option builds a new encoder per call; this one is built once.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class JobStatus(enum.Enum):
    PENDING = "PD"
    RUNNING = "R"
    COMPLETED = "CD"
    FAILED = "F"
    TIMED_OUT = "TO"
    CANCELLED = "CA"


TERMINAL_STATES = frozenset(
    {JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.TIMED_OUT, JobStatus.CANCELLED}
)


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


class Outcome(namedtuple("Outcome", "state exit_code reason", defaults=(None, None))):
    """What ended (or tried to end) a job's run: ``state`` is the terminal
    state it ends the job in."""

    __slots__ = ()

    @classmethod
    def exit(cls, code: int) -> "Outcome":
        return cls(JobStatus.COMPLETED, exit_code=code)

    @classmethod
    def timeout(cls) -> "Outcome":
        return cls(JobStatus.TIMED_OUT)

    @classmethod
    def cancel(cls) -> "Outcome":
        return cls(JobStatus.CANCELLED)

    @classmethod
    def daemon_failure(cls, reason: str) -> "Outcome":
        return cls(JobStatus.FAILED, reason=reason)


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
        # (state, status row text) while the row cannot change: see status_row.
        self.row = None
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


def status_row(rec: JobRecord, now: float) -> str:
    """The job's row in a ``status`` listing at ``now``, as compact JSON
    text.  A Pending or finished job's row cannot change while its state
    holds, so it is kept on the record with that state and served until the
    state moves on."""
    state = rec.state
    kept = rec.row
    if kept is not None and kept[0] is state:
        return kept[1]
    if state is JobStatus.RUNNING:
        elapsed = int(now - rec.start_time)
    elif rec.start_time is not None and rec.end_time is not None:
        elapsed = int(rec.end_time - rec.start_time)
    else:
        elapsed = None
    spec = rec.spec
    resources = spec.resources
    # The text _encode gives the row's dict, built without the dict: only
    # the name needs quoting, and every other value is an int or a state code.
    text = (f'{{"id":{rec.id},"name":{_encode(spec.name)},"state":"{state.value}",'
            f'"nodes":{resources.nodes},"slots_per_node":{resources.slots_per_node},'
            f'"elapsed_s":{"null" if elapsed is None else elapsed},'
            f'"limit_s":{spec.walltime_s}}}')
    if state is not JobStatus.RUNNING:
        rec.row = (state, text)
    return text


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
        for end, _, rec in state.releases:
            if ready >= needed and end != when:
                break  # every release at the shadow instant has been applied
            when = end
            for node_id, freed in rec.allocation.items():
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
        # (start_time + walltime_s, id, record) per Running job, ascending:
        # the one index of Running jobs.
        self.releases: list[tuple[float, int, JobRecord]] = []
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
        """One scheduling pass at instant ``now``: one walk over the queue.

        Until a job fails to place, each job that fits starts as the head.
        From then on the head is blocked: the walk computes its shadow
        reservation and starts a later job that fits only if it finishes by
        the shadow time or avoids the reserved nodes entirely (EASY
        backfill); with ``backfill=False`` the walk stops at the blocked
        head.  A request for N nodes x S slots is probed with ``first_fit``
        only if N entries of ``_free`` are S or more, features aside.

        After a pass that started nothing, later passes walk only the jobs
        submitted since, with the head already blocked, until a job starts
        or ends: free slots change only then, and a job held back by the
        reservation stays held back as time passes, since
        ``now + walltime_s`` only grows.  A pass over the whole queue that
        started jobs settles it the same way, unless a backfill start took
        slots on a node where a held job was placed: free slots only shrink
        until a job ends, so a request that found no placement finds none
        later, and ``first_fit`` hands a held job the same nodes while none
        of them loses slots.

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
        queue = self.queue
        # Only a pass over the whole queue has seen where every held job
        # was placed.
        settles = self._settled is None
        if settles:
            ids, blocked = queue[:], False
        else:
            # The head is blocked and every job up to _settled stays as the
            # last pass left it; in FIFO mode nothing behind the head starts.
            ids = queue[bisect.bisect_right(queue, self._settled):] if backfill else []
            blocked = True
        # Free slots only shrink during the pass, so a shape that found no
        # placement finds none for the rest of it.  A placement found holds
        # until the next start; until then, later jobs of its shape reuse it.
        unplaceable: set[ResourceRequest] = set()
        placed: dict[ResourceRequest, Allocation] = {}
        held: set[str] = set()  # the nodes of every placement held back
        shadow = None
        job_id = self._settled  # after the walk, the last id it examined
        for job_id in ids:
            rec = self.jobs[job_id]
            request = rec.spec.resources
            if request in unplaceable:
                continue
            allocation = placed.get(request)
            if allocation is None:
                if len(free) - bisect.bisect_left(free, request.slots_per_node) >= request.nodes:
                    allocation = first_fit(request, self.nodes)
                if allocation is None:
                    unplaceable.add(request)
                    blocked = True
                    if not backfill:
                        break
                    continue
                placed[request] = allocation
            if blocked:
                # Looked up at the first placement behind the blocked head,
                # which precedes every backfill start.
                if shadow is None:
                    head_id = queue[0]
                    if self._reservation is None or self._reservation[0] != head_id:
                        self._reservation = (head_id, *shadow_time(
                            self.jobs[head_id].spec.resources, self))
                    _, shadow, reserved = self._reservation
                if now + rec.spec.walltime_s > shadow and not reserved.isdisjoint(allocation):
                    held.update(allocation)
                    continue
            settles = settles and held.isdisjoint(allocation)
            events.append(self._start(rec, allocation, now))
            placed.clear()
        if blocked and (settles or not events):
            self._settled = job_id
        return events

    def _start(self, rec: JobRecord, allocation: Allocation, now: float) -> StartEvent:
        self.queue.remove(rec.id)  # ValueError unless the job is Pending
        self._bind(allocation, -1)
        rec.state = JobStatus.RUNNING
        rec.start_time = now
        rec.allocation = allocation
        bisect.insort(self.releases, (now + rec.spec.walltime_s, rec.id, rec))
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
        # Every outcome may end a Running job; a Pending one accepts only a cancel.
        if rec.state is JobStatus.RUNNING:
            self._bind(rec.allocation, 1)
            releases = self.releases
            del releases[bisect.bisect_left(releases, (rec.start_time + rec.spec.walltime_s,
                                                       job_id))]
        elif rec.state is JobStatus.PENDING and outcome.state is JobStatus.CANCELLED:
            self.queue.remove(job_id)
        else:
            raise InvalidTransition(
                f"job {job_id}: {rec.state.name} cannot become {outcome.state.name}"
            )
        self._settled = None
        self._reservation = None
        rec.state = outcome.state
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
    ) -> list[str]:
        """Status rows, as JSON text, ascending by id, optionally filtered by
        state or id.

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
        ascending order; ``releases`` holds each Running job once, in end
        order, with the very record ``jobs`` holds; jobs iterate in ascending
        id order; queue holds exactly the Pending ids in ascending order."""
        ids = list(self.jobs)
        if ids != sorted(ids):
            raise AssertionError(f"jobs iterate as {ids}, not in ascending id order")
        running = [rec for rec in self.jobs.values() if rec.state is JobStatus.RUNNING]
        # Records compared by identity, as (end, id, id(record)).
        releases = [(end, job_id, id(rec)) for end, job_id, rec in self.releases]
        ends = sorted((rec.start_time + rec.spec.walltime_s, rec.id, id(rec)) for rec in running)
        if releases != ends:
            raise AssertionError(f"releases {releases} != Running jobs by end {ends}")
        bound: dict[str, int] = {node.id: 0 for node in self.nodes}
        for rec in running:
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
