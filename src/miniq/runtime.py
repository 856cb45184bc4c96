"""Process execution: supervised jobs with walltime kills, and detachable
named sessions with a replayable output ring buffer.

Jobs run the job-script body under the system shell in non-aborting mode (a
failing line does not stop later lines), with the PBS_*/SLURM_* environment
injected and stdout/stderr routed per the job's output policy.  Sessions are
daemon-owned child processes that keep running while no client is attached;
their combined output is captured into a bounded ring so a later attach can
replay everything (up to capacity) before following the live stream.

Every leader the daemon has not reaped, a job's or a session's, running or
in its grace after SIGTERM, is one entry of one table, and only the daemon's
tick, holding the daemon lock, sweeps it with ``collect_exits``: a session's
pump thread only streams its output.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import threading
from collections import deque
from collections.abc import Iterable
from subprocess import Popen

from .errors import (
    DuplicateSession,
    InvalidCommand,
    SpawnFailed,
    UnknownSession,
)
from .jobspec import JobSpec, expand_output_template, job_environment, validate_job_name
from .sched import JobRecord

GRACE_SECONDS = 2.0
DEFAULT_RING_CAPACITY = 1024 * 1024
READ_BYTES = 65536  # the most a session's pump or an attachment reads at once


def _spawn(args: list[str], **kwargs) -> Popen:
    """Start a job or session leader in a session of its own, so its pid
    names its process group, with stdin from /dev/null."""
    try:
        return Popen(args, stdin=subprocess.DEVNULL, start_new_session=True, **kwargs)
    except (OSError, ValueError) as exc:
        raise SpawnFailed(str(exc)) from exc


def _signal_unreaped(proc: Popen, signum: int) -> bool:
    """Signal the process group a leader leads, unless the leader is reaped
    already: after that, its pid may name someone else's group.  The caller
    holds the daemon lock, and only the daemon reaps, so the leader cannot
    be reaped between the check and the signal.  Returns whether the signal
    reached the leader."""
    if proc.returncode is None:
        try:
            os.killpg(proc.pid, signum)
            os.kill(proc.pid, 0)  # killpg succeeds if any member got it: did the leader?
            return True
        except (ProcessLookupError, PermissionError):
            pass
    return False


def _reap(proc: Popen, block: bool = False) -> int | None:
    """The exit status of a leader not yet reaped, once it has exited, or
    None while it runs (waiting for the exit if ``block``).  The exit is seen
    without reaping the leader: while it is a zombie its pid still names its
    group, so the group is SIGKILLed first and nothing it left running
    outlives it.  Called holding the daemon lock: the daemon is the one
    reaper."""
    options = os.WEXITED | os.WNOWAIT | (0 if block else os.WNOHANG)
    if os.waitid(os.P_PID, proc.pid, options) is None:
        return None
    _signal_unreaped(proc, signal.SIGKILL)
    return proc.wait()


def terminate(proc: Popen) -> None:
    """SIGTERM the group unless its leader is reaped already."""
    _signal_unreaped(proc, signal.SIGTERM)


# --------------------------------------------------------------------- #
# supervised jobs
# --------------------------------------------------------------------- #

def output_paths(spec: JobSpec, job_id: int, submit_dir: str) -> tuple[str, str | None]:
    """Expanded sink paths; relative templates land in the submit directory."""

    def resolve(template: str) -> str:
        path = expand_output_template(template, job_id, spec.name)
        return path if os.path.isabs(path) else os.path.join(submit_dir, path)

    stdout_path = resolve(spec.output.stdout_template)
    stderr_path = None
    if not spec.output.merge_stderr:
        stderr_path = resolve(spec.output.stderr_template)
    return stdout_path, stderr_path


def launch_job(spec: JobSpec, job_id: int, submit_dir: str) -> Popen:
    """Spawn the job body under /bin/sh with sinks opened before the process;
    returns the leader, for the job's record to hold.

    The job's exit code is the shell's exit code (its last command); failing
    lines such as unavailable ``module load`` commands do not abort the rest.
    """
    script = "\n".join(spec.body) + "\n"
    env = dict(os.environ)
    env.update(job_environment(spec, job_id, submit_dir))

    stdout_path, stderr_path = output_paths(spec, job_id, submit_dir)
    try:
        stdout_file = open(stdout_path, "wb")
    except (OSError, ValueError) as exc:
        raise SpawnFailed(f"cannot open stdout sink: {exc}") from exc
    if spec.output.merge_stderr:
        stderr_target = subprocess.STDOUT
        stderr_file = None
    else:
        try:
            stderr_file = open(stderr_path, "wb")
        except (OSError, ValueError) as exc:
            stdout_file.close()
            raise SpawnFailed(f"cannot open stderr sink: {exc}") from exc
        stderr_target = stderr_file
    try:
        return _spawn(["/bin/sh", "-c", script], cwd=submit_dir, env=env,
                      stdout=stdout_file, stderr=stderr_target)
    finally:
        stdout_file.close()
        if stderr_file is not None:
            stderr_file.close()


def poll_walltime(recs: Iterable[JobRecord], now: float) -> list[int]:
    """The ids of the running jobs strictly past ``start_time + walltime``.
    It signals none of them: ending them, SIGTERM included, is the caller's
    part.  A job using exactly its limit is spared."""
    return [rec.id for rec in recs if now > rec.start_time + rec.spec.walltime_s]


def collect_exits(leaders: dict[Popen, tuple[float, object]],
                  now: float) -> list[tuple[object, int]]:
    """Reap every due leader of the table ``leaders``, take it out, and
    return (owner, exit status) for each, in the table's order.

    An entry is (kill_at, owner).  ``kill_at`` is ``math.inf`` while the
    leader runs, and the end of its grace once it was sent SIGTERM; the
    owner is a running job's id or a live session's name, and None once the
    leader was ended.  A running leader is due when it exits: its group is
    SIGKILLed while it is a zombie, then it is reaped, so nothing it left in
    the background outlives it.  A leader in its grace is due at
    ``kill_at`` and no sooner, even if it died on SIGTERM, so its children
    get the whole grace; then its group is SIGKILLed and the leader reaped,
    at once, since SIGKILL cannot be ignored.  One the SIGKILL could not
    reach (a leader that changed its user, as ``exec sudo`` does) stays in
    the table.  ``now=math.inf`` kills and reaps them all."""
    done = []
    for proc, (kill_at, owner) in list(leaders.items()):
        due = now >= kill_at
        if due or kill_at == math.inf:
            code = _reap(proc, block=due and _signal_unreaped(proc, signal.SIGKILL))
            if code is not None:
                del leaders[proc]
                done.append((owner, code))
    return done


# --------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------- #

class RingBuffer:
    """Keeps the most recent <= capacity bytes of a stream; ``start`` is the
    stream offset of its oldest byte, so ``start > 0`` once it ever dropped.

    The bytes are held in blocks of at most ``READ_BYTES``.  A sealed block
    is immutable ``bytes``: a chunk of exactly one block is kept as it is,
    and smaller writes fill the newest block, a ``bytearray``, until it is
    full or such a chunk arrives.  Dropping old bytes drops whole blocks,
    so the oldest block may begin before ``start``, and the ring holds at
    most its capacity plus one block whatever the write sizes.  No write
    copies more than the chunk and, once, the block it fills.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        self.capacity = capacity
        self._blocks: deque[bytes | bytearray] = deque()
        self._filling: bytearray | None = None  # the newest block, while it fills
        self._first = 0  # stream offset of the oldest block's first byte
        self.start = 0
        self.end = 0  # the stream offset just past the newest byte

    @property
    def truncated(self) -> bool:
        return self.start > 0

    def append(self, chunk: bytes) -> None:
        self.end += len(chunk)
        if len(chunk) == READ_BYTES and type(chunk) is bytes:
            self._seal()
            self._blocks.append(chunk)
        else:
            view = memoryview(chunk)
            while view:
                if self._filling is None:
                    self._filling = bytearray()
                    self._blocks.append(self._filling)
                room = READ_BYTES - len(self._filling)
                self._filling += view[:room]
                view = view[room:]
                if len(self._filling) == READ_BYTES:
                    self._seal()
        start = self.end - self.capacity
        if start > self.start:
            self.start = start
            blocks = self._blocks
            while self._first + len(blocks[0]) <= start:
                self._first += len(blocks.popleft())

    def _seal(self) -> None:
        if self._filling is not None:
            self._blocks[-1] = bytes(self._filling)
            self._filling = None

    def read(self, offset: int, size: int) -> bytes:
        """Up to ``size`` bytes from stream offset ``offset``, copied once; a
        read of exactly one sealed block is that block, with no copy."""
        if offset < self.start:
            raise ValueError(f"offset {offset} was dropped: the ring starts at {self.start}")
        want = min(size, self.end - offset)
        if want <= 0:
            return b""
        at = offset - self._first
        blocks = iter(self._blocks)
        for block in blocks:
            if at < len(block):
                break
            at -= len(block)
        if at == 0 and len(block) == want and type(block) is bytes:
            return block
        # The views go with this call: one alive past it would stop the
        # filling block from growing.
        pieces = [memoryview(block)[at:at + want]]
        want -= len(pieces[0])
        while want:
            pieces.append(memoryview(next(blocks))[:want])
            want -= len(pieces[-1])
        return b"".join(pieces)

    def __len__(self) -> int:
        return self.end - self.start


class Attachment:
    """One client's cursor into a session's ring: the replay and the live
    stream are one read path.  A reader that falls a full ring behind holds
    the session's output back, so nothing it has not read is dropped."""

    def __init__(self, session: Session):
        self.session = session
        self.cursor = session.ring.start  # stream offset of the next byte to read
        self.truncated = session.ring.truncated
        self.end_reason: str | None = None  # exit|killed|detached

    def _unread(self) -> int:
        if self.end_reason == "detached":  # what was not yet sent is dropped
            return 0
        return self.session.ring.end - self.cursor

    def read(self, timeout: float | None = None) -> bytes | None:
        """Next chunk of at most ``READ_BYTES``; ``b""`` when nothing arrived
        within ``timeout``; None once the stream has ended."""
        changed = self.session.changed
        with changed:
            if not changed.wait_for(lambda: self._unread() or self.end_reason, timeout):
                return b""
            if not self._unread():
                return None
            chunk = self.session.ring.read(self.cursor, READ_BYTES)
            self.cursor += len(chunk)
            changed.notify_all()  # the pump may wait for this reader
            return chunk


class Session:
    __slots__ = ("name", "created_at", "proc", "ring", "streaming", "attachments", "changed")

    def __init__(self, name: str, created_at: float, lock: threading.Lock, ring_capacity: int,
                 proc: Popen | None = None):
        self.name = name
        self.created_at = created_at  # the daemon's clock, as journaled
        self.proc = proc  # None only for the tombstone of a session lost to a restart
        self.ring = RingBuffer(ring_capacity)
        self.streaming = proc is not None  # until the pump reads the output's end
        self.attachments: list[Attachment] = []
        # Notified when the ring grows, a reader advances or the stream ends.
        self.changed = threading.Condition(lock)

    @property
    def live(self) -> bool:
        """Whether the leader is not yet reaped.  Only the daemon's tick
        reaps, holding the daemon lock, so this changes only under it."""
        return self.proc is not None and self.proc.returncode is None


class SessionRegistry:
    """Named detachable sessions; mutations serialized through one lock."""

    def __init__(self, *, cwd: str | None = None, ring_capacity: int = DEFAULT_RING_CAPACITY):
        self._cwd = cwd
        self._ring_capacity = ring_capacity
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}

    def create(self, name: str, command: list[str], now: float) -> Session:
        """Spawn a session process immediately; sessions bypass the scheduler."""
        validate_job_name(name)
        if not command:
            raise InvalidCommand("session command must not be empty")
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None and existing.live:
                raise DuplicateSession(f"session {name!r} already exists")
            proc = _spawn(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          cwd=self._cwd, bufsize=0)
            session = Session(name, now, self._lock, self._ring_capacity, proc)
            self._sessions[name] = session
        pump = threading.Thread(
            target=self._pump, args=(session,), name=f"session-{name}", daemon=True
        )
        pump.start()
        return session

    def _pump(self, session: Session) -> None:
        proc, ring, changed = session.proc, session.ring, session.changed
        # A read never exceeds the ring, so one append drops nothing a reader
        # that has caught up still needs.
        read_size = min(READ_BYTES, ring.capacity)
        while chunk := proc.stdout.read(read_size):
            with changed:
                oldest_kept = ring.end + len(chunk) - ring.capacity
                changed.wait_for(lambda: all(a.cursor >= oldest_kept for a in session.attachments))
                ring.append(chunk)
                changed.notify_all()
        # The stream ends here, whether or not the leader still runs: the
        # tick reaps it.  An ended session stays registered, so its pipe is
        # closed here or its descriptor stays open.
        proc.stdout.close()
        with changed:
            session.streaming = False
            reason = "exit" if self._sessions.get(session.name) is session else "killed"
            for attachment in session.attachments:
                attachment.end_reason = reason
            session.attachments.clear()
            changed.notify_all()

    def attach(self, name: str) -> Attachment:
        """Read everything the ring holds, then follow the live stream."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None or session.proc is None:
                raise UnknownSession(f"no session named {name!r}")
            attachment = Attachment(session)
            if session.streaming:
                session.attachments.append(attachment)
            else:
                attachment.end_reason = "exit"
            return attachment

    def detach(self, attachment: Attachment) -> None:
        """Drop one client if it is still attached, else do nothing: its
        stream may have ended already.  The process and ring are untouched.
        Bytes not yet sent to it are dropped from its stream; they stay in
        the ring.  The session is the attachment's own, so a client of a
        killed session, whose pump may be waiting for it, can still detach."""
        with self._lock:
            session = attachment.session
            if attachment in session.attachments:
                session.attachments.remove(attachment)
                attachment.end_reason = "detached"
                session.changed.notify_all()

    def rows(self) -> list[dict]:
        with self._lock:
            return [
                {
                    "name": s.name,
                    "live": s.live,
                    "attached": len(s.attachments),
                    "created_at": s.created_at,
                    "lost": s.proc is None,
                }
                for _, s in sorted(self._sessions.items())
            ]

    def kill(self, name: str) -> Session:
        """Drop the name and return its session, for the caller to signal
        its leader if it is ``live`` and to journal its end unless the tick
        did.  Attached clients read what the ring holds, then the end once
        the output closes."""
        with self._lock:
            session = self._sessions.pop(name, None)
            if session is None:
                raise UnknownSession(f"no session named {name!r}")
            return session

    def adopt_lost(self, name: str, created_at: float) -> None:
        """Register a tombstone for a session that did not survive a restart."""
        with self._lock:
            self._sessions[name] = Session(name, created_at, self._lock, self._ring_capacity)
