"""Process execution: supervised jobs with walltime kills, and detachable
named sessions with a replayable output ring buffer.

Jobs run the job-script body under the system shell in non-aborting mode (a
failing line does not stop later lines), with the PBS_*/SLURM_* environment
injected and stdout/stderr routed per the job's output policy.  Sessions are
daemon-owned child processes that keep running while no client is attached;
their combined output is captured into a bounded ring so a later attach can
replay everything (up to capacity) before following the live stream.
"""

from __future__ import annotations

import math
import os
import queue
import signal
import subprocess
import threading
from collections.abc import Iterable
from subprocess import Popen

from .errors import (
    DuplicateSession,
    InvalidCommand,
    NotAttached,
    SpawnFailed,
    UnknownSession,
)
from .jobspec import JobSpec, expand_output_template, job_environment, validate_job_name
from .sched import JobRecord

GRACE_SECONDS = 2.0
DEFAULT_RING_CAPACITY = 1024 * 1024
READ_BYTES = 65536  # the most a session's pump or an attachment reads at once


def _signal_group(proc: Popen, signum: int) -> None:
    """Signal the process group a job or session leads (each starts its own).
    Only while the leader is unreaped, or in the call that reaps it: after
    that, its pid may name someone else's group."""
    try:
        os.killpg(proc.pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _signal_unreaped(proc: Popen, signum: int) -> None:
    """Signal the group unless its leader is reaped already.  The check and
    the signal hold the Popen's own reaping lock, so a poll() or wait() on
    another thread (a session's pump, the tick) cannot reap the leader
    between them."""
    with proc._waitpid_lock:
        if proc.returncode is None:
            _signal_group(proc, signum)


def terminate(proc: Popen) -> None:
    """SIGTERM the group unless its leader is reaped already."""
    _signal_unreaped(proc, signal.SIGTERM)


def kill_after_grace(dying: list[tuple[Popen, float]], now: float) -> list[tuple[Popen, float]]:
    """SIGKILL the group of each (leader, SIGTERM time) entry ``GRACE_SECONDS``
    after its SIGTERM, then reap the leader; returns the entries still
    waiting.  A group is swept even if its leader died on SIGTERM: only this
    reaps a listed job's leader, and a session's pump thread sweeps the group
    before it reaps its own, so a group whose leader is reaped is left alone.
    ``now=math.inf`` kills them all."""
    waiting = []
    for proc, term_sent_at in dying:
        if now >= term_sent_at + GRACE_SECONDS:
            _signal_unreaped(proc, signal.SIGKILL)
            if proc.poll() is not None:
                continue
        waiting.append((proc, term_sent_at))
    return waiting


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
        return Popen(
            ["/bin/sh", "-c", script],
            cwd=submit_dir,
            env=env,
            stdout=stdout_file,
            stderr=stderr_target,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
    except (OSError, ValueError) as exc:
        raise SpawnFailed(str(exc)) from exc
    finally:
        stdout_file.close()
        if stderr_file is not None:
            stderr_file.close()


def poll_walltime(recs: Iterable[JobRecord], now: float) -> list[int]:
    """SIGTERM each running job strictly past ``start_time + walltime``;
    returns their ids, for the caller to end them and list them as dying.
    A job using exactly its limit is spared."""
    timed_out: list[int] = []
    for rec in recs:
        if now > rec.start_time + rec.spec.walltime_s and rec.proc.returncode is None:
            terminate(rec.proc)
            timed_out.append(rec.id)
    return timed_out


def collect_exits(recs: Iterable[JobRecord]) -> list[tuple[int, int]]:
    """(job_id, exit_code) for running jobs whose process has finished on its
    own.  A leader reaped here has its group SIGKILLed in the same call, so
    nothing the job left in the background outlives it."""
    finished = []
    for rec in recs:
        proc = rec.proc
        if proc.returncode is None and proc.poll() is not None:
            _signal_group(proc, signal.SIGKILL)
        if proc.returncode is not None:
            finished.append((rec.id, proc.returncode))
    return finished


# --------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------- #

class RingBuffer:
    """Keeps the most recent <= capacity bytes of a stream; ``start`` is the
    stream offset of its oldest byte, so ``start > 0`` once it ever dropped."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        self.capacity = capacity
        self._data = bytearray()
        self.start = 0

    @property
    def end(self) -> int:
        """The stream offset just past the newest byte."""
        return self.start + len(self._data)

    @property
    def truncated(self) -> bool:
        return self.start > 0

    def append(self, chunk: bytes) -> None:
        self._data.extend(chunk)
        overflow = len(self._data) - self.capacity
        if overflow > 0:
            del self._data[:overflow]
            self.start += overflow

    def read(self, offset: int, size: int) -> bytes:
        """Up to ``size`` bytes from stream offset ``offset``."""
        at = offset - self.start
        if at < 0:
            raise ValueError(f"offset {offset} was dropped: the ring starts at {self.start}")
        return bytes(self._data[at:at + size])

    def snapshot(self) -> bytes:
        return bytes(self._data)

    def __len__(self) -> int:
        return len(self._data)


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
        """Next chunk of at most ``READ_BYTES``, or None once the stream has
        ended.

        Raises queue.Empty on timeout.
        """
        changed = self.session.changed
        with changed:
            if not changed.wait_for(lambda: self._unread() or self.end_reason, timeout):
                raise queue.Empty
            if not self._unread():
                return None
            chunk = self.session.ring.read(self.cursor, READ_BYTES)
            self.cursor += len(chunk)
            changed.notify_all()  # the pump may wait for this reader
            return chunk

    def __iter__(self):
        while True:
            chunk = self.read()
            if chunk is None:
                return
            yield chunk


class Session:
    __slots__ = ("name", "created_at", "proc", "ring", "live", "lost", "attachments", "changed")

    def __init__(self, name: str, created_at: float, lock: threading.Lock, ring_capacity: int):
        self.name = name
        self.created_at = created_at  # wall-clock seconds, as journaled
        self.proc: Popen | None = None
        self.ring = RingBuffer(ring_capacity)
        self.live = True
        self.lost = False
        self.attachments: list[Attachment] = []
        # Notified when the ring grows, a reader advances or the stream ends.
        self.changed = threading.Condition(lock)

    @property
    def attached(self) -> int:
        return len(self.attachments)


class SessionRegistry:
    """Named detachable sessions; mutations serialized through one lock."""

    def __init__(self, *, cwd: str | None = None, ring_capacity: int = DEFAULT_RING_CAPACITY):
        self._cwd = cwd
        self._ring_capacity = ring_capacity
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._ended_unreported: list[str] = []

    def create(self, name: str, command: list[str], now: float) -> Session:
        """Spawn a session process immediately; sessions bypass the scheduler."""
        validate_job_name(name)
        if not command:
            raise InvalidCommand("session command must not be empty")
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None and existing.live:
                raise DuplicateSession(f"session {name!r} already exists")
            session = Session(name, now, self._lock, self._ring_capacity)
            try:
                session.proc = Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL,
                    cwd=self._cwd,
                    start_new_session=True,
                    bufsize=0,
                )
            except (OSError, ValueError) as exc:
                raise SpawnFailed(str(exc)) from exc
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
        while True:
            chunk = proc.stdout.read(read_size)
            if not chunk:
                break
            with changed:
                oldest_kept = ring.end + len(chunk) - ring.capacity
                changed.wait_for(lambda: all(a.cursor >= oldest_kept for a in session.attachments))
                ring.append(chunk)
                changed.notify_all()
        # Wait for the leader without reaping it: while it is a zombie its
        # group id is still ours to signal, so whatever it left running is
        # swept before the leader is reaped.  A leader reaped already means
        # kill_after_grace swept the group and reaped it.
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except ChildProcessError:
            pass
        _signal_unreaped(proc, signal.SIGKILL)
        proc.wait()
        with changed:
            session.live = False
            registered = self._sessions.get(session.name) is session
            reason = "exit" if registered else "killed"
            for attachment in session.attachments:
                attachment.end_reason = reason
            session.attachments.clear()
            changed.notify_all()
            if registered:
                self._ended_unreported.append(session.name)

    def attach(self, name: str) -> Attachment:
        """Read everything the ring holds, then follow the live stream."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None or session.lost:
                raise UnknownSession(f"no session named {name!r}")
            attachment = Attachment(session)
            if session.live:
                session.attachments.append(attachment)
            else:
                attachment.end_reason = "exit"
            return attachment

    def detach(self, name: str, attachment: Attachment) -> None:
        """Drop one client; the process and ring are untouched.  Bytes not yet
        sent to it are dropped from its stream; they stay in the ring.  The
        session is the attachment's own, so a client of a killed session,
        whose pump may be waiting for it, can still detach."""
        with self._lock:
            session = attachment.session
            if attachment not in session.attachments:
                if name not in self._sessions:
                    raise UnknownSession(f"no session named {name!r}")
                raise NotAttached(f"not attached to session {name!r}")
            session.attachments.remove(attachment)
            attachment.end_reason = "detached"
            session.changed.notify_all()

    def rows(self) -> list[dict]:
        with self._lock:
            return [
                {
                    "name": s.name,
                    "live": s.live,
                    "attached": s.attached,
                    "created_at": s.created_at,
                    "lost": s.lost,
                }
                for _, s in sorted(self._sessions.items())
            ]

    def get(self, name: str) -> Session | None:
        with self._lock:
            return self._sessions.get(name)

    def kill(self, name: str) -> Popen | None:
        """Drop the name and SIGTERM the process group; returns the process
        if it was live, for the caller's dying list.  Attached clients read
        what the ring holds, then the end once the process dies."""
        with self._lock:
            session = self._sessions.pop(name, None)
            if session is None:
                raise UnknownSession(f"no session named {name!r}")
            if not session.live or session.proc is None:
                return None
            proc = session.proc
        terminate(proc)
        return proc

    def adopt_lost(self, name: str, created_at: float) -> None:
        """Register a tombstone for a session that did not survive a restart."""
        with self._lock:
            tombstone = Session(name, created_at, self._lock, self._ring_capacity)
            tombstone.live, tombstone.lost = False, True
            self._sessions[name] = tombstone

    def drain_ended(self) -> list[str]:
        """Names of sessions that ended on their own since the last call."""
        with self._lock:
            ended = self._ended_unreported
            self._ended_unreported = []
            return ended

    def shutdown(self) -> None:
        """Kill every live session process (daemon-owned children do not
        outlive the daemon)."""
        with self._lock:
            live = [(s.proc, 0.0) for s in self._sessions.values() if s.live and s.proc is not None]
        kill_after_grace(live, math.inf)
