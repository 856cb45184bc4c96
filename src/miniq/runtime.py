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
    """Keeps the most recent <= capacity bytes; remembers if it ever dropped."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        self.capacity = capacity
        self._data = bytearray()
        self.truncated = False

    def append(self, chunk: bytes) -> None:
        self._data.extend(chunk)
        overflow = len(self._data) - self.capacity
        if overflow > 0:
            del self._data[:overflow]
            self.truncated = True

    def snapshot(self) -> bytes:
        return bytes(self._data)

    def __len__(self) -> int:
        return len(self._data)


class StreamEnd:
    """Terminator delivered to attachments: reason is exit|killed|detached."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


class Attachment:
    """One client's view of a session: buffered replay, then live chunks."""

    def __init__(self, truncated: bool):
        self.truncated = truncated
        self.end_reason: str | None = None
        self._queue: queue.SimpleQueue = queue.SimpleQueue()

    def _push(self, item: bytes | StreamEnd) -> None:
        self._queue.put(item)

    def read(self, timeout: float | None = None) -> bytes | None:
        """Next chunk, or None once the stream has ended.

        Raises queue.Empty on timeout.
        """
        if self.end_reason is not None:
            return None
        item = self._queue.get(timeout=timeout)
        if isinstance(item, StreamEnd):
            self.end_reason = item.reason
            return None
        return item

    def __iter__(self):
        while True:
            chunk = self.read()
            if chunk is None:
                return
            yield chunk


class Session:
    __slots__ = ("name", "created_at", "proc", "ring", "live", "lost", "attachments")

    def __init__(
        self,
        name: str,
        created_at: float,
        proc: Popen | None = None,
        ring: RingBuffer | None = None,
        live: bool = True,
        lost: bool = False,
        attachments: list[Attachment] | None = None,
    ):
        self.name = name
        self.created_at = created_at  # wall-clock seconds, as journaled
        self.proc = proc
        self.ring = RingBuffer() if ring is None else ring
        self.live = live
        self.lost = lost
        self.attachments = [] if attachments is None else attachments

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
            session = Session(
                name=name,
                created_at=now,
                ring=RingBuffer(self._ring_capacity),
            )
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
        proc = session.proc
        while True:
            chunk = proc.stdout.read(65536)
            if not chunk:
                break
            with self._lock:
                session.ring.append(chunk)
                for attachment in session.attachments:
                    attachment._push(chunk)
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
        with self._lock:
            session.live = False
            registered = self._sessions.get(session.name) is session
            reason = "exit" if registered else "killed"
            for attachment in session.attachments:
                attachment._push(StreamEnd(reason))
            session.attachments.clear()
            if registered:
                self._ended_unreported.append(session.name)

    def attach(self, name: str) -> Attachment:
        """Replay everything the ring holds, then follow the live stream."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None or session.lost:
                raise UnknownSession(f"no session named {name!r}")
            attachment = Attachment(truncated=session.ring.truncated)
            replay = session.ring.snapshot()
            if replay:
                attachment._push(replay)
            if session.live:
                session.attachments.append(attachment)
            else:
                attachment._push(StreamEnd("exit"))
            return attachment

    def detach(self, name: str, attachment: Attachment) -> None:
        """Drop one client; the process and ring are untouched."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                raise UnknownSession(f"no session named {name!r}")
            try:
                session.attachments.remove(attachment)
            except ValueError:
                raise NotAttached(f"not attached to session {name!r}") from None
            attachment._push(StreamEnd("detached"))

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
        if it was live, for the caller's dying list.  Attached clients get
        what is already queued plus an end marker once the process dies."""
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
            self._sessions[name] = Session(
                name=name,
                created_at=created_at,
                proc=None,
                live=False,
                lost=True,
            )

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
