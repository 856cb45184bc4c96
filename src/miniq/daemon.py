"""The long-running server: owns cluster state and the session registry,
speaks the wire protocol, runs the scheduling tick loop, and persists a
crash-recoverable journal.

Concurrency model: every client connection runs in its own thread, but all
state mutations funnel through one lock, so the journal sequence and the job
ledger always agree.  State-changing requests are journaled before their
response is sent (write-ahead).
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import sys
import threading
import time
from _operator import _compare_digest  # hmac's compare_digest when _hashlib (OpenSSL) is absent
from subprocess import Popen

from . import journal as journal_mod
from . import protocol
from .errors import (
    BindFailed,
    ConfigError,
    InvalidField,
    JournalCorrupt,
    MiniqError,
    NotAttached,
    ProtocolError,
    ScriptError,
    ShuttingDown,
)
from .jobspec import REQUIRED, Dialect, parse_script, read_fields
from .protocol import data_frame, end_frame, err, ok
from .runtime import (
    GRACE_SECONDS,
    SessionRegistry,
    collect_exits,
    launch_job,
    poll_walltime,
    terminate,
)
from .sched import ClusterState, JobStatus, Node, Outcome

DEFAULT_TICK_INTERVAL_S = 0.2
MIN_TICK_INTERVAL_S = 0.01

_EPOCH_AT_MONOTONIC_ZERO = time.time() - time.monotonic()


def steady_epoch() -> float:
    """The daemon's one clock: epoch seconds, the wall time read when this
    module loaded plus the monotonic time since, so no NTP step moves it."""
    return _EPOCH_AT_MONOTONIC_ZERO + time.monotonic()


class DaemonConfig:
    __slots__ = ("host", "port", "token", "nodes", "journal_path", "workdir_root",
                 "tick_interval_s")

    def __init__(self, host: str, port: int, token: str, nodes: list[Node], journal_path: str,
                 workdir_root: str, tick_interval_s: float = DEFAULT_TICK_INTERVAL_S):
        if not isinstance(token, str):
            raise ConfigError(f"auth token must be a string, got {token!r}")
        if not token:
            raise ConfigError("auth token must not be empty (set it in the config or MINIQ_TOKEN)")
        try:
            token.encode()
        except UnicodeEncodeError:  # a lone surrogate: no client could ever send it
            raise ConfigError("auth token must be valid UTF-8 text") from None
        if not nodes:
            raise ConfigError("at least one node must be configured")
        ids = [node.id for node in nodes]
        if len(set(ids)) < len(ids):
            raise ConfigError(f"node ids must be unique, got {ids}")
        if not MIN_TICK_INTERVAL_S <= tick_interval_s <= threading.TIMEOUT_MAX:  # not NaN either
            raise ConfigError(f"tick interval must be {MIN_TICK_INTERVAL_S} to "
                              f"{threading.TIMEOUT_MAX:g} s, got {tick_interval_s!r}")
        self.host = host
        self.port = port
        self.token = token
        self.nodes = nodes
        self.journal_path = journal_path
        self.workdir_root = workdir_root
        self.tick_interval_s = tick_interval_s


def load_config(path: str) -> DaemonConfig:
    """Read the daemon configuration file (one JSON document).

    Relative journal/workdir paths resolve against the config file location;
    the token falls back to the MINIQ_TOKEN environment variable.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        listen, entries, journal_path, workdir, tick_interval_s = read_fields(doc, _CONFIG_FIELDS)
        host, port = protocol.parse_address(listen)
        nodes = []
        for entry in entries:
            node_id, slots, features = read_fields(entry, _NODE_FIELDS)
            if slots < 1:
                raise ConfigError(f"node {node_id}: slots must be >= 1, got {slots}")
            nodes.append(Node(node_id, slots, frozenset(features)))
    except (InvalidField, ProtocolError) as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    if not journal_path:
        raise ConfigError("config needs a journal path")
    base_dir = os.path.dirname(os.path.abspath(path))  # join keeps an absolute path as it is
    return DaemonConfig(
        host=host,
        port=port,
        token=doc.get("token") or os.environ.get(protocol.TOKEN_ENV_VAR, ""),
        nodes=nodes,
        journal_path=os.path.join(base_dir, journal_path),
        workdir_root=os.path.join(base_dir, workdir),
        tick_interval_s=tick_interval_s,
    )


# The fields of the config file (beside its token), a node entry and each request.
_CONFIG_FIELDS = (("listen", str, protocol.DEFAULT_SERVER), ("nodes", list[dict], ()),
                  ("journal", str, REQUIRED), ("workdir", str, "."),
                  ("tick_interval_s", float, DEFAULT_TICK_INTERVAL_S))
_NODE_FIELDS = (("id", str, REQUIRED), ("slots", int, REQUIRED), ("features", list[str], ()))
_SUBMIT_FIELDS = (("script", str, REQUIRED), ("submit_dir", str, REQUIRED),
                  ("script_name", str, ""), ("dialect", Dialect, None), ("strict", bool, False))
_SESSION_CREATE_FIELDS = (("name", str, REQUIRED), ("command", list[str], REQUIRED))
_NAME_FIELDS = (("name", str, REQUIRED),)


class Daemon:
    """One daemon instance; create, then ``start()``; ``shutdown()`` to stop."""

    def __init__(self, config: DaemonConfig, *, clock=steady_epoch):
        self.config = config
        self._clock = clock
        self._mu = threading.Lock()
        self._stop = threading.Event()

        journal_dir = os.path.dirname(os.path.abspath(config.journal_path))
        os.makedirs(journal_dir, exist_ok=True)
        recovered = journal_mod.recover(config.journal_path, config.nodes)
        self.state: ClusterState = recovered.cluster
        self.journal = journal_mod.Journal(
            config.journal_path, next_seq=recovered.next_seq
        )
        self.sessions = SessionRegistry(cwd=config.workdir_root)
        for name, created_at in recovered.lost_sessions:
            self.sessions.adopt_lost(name, created_at)

        # The one process table: each leader not yet reaped (a running
        # job's, a live session's, or one in its grace after SIGTERM) maps
        # to (kill_at, owner); the tick sweeps it with collect_exits.
        self._leaders: dict[Popen, tuple[float, int | str | None]] = {}
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self.bound_address: tuple[str, int] | None = None

    # ----- lifecycle -------------------------------------------------- #

    def start(self) -> None:
        os.makedirs(self.config.workdir_root, exist_ok=True)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.config.host, self.config.port))
        except OSError as exc:
            listener.close()
            raise BindFailed(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        listener.listen(32)
        self._listener = listener
        self.bound_address = listener.getsockname()[:2]

        for target, name in ((self._accept_loop, "miniqd-accept"), (self._tick_loop, "miniqd-tick")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def shutdown(self) -> None:
        """Stop the loops and release the listener, then, under one hold of
        the lock, SIGKILL and reap every leader in the table (running jobs',
        live sessions' and those in their grace) in one sweep and close the
        journal."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._mu:
            collect_exits(self._leaders, math.inf)
            self.journal.close()

    # ----- scheduling loop -------------------------------------------- #

    def _tick_loop(self) -> None:
        """Tick every interval until the stop.  A tick that raises stops the
        daemon (fail-stop): its exception reaches ``threading.excepthook``,
        and no later tick acts on state the failed one left half changed."""
        try:
            while not self._stop.wait(self.config.tick_interval_s):
                self.tick_once()
        finally:
            self._stop.set()

    def tick_once(self, now: float | None = None) -> None:
        """Sweep the process table, ending each job whose leader exited and
        journaling each session's end; end the jobs past their walltime;
        start jobs and enter their leaders in the table.  ``now`` defaults
        to the clock, read once the lock is held."""
        with self._mu:
            try:
                now = self._admit(now)
            except ShuttingDown:
                return  # shutdown may have killed every job; none may start after
            for owner, code in collect_exits(self._leaders, now):
                if isinstance(owner, int):
                    self._end(owner, Outcome.exit(code), now)
                elif owner is not None:
                    self.journal.session_ended(owner, now)
            for job_id in poll_walltime((rec for _, _, rec in self.state.releases), now):
                self._end(job_id, Outcome.timeout(), now)

            for event in self.state.tick(now):
                rec = self.state.jobs[event.job_id]
                self.journal.started(rec, now)
                try:
                    rec.proc = launch_job(rec.spec, event.job_id, rec.submit_dir)
                except MiniqError as exc:
                    self._end(event.job_id, Outcome.daemon_failure(str(exc)), now)
                else:
                    self._leaders[rec.proc] = (math.inf, event.job_id)

    def _admit(self, now: float | None = None) -> float:
        """Called holding the lock before a change to jobs, sessions or the
        journal: refuses it once shutdown has begun, since shutdown kills
        every process and closes the journal.  Returns ``now``, read from
        the clock if None."""
        if self._stop.is_set():
            raise ShuttingDown("the daemon is shutting down")
        return self._clock() if now is None else now

    def _end(self, job_id: int, outcome: Outcome, now: float) -> None:
        """End a job for any cause: apply ``outcome``, journal its ``ended``
        entry and take the process from its record.  A leader not yet reaped
        (a timeout, a running cancel) gets SIGTERM to its group, and its
        table entry becomes (end of grace, None), for the sweep to SIGKILL
        the group then and reap the leader."""
        rec = self.state.transition(job_id, outcome, now)
        proc, rec.proc = rec.proc, None
        self.journal.ended(rec, now)
        if proc is not None and proc.returncode is None:
            terminate(proc)
            self._leaders[proc] = (now + GRACE_SECONDS, None)

    # ----- request handling -------------------------------------------- #

    def handle_request(self, message: dict):
        """Dispatch one request; returns (response, attachment or None).

        The response is a message, or for ``status`` its line already
        encoded.  The attachment is non-None only for a successful attach,
        which the connection then serves as a frame stream.
        """
        kind = message.get("type")
        handler = self._handlers.get(kind) if type(kind) is str else None
        if handler is None:
            return err("unknown-request", f"unknown request type {kind!r}"), None
        try:
            return handler(self, message)
        except MiniqError as exc:
            extra = {}
            if isinstance(exc, ScriptError) and exc.line_no is not None:
                extra["line"] = exc.line_no
            return err(exc.code, str(exc), **extra), None

    def _handle_submit(self, message: dict):
        script, submit_dir, script_name, dialect, strict = read_fields(message, _SUBMIT_FIELDS)
        if not os.path.isabs(submit_dir):
            return err("invalid-request", "submit_dir must be an absolute path"), None
        parsed = parse_script(script, dialect=dialect, default_name=script_name, strict=strict)
        with self._mu:
            now = self._admit()
            job_id = self.state.submit(parsed.spec, submit_dir, now)
            self.journal.submitted(self.state.jobs[job_id], now)
        return ok({"job_id": job_id, "warnings": parsed.warnings}), None

    def _handle_status(self, message: dict):
        (state,) = read_fields(message, (("state", JobStatus, None),))
        states = None if state is None else {state}
        job_id = message.get("job_id")  # any value: snapshot matches only an int id
        with self._mu:
            rows = self.state.snapshot(self._clock(), states=states, job_id=job_id)
        # The same bytes as send_message would write for ok({"rows": [...]})
        # with each row decoded.
        return '{"ok":true,"code":"ok","payload":{"rows":[' + ",".join(rows) + "]}}\n", None

    def _handle_cancel(self, message: dict):
        (job_id,) = read_fields(message, (("job_id", int, REQUIRED),))
        with self._mu:
            self._end(job_id, Outcome.cancel(), self._admit())
        return ok({"job_id": job_id, "state": JobStatus.CANCELLED.value}), None

    def _handle_session_create(self, message: dict):
        name, command = read_fields(message, _SESSION_CREATE_FIELDS)
        with self._mu:
            now = self._admit()
            self._leaders[self.sessions.create(name, command, now).proc] = (math.inf, name)
            self.journal.session_created(name, now)
        return ok({"name": name}), None

    def _handle_session_list(self, message: dict):
        return ok({"sessions": self.sessions.rows()}), None

    def _handle_session_kill(self, message: dict):
        (name,) = read_fields(message, _NAME_FIELDS)
        with self._mu:
            now = self._admit()
            session = self.sessions.kill(name)
            if session.live:
                terminate(session.proc)
                self._leaders[session.proc] = (now + GRACE_SECONDS, None)
            if session.live or session.proc is None:  # else the tick journaled its end
                self.journal.session_ended(name, now)
        return ok({"name": name}), None

    def _handle_attach(self, message: dict):
        (name,) = read_fields(message, _NAME_FIELDS)
        attachment = self.sessions.attach(name)
        return ok({"name": name, "truncated": attachment.truncated}), attachment

    _handlers = {
        "submit": _handle_submit,
        "status": _handle_status,
        "cancel": _handle_cancel,
        "session_create": _handle_session_create,
        "session_list": _handle_session_list,
        "session_kill": _handle_session_kill,
        "attach": _handle_attach,
    }

    # ----- connections --------------------------------------------------- #

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            )
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """Serve one connection: its first message must present the token,
        and every later one is a request, until EOF, an unreadable message
        or an attach, which consumes the rest of the connection."""
        reader = sock.makefile("rb")
        authenticated = False
        try:
            while not self._stop.is_set():
                try:
                    message = protocol.read_message(reader)
                except ProtocolError as exc:
                    protocol.send_message(sock, err(exc.code, str(exc)))
                    return
                if message is None:
                    return
                if not authenticated:
                    if not _presents_token(message, self.config.token):
                        protocol.send_message(sock, err("auth-failed", "bad or missing token"))
                        return
                    authenticated = True
                    response, attachment = ok({"server": "miniqd"}), None
                elif message.get("type") == "detach":
                    # Only meaningful while this connection streams an attach;
                    # handled inside _stream_attachment.
                    response, attachment = err(NotAttached.code, "no attach on this connection"), None
                else:
                    response, attachment = self.handle_request(message)
                protocol.send_message(sock, response)
                if attachment is not None:
                    self._stream_attachment(sock, reader, attachment)
                    return  # attach consumes the rest of the connection
        except OSError:
            pass  # client went away mid-conversation
        finally:
            try:
                reader.close()
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _stream_attachment(self, sock, reader, attachment) -> None:
        """Forward session output as data frames until the stream ends.

        A reader thread watches the same connection for a detach request (or
        client disconnect) and detaches, which terminates the stream.
        Output the ring holds already is sent before that thread starts, and
        it starts before the stream first waits, so a detach is seen at once.
        """

        def watch_for_detach():
            while True:
                try:
                    message = protocol.read_message(reader)
                except (ProtocolError, OSError, ValueError):
                    message = None
                if message is None or message.get("type") == "detach":
                    self.sessions.detach(attachment)
                    return

        watcher = threading.Thread(target=watch_for_detach, daemon=True)
        timeout = 0  # the first read does not wait
        try:
            while True:
                chunk = attachment.read(timeout=timeout)
                if chunk is None:
                    protocol.send_message(sock, end_frame(attachment.end_reason or "exit"))
                    return
                if chunk:
                    protocol.send_message(sock, data_frame(chunk))
                elif self._stop.is_set():
                    return
                if not timeout:
                    watcher.start()
                    timeout = 0.5
        except OSError:
            self.sessions.detach(attachment)


def _presents_token(message: dict, token: str) -> bool:
    """Whether a connection's first message is an auth with ``token``,
    compared as UTF-8 bytes in constant time."""
    given = message.get("token") if message.get("type") == "auth" else None
    try:
        return (isinstance(given, str) and given != ""
                and _compare_digest(given.encode(), token.encode()))
    except UnicodeEncodeError:
        # Only the wire token can hold a lone surrogate ("\ud800" decodes
        # to one): DaemonConfig refuses such a configured token.
        return False


USAGE = "usage: miniqd [-h] --config PATH"


def main(argv: list[str] | None = None) -> int:
    """Run the daemon until SIGTERM or SIGINT, or until a tick fails.
    Returns the exit status: 0 after a stop by signal or ``-h``, 1 if it
    cannot start or a tick failed, 2 on bad arguments."""
    args = sys.argv[1:] if argv is None else argv
    if "-h" in args or "--help" in args:
        print(USAGE)
        return 0
    if len(args) == 2 and args[0] == "--config":
        config_path = args[1]
    elif len(args) == 1 and args[0].startswith("--config="):
        config_path = args[0][len("--config="):]
    else:
        print(f"{USAGE}\nminiqd: error: expected --config PATH, got {args}", file=sys.stderr)
        return 2
    daemon, previous, signalled = None, {}, []
    try:
        config = load_config(config_path)
        daemon = Daemon(config)

        # Installed before start(): a signal sent as soon as the banner is
        # read must still run shutdown().
        def on_signal(signum, frame):
            signalled.append(signum)
            daemon._stop.set()

        previous = {signum: signal.signal(signum, on_signal)
                    for signum in (signal.SIGTERM, signal.SIGINT)}
        daemon.start()
    except (ConfigError, BindFailed, JournalCorrupt, OSError) as exc:
        # A failed start leaves no handler installed and no file open.
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if daemon is not None:
            daemon.shutdown()
        print(f"miniqd: {exc}", file=sys.stderr)
        return 1
    host, port = daemon.bound_address
    print(f"miniqd listening on {host}:{port}", flush=True)
    daemon._stop.wait()
    daemon.shutdown()
    return 0 if signalled else 1  # else the tick loop stopped on a failed tick


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
