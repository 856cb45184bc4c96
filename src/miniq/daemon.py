"""The long-running server: owns cluster state and the session registry,
speaks the wire protocol, runs the scheduling tick loop, and persists a
crash-recoverable journal.

Concurrency model: every client connection runs in its own thread, but all
state mutations funnel through one lock, so the journal sequence and the job
ledger always agree.  State-changing requests are journaled before their
response is sent (write-ahead).
"""

from __future__ import annotations

import argparse
import hmac
import json
import math
import os
import queue
import signal
import socket
import sys
import threading
import time
import traceback
from subprocess import Popen

from . import journal as journal_mod
from . import protocol
from .errors import (
    BindFailed,
    ConfigError,
    JournalCorrupt,
    MiniqError,
    ProtocolError,
    ScriptError,
)
from .jobspec import Dialect, parse_script
from .protocol import data_frame, end_frame, err, ok
from .runtime import (
    SessionRegistry,
    collect_exits,
    kill_after_grace,
    launch_job,
    poll_walltime,
    terminate,
)
from .sched import ClusterState, JobStatus, Node, Outcome, status_from_code

DEFAULT_TICK_INTERVAL_S = 0.2
MIN_TICK_INTERVAL_S = 0.01


class DaemonConfig:
    __slots__ = ("host", "port", "token", "nodes", "journal_path", "workdir_root",
                 "tick_interval_s")

    def __init__(self, host: str, port: int, token: str, nodes: list[Node], journal_path: str,
                 workdir_root: str, tick_interval_s: float = DEFAULT_TICK_INTERVAL_S):
        if not token:
            raise ConfigError("auth token must not be empty (set it in the config or MINIQ_TOKEN)")
        if not nodes:
            raise ConfigError("at least one node must be configured")
        ids = [node.id for node in nodes]
        if len(set(ids)) < len(ids):
            raise ConfigError(f"node ids must be unique, got {ids}")
        if tick_interval_s < MIN_TICK_INTERVAL_S:
            raise ConfigError(f"tick interval must be >= {MIN_TICK_INTERVAL_S} s")
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

    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    host, port = protocol.parse_address(doc.get("listen", protocol.DEFAULT_SERVER))
    nodes = [_load_node(entry) for entry in doc.get("nodes", [])]
    journal_path = doc.get("journal")
    if not journal_path:
        raise ConfigError("config needs a journal path")
    return DaemonConfig(
        host=host,
        port=port,
        token=doc.get("token") or os.environ.get(protocol.TOKEN_ENV_VAR, ""),
        nodes=nodes,
        journal_path=resolve(journal_path),
        workdir_root=resolve(doc.get("workdir", ".")),
        tick_interval_s=float(doc.get("tick_interval_s", DEFAULT_TICK_INTERVAL_S)),
    )


def _load_node(entry) -> Node:
    """A node from its config entry: a string ``id``, an integer ``slots``
    of at least 1 and an optional list of feature tags."""
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
        raise ConfigError(f"node entry {entry!r} needs a string id")
    slots = entry.get("slots")
    if type(slots) is not int or slots < 1:
        raise ConfigError(f"node {entry['id']}: slots must be an integer >= 1, got {slots!r}")
    features = entry.get("features", [])
    if not isinstance(features, list) or not all(isinstance(tag, str) for tag in features):
        raise ConfigError(f"node {entry['id']}: features must be a list of strings")
    return Node(id=entry["id"], slots_total=slots, features=frozenset(features))


class Daemon:
    """One daemon instance; create, then ``start()``; ``shutdown()`` to stop."""

    def __init__(self, config: DaemonConfig, *, clock=time.monotonic):
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

        # Every process group sent SIGTERM (timed out, cancelled, killed
        # session), with when; the tick SIGKILLs it after the grace.
        self._dying: list[tuple[Popen, float]] = []
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
        """Stop loops, kill child processes, drain the journal, release sockets."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._mu:
            running = [(rec.proc, 0.0) for rec in self.state.running.values()
                       if rec.proc is not None]
            self._dying = kill_after_grace(self._dying + running, math.inf)
        self.sessions.shutdown()
        with self._mu:
            self.journal.close()

    # ----- scheduling loop -------------------------------------------- #

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.config.tick_interval_s):
            try:
                self.tick_once(self._clock())
            except Exception:
                if self._stop.is_set():
                    return  # racing a shutdown; the journal may be closed
                traceback.print_exc()

    def tick_once(self, now: float) -> None:
        """Reap exits, enforce walltimes, journal session ends, start jobs."""
        with self._mu:
            for job_id, code in collect_exits(self.state.running.values()):
                self._end(job_id, Outcome.exit(code), now)
            for job_id in poll_walltime(self.state.running.values(), now):
                self._dying.append((self._end(job_id, Outcome.timeout(), now), now))
            self._dying = kill_after_grace(self._dying, now)

            for name in self.sessions.drain_ended():
                self.journal.append(
                    journal_mod.EVENT_SESSION_ENDED, {"name": name}, at=time.time()
                )

            for event in self.state.tick(now):
                rec = self.state.jobs[event.job_id]
                self.journal.append(
                    journal_mod.EVENT_STARTED,
                    {"job_id": event.job_id, "allocation": event.allocation},
                    at=time.time(),
                )
                try:
                    rec.proc = launch_job(rec.spec, event.job_id, rec.submit_dir)
                except MiniqError as exc:
                    self._end(event.job_id, Outcome.daemon_failure(str(exc)), now)

    def _end(self, job_id: int, outcome: Outcome, now: float) -> Popen | None:
        """End a job: apply ``outcome``, journal its ``ended`` entry, and take
        the process from its record.  Returns that process, or None for a job
        that never had one; signalling it is the caller's part."""
        rec = self.state.transition(job_id, outcome, now)
        proc, rec.proc = rec.proc, None
        self.journal.append(
            journal_mod.EVENT_ENDED,
            {
                "job_id": job_id,
                "state": rec.state.code,
                "exit_code": rec.exit_code,
                "reason": rec.reason,
            },
            at=time.time(),
        )
        return proc

    # ----- request handling -------------------------------------------- #

    def handle_request(self, message: dict):
        """Dispatch one request; returns (response, attachment or None).

        The response is a message, or for ``status`` its line already
        encoded.  The attachment is non-None only for a successful attach,
        which the connection then serves as a frame stream.
        """
        kind = message.get("type")
        handler = self._handlers.get(kind)
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
        script = message.get("script")
        submit_dir = message.get("submit_dir")
        if not isinstance(script, str) or not isinstance(submit_dir, str):
            return err("invalid-request", "submit needs script text and submit_dir"), None
        if not os.path.isabs(submit_dir):
            return err("invalid-request", "submit_dir must be an absolute path"), None
        dialect = None
        if message.get("dialect"):
            dialect = Dialect(message["dialect"])
        parsed = parse_script(
            script,
            dialect=dialect,
            default_name=message.get("script_name") or "job",
            strict=bool(message.get("strict", False)),
        )
        with self._mu:
            job_id = self.state.submit(parsed.spec, submit_dir, self._clock())
            self.journal.append(
                journal_mod.EVENT_SUBMITTED,
                {"job_id": job_id, "spec": parsed.spec.to_dict(), "submit_dir": submit_dir},
                at=time.time(),
            )
        return ok({"job_id": job_id, "warnings": parsed.warnings}), None

    def _handle_status(self, message: dict):
        states = None
        if message.get("state"):
            try:
                states = {status_from_code(message["state"])}
            except ValueError as exc:
                return err("invalid-request", str(exc)), None
        job_id = message.get("job_id")
        with self._mu:
            rows = self.state.snapshot(self._clock(), states=states, job_id=job_id)
        # Encoded outside the lock; the same bytes as send_message would
        # write for ok({"rows": [row.to_dict() for row in rows]}).
        texts = ",".join([row.json for row in rows])
        return '{"ok":true,"code":"ok","payload":{"rows":[' + texts + "]}}\n", None

    def _handle_cancel(self, message: dict):
        job_id = message.get("job_id")
        if type(job_id) is not int:  # not a bool, which is an int subclass
            return err("invalid-request", "cancel needs a job_id"), None
        now = self._clock()
        with self._mu:
            proc = self._end(job_id, Outcome.cancel(), now)
            if proc is not None:
                terminate(proc)
                self._dying.append((proc, now))
        return ok({"job_id": job_id, "state": JobStatus.CANCELLED.code}), None

    def _handle_session_create(self, message: dict):
        name = message.get("name")
        command = message.get("command")
        if not isinstance(name, str) or not isinstance(command, list):
            return err("invalid-request", "session_create needs a name and command list"), None
        with self._mu:
            at = time.time()
            self.sessions.create(name, command, at)
            self.journal.append(journal_mod.EVENT_SESSION_CREATED, {"name": name}, at=at)
        return ok({"name": name}), None

    def _handle_session_list(self, message: dict):
        return ok({"sessions": self.sessions.rows()}), None

    def _handle_session_kill(self, message: dict):
        name = message.get("name")
        if not isinstance(name, str):
            return err("invalid-request", "session_kill needs a name"), None
        with self._mu:
            proc = self.sessions.kill(name)
            if proc is not None:
                self._dying.append((proc, self._clock()))
            self.journal.append(
                journal_mod.EVENT_SESSION_ENDED, {"name": name}, at=time.time()
            )
        return ok({"name": name}), None

    def _handle_attach(self, message: dict):
        name = message.get("name")
        if not isinstance(name, str):
            return err("invalid-request", "attach needs a session name"), None
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
        reader = sock.makefile("rb")
        try:
            if not self._authenticate(sock, reader):
                return
            while not self._stop.is_set():
                try:
                    message = protocol.read_message(reader)
                except ProtocolError as exc:
                    protocol.send_message(sock, err(exc.code, str(exc)))
                    return
                if message is None:
                    return
                if message.get("type") == "detach":
                    # Only meaningful while this connection streams an attach;
                    # handled inside _stream_attachment.
                    protocol.send_message(sock, err("not-attached", "no attach on this connection"))
                    continue
                response, attachment = self.handle_request(message)
                protocol.send_message(sock, response)
                if attachment is not None:
                    self._stream_attachment(sock, reader, message["name"], attachment)
                    return  # attach consumes the rest of the connection
        except (OSError, ValueError):
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

    def _authenticate(self, sock: socket.socket, reader) -> bool:
        """First message on a connection must present the shared token."""
        try:
            message = protocol.read_message(reader)
        except ProtocolError as exc:
            protocol.send_message(sock, err(exc.code, str(exc)))
            return False
        if message is None:
            return False
        token = message.get("token", "") if message.get("type") == "auth" else ""
        if not (isinstance(token, str) and token
                and hmac.compare_digest(token, self.config.token)):
            protocol.send_message(sock, err("auth-failed", "bad or missing token"))
            return False
        protocol.send_message(sock, ok({"server": "miniqd"}))
        return True

    def _stream_attachment(self, sock, reader, name: str, attachment) -> None:
        """Forward session output as data frames until the stream ends.

        A reader thread watches the same connection for a detach request (or
        client disconnect) and unsubscribes, which terminates the stream.
        """

        def watch_for_detach():
            while True:
                try:
                    message = protocol.read_message(reader)
                except (ProtocolError, OSError, ValueError):
                    message = None
                if message is None or message.get("type") == "detach":
                    try:
                        self.sessions.detach(name, attachment)
                    except MiniqError:
                        pass  # stream already ended
                    return

        watcher = threading.Thread(target=watch_for_detach, daemon=True)
        watcher.start()
        try:
            while True:
                try:
                    chunk = attachment.read(timeout=0.5)
                except queue.Empty:
                    if self._stop.is_set():
                        return
                    continue
                if chunk is None:
                    protocol.send_message(sock, end_frame(attachment.end_reason or "exit"))
                    return
                protocol.send_message(sock, data_frame(chunk))
        except OSError:
            try:
                self.sessions.detach(name, attachment)
            except MiniqError:
                pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="miniqd", description="miniq batch daemon")
    parser.add_argument("--config", required=True, help="path to the daemon config file (JSON)")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        daemon = Daemon(config)

        # Installed before start(): a signal sent as soon as the banner is
        # read must still run shutdown().
        def on_signal(signum, frame):
            daemon._stop.set()

        signal.signal(signal.SIGTERM, on_signal)
        signal.signal(signal.SIGINT, on_signal)
        daemon.start()
    except (ConfigError, BindFailed, JournalCorrupt) as exc:
        print(f"miniqd: {exc}", file=sys.stderr)
        return 1
    host, port = daemon.bound_address
    print(f"miniqd listening on {host}:{port}", flush=True)
    daemon._stop.wait()
    daemon.shutdown()
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
