"""miniq: terminal client for submitting, monitoring and cancelling jobs and
for running, attaching and killing detachable sessions.

Exit codes: 0 success, 1 script parse error, 2 connection or auth error,
3 request exceeds cluster capacity, 4 bad target (unknown job or session,
illegal transition, duplicate session name).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import socket
import sys
import threading
import time
from pathlib import Path

from . import protocol
from .errors import ScriptError
from .jobspec import Dialect, parse_script, render_walltime
from .protocol import DEFAULT_SERVER, TOKEN_ENV_VAR, read_message, send_message

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONN = 2
EXIT_UNSAT = 3
EXIT_TARGET = 4

SERVER_ENV_VAR = "MINIQ_SERVER"
CONFIG_ENV_VAR = "MINIQ_CONFIG"
DEFAULT_CONFIG_PATH = "~/.miniq.json"

DETACH_KEY_WINDOW_S = 1.0

_PARSE_CODES = {
    "parse-error", "mixed-dialects", "no-directives", "malformed-directive",
    "bad-time-format", "missing-walltime", "invalid-resource", "bad-name",
    "bad-output-template",
}
_TARGET_CODES = {
    "no-such-job", "invalid-transition", "unknown-session", "duplicate-session",
    "not-attached", "spawn-failed", "invalid-command",
}

STAT_COLUMNS = ("JOBID", "NAME", "ST", "NODESLOTS", "ELAPSED", "LIMIT")


class CommandFailed(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _exit_code_for(code: str) -> int:
    if code == "unsatisfiable":
        return EXIT_UNSAT
    if code in _PARSE_CODES:
        return EXIT_PARSE
    if code in _TARGET_CODES:
        return EXIT_TARGET
    return EXIT_CONN


class Client:
    """One authenticated connection to the daemon."""

    def __init__(self, address: str, token: str):
        self.address = address
        self.token = token
        self.sock: socket.socket | None = None
        self.reader = None

    def connect(self) -> None:
        host, port = protocol.parse_address(self.address)
        try:
            self.sock = socket.create_connection((host, port), timeout=10)
        except OSError as exc:
            raise CommandFailed(EXIT_CONN, f"cannot connect to {host}:{port}: {exc}") from exc
        self.sock.settimeout(None)
        self.reader = self.sock.makefile("rb")
        response = self.request({"type": "auth", "token": self.token})
        if not response["ok"]:
            raise CommandFailed(EXIT_CONN, response["payload"].get("message", "auth failed"))

    def request(self, message: dict) -> dict:
        try:
            send_message(self.sock, message)
            response = read_message(self.reader)
        except (OSError, ValueError) as exc:
            raise CommandFailed(EXIT_CONN, f"connection error: {exc}") from exc
        if response is None:
            raise CommandFailed(EXIT_CONN, "server closed the connection")
        return response

    def expect_ok(self, message: dict) -> dict:
        """Send a request; raise with the mapped exit code on an error reply."""
        response = self.request(message)
        if not response["ok"]:
            detail = response["payload"].get("message", response["code"])
            if "line" in response["payload"]:
                detail = f"line {response['payload']['line']}: {detail}"
            raise CommandFailed(_exit_code_for(response["code"]), detail)
        return response["payload"]

    def close(self) -> None:
        for closer in (self.reader, self.sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass


def _load_client_config() -> dict:
    path = os.environ.get(CONFIG_ENV_VAR) or os.path.expanduser(DEFAULT_CONFIG_PATH)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc if isinstance(doc, dict) else {}
    except (OSError, ValueError):
        return {}


def resolve_server(flag_value: str | None) -> str:
    if flag_value:
        return flag_value
    env = os.environ.get(SERVER_ENV_VAR)
    if env:
        return env
    return _load_client_config().get("server") or DEFAULT_SERVER


def resolve_token(flag_value: str | None) -> str:
    """Token precedence: flag, then environment, then client config file."""
    token = flag_value or os.environ.get(TOKEN_ENV_VAR) or _load_client_config().get("token")
    if not token:
        raise CommandFailed(
            EXIT_CONN, f"no auth token: pass --token or set {TOKEN_ENV_VAR}"
        )
    return token


def _connect(args) -> Client:
    client = Client(resolve_server(args.server), resolve_token(args.token))
    client.connect()
    return client


# ----- commands ---------------------------------------------------------- #

def cmd_submit(args) -> int:
    script_path = Path(args.script)
    try:
        script_text = script_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"miniq: cannot read script: {exc}", file=sys.stderr)
        return EXIT_PARSE
    dialect = Dialect(args.dialect) if args.dialect else None
    try:
        # Parse locally first so bad scripts fail fast with a line number.
        parse_script(script_text, dialect=dialect, default_name=script_path.stem,
                     strict=args.strict)
    except ScriptError as exc:
        print(f"miniq: {script_path.name}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    submit_dir = os.path.abspath(args.workdir or os.getcwd())
    client = _connect(args)
    try:
        payload = client.expect_ok({
            "type": "submit",
            "script": script_text,
            "submit_dir": submit_dir,
            "dialect": args.dialect,
            "script_name": script_path.stem,
            "strict": args.strict,
        })
    finally:
        client.close()
    for warning in payload.get("warnings", ()):
        print(f"miniq: warning: {warning}", file=sys.stderr)
    print(payload["job_id"])
    return EXIT_OK


def _format_elapsed(seconds: int | None) -> str:
    return "" if seconds is None else render_walltime(seconds)


def _print_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    for line in [headers, *rows]:
        rendered = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        print(rendered.rstrip())


def cmd_stat(args) -> int:
    client = _connect(args)
    try:
        payload = client.expect_ok({
            "type": "status",
            "state": args.state,
            "job_id": args.job_id,
        })
    finally:
        client.close()
    rows = payload["rows"]
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return EXIT_OK
    table = [
        (
            str(row["id"]),
            row["name"],
            row["state"],
            f"{row['nodes']}x{row['slots_per_node']}",
            _format_elapsed(row["elapsed_s"]),
            render_walltime(row["limit_s"]),
        )
        for row in rows
    ]
    _print_table(STAT_COLUMNS, table)
    return EXIT_OK


def cmd_cancel(args) -> int:
    client = _connect(args)
    try:
        payload = client.expect_ok({"type": "cancel", "job_id": args.job_id})
    finally:
        client.close()
    print(f"cancelled {payload['job_id']}")
    return EXIT_OK


def cmd_session_run(args) -> int:
    command = list(args.command)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("miniq: session run needs a command after --", file=sys.stderr)
        return EXIT_TARGET
    client = _connect(args)
    try:
        payload = client.expect_ok({
            "type": "session_create",
            "name": args.session_name,
            "command": command,
        })
    finally:
        client.close()
    print(payload["name"])
    return EXIT_OK


def cmd_session_list(args) -> int:
    client = _connect(args)
    try:
        payload = client.expect_ok({"type": "session_list"})
    finally:
        client.close()
    rows = payload["sessions"]
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return EXIT_OK
    table = [
        (
            row["name"],
            "lost" if row.get("lost") else ("yes" if row["live"] else "no"),
            str(row["attached"]),
            time.strftime("%H:%M:%S", time.localtime(row["created_at"])),
        )
        for row in rows
    ]
    _print_table(("NAME", "LIVE", "ATTACHED", "CREATED"), table)
    return EXIT_OK


def cmd_session_kill(args) -> int:
    client = _connect(args)
    try:
        payload = client.expect_ok({"type": "session_kill", "name": args.name})
    finally:
        client.close()
    print(f"killed {payload['name']}")
    return EXIT_OK


def _watch_keyboard(client: Client, stop: threading.Event) -> None:
    """Watch raw stdin for Ctrl+A then D and send a detach request."""
    import termios

    fd = sys.stdin.fileno()
    saved = termios.tcgetattr(fd)
    raw = termios.tcgetattr(fd)
    raw[3] &= ~(termios.ICANON | termios.ECHO)
    termios.tcsetattr(fd, termios.TCSADRAIN, raw)
    try:
        prefix_at: float | None = None
        while not stop.is_set():
            readable, _, _ = select.select([fd], [], [], 0.1)
            if not readable:
                continue
            key = os.read(fd, 1)
            if not key:
                return
            now = time.monotonic()
            if key == b"\x01":  # Ctrl+A
                prefix_at = now
            elif key in (b"d", b"D") and prefix_at is not None \
                    and now - prefix_at <= DETACH_KEY_WINDOW_S:
                try:
                    send_message(client.sock, {"type": "detach"})
                except OSError:
                    pass
                return
            else:
                prefix_at = None
    finally:
        termios.tcsetattr(fd, termios.TCSADRAIN, saved)


def cmd_session_attach(args) -> int:
    client = _connect(args)
    stop = threading.Event()
    watcher = None
    try:
        payload = client.expect_ok({"type": "attach", "name": args.name})
        if payload.get("truncated"):
            print("[output truncated: ring buffer overflowed]", file=sys.stderr)
        if sys.stdin.isatty():
            watcher = threading.Thread(
                target=_watch_keyboard, args=(client, stop), daemon=True
            )
            watcher.start()
        out = sys.stdout.buffer
        while True:
            frame = read_message(client.reader)
            if frame is None:
                print("[connection lost]", file=sys.stderr)
                return EXIT_CONN
            if frame.get("type") == "data":
                out.write(protocol.decode_data_frame(frame))
                out.flush()
            elif frame.get("type") == "end":
                reason = frame.get("reason")
                print("[detached]" if reason == "detached" else "[session ended]")
                return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"miniq: connection error: {exc}", file=sys.stderr)
        return EXIT_CONN
    finally:
        stop.set()
        if watcher is not None:
            watcher.join(timeout=1.0)
        client.close()


# ----- argument parsing ---------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniq",
        description="Submit and monitor batch jobs; run detachable sessions.",
    )
    parser.add_argument("--server", help="daemon address host:port "
                        f"(default: ${SERVER_ENV_VAR} or {DEFAULT_SERVER})")
    parser.add_argument("--token", help=f"auth token (default: ${TOKEN_ENV_VAR})")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output, one JSON document per row")
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="submit a job script (qsub/sbatch analog)")
    p_submit.add_argument("script", help="path to a #PBS or #SBATCH job script")
    p_submit.add_argument("--dialect", choices=["pbs", "slurm"],
                          help="force the directive dialect instead of auto-detecting")
    p_submit.add_argument("--workdir", help="submit directory (default: current directory)")
    p_submit.add_argument("--strict", action="store_true",
                          help="treat unknown directives and missing walltime as errors")
    p_submit.set_defaults(func=cmd_submit)

    p_stat = sub.add_parser("stat", help="show job status (qstat/squeue analog)")
    p_stat.add_argument("job_id", nargs="?", type=int, default=None)
    p_stat.add_argument("--state", choices=["PD", "R", "CD", "F", "TO", "CA"],
                        help="only show jobs in this state")
    # SUPPRESS keeps an unset subcommand flag from clobbering the global one
    p_stat.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    p_stat.set_defaults(func=cmd_stat)

    p_cancel = sub.add_parser("cancel", help="cancel a pending or running job")
    p_cancel.add_argument("job_id", type=int)
    p_cancel.set_defaults(func=cmd_cancel)

    p_session = sub.add_parser("session", help="manage detachable sessions (screen analog)")
    session_sub = p_session.add_subparsers(dest="session_command", required=True)

    p_run = session_sub.add_parser("run", help="start a detached session")
    p_run.add_argument("-S", "--session-name", required=True, dest="session_name")
    p_run.add_argument("command", nargs=argparse.REMAINDER,
                       help="command to run, after --")
    p_run.set_defaults(func=cmd_session_run)

    p_attach = session_sub.add_parser(
        "attach", help="attach to a session (replay, then live; Ctrl+A then D detaches)")
    p_attach.add_argument("name")
    p_attach.set_defaults(func=cmd_session_attach)

    p_list = session_sub.add_parser("list", help="list sessions")
    p_list.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    p_list.set_defaults(func=cmd_session_list)

    p_kill = session_sub.add_parser("kill", help="terminate a session")
    p_kill.add_argument("name")
    p_kill.set_defaults(func=cmd_session_kill)

    p_sessions = sub.add_parser("sessions", help="list sessions (alias for session list)")
    p_sessions.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    p_sessions.set_defaults(func=cmd_session_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandFailed as exc:
        print(f"miniq: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
