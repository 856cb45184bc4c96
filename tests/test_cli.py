"""CLI tests: exit-code contract, table and machine-readable output."""

from __future__ import annotations

import json
import os
import pty
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import make_pbs_script, make_slurm_script, wait_until
from miniq import cli
from miniq.cli import Client
from miniq import errors, protocol
from miniq.daemon import Daemon
from miniq.runtime import READ_BYTES
from test_daemon import TOKEN, daemon_config

pytestmark = pytest.mark.usefixtures("client_env")


@pytest.fixture
def daemon(tmp_path):
    instance = Daemon(daemon_config(tmp_path / "daemon", slots=8))
    instance.start()
    yield instance
    instance.shutdown()


@pytest.fixture
def client_env(daemon, monkeypatch, tmp_path):
    host, port = daemon.bound_address
    monkeypatch.setenv("MINIQ_SERVER", f"{host}:{port}")
    monkeypatch.setenv("MINIQ_TOKEN", TOKEN)
    monkeypatch.setenv("MINIQ_CONFIG", str(tmp_path / "no-client-config.json"))
    monkeypatch.chdir(tmp_path)


def write_script(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def submitted_job_id(capsys) -> int:
    out = capsys.readouterr().out
    return int(out.strip())


class TestExitCodes:
    def test_every_script_error_exits_as_a_parse_error(self):
        classes, unseen = [], [errors.ScriptError]
        while unseen:
            cls = unseen.pop()
            classes.append(cls)
            unseen += cls.__subclasses__()
        assert len(classes) == 9
        assert {cls.code: cli._exit_code_for(cls.code) for cls in classes} \
            == {cls.code: cli.EXIT_PARSE for cls in classes}

    def test_bad_targets_and_the_rest(self):
        targets = (errors.NoSuchJob, errors.InvalidTransition, errors.UnknownSession,
                   errors.DuplicateSession, errors.NotAttached, errors.SpawnFailed,
                   errors.InvalidCommand)
        assert {cli._exit_code_for(cls.code) for cls in targets} == {cli.EXIT_TARGET}
        assert cli._exit_code_for(errors.Unsatisfiable.code) == cli.EXIT_UNSAT
        for cls in (errors.ShuttingDown, errors.ProtocolError):
            assert cli._exit_code_for(cls.code) == cli.EXIT_CONN


class TestSubmit:
    def test_prints_only_the_job_id(self, tmp_path, capsys):
        script = write_script(tmp_path, "automl_job.pbs",
                              make_pbs_script("automl_job", 1, 1, 60, body="echo hi"))
        assert cli.main(["submit", script]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1\n"

    def test_ids_increment_across_dialects(self, tmp_path, capsys):
        pbs = write_script(tmp_path, "automl_job.pbs",
                           make_pbs_script("automl_job", 1, 1, 60, body="sleep 30"))
        slurm = write_script(tmp_path, "automl_job.slurm",
                             make_slurm_script("automl_job", 1, 1, 60, body="sleep 30"))
        assert cli.main(["submit", pbs]) == 0
        assert capsys.readouterr().out == "1\n"
        assert cli.main(["submit", slurm]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_unknown_directive_is_a_warning_and_exits_0(self, tmp_path, capsys):
        script = write_script(tmp_path, "odd.pbs",
                              "#!/bin/bash\n#PBS -N odd\n#PBS -q short\ntrue\n")
        assert cli.main(["submit", script]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1\n"
        assert captured.err == "miniq: warning: line 3: ignoring unknown directive -q\n"

    def test_parse_error_names_line_and_exits_1(self, tmp_path, capsys):
        script = write_script(tmp_path, "bad.pbs",
                              "#!/bin/bash\n#PBS -l walltime=9:99:00\ntrue\n")
        assert cli.main(["submit", script]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err

    def test_daemon_parse_error_names_its_line_once(self, tmp_path, daemon):
        # The daemon's message already begins with the line; its reply also
        # carries the line as a field.
        host, port = daemon.bound_address
        client = Client(f"{host}:{port}", TOKEN)
        client.connect()
        try:
            with pytest.raises(cli.CommandFailed) as excinfo:
                client.expect_ok({"type": "submit", "submit_dir": str(tmp_path),
                                  "script": "#!/bin/bash\n#PBS -l walltime=9:99:00\ntrue\n"})
        finally:
            client.close()
        assert excinfo.value.exit_code == 1
        assert str(excinfo.value).startswith("line 2: ")
        assert str(excinfo.value).count("line 2") == 1

    def test_unreadable_script_exits_1(self, tmp_path, capsys):
        assert cli.main(["submit", str(tmp_path / "missing.pbs")]) == 1

    def test_unsatisfiable_exits_3(self, tmp_path, capsys):
        script = write_script(tmp_path, "big.pbs", make_pbs_script("big", 9, 8, 60))
        assert cli.main(["submit", script]) == 3

    def test_bad_token_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MINIQ_TOKEN", "nope")
        script = write_script(tmp_path, "a.pbs", make_pbs_script("a", 1, 1, 60))
        assert cli.main(["submit", script]) == 2

    def test_missing_token_is_immediate_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MINIQ_TOKEN")
        monkeypatch.setenv("MINIQ_SERVER", "127.0.0.1:1")  # would fail if dialed
        script = write_script(tmp_path, "a.pbs", make_pbs_script("a", 1, 1, 60))
        assert cli.main(["submit", script]) == 2

    def test_unreachable_server_exits_2(self, tmp_path, monkeypatch):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listening here
        monkeypatch.setenv("MINIQ_SERVER", f"127.0.0.1:{port}")
        script = write_script(tmp_path, "a.pbs", make_pbs_script("a", 1, 1, 60))
        assert cli.main(["submit", script]) == 2

    def test_server_with_a_bad_port_exits_2(self, capsys):
        assert cli.main(["--server", "127.0.0.1:abc", "stat"]) == 2
        assert capsys.readouterr().err == "miniq: bad port in address '127.0.0.1:abc'\n"

    def test_client_config_server_that_is_not_a_string_exits_2(self, tmp_path, capsys,
                                                               monkeypatch):
        config = tmp_path / "client.json"
        config.write_text(json.dumps({"server": 7075}))
        monkeypatch.setenv("MINIQ_CONFIG", str(config))
        monkeypatch.delenv("MINIQ_SERVER")
        assert cli.main(["stat"]) == 2
        assert capsys.readouterr().err == (
            f"miniq: client config {config}: server must be str, got 7075\n")

    def test_forced_dialect_for_bare_script(self, tmp_path, capsys):
        script = write_script(tmp_path, "bare.sh", "#!/bin/bash\necho hi\n")
        assert cli.main(["submit", script]) == 1  # no directives, no flag
        capsys.readouterr()
        assert cli.main(["submit", "--dialect", "pbs", script]) == 0
        assert submitted_job_id(capsys) >= 1

    def test_workdir_flag_sets_submit_dir(self, tmp_path, capsys, daemon):
        workdir = tmp_path / "elsewhere"
        workdir.mkdir()
        script = write_script(tmp_path, "a.pbs",
                              make_pbs_script("a", 1, 1, 60, body="pwd"))
        assert cli.main(["submit", "--workdir", str(workdir), script]) == 0
        job_id = submitted_job_id(capsys)
        assert wait_until(
            lambda: daemon.state.jobs[job_id].state.value == "CD", 5)
        assert (workdir / f"a.o{job_id}").read_text().strip() == str(workdir)


class TestStat:
    def test_empty_queue_header_only(self, capsys):
        assert cli.main(["stat"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].split() == ["JOBID", "NAME", "ST", "NODESLOTS", "ELAPSED", "LIMIT"]

    def test_running_job_row(self, tmp_path, capsys, daemon):
        script = write_script(tmp_path, "automl_job.pbs",
                              make_pbs_script("automl_job", 1, 8, 14400, body="sleep 60"))
        cli.main(["submit", script])
        capsys.readouterr()
        assert wait_until(
            lambda: daemon.state.jobs[1].state.value == "R", 5)
        assert cli.main(["stat"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = lines[1].split()
        assert row[0] == "1"
        assert row[1] == "automl_job"
        assert row[2] == "R"
        assert row[3] == "1x8"
        assert re.fullmatch(r"0:00:\d\d", row[4])  # elapsed, H:MM:SS
        assert row[5] == "4:00:00"

    def test_elapsed_rendering(self):
        assert cli._format_elapsed(60) == "0:01:00"
        assert cli._format_elapsed(14400) == "4:00:00"
        assert cli._format_elapsed(None) == ""

    def test_state_filter_with_no_matches(self, capsys):
        assert cli.main(["stat", "--state", "R"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_json_flag_accepted_after_subcommand(self, tmp_path, capsys, daemon):
        script = write_script(tmp_path, "a.pbs",
                              make_pbs_script("a", 1, 1, 120, body="sleep 60"))
        cli.main(["submit", script])
        capsys.readouterr()
        assert cli.main(["stat", "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows and rows[0]["id"] == 1

    def test_json_rows_round_trip(self, tmp_path, capsys, daemon):
        script = write_script(tmp_path, "a.pbs",
                              make_pbs_script("a", 1, 1, 120, body="sleep 60"))
        cli.main(["submit", script])
        cli.main(["submit", script])
        capsys.readouterr()
        assert cli.main(["--json", "stat"]) == 0
        emitted = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        snapshot = [json.loads(row) for row in daemon.state.snapshot(daemon._clock())]
        # elapsed for running jobs moves with the clock; compare it loosely
        assert len(emitted) == len(snapshot)
        for got, expected in zip(emitted, snapshot):
            for key in ("id", "name", "state", "nodes", "slots_per_node", "limit_s"):
                assert got[key] == expected[key]


class TestCancel:
    def test_cancel_pending_then_again(self, tmp_path, capsys, daemon):
        blocker = write_script(tmp_path, "b.pbs",
                               make_pbs_script("b", 2, 8, 600, body="sleep 600"))
        waiter = write_script(tmp_path, "w.pbs",
                              make_pbs_script("w", 1, 1, 600, body="sleep 600"))
        cli.main(["submit", blocker])
        cli.main(["submit", waiter])
        capsys.readouterr()
        assert cli.main(["cancel", "2"]) == 0
        assert cli.main(["stat", "2"]) == 0
        out = capsys.readouterr().out
        assert "CA" in out
        assert cli.main(["cancel", "2"]) == 4

    def test_cancel_unknown_job_exits_4(self, capsys):
        assert cli.main(["cancel", "999"]) == 4
        assert "no such job" in capsys.readouterr().err


def counter_argv(n: int, delay: float = 0.0) -> list[str]:
    code = f"import time\nfor i in range({n}):\n    print(i, flush=True)\n    time.sleep({delay})"
    return [sys.executable, "-u", "-c", code]


class TestSessions:
    def test_run_list_attach_kill(self, capsys, daemon):
        argv = ["session", "run", "-S", "my_session_name", "--"] + counter_argv(3)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "my_session_name\n"

        assert cli.main(["sessions"]) == 0
        out = capsys.readouterr().out
        assert "my_session_name" in out

        assert wait_until(
            lambda: not daemon.sessions._sessions["my_session_name"].live, 5)
        assert cli.main(["session", "attach", "my_session_name"]) == 0
        out = capsys.readouterr().out
        assert out == "0\n1\n2\n[session ended]\n"

        assert cli.main(["session", "kill", "my_session_name"]) == 0
        capsys.readouterr()
        assert cli.main(["session", "attach", "my_session_name"]) == 4

    def test_duplicate_session_exits_4(self, capsys, daemon):
        argv = ["session", "run", "-S", "dup", "--", "sleep", "30"]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 4
        cli.main(["session", "kill", "dup"])

    def test_attach_unknown_exits_4(self, capsys):
        assert cli.main(["session", "attach", "ghost"]) == 4

    def test_kill_unknown_exits_4(self, capsys):
        assert cli.main(["session", "kill", "ghost"]) == 4

    def test_missing_command_after_separator(self, capsys):
        assert cli.main(["session", "run", "-S", "empty", "--"]) == 4


class TestInteractiveAttach:
    def test_chord_detaches_and_session_survives(self, daemon, tmp_path, capsys):
        assert cli.main(["session", "run", "-S", "steady", "--"]
                        + counter_argv(2000, delay=0.02)) == 0
        capsys.readouterr()

        host, port = daemon.bound_address
        env = dict(os.environ, MINIQ_SERVER=f"{host}:{port}", MINIQ_TOKEN=TOKEN,
                   MINIQ_CONFIG=str(tmp_path / "absent.json"))
        controller_fd, follower_fd = pty.openpty()
        proc = subprocess.Popen(
            [sys.executable, "-m", "miniq.cli", "session", "attach", "steady"],
            stdin=follower_fd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        os.close(follower_fd)
        try:
            time.sleep(0.8)  # let the attach establish and stream a little
            os.write(controller_fd, b"\x01")
            time.sleep(0.1)
            os.write(controller_fd, b"d")
            stdout, stderr = proc.communicate(timeout=10)
        finally:
            os.close(controller_fd)
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, stderr
        assert stdout.rstrip().endswith("[detached]")

        assert cli.main(["sessions", "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["name"] == "steady"
        assert rows[0]["live"] is True and rows[0]["attached"] == 0
        cli.main(["session", "kill", "steady"])


class TestReadBuffer:
    def test_a_whole_data_frame_takes_at_most_two_receives(self, monkeypatch):
        class CountingSocket(socket.socket):
            receives = 0

            def recv_into(self, *args):
                self.receives += 1
                return super().recv_into(*args)

        create_connection = socket.create_connection

        def counting_connection(*args, **kwargs):
            sock = create_connection(*args, **kwargs)
            return CountingSocket(sock.family, sock.type, sock.proto, fileno=sock.detach())

        monkeypatch.setattr(cli.socket, "create_connection", counting_connection)
        frame = protocol.data_frame(b"\0" * READ_BYTES)
        sent = threading.Event()

        def serve(listener):
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                protocol.read_message(reader)  # auth
                protocol.send_message(conn, protocol.ok())
                protocol.read_message(reader)  # the go-ahead: the frame comes after auth's reply
                protocol.send_message(conn, frame)
                sent.set()
                protocol.read_message(reader)  # EOF once the client closes

        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = threading.Thread(target=serve, args=(listener,), daemon=True)
            server.start()
            client = Client(f"127.0.0.1:{listener.getsockname()[1]}", "t")
            client.connect()
            try:
                assert isinstance(client.sock, CountingSocket)
                protocol.send_message(client.sock, {"type": "go"})
                assert sent.wait(5)
                client.sock.receives = 0
                message = protocol.read_message(client.reader)
                receives = client.sock.receives
            finally:
                client.close()
            server.join(timeout=5)
        assert not server.is_alive()
        assert protocol.decode_data_frame(message) == b"\0" * READ_BYTES
        assert receives <= 2


class TestUnreadableReply:
    @pytest.mark.parametrize("argv", [["stat"], ["session", "attach", "s"]],
                             ids=["request", "attach stream"])
    @pytest.mark.parametrize("reply", [b"[" * 2000 + b"\n", b"{not json\n"],
                             ids=["over the line limit", "not JSON"])
    def test_unreadable_reply_exits_as_a_connection_error(self, monkeypatch, capsys,
                                                          argv, reply):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 1024)

        def serve(listener):
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                protocol.read_message(reader)  # auth
                protocol.send_message(conn, protocol.ok())
                protocol.read_message(reader)  # the request
                if argv[0] == "session":
                    protocol.send_message(conn, protocol.ok({"name": "s"}))
                conn.sendall(reply)
                reader.read()  # EOF once the client closes

        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = threading.Thread(target=serve, args=(listener,), daemon=True)
            server.start()
            address = f"127.0.0.1:{listener.getsockname()[1]}"
            code = cli.main(["--server", address, "--token", "t", *argv])
            server.join(timeout=5)
        assert not server.is_alive()
        assert code == cli.EXIT_CONN
        assert "connection error: message" in capsys.readouterr().err


class TestDetachChord:
    def test_ctrl_a_d_sends_detach(self, monkeypatch):
        # Feed the watcher a pty that receives Ctrl+A then 'd'.
        controller_fd, follower_fd = pty.openpty()
        server_sock, client_sock = socket.socketpair()
        fake_client = Client("unused:0", "t")
        fake_client.sock = client_sock

        follower = os.fdopen(follower_fd, "rb", buffering=0)
        monkeypatch.setattr(cli.sys, "stdin", follower)

        stop = threading.Event()
        watcher = threading.Thread(
            target=cli._watch_keyboard, args=(fake_client, stop), daemon=True)
        watcher.start()
        os.write(controller_fd, b"\x01")
        time.sleep(0.05)
        os.write(controller_fd, b"d")
        watcher.join(timeout=3)
        assert not watcher.is_alive()
        data = server_sock.recv(4096)
        assert json.loads(data.decode()) == {"type": "detach"}
        stop.set()
        for fd in (controller_fd,):
            os.close(fd)
        follower.close()
        server_sock.close()
        client_sock.close()

    def test_stale_prefix_does_not_detach(self, monkeypatch):
        controller_fd, follower_fd = pty.openpty()
        server_sock, client_sock = socket.socketpair()
        fake_client = Client("unused:0", "t")
        fake_client.sock = client_sock

        follower = os.fdopen(follower_fd, "rb", buffering=0)
        monkeypatch.setattr(cli.sys, "stdin", follower)
        monkeypatch.setattr(cli, "DETACH_KEY_WINDOW_S", 0.1)

        stop = threading.Event()
        watcher = threading.Thread(
            target=cli._watch_keyboard, args=(fake_client, stop), daemon=True)
        watcher.start()
        os.write(controller_fd, b"\x01")
        time.sleep(0.3)  # outside the inter-key window
        os.write(controller_fd, b"d")
        time.sleep(0.2)
        stop.set()
        watcher.join(timeout=2)
        server_sock.settimeout(0.1)
        with pytest.raises(TimeoutError):
            server_sock.recv(4096)
        os.close(controller_fd)
        follower.close()
        server_sock.close()
        client_sock.close()
