"""Tests for the daemon: wire protocol, scheduling loop, journal discipline."""

from __future__ import annotations

import builtins
import errno
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import (
    assert_all_slots_free,
    gated,
    make_pbs_script,
    make_spec,
    process_alive,
    ring_bytes,
    stream,
    wait_until,
)
from miniq import daemon as daemon_mod
from miniq import journal as journal_mod
from miniq import protocol, runtime
from miniq.cli import Client, CommandFailed
from miniq.daemon import (DEFAULT_TICK_INTERVAL_S, Daemon, DaemonConfig, load_config, main,
                          steady_epoch)
from miniq.errors import BindFailed, ConfigError, JournalCorrupt, SpawnFailed
from miniq.journal import EVENT_SESSION_CREATED, Journal, read_entries
from miniq.runtime import DEFAULT_RING_CAPACITY, GRACE_SECONDS, READ_BYTES
from miniq.sched import JobStatus, Node, Outcome

TOKEN = "hunter2"

SIGTERM_AT_BANNER = """
import os, signal, sys
from miniq import daemon

class SignalOnBanner:
    def __init__(self, stream):
        self.stream = stream

    def write(self, text):
        written = self.stream.write(text)
        if text.startswith("miniqd listening on "):
            self.stream.flush()
            os.kill(os.getpid(), signal.SIGTERM)
        return written

    def flush(self):
        self.stream.flush()

sys.stdout = SignalOnBanner(sys.stdout)
sys.exit(daemon.main(sys.argv[1:]))
"""


def daemon_config(tmp_path, *, port: int = 0, slots: int = 2, nodes: int = 2,
                  tick: float = 0.05, token: str = TOKEN) -> DaemonConfig:
    return DaemonConfig(
        host="127.0.0.1",
        port=port,
        token=token,
        nodes=[Node(id=f"n{i + 1}", slots_total=slots) for i in range(nodes)],
        journal_path=str(tmp_path / "journal.ndjson"),
        workdir_root=str(tmp_path / "work"),
        tick_interval_s=tick,
    )


@pytest.fixture
def daemon(tmp_path):
    instance = Daemon(daemon_config(tmp_path))
    instance.start()
    yield instance
    instance.shutdown()


def connect(daemon: Daemon, token: str = TOKEN) -> Client:
    host, port = daemon.bound_address
    client = Client(f"{host}:{port}", token)
    client.connect()
    return client


def submit_script(client: Client, script: str, submit_dir: str, **extra) -> dict:
    return client.request({
        "type": "submit", "script": script, "submit_dir": submit_dir, **extra,
    })


def ended_leaders(daemon: Daemon) -> list:
    """The leaders in the daemon's table that were sent SIGTERM and wait out
    their grace: those whose owner is None."""
    return [proc for proc, (_, owner) in daemon._leaders.items() if owner is None]


def job_state(client: Client, job_id: int) -> str:
    response = client.request({"type": "status", "job_id": job_id})
    rows = response["payload"]["rows"]
    return rows[0]["state"] if rows else "?"


class TestAuth:
    def test_bad_token_rejected_and_closed(self, daemon):
        host, port = daemon.bound_address
        client = Client(f"{host}:{port}", "wrong")
        try:
            with pytest.raises(CommandFailed) as excinfo:
                client.connect()
        finally:
            client.close()
        assert excinfo.value.exit_code == 2

    def test_refused_connect_closes_its_socket(self, daemon):
        host, port = daemon.bound_address
        client = Client(f"{host}:{port}", "wrong")
        with pytest.raises(CommandFailed):
            client.connect()
        assert (client.sock.fileno(), client.reader.closed) == (-1, True)

    @pytest.mark.parametrize("first", [
        pytest.param({"type": "status"}, id="not auth"),
        pytest.param({"type": "auth", "token": "sécret"}, id="non-ASCII token"),
        pytest.param({"type": "auth", "token": "\ud800"}, id="token not encodable as UTF-8"),
    ])
    def test_first_message_must_be_auth(self, daemon, first):
        sock = socket.create_connection(daemon.bound_address)
        reader = sock.makefile("rb")
        protocol.send_message(sock, first)
        response = protocol.read_message(reader)
        assert response["ok"] is False
        assert response["code"] == "auth-failed"
        assert protocol.read_message(reader) is None  # connection closed
        sock.close()

    def test_good_token_accepted(self, daemon):
        client = connect(daemon)
        response = client.request({"type": "status"})
        assert response["ok"] is True
        client.close()

    def test_non_ascii_token_accepted(self, tmp_path):
        daemon = Daemon(daemon_config(tmp_path, token="sécret"))
        daemon.start()
        try:
            client = connect(daemon, token="sécret")
            assert client.request({"type": "status"})["ok"] is True
            client.close()
        finally:
            daemon.shutdown()


class TestSubmit:
    def test_sequential_ids(self, daemon, tmp_path):
        client = connect(daemon)
        script = make_pbs_script("a", 1, 1, 60, body="sleep 30")
        first = submit_script(client, script, str(tmp_path))
        second = submit_script(client, script, str(tmp_path))
        assert first["payload"]["job_id"] == 1
        assert second["payload"]["job_id"] == 2
        client.close()

    def test_parse_error_carries_line_number(self, daemon, tmp_path):
        client = connect(daemon)
        script = "#!/bin/bash\n#PBS -l walltime=9:99:00\ntrue\n"
        response = submit_script(client, script, str(tmp_path))
        assert response["ok"] is False
        assert response["code"] == "bad-time-format"
        assert response["payload"]["line"] == 2
        client.close()

    def test_walltime_past_the_bound_is_refused_and_the_tick_goes_on(self, daemon, tmp_path):
        client = connect(daemon)
        script = "#!/bin/bash\n#PBS -l walltime=" + "9" * 400 + ":00:00\ntrue\n"
        response = submit_script(client, script, str(tmp_path))
        assert response["ok"] is False
        assert response["code"] == "bad-time-format"
        assert response["payload"]["line"] == 2
        job_id = submit_script(client, make_pbs_script("a", 1, 1, 60, body="true"),
                               str(tmp_path))["payload"]["job_id"]
        daemon.tick_once()
        assert daemon.state.jobs[job_id].state is not JobStatus.PENDING
        assert wait_until(lambda: job_state(client, job_id) == "CD", 5)
        client.close()

    def test_unsatisfiable_rejected(self, daemon, tmp_path):
        client = connect(daemon)
        script = make_pbs_script("big", 5, 1, 60)
        response = submit_script(client, script, str(tmp_path))
        assert response["code"] == "unsatisfiable"
        client.close()

    def test_relative_submit_dir_rejected(self, daemon):
        client = connect(daemon)
        response = submit_script(client, make_pbs_script("a", 1, 1, 60), "relative/dir")
        assert response["code"] == "invalid-request"
        client.close()

    def test_unknown_request_type(self, daemon):
        client = connect(daemon)
        response = client.request({"type": "frobnicate"})
        assert response["code"] == "unknown-request"
        client.close()

    @pytest.mark.parametrize("request_, code", [
        pytest.param({"type": "submit", "script": make_pbs_script("a", 1, 1, 60),
                      "dialect": "fortran"}, "invalid-request", id="unknown dialect"),
        pytest.param({"type": "submit", "script": make_pbs_script("a", 1, 1, 60),
                      "script_name": 5}, "invalid-request", id="script name that is a number"),
        pytest.param({"type": "session_create", "name": "s", "command": ["sleep", 30]},
                     "invalid-request", id="command argument that is a number"),
        pytest.param({"type": "status", "state": ["R"]}, "invalid-request",
                     id="state filter that is a list"),
        *[pytest.param({"type": "status", "state": state}, "invalid-request",
                       id=f"state filter {state!r}") for state in ([], 0, False, "", {}, "XX")],
        *[pytest.param({"type": "submit", "script": make_pbs_script("a", 1, 1, 60),
                        "dialect": dialect}, "invalid-request", id=f"dialect {dialect!r}")
          for dialect in ([], 0, False, "")],
        pytest.param({"type": "submit", "script": make_pbs_script("a", 1, 1, 60),
                      "strict": "no"}, "invalid-request", id="strict that is a string"),
        pytest.param({"type": "session_create", "name": "s", "command": None},
                     "invalid-request", id="null command"),
        pytest.param({"type": "session_create", "name": 5, "command": ["true"]},
                     "invalid-request", id="session name that is a number"),
        pytest.param({"type": "cancel", "job_id": None}, "invalid-request", id="null job id"),
        pytest.param({"type": ["status"]}, "unknown-request", id="request type that is a list"),
        pytest.param({"type": "detach"}, "not-attached", id="detach with no attach"),
    ])
    def test_malformed_field_answered_and_connection_kept(self, daemon, tmp_path, request_,
                                                          code):
        client = connect(daemon)
        if request_["type"] == "submit":
            request_ = {**request_, "submit_dir": str(tmp_path)}
        assert client.request(request_)["code"] == code
        assert client.request({"type": "status"})["payload"]["rows"] == []
        assert client.request({"type": "session_list"})["payload"]["sessions"] == []
        client.close()

    @pytest.mark.parametrize("line", [b"not json\n", b"[1]\n"])
    def test_unreadable_line_gets_one_protocol_error_then_eof(self, daemon, line):
        client = connect(daemon)
        client.sock.sendall(line)
        response = protocol.read_message(client.reader)
        assert (response["ok"], response["code"]) == (False, "protocol-error")
        assert protocol.read_message(client.reader) is None  # connection closed
        client.close()

    def test_handler_fault_reaches_the_thread_excepthook(self, daemon, monkeypatch):
        def faulty(self, message):
            raise ValueError("handler fault")

        seen = []
        monkeypatch.setitem(Daemon._handlers, "status", faulty)
        monkeypatch.setattr(threading, "excepthook", seen.append)
        client = connect(daemon)
        with pytest.raises(CommandFailed, match="server closed the connection"):
            client.request({"type": "status"})
        client.close()
        assert wait_until(lambda: seen, 5)
        assert [str(args.exc_value) for args in seen] == ["handler fault"]

    @pytest.mark.parametrize("directive, code", [
        pytest.param("#SBATCH --time=\u00b2", "bad-time-format", id="clock field"),
        pytest.param("#SBATCH --time=\u00b2-01:00:00", "bad-time-format", id="day count"),
        pytest.param("#PBS -l nodes=\u00b2", "invalid-resource", id="node count"),
        pytest.param("#SBATCH --time=" + "1" * 5000, "bad-time-format", id="5000 digits"),
    ])
    def test_digit_that_int_refuses_gets_an_error_reply(self, daemon, tmp_path, directive,
                                                        code):
        response, attachment = daemon.handle_request({
            "type": "submit", "script": directive + "\ntrue\n", "submit_dir": str(tmp_path)})
        assert (response["ok"], response["code"], attachment) == (False, code, None)
        assert response["payload"]["line"] == 1

    def test_null_script_name_is_not_given(self, daemon, tmp_path):
        client = connect(daemon)
        response = submit_script(client, "#!/bin/bash\n#PBS -l walltime=00:01:00\ntrue\n",
                                 str(tmp_path), script_name=None)
        assert response["ok"], response
        rows = client.request({"type": "status"})["payload"]["rows"]
        assert [row["name"] for row in rows] == ["job"]
        client.close()

    def test_script_name_that_is_not_a_string_is_not_journaled(self, tmp_path):
        # A spec named by a list would be refused by replay, and the daemon
        # could not restart on its own journal.
        first = Daemon(daemon_config(tmp_path))
        try:
            response, _ = first.handle_request({
                "type": "submit", "script": "#!/bin/bash\n#PBS -l walltime=00:01:00\ntrue\n",
                "submit_dir": str(tmp_path), "script_name": ["x"]})
        finally:
            first.shutdown()
        Daemon(daemon_config(tmp_path)).shutdown()  # raises JournalCorrupt if it was journaled
        assert response["code"] == "invalid-request"

    def test_submitted_entry_durable_before_response(self, daemon, tmp_path):
        # Write-ahead: the Submitted entry hits the journal before the client
        # can observe the job id.
        client = connect(daemon)  # before patching; auth has its own response
        order = []
        journal_append = daemon.journal.append

        def recording_append(event, data, at):
            order.append(("journal", event))
            return journal_append(event, data, at)

        daemon.journal.append = recording_append
        daemon_module = sys.modules["miniq.daemon"]
        original_send = daemon_module.protocol.send_message

        def recording_send(sock, message):
            if "ok" in message:
                order.append(("send", message["ok"]))
            return original_send(sock, message)

        daemon_module.protocol.send_message = recording_send
        try:
            submit_script(client, make_pbs_script("a", 1, 1, 60, body="sleep 30"),
                          str(tmp_path))
            client.close()
        finally:
            daemon_module.protocol.send_message = original_send
            daemon.journal.append = journal_append
        assert order.index(("journal", "submitted")) < order.index(("send", True))

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_crash_between_journal_and_response_leaves_no_phantom(self, daemon, tmp_path):
        # Simulated crash: journal write succeeds, response never arrives.
        journal_append = daemon.journal.append

        def crashing_append(event, data, at):
            entry = journal_append(event, data, at)
            raise RuntimeError("simulated crash after durable write")

        daemon.journal.append = crashing_append
        client = connect(daemon)
        try:
            with pytest.raises(CommandFailed):
                response = submit_script(
                    client, make_pbs_script("a", 1, 1, 60), str(tmp_path))
                assert response is None  # never observed an id
        finally:
            daemon.journal.append = journal_append
            client.close()
        time.sleep(0.2)  # let the killed connection thread finish inside this test
        entries = read_entries(daemon.config.journal_path)
        assert entries[0].event == "submitted"
        assert entries[0].data["job_id"] == 1  # durable although never observed

    def test_concurrent_submissions_gapless_ids(self, daemon, tmp_path):
        ids: list[int] = []
        lock = threading.Lock()
        script = make_pbs_script("a", 1, 1, 60, body="sleep 30")

        def worker():
            client = connect(daemon)
            for _ in range(5):
                response = submit_script(client, script, str(tmp_path))
                with lock:
                    ids.append(response["payload"]["job_id"])
            client.close()

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(ids) == list(range(1, 31))
        seqs = [e.seq for e in read_entries(daemon.config.journal_path)]
        assert seqs == list(range(1, len(seqs) + 1))


class TestLifecycleOverWire:
    def test_job_runs_to_completion_with_output(self, daemon, tmp_path):
        client = connect(daemon)
        script = make_pbs_script("hello", 1, 1, 60, body="echo done")
        job_id = submit_script(client, script, str(tmp_path))["payload"]["job_id"]
        assert wait_until(lambda: job_state(client, job_id) == "CD", 5)
        assert (tmp_path / f"hello.o{job_id}").read_bytes().strip() == b"done"
        client.close()

    def test_cancel_pending_job(self, daemon, tmp_path):
        client = connect(daemon)
        blocker = make_pbs_script("blocker", 2, 2, 600, body="sleep 600")
        waiter = make_pbs_script("waiter", 1, 1, 600, body="sleep 600")
        submit_script(client, blocker, str(tmp_path))
        waiting_id = submit_script(client, waiter, str(tmp_path))["payload"]["job_id"]
        response = client.request({"type": "cancel", "job_id": waiting_id})
        assert response["ok"] and response["payload"]["state"] == "CA"
        response = client.request({"type": "cancel", "job_id": waiting_id})
        assert response["code"] == "invalid-transition"
        client.close()

    def test_cancel_running_job_kills_process(self, daemon, tmp_path):
        client = connect(daemon)
        job_id = submit_script(
            client, make_pbs_script("runner", 1, 1, 600, body="sleep 600"),
            str(tmp_path))["payload"]["job_id"]
        assert wait_until(lambda: job_state(client, job_id) == "R", 5)
        proc = daemon.state.jobs[job_id].proc
        assert proc is not None
        client.request({"type": "cancel", "job_id": job_id})
        assert job_state(client, job_id) == "CA"
        assert daemon.state.jobs[job_id].proc is None
        # Seen without reaping: the daemon reaps its leaders, this one only
        # after the grace.
        exited = os.WEXITED | os.WNOHANG | os.WNOWAIT
        assert wait_until(lambda: os.waitid(os.P_PID, proc.pid, exited) is not None, 1)
        client.close()

    def test_cancel_kills_children_that_ignore_sigterm(self, daemon, tmp_path):
        # The shell dies on SIGTERM; its child ignores it and must get the
        # group's SIGKILL once the grace runs out.
        client = connect(daemon)
        body = "sh -c 'trap \"\" TERM; echo $$ > child.pid; exec sleep 30' &\nwait"
        job_id = submit_script(
            client, make_pbs_script("stubborn", 1, 1, 600, body=body),
            str(tmp_path))["payload"]["job_id"]
        pid_file = tmp_path / "child.pid"
        assert wait_until(lambda: pid_file.exists() and pid_file.read_text().strip(), 5)
        child = int(pid_file.read_text())
        client.request({"type": "cancel", "job_id": job_id})
        time.sleep(0.5)
        assert process_alive(child)
        assert wait_until(lambda: not process_alive(child), GRACE_SECONDS + 2)
        client.close()

    def test_cancel_unknown_job(self, daemon):
        client = connect(daemon)
        response = client.request({"type": "cancel", "job_id": 999})
        assert response["code"] == "no-such-job"
        client.close()

    @pytest.mark.parametrize("job_id", [True, 1.0])
    def test_job_id_that_is_not_an_int_names_no_job(self, daemon, tmp_path, job_id):
        client = connect(daemon)
        submit_script(client, make_pbs_script("a", 1, 1, 60, body="sleep 60"), str(tmp_path))
        response = client.request({"type": "status", "job_id": job_id})
        assert response["ok"] and response["payload"]["rows"] == []
        response = client.request({"type": "cancel", "job_id": job_id})
        assert response["code"] == "invalid-request"
        assert job_state(client, 1) in ("PD", "R")
        client.close()

    def test_status_filter_by_state(self, daemon, tmp_path):
        client = connect(daemon)
        submit_script(client, make_pbs_script("a", 1, 1, 60, body="sleep 60"),
                      str(tmp_path))
        assert wait_until(lambda: job_state(client, 1) == "R", 5)
        running = client.request({"type": "status", "state": "R"})["payload"]["rows"]
        pending = client.request({"type": "status", "state": "PD"})["payload"]["rows"]
        assert [row["id"] for row in running] == [1]
        assert pending == []
        client.close()

    def test_status_reply_is_json_dumps_of_the_rows(self, tmp_path):
        daemon = Daemon(daemon_config(tmp_path), clock=lambda: 100.0)
        try:
            state = daemon.state
            for name in ("plain", "caf\u00e9", 'say "hi"', "tab\there", "\u03bb\U0001f600"):
                state.submit(make_spec(name=name, slots=2), str(tmp_path), 0.0)
            state.tick(10.0)  # jobs 1 and 2 fill both nodes
            state.transition(1, Outcome.exit(0), 50.7)
            state.transition(3, Outcome.cancel(), 60.0)
            requests = [{}, {"state": "R"}, {"state": "PD"}, {"state": "CD"},
                        {"job_id": 2}, {"job_id": 99}, {"job_id": [1]}]
            for extra in requests * 2:  # the second pass serves cached rows
                line, attachment = daemon.handle_request({"type": "status", **extra})
                states = {JobStatus(extra["state"])} if "state" in extra else None
                rows = state.snapshot(100.0, states=states, job_id=extra.get("job_id"))
                expected = protocol.ok({"rows": [json.loads(row) for row in rows]})
                assert line == json.dumps(expected, separators=(",", ":")) + "\n", extra
                assert attachment is None
            sender, receiver = socket.socketpair()
            with sender, receiver, receiver.makefile("rb") as reader:
                protocol.send_message(sender, line)
                assert reader.readline() == line.encode("utf-8")
        finally:
            daemon.shutdown()

    def test_status_rows_same_after_restart(self, tmp_path):
        first = Daemon(daemon_config(tmp_path))
        first.start()
        try:
            client = connect(first)
            for name in ("one", "two", "three"):
                submit_script(client, make_pbs_script(name, 1, 1, 60, body="true"),
                              str(tmp_path))
            blocker = submit_script(
                client, make_pbs_script("blocker", 2, 2, 600, body="sleep 600"),
                str(tmp_path))["payload"]["job_id"]
            assert wait_until(lambda: job_state(client, blocker) == "R", 5)
            waiter = submit_script(client, make_pbs_script("waiter", 1, 1, 60, body="true"),
                                   str(tmp_path))["payload"]["job_id"]
            client.request({"type": "cancel", "job_id": waiter})
            client.request({"type": "cancel", "job_id": blocker})
            assert wait_until(lambda: all(
                row["state"] in ("CD", "CA")
                for row in client.request({"type": "status"})["payload"]["rows"]), 5)
            before = client.request({"type": "status"})["payload"]["rows"]
            client.close()
        finally:
            first.shutdown()
        assert [row["state"] for row in before] == ["CD", "CD", "CD", "CA", "CA"]

        second = Daemon(daemon_config(tmp_path))
        second.start()
        try:
            client = connect(second)
            assert client.request({"type": "status"})["payload"]["rows"] == before
            client.close()
        finally:
            second.shutdown()

    def test_timed_out_failed_and_session_rows_after_restart(self, tmp_path):
        # Ticked by hand, so the timed-out job's elapsed time is 1.5 s, far
        # from a whole second.
        first = Daemon(daemon_config(tmp_path))
        try:
            for name, walltime_s, submit_dir in (("late", 1, str(tmp_path)),
                                                 ("unspawnable", 60, str(tmp_path / "missing"))):
                first.handle_request({
                    "type": "submit", "submit_dir": submit_dir,
                    "script": make_pbs_script(name, 1, 1, walltime_s, body="sleep 30")})
            os.makedirs(first.config.workdir_root)
            first.handle_request({"type": "session_create", "name": "kept",
                                  "command": ["sleep", "30"]})
            first.tick_once(first._clock())
            time.sleep(1.5)
            first.tick_once(first._clock())
            before = json.loads(first.handle_request({"type": "status"})[0])["payload"]["rows"]
            sessions = first.handle_request({"type": "session_list"})[0]["payload"]["sessions"]
        finally:
            first.shutdown()
        assert [(row["state"], row["elapsed_s"]) for row in before] == [("TO", 1), ("F", 0)]
        assert [(row["name"], row["lost"]) for row in sessions] == [("kept", False)]

        second = Daemon(daemon_config(tmp_path))
        try:
            after = json.loads(second.handle_request({"type": "status"})[0])["payload"]["rows"]
            lost = second.handle_request({"type": "session_list"})[0]["payload"]["sessions"]
        finally:
            second.shutdown()
        assert after == before
        assert lost == [{**sessions[0], "live": False, "lost": True}]

    def test_walltime_timeout_over_wire(self, daemon, tmp_path):
        client = connect(daemon)
        job_id = submit_script(
            client, make_pbs_script("late", 1, 1, 1, body="sleep 30"),
            str(tmp_path))["payload"]["job_id"]
        assert wait_until(lambda: job_state(client, job_id) == "TO", 10)
        client.close()


class TestEndPath:
    def test_every_end_takes_the_process_and_journals_once(self, tmp_path):
        daemon = Daemon(daemon_config(tmp_path, slots=4, nodes=1))
        try:
            def submit(name, body, walltime_s=600, submit_dir=str(tmp_path)):
                response, _ = daemon.handle_request({
                    "type": "submit", "submit_dir": submit_dir,
                    "script": make_pbs_script(name, 1, 1, walltime_s, body=body)})
                return response["payload"]["job_id"]

            exits = submit("exits", "true")
            late = submit("late", "sleep 30", walltime_s=1)
            cancelled = submit("cancelled", "sleep 30")
            unspawnable = submit("unspawnable", "true", submit_dir=str(tmp_path / "missing"))
            jobs = daemon.state.jobs
            now = daemon._clock()
            daemon.tick_once(now)  # starts all four; the last cannot open its output
            procs = {job_id: jobs[job_id].proc for job_id in (exits, late, cancelled)}
            assert None not in procs.values()

            def exited():
                daemon.tick_once(now)
                return jobs[exits].state is JobStatus.COMPLETED

            daemon.handle_request({"type": "cancel", "job_id": cancelled})
            assert wait_until(exited, 5)
            assert jobs[late].state is JobStatus.RUNNING
            daemon.tick_once(now + 1.5)  # past the 1 s walltime of late
            daemon.tick_once(now + 1.6)  # an ended job is not reported again

            ended = [e.data["job_id"] for e in read_entries(daemon.config.journal_path)
                     if e.event == "ended"]
            expected = {exits: "CD", late: "TO", cancelled: "CA", unspawnable: "F"}
            for job_id, code in expected.items():
                assert jobs[job_id].state.value == code
                assert jobs[job_id].proc is None
                assert ended.count(job_id) == 1
            assert ended_leaders(daemon) == [procs[late], procs[cancelled]]  # launch order
        finally:
            daemon.shutdown()

    def test_unopenable_submit_dir_fails_the_job_and_the_tick_goes_on(self, tmp_path):
        daemon = Daemon(daemon_config(tmp_path, slots=4, nodes=1))
        try:
            def submit(name, submit_dir):
                response, _ = daemon.handle_request({
                    "type": "submit", "submit_dir": submit_dir,
                    "script": make_pbs_script(name, 1, 1, 600, body="true")})
                return response["payload"]["job_id"]

            # An absolute path with a NUL byte passes the submit check, and
            # opening the output sink in it raises ValueError, not OSError.
            bad = submit("bad", str(tmp_path) + "/\x00x")
            daemon.tick_once(daemon._clock())
            rec = daemon.state.jobs[bad]
            assert rec.state is JobStatus.FAILED
            assert rec.proc is None
            assert "null byte" in rec.reason

            good = submit("good", str(tmp_path))

            def completed():
                daemon.tick_once(daemon._clock())
                return daemon.state.jobs[good].state is JobStatus.COMPLETED

            assert wait_until(completed, 5)
        finally:
            daemon.shutdown()


class TestOneTerm:
    @pytest.mark.parametrize("cause", ["timeout", "cancel"])
    def test_an_end_sends_one_term_and_lists_the_leader_dying(self, tmp_path, cause):
        # The shell counts each TERM it gets and keeps running, so its
        # leader stays unreaped until the grace has passed.
        terms, ready = tmp_path / "terms", tmp_path / "ready"
        body = f"trap 'echo TERM >> {terms}' TERM\ntouch {ready}\nwhile :; do sleep 0.05; done"
        daemon = Daemon(daemon_config(tmp_path, slots=1, nodes=1))
        try:
            response, _ = daemon.handle_request({
                "type": "submit", "submit_dir": str(tmp_path),
                "script": make_pbs_script("trapper", 1, 1, 1, body=body)})
            rec = daemon.state.jobs[response["payload"]["job_id"]]
            now = daemon._clock()
            daemon.tick_once(now)
            leader = rec.proc
            assert wait_until(ready.exists, 5)
            if cause == "timeout":
                daemon.tick_once(now + 1.5)  # past the 1 s walltime
            else:
                daemon.handle_request({"type": "cancel", "job_id": rec.id})
            daemon.tick_once(now + 1.6)  # within the grace: no second signal
            assert wait_until(terms.exists, 5)
            time.sleep(0.3)
            assert terms.read_text() == "TERM\n"
            assert rec.state.value == {"timeout": "TO", "cancel": "CA"}[cause]
            assert ended_leaders(daemon) == [leader]
            assert leader.returncode is None and process_alive(leader.pid)
        finally:
            daemon.shutdown()
        assert leader.returncode == -signal.SIGKILL


class HandClock:
    """A daemon clock that moves only when the test advances it."""

    def __init__(self, now: float):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


class TestProcessTable:
    def test_the_table_is_the_daemons_whole_process_set(self, tmp_path, reap_leaders):
        # Every leader the daemon started and has not reaped is in its
        # table, in every state a leader can be in, after every tick.
        clock = HandClock(steady_epoch())
        daemon = Daemon(daemon_config(tmp_path, slots=4, nodes=1), clock=clock)
        terminated = []

        def submit(name, body):
            response, _ = daemon.handle_request({
                "type": "submit", "submit_dir": str(tmp_path),
                "script": make_pbs_script(name, 1, 1, 600, body=body)})
            return daemon.state.jobs[response["payload"]["job_id"]]

        def tick_and_check():
            daemon.tick_once()
            table = daemon._leaders
            assert set(table) == {proc for proc in reap_leaders if proc.returncode is None}
            for rec in daemon.state.jobs.values():
                if rec.state is JobStatus.RUNNING:
                    assert table[rec.proc][1] == rec.id
            for name, session in daemon.sessions._sessions.items():
                if session.live:
                    assert table[session.proc][1] == name
            assert all(table[proc][1] is None for proc in terminated if proc in table)
            return table

        try:
            os.makedirs(daemon.config.workdir_root)
            running, exits, cancelled = (submit(name, body) for name, body in (
                ("running", "sleep 30"), ("exits", "true"), ("cancelled", "sleep 30")))
            for name, command in (("live", ["sleep", "30"]), ("exits", ["true"]),
                                  ("killed", ["sleep", "30"])):
                daemon.handle_request({"type": "session_create", "name": name,
                                       "command": command})
            tick_and_check()  # starts the three jobs
            terminated += [cancelled.proc, daemon.sessions._sessions["killed"].proc]
            daemon.handle_request({"type": "cancel", "job_id": cancelled.id})
            daemon.handle_request({"type": "session_kill", "name": "killed"})
            exited_session = daemon.sessions._sessions["exits"]
            assert wait_until(lambda: exited_session.proc not in tick_and_check()
                              and exits.state is JobStatus.COMPLETED, 5)
            assert wait_until(lambda: not any(process_alive(p.pid) for p in terminated), 5)
            assert len(tick_and_check()) == 4  # dead on SIGTERM, but still in their grace
            clock.advance(GRACE_SECONDS)
            table = tick_and_check()
            assert [owner for _, owner in table.values()] == ["live", running.id]
            # Each died on SIGTERM, and was reaped only once its grace ended.
            assert [proc.returncode for proc in terminated] == [-signal.SIGTERM] * 2
        finally:
            daemon.shutdown()
        assert daemon._leaders == {}


class TestOneClock:
    def test_default_clock_is_epoch_seconds_that_never_step_back(self, tmp_path, monkeypatch):
        before = time.time()
        daemon = Daemon(daemon_config(tmp_path))
        try:
            readings = [daemon._clock() for _ in range(1000)]
            monkeypatch.setattr(time, "time", lambda: before - 3600)  # the wall clock steps back
            readings.append(daemon._clock())
        finally:
            daemon.shutdown()
        assert abs(readings[0] - before) < 1
        assert readings == sorted(readings)

    def test_restart_rebuilds_the_live_times(self, tmp_path):
        clock = HandClock(1_760_000_000.125)
        config = daemon_config(tmp_path, slots=4, nodes=2)
        first = Daemon(config, clock=clock)
        expected = []  # (event, job id or session name, the clock at that event)
        try:
            def submit(name, body, nodes=1, slots=1, walltime_s=600, submit_dir=str(tmp_path)):
                at = clock.advance(0.25)
                response, _ = first.handle_request({
                    "type": "submit", "submit_dir": submit_dir,
                    "script": make_pbs_script(name, nodes, slots, walltime_s, body=body)})
                job_id = response["payload"]["job_id"]
                expected.append(("submitted", job_id, at))
                return job_id

            exits = submit("exits", "true")
            late = submit("late", "sleep 30", walltime_s=1)
            cancelled = submit("cancelled", "sleep 30")
            unspawnable = submit("unspawnable", "true", submit_dir=str(tmp_path / "missing"))
            kept = submit("kept", "sleep 30")
            queued = submit("queued", "true", nodes=2, slots=4)  # both whole nodes
            os.makedirs(config.workdir_root)
            created = {}
            for name in ("gone", "kept"):
                created[name] = clock.advance(0.25)
                first.handle_request({"type": "session_create", "name": name,
                                      "command": ["sleep", "30"]})
                expected.append(("session_created", name, created[name]))

            at = clock.advance(0.25)
            first.tick_once(at)
            expected += [("started", exits, at), ("started", late, at),
                         ("started", cancelled, at), ("started", unspawnable, at),
                         ("ended", unspawnable, at), ("started", kept, at)]
            for job_id in (queued, cancelled):
                at = clock.advance(0.25)
                first.handle_request({"type": "cancel", "job_id": job_id})
                expected.append(("ended", job_id, at))
            jobs = first.state.jobs

            at = clock.advance(0.25)

            def exited():
                first.tick_once(at)
                return jobs[exits].state is JobStatus.COMPLETED

            assert wait_until(exited, 5)
            expected.append(("ended", exits, at))
            at = clock.advance(1.5)  # past the 1 s walltime of late
            first.tick_once(at)
            expected.append(("ended", late, at))
            at = clock.advance(0.25)
            first.handle_request({"type": "session_kill", "name": "gone"})
            expected.append(("session_ended", "gone", at))
            sessions = first.handle_request({"type": "session_list"})[0]["payload"]["sessions"]
        finally:
            first.shutdown()
        assert [jobs[job_id].state.value for job_id in sorted(jobs)] \
            == ["CD", "TO", "CA", "F", "R", "CA"]
        entries = read_entries(config.journal_path)
        assert [(e.event, e.data.get("job_id", e.data.get("name")), e.at) for e in entries] \
            == expected

        second = Daemon(config)
        try:
            recovered = second.state.jobs
            restarted = second.handle_request({"type": "session_list"})[0]["payload"]["sessions"]
        finally:
            second.shutdown()
        assert sorted(recovered) == sorted(jobs)
        for job_id, rec in jobs.items():
            if job_id != kept:
                assert recovered[job_id] == rec, job_id
        back = recovered[kept]
        assert (back.state, back.reason, back.submit_time, back.start_time) \
            == (JobStatus.FAILED, "daemon-restart", jobs[kept].submit_time, jobs[kept].start_time)
        assert [(row["name"], row["created_at"]) for row in sessions] \
            == [("kept", created["kept"])]
        assert restarted == [{**sessions[0], "live": False, "lost": True}]

    def test_every_reading_is_taken_under_the_lock(self, tmp_path):
        locked = []

        def clock():
            locked.append(daemon._mu.locked())
            return 1_760_000_000.0 + len(locked)

        daemon = Daemon(daemon_config(tmp_path), clock=clock)
        try:
            os.makedirs(daemon.config.workdir_root)
            for nodes, slots in ((1, 1), (2, 2)):  # the second waits for the first
                daemon.handle_request({"type": "submit", "submit_dir": str(tmp_path),
                                       "script": make_pbs_script("j", nodes, slots, 600,
                                                                 body="sleep 30")})
            daemon.tick_once()
            assert daemon.state.jobs[1].state is JobStatus.RUNNING
            for request in ({"type": "cancel", "job_id": 1}, {"type": "cancel", "job_id": 2},
                            {"type": "status"},
                            {"type": "session_create", "name": "s", "command": ["sleep", "30"]},
                            {"type": "session_kill", "name": "s"}):
                response, _ = daemon.handle_request(request)
                if isinstance(response, str):  # status: its line, already encoded
                    response = json.loads(response)
                assert response["ok"] is True, request
            daemon.tick_once()
        finally:
            daemon.shutdown()
        assert locked == [True] * 9

    def test_replay_of_a_daemon_journal_keeps_conservation(self, tmp_path, conserving_replay):
        clock = HandClock(1_760_000_000.0)
        config = daemon_config(tmp_path, slots=2, nodes=2)
        first = Daemon(config, clock=clock)
        try:
            def submit(body, nodes=1, slots=1, walltime_s=600, submit_dir=str(tmp_path)):
                clock.advance(0.25)
                response, _ = first.handle_request({
                    "type": "submit", "submit_dir": submit_dir,
                    "script": make_pbs_script("j", nodes, slots, walltime_s, body=body)})
                return response["payload"]["job_id"]

            exits = submit("true")
            late = submit("sleep 30", walltime_s=1)
            cancelled = submit("sleep 30")
            submit("true", submit_dir=str(tmp_path / "missing"))  # cannot open its output
            wide = submit("sleep 30", nodes=2, slots=2)
            waiting = submit("sleep 30")
            first.tick_once(clock.advance(0.25))
            first.handle_request({"type": "cancel", "job_id": cancelled})
            jobs = first.state.jobs

            def exited():
                first.tick_once(clock.advance(0.25))
                return jobs[exits].state is JobStatus.COMPLETED

            assert wait_until(exited, 5)
            first.tick_once(clock.advance(1.5))  # late times out; wide takes every slot
            assert [jobs[job_id].state.value for job_id in sorted(jobs)] \
                == ["CD", "TO", "CA", "F", "R", "PD"]
        finally:
            first.shutdown()
        recovered = journal_mod.recover(config.journal_path, config.nodes).cluster
        assert conserving_replay == [e.seq for e in read_entries(config.journal_path)]
        assert recovered.jobs[wide].reason == "daemon-restart"
        assert recovered.queue == [waiting]
        assert_all_slots_free(recovered)


class TestSessionEnds:
    """A session's end is journaled once, and only for the session that ended."""

    def session_events(self, daemon: Daemon) -> list[tuple[str, str]]:
        return [(e.event, e.data["name"]) for e in read_entries(daemon.config.journal_path)]

    def reaped(self, daemon: Daemon, name: str) -> bool:
        """Ticks once; whether the session's leader is reaped."""
        daemon.tick_once()
        return not daemon.sessions._sessions[name].live

    def test_a_name_is_reused_once_its_end_is_journaled(self, tmp_path):
        daemon = Daemon(daemon_config(tmp_path))
        try:
            os.makedirs(daemon.config.workdir_root)
            daemon.handle_request({"type": "session_create", "name": "a", "command": ["true"]})
            response, _ = daemon.handle_request({"type": "session_create", "name": "a",
                                                 "command": ["sleep", "30"]})
            assert response["code"] == "duplicate-session"  # until the tick reaps the first a
            assert wait_until(lambda: self.reaped(daemon, "a"), 5)
            daemon.handle_request({"type": "session_create", "name": "a",
                                   "command": ["sleep", "30"]})
            daemon.tick_once()
            assert self.session_events(daemon) == [("session_created", "a"),
                                                   ("session_ended", "a"),
                                                   ("session_created", "a")]
        finally:
            daemon.shutdown()

        second = Daemon(daemon_config(tmp_path))
        try:
            response, _ = second.handle_request({"type": "session_list"})
        finally:
            second.shutdown()
        assert [(row["name"], row["lost"]) for row in response["payload"]["sessions"]] \
            == [("a", True)]

    def test_kill_of_an_ended_session_journals_its_end_once(self, tmp_path):
        daemon = Daemon(daemon_config(tmp_path))
        try:
            os.makedirs(daemon.config.workdir_root)
            daemon.handle_request({"type": "session_create", "name": "b", "command": ["true"]})
            ended = daemon.sessions._sessions["b"]
            assert wait_until(lambda: not ended.streaming, 5)  # exited, not yet reaped
            daemon.handle_request({"type": "session_kill", "name": "b"})
            daemon.tick_once(daemon._clock())
            assert self.session_events(daemon) == [("session_created", "b"),
                                                   ("session_ended", "b")]
        finally:
            daemon.shutdown()

    def test_kill_of_a_reaped_session_journals_no_second_end(self, tmp_path):
        daemon = Daemon(daemon_config(tmp_path))
        try:
            os.makedirs(daemon.config.workdir_root)
            daemon.handle_request({"type": "session_create", "name": "c", "command": ["true"]})
            assert wait_until(lambda: self.reaped(daemon, "c"), 5)  # journals c's end
            response, _ = daemon.handle_request({"type": "session_kill", "name": "c"})
            assert response["ok"] is True
            assert self.session_events(daemon) == [("session_created", "c"),
                                                   ("session_ended", "c")]
        finally:
            daemon.shutdown()

    def test_a_leader_that_leaves_a_child_ends_within_a_tick(self, tmp_path):
        # The child holds the output open, so the stream cannot end first:
        # the tick reaps the leader, journals its end and takes the child.
        daemon = Daemon(daemon_config(tmp_path))
        try:
            os.makedirs(daemon.config.workdir_root)
            daemon.handle_request({"type": "session_create", "name": "e",
                                   "command": ["sh", "-c", "sleep 30 & echo $!"]})
            assert wait_until(lambda: self.reaped(daemon, "e"), 5)
            response, _ = daemon.handle_request({"type": "session_list"})
            assert [row["live"] for row in response["payload"]["sessions"]] == [False]
            daemon.tick_once()
            assert self.session_events(daemon) == [("session_created", "e"),
                                                   ("session_ended", "e")]
            _, attachment = daemon.handle_request({"type": "attach", "name": "e"})
            child = int(b"".join(stream(attachment)))
            assert attachment.end_reason == "exit"
            assert wait_until(lambda: not process_alive(child), 2)
        finally:
            daemon.shutdown()

    def test_kill_of_a_lost_session_journals_its_end(self, tmp_path):
        config = daemon_config(tmp_path)
        first = Daemon(config)
        try:
            os.makedirs(config.workdir_root)
            first.handle_request({"type": "session_create", "name": "d",
                                  "command": ["sleep", "30"]})
        finally:
            first.shutdown()  # d's end is never journaled
        second = Daemon(config)
        try:
            response, _ = second.handle_request({"type": "session_kill", "name": "d"})
            assert response["ok"] is True
            assert self.session_events(second) == [("session_created", "d"),
                                                   ("session_ended", "d")]
        finally:
            second.shutdown()
        third = Daemon(config)
        try:
            response, _ = third.handle_request({"type": "session_list"})
        finally:
            third.shutdown()
        assert response["payload"]["sessions"] == []


class TestSessionsOverWire:
    def counter_command(self, n: int, delay: float = 0.0) -> list[str]:
        code = f"import time\nfor i in range({n}):\n    print(i, flush=True)\n    time.sleep({delay})"
        return [sys.executable, "-u", "-c", code]

    def test_create_list_attach_kill(self, daemon):
        client = connect(daemon)
        response = client.request({
            "type": "session_create", "name": "my_session_name",
            "command": self.counter_command(3),
        })
        assert response["ok"] is True
        rows = client.request({"type": "session_list"})["payload"]["sessions"]
        assert rows[0]["name"] == "my_session_name"

        attach_client = connect(daemon)
        response = attach_client.request({"type": "attach", "name": "my_session_name"})
        assert response["ok"] is True
        data = b""
        while True:
            frame = protocol.read_message(attach_client.reader)
            if frame["type"] == "end":
                assert frame["reason"] == "exit"
                break
            data += protocol.decode_data_frame(frame)
        assert data == b"0\n1\n2\n"
        attach_client.close()

        response = client.request({"type": "session_kill", "name": "my_session_name"})
        assert response["ok"] is True
        response = client.request({"type": "attach", "name": "my_session_name"})
        assert response["code"] == "unknown-session"
        client.close()

    def test_reattach_replays_truncated_binary_ring(self, daemon, tmp_path):
        output = random.Random(11).randbytes(1_200_000)  # not valid UTF-8
        with pytest.raises(UnicodeDecodeError):
            output.decode()
        (tmp_path / "output.bin").write_bytes(output)
        client = connect(daemon)
        client.request({"type": "session_create", "name": "binary",
                        "command": ["cat", str(tmp_path / "output.bin")]})

        def ended():
            rows = client.request({"type": "session_list"})["payload"]["sessions"]
            return not rows[0]["live"]

        assert wait_until(ended, 5)
        client.close()

        attach_client = connect(daemon)
        response = attach_client.request({"type": "attach", "name": "binary"})
        assert response["payload"]["truncated"] is True
        frames = []
        while not frames or frames[-1]["type"] == "data":
            line = attach_client.reader.readline()
            assert len(line) < protocol.MAX_LINE_BYTES
            frames.append(json.loads(line))
        attach_client.close()
        count = DEFAULT_RING_CAPACITY // READ_BYTES  # 16 frames of 64 KiB
        assert [frame["type"] for frame in frames] == ["data"] * count + ["end"]
        chunks = [protocol.decode_data_frame(frame) for frame in frames[:-1]]
        assert [len(chunk) for chunk in chunks] == [READ_BYTES] * count
        assert b"".join(chunks) == output[-DEFAULT_RING_CAPACITY:]
        assert frames[-1]["reason"] == "exit"

    def test_replay_sends_its_first_frame_before_the_watcher_starts(self, daemon, monkeypatch):
        client = connect(daemon)
        client.request({"type": "session_create", "name": "full",
                        "command": ["head", "-c", str(2 * DEFAULT_RING_CAPACITY), "/dev/zero"]})

        def ended():
            rows = client.request({"type": "session_list"})["payload"]["sessions"]
            return not rows[0]["live"]

        assert wait_until(ended, 5)
        client.close()
        # What the daemon writes, and each thread it starts, in order.
        events = []
        send_message, start = protocol.send_message, threading.Thread.start

        def recording_send(sock, message):
            if isinstance(message, bytes):
                events.append(json.loads(message)["type"])
            else:
                events.append("attached" if "truncated" in message.get("payload", {})
                              else message.get("type", "reply"))
            send_message(sock, message)

        def recording_start(thread):
            events.append("thread")
            start(thread)

        monkeypatch.setattr(protocol, "send_message", recording_send)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        attach_client = connect(daemon)
        assert attach_client.request({"type": "attach", "name": "full"})["ok"]
        frames = []
        while not frames or frames[-1]["type"] == "data":
            frames.append(protocol.read_message(attach_client.reader))
        attach_client.close()
        count = DEFAULT_RING_CAPACITY // READ_BYTES
        assert [frame["type"] for frame in frames] == ["data"] * count + ["end"]
        stream = events[events.index("attached") + 1:]
        assert stream == ["data", "thread"] + ["data"] * (count - 1) + ["end"]

    def test_detach_from_a_silent_session_ends_the_stream_at_once(self, daemon):
        client = connect(daemon)
        client.request({"type": "session_create", "name": "silent",
                        "command": ["sleep", "30"]})
        attach_client = connect(daemon)
        assert attach_client.request({"type": "attach", "name": "silent"})["ok"]
        t0 = time.perf_counter()
        protocol.send_message(attach_client.sock, {"type": "detach"})
        frame = protocol.read_message(attach_client.reader)
        elapsed = time.perf_counter() - t0
        attach_client.close()
        assert frame == {"type": "end", "reason": "detached"}
        # The stream waits for output in turns of 0.5 s; a watcher started
        # only after the first of them would see the detach that late.
        assert elapsed < 0.1
        client.request({"type": "session_kill", "name": "silent"})
        client.close()

    def test_stalled_attach_holds_the_session_back(self, daemon, tmp_path):
        size = 32 * 1024 * 1024
        go = tmp_path / "go"
        client = connect(daemon)
        client.request({"type": "session_create", "name": "flood",
                        "command": gated(go, f"head -c {size} /dev/zero")})
        attach_client = connect(daemon)
        assert attach_client.request({"type": "attach", "name": "flood"})["ok"]
        go.touch()
        time.sleep(1.0)  # read nothing: the daemon may buffer a ring, not the stream
        rows = client.request({"type": "session_list"})["payload"]["sessions"]
        assert rows[0]["live"] is True
        received = 0
        while True:
            frame = protocol.read_message(attach_client.reader)
            if frame["type"] == "end":
                assert frame["reason"] == "exit"
                break
            received += len(protocol.decode_data_frame(frame))
        attach_client.close()
        client.close()
        assert received == size

    def test_duplicate_session_name(self, daemon):
        client = connect(daemon)
        request = {"type": "session_create", "name": "dup",
                   "command": ["sleep", "30"]}
        assert client.request(request)["ok"] is True
        assert client.request(request)["code"] == "duplicate-session"
        client.request({"type": "session_kill", "name": "dup"})
        client.close()

    def test_detach_mid_stream_keeps_session_alive(self, daemon):
        client = connect(daemon)
        client.request({
            "type": "session_create", "name": "steady",
            "command": self.counter_command(1000, delay=0.01),
        })
        attach_client = connect(daemon)
        assert attach_client.request({"type": "attach", "name": "steady"})["ok"]
        frame = protocol.read_message(attach_client.reader)
        assert frame["type"] == "data"
        protocol.send_message(attach_client.sock, {"type": "detach"})
        reason = None
        for _ in range(1000):
            frame = protocol.read_message(attach_client.reader)
            if frame is None or frame["type"] == "end":
                reason = frame and frame.get("reason")
                break
        assert reason == "detached"
        attach_client.close()

        rows = client.request({"type": "session_list"})["payload"]["sessions"]
        assert rows[0]["live"] is True and rows[0]["attached"] == 0
        client.request({"type": "session_kill", "name": "steady"})
        client.close()

    def test_client_disconnect_detaches_but_session_survives(self, daemon):
        client = connect(daemon)
        client.request({
            "type": "session_create", "name": "survivor",
            "command": self.counter_command(1000, delay=0.01),
        })
        attach_client = connect(daemon)
        attach_client.request({"type": "attach", "name": "survivor"})
        protocol.read_message(attach_client.reader)  # one data frame
        attach_client.close()  # vanish without detaching

        def attached_count():
            rows = client.request({"type": "session_list"})["payload"]["sessions"]
            return rows[0]["attached"] == 0 and rows[0]["live"]

        assert wait_until(attached_count, 5)
        client.request({"type": "session_kill", "name": "survivor"})
        client.close()

    def test_kill_sweeps_group_when_leader_dies_on_sigterm(self, daemon):
        # The leader dies on SIGTERM; its child ignores it and holds no end
        # of the output pipe, so the session's output ends with the leader.
        client = connect(daemon)
        script = "(trap '' TERM; exec sleep 30) >/dev/null 2>&1 & echo $!; wait"
        client.request({"type": "session_create", "name": "orphaning",
                        "command": ["sh", "-c", script]})
        session = daemon.sessions._sessions["orphaning"]
        assert wait_until(lambda: ring_bytes(session).endswith(b"\n"), 5)
        child = int(ring_bytes(session))

        def trap_installed():  # the trap comes before the exec
            try:
                with open(f"/proc/{child}/comm") as fh:
                    return fh.read() == "sleep\n"
            except FileNotFoundError:
                return False

        assert wait_until(trap_installed, 5)
        client.request({"type": "session_kill", "name": "orphaning"})
        assert wait_until(lambda: session.proc.returncode is not None, 5)
        assert session.proc.returncode == -signal.SIGTERM
        assert wait_until(lambda: not process_alive(child), GRACE_SECONDS + 2)
        client.close()

    def test_created_at_is_the_journaled_wall_time(self, tmp_path):
        first = Daemon(daemon_config(tmp_path))
        first.start()
        try:
            client = connect(first)
            client.request({"type": "session_create", "name": "timed",
                            "command": ["sleep", "30"]})
            listed = client.request({"type": "session_list"})["payload"]["sessions"]
            client.close()
        finally:
            first.shutdown()
        created = [e for e in read_entries(first.config.journal_path)
                   if e.event == EVENT_SESSION_CREATED]
        assert [row["created_at"] for row in listed] == [created[0].at]

        second = Daemon(daemon_config(tmp_path))  # the session is lost now
        try:
            response, _ = second.handle_request({"type": "session_list"})
        finally:
            second.shutdown()
        assert [(row["lost"], row["created_at"]) for row in response["payload"]["sessions"]] \
            == [(True, created[0].at)]

    def test_kill_escalates_for_session_ignoring_sigterm(self, daemon):
        client = connect(daemon)
        code = ("import signal, time\n"
                "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
                "print('ready', flush=True)\n"
                "time.sleep(30)")
        client.request({"type": "session_create", "name": "stubborn",
                        "command": [sys.executable, "-c", code]})
        session = daemon.sessions._sessions["stubborn"]
        assert wait_until(lambda: b"ready" in ring_bytes(session), 5)
        client.request({"type": "session_kill", "name": "stubborn"})
        time.sleep(0.5)
        assert session.proc.returncode is None
        assert wait_until(lambda: session.proc.returncode is not None, GRACE_SECONDS + 2)
        assert session.proc.returncode == -signal.SIGKILL
        client.close()


class TestServeLifecycle:
    def test_bind_conflict_raises(self, tmp_path, daemon):
        host, port = daemon.bound_address
        config = daemon_config(tmp_path / "other", port=port)
        (tmp_path / "other").mkdir()
        other = Daemon(config)
        try:
            with pytest.raises(BindFailed):
                other.start()
        finally:
            other.shutdown()  # a failed start() leaves the journal open

    def test_restart_recovers_ledger(self, tmp_path):
        first = Daemon(daemon_config(tmp_path))
        first.start()
        client = connect(first)
        done_id = submit_script(
            client, make_pbs_script("quick", 1, 1, 60, body="echo hi"),
            str(tmp_path))["payload"]["job_id"]
        assert wait_until(lambda: job_state(client, done_id) == "CD", 5)
        running_id = submit_script(
            client, make_pbs_script("long", 2, 2, 600, body="sleep 600"),
            str(tmp_path))["payload"]["job_id"]
        assert wait_until(lambda: job_state(client, running_id) == "R", 5)
        pending_id = submit_script(
            client, make_pbs_script("queued", 1, 1, 60, body="echo later"),
            str(tmp_path))["payload"]["job_id"]
        client.close()
        first.shutdown()  # children do not survive the daemon

        second = Daemon(daemon_config(tmp_path))
        second.start()
        try:
            jobs = second.state.jobs
            assert jobs[done_id].state is JobStatus.COMPLETED
            assert jobs[running_id].state is JobStatus.FAILED
            assert jobs[running_id].reason == "daemon-restart"
            assert jobs[pending_id].state is JobStatus.PENDING
            assert second.state.queue == [pending_id]
        finally:
            second.shutdown()

    def test_second_daemon_from_same_config_starts_with_free_slots(self, tmp_path):
        # Two daemons in one process built from one DaemonConfig: the second
        # must not inherit the slots the first one's job held on n1.
        config = daemon_config(tmp_path, slots=4, nodes=1)
        first = Daemon(config)
        try:
            response, _ = first.handle_request({
                "type": "submit", "submit_dir": str(tmp_path),
                "script": make_pbs_script("holder", 1, 3, 600, body="sleep 600")})
            job_id = response["payload"]["job_id"]
            first.tick_once(first._clock())
            assert first.state.jobs[job_id].state is JobStatus.RUNNING
            assert [node.slots_free for node in first.state.nodes] == [1]
        finally:
            first.shutdown()

        second = Daemon(config)
        try:
            assert second.state.jobs[job_id].state is JobStatus.FAILED
            assert [node.slots_free for node in second.state.nodes] == [4]
            second.state.assert_conservation()
        finally:
            second.shutdown()

    def test_shutdown_reaps_the_leader_of_a_running_job(self, tmp_path):
        # SIGKILL cannot be ignored, so shutdown() waits for the leader's exit
        # and reaps it: no zombie is left to the process that called it.
        daemon = Daemon(daemon_config(tmp_path))
        try:
            response, _ = daemon.handle_request({
                "type": "submit", "submit_dir": str(tmp_path),
                "script": make_pbs_script("holder", 1, 1, 600, body="sleep 30")})
            daemon.tick_once(daemon._clock())
            proc = daemon.state.jobs[response["payload"]["job_id"]].proc
            assert proc.poll() is None
        finally:
            daemon.shutdown()
        assert proc.returncode == -signal.SIGKILL

    def test_shutdown_reaps_every_leader_the_daemon_started(self, tmp_path, reap_leaders):
        # The daemon is the one reaper of its leaders, in every state one can
        # be in: it leaves none for the conftest fixture to reap.
        daemon = Daemon(daemon_config(tmp_path))
        try:
            os.makedirs(daemon.config.workdir_root)
            for name, command in (("running", ["sleep", "30"]), ("killed", ["sleep", "30"]),
                                  ("exited", ["true"])):
                daemon.handle_request({"type": "session_create", "name": name,
                                       "command": command})
            daemon.handle_request({"type": "session_kill", "name": "killed"})
            exited = daemon.sessions._sessions["exited"]
            assert wait_until(lambda: not exited.streaming, 5)
            assert exited.live  # exited, but no tick has reaped it
            assert ended_leaders(daemon) == [reap_leaders[1]]  # in its grace
        finally:
            daemon.shutdown()
        assert [proc.returncode is not None for proc in reap_leaders] == [True] * 3

    def test_no_change_once_shutdown_has_begun(self, tmp_path, monkeypatch):
        # A request read before the stop that takes the lock after shutdown
        # killed every process and closed the journal must change nothing.
        spawned = []

        def no_spawn(args, **kwargs):
            spawned.append(args)
            raise SpawnFailed("no process may start after shutdown")

        monkeypatch.setattr(runtime, "_spawn", no_spawn)
        daemon = Daemon(daemon_config(tmp_path))
        response, _ = daemon.handle_request({
            "type": "submit", "submit_dir": str(tmp_path),
            "script": make_pbs_script("early", 1, 1, 60, body="true")})
        assert response["payload"]["job_id"] == 1
        daemon.shutdown()
        requests = [
            {"type": "submit", "submit_dir": str(tmp_path),
             "script": make_pbs_script("late", 1, 1, 60, body="true")},
            {"type": "cancel", "job_id": 1},
            {"type": "session_create", "name": "late", "command": ["sleep", "30"]},
            {"type": "session_kill", "name": "late"},
        ]
        for request in requests:
            response, attachment = daemon.handle_request(request)
            assert (response["ok"], response["code"], attachment) \
                == (False, "shutting-down", None), request
        daemon.tick_once()
        assert list(daemon.state.jobs) == [1] and daemon.state.queue == [1]
        assert daemon.state.jobs[1].state is JobStatus.PENDING
        assert daemon.sessions.rows() == []
        assert spawned == []
        assert [e.event for e in read_entries(daemon.config.journal_path)] == ["submitted"]

    @pytest.mark.parametrize("config_flag", [
        pytest.param(["--config", "{}"], id="--config PATH"),
        pytest.param(["--config={}"], id="--config=PATH"),
    ])
    def test_sigterm_right_after_banner_shuts_down_cleanly(self, tmp_path, config_flag):
        # The daemon signals itself the moment it writes its banner, the
        # earliest instant a client reading that line could send SIGTERM.
        config_path = tmp_path / "miniqd.json"
        config_path.write_text(json.dumps({
            "listen": "127.0.0.1:0",
            "token": TOKEN,
            "nodes": [{"id": "n1", "slots": 1}],
            "journal": str(tmp_path / "journal.ndjson"),
            "workdir": str(tmp_path / "work"),
        }))
        proc = subprocess.run(
            [sys.executable, "-c", SIGTERM_AT_BANNER,
             *[arg.format(config_path) for arg in config_flag]],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.stdout.startswith("miniqd listening on "), (proc.stdout, proc.stderr)
        assert proc.returncode == 0, proc.stderr

    def test_startup_reads_journal_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "journal.ndjson")
        journal = Journal(path)
        journal.session_created("a", 1.0)
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq":2,"at":')  # torn by a crash mid-append
        reads, opens = [], []
        read_entries_once = journal_mod.read_entries

        def counting_read_entries(read_path):
            reads.append(read_path)
            return read_entries_once(read_path)

        def counting_open(file, mode="r", *args, **kwargs):
            if file == path:
                opens.append(mode)
            return builtins.open(file, mode, *args, **kwargs)

        monkeypatch.setattr(journal_mod, "read_entries", counting_read_entries)
        monkeypatch.setattr(journal_mod, "open", counting_open, raising=False)
        daemon = Daemon(daemon_config(tmp_path))
        try:
            assert reads == [path]
            assert opens == ["rb", "r+b", "ab"]  # read, cut the torn line, append
            daemon.journal.session_created("b", 2.0)
        finally:
            daemon.shutdown()
        assert [e.seq for e in read_entries_once(path)] == [1, 2]

    def test_fresh_journal_starts_empty(self, daemon):
        assert daemon.state.jobs == {}
        assert daemon.state.queue == []

    def test_corrupt_journal_refuses_to_start(self, tmp_path):
        config = daemon_config(tmp_path)
        (tmp_path / "journal.ndjson").write_text(
            '{"seq":1,"at":0.0,"event":"session_created","name":"a"}\n'
            '{"seq":3,"at":0.0,"event":"session_ended","name":"a"}\n'
        )
        with pytest.raises(JournalCorrupt):
            Daemon(config)


GOOD_CONFIG = {"token": TOKEN, "journal": "journal.ndjson", "nodes": [{"id": "n1", "slots": 1}]}


def write_config(tmp_path, nodes) -> str:
    path = tmp_path / "miniqd.json"
    path.write_text(json.dumps({"token": TOKEN, "journal": "journal.ndjson", "nodes": nodes}))
    return str(path)


class TestLoadConfig:
    def test_node_entries(self, tmp_path):
        config = load_config(write_config(
            tmp_path, [{"id": "n1", "slots": 8}, {"id": "n2", "slots": 4, "features": ["gpu"]}]
        ))
        assert [(n.id, n.slots_total, n.slots_free, n.features) for n in config.nodes] == [
            ("n1", 8, 8, frozenset()), ("n2", 4, 4, frozenset({"gpu"}))
        ]

    @pytest.mark.parametrize("nodes", [
        pytest.param([{"slots": 8}], id="no id"),
        pytest.param([{"id": "n1"}], id="no slots"),
        pytest.param([{"id": "n1", "slots": "8"}], id="slots as a string"),
        pytest.param([{"id": "n1", "slots": 2.5}], id="fractional slots"),
        pytest.param([{"id": "n1", "slots": 0}], id="zero slots"),
        pytest.param([{"id": "n1", "slots": 4, "features": "gpu"}], id="features as a string"),
        pytest.param([{"id": "n1", "slots": 4}, {"id": "n1", "slots": 2}], id="repeated id"),
    ])
    def test_bad_node_entry_refused(self, tmp_path, capsys, nodes):
        path = write_config(tmp_path, nodes)
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["--config", path]) == 1
        assert capsys.readouterr().err.startswith("miniqd: ")

    @pytest.mark.parametrize("doc", [
        *[pytest.param({**GOOD_CONFIG, "tick_interval_s": tick}, id=f"tick_interval_s {name}")
          for tick, name in ((math.nan, "nan"), (math.inf, "inf"), ("fast", "'fast'"),
                             (True, "True"), (1e300, "1e+300"), (10 ** 400, "10**400"))],
        *[pytest.param({**GOOD_CONFIG, field: value}, id=f"{field} {value!r}")
          for field, value in (("journal", 5), ("listen", 7), ("nodes", 3), ("workdir", 5),
                               ("listen", "127.0.0.1:abc"), ("listen", "127.0.0.1:99999"))],
        pytest.param([], id="top-level list"),
    ])
    def test_bad_config_value_refused(self, tmp_path, capsys, doc):
        # Only load_config and main run: a NaN or infinite tick is never
        # given to a started daemon.
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("miniqd: ") and err.count("\n") == 1, err

    def test_null_tick_interval_is_the_default(self, tmp_path):
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps({**GOOD_CONFIG, "tick_interval_s": None}))
        assert load_config(str(path)).tick_interval_s == DEFAULT_TICK_INTERVAL_S

    @pytest.mark.parametrize("tick", [math.nan, math.inf, 1e300])
    def test_config_built_directly_refuses_a_tick_a_timer_cannot_take(self, tmp_path, tick):
        with pytest.raises(ConfigError):
            daemon_config(tmp_path, tick=tick)

    @pytest.mark.parametrize("token", [12345, ["hunter2"]], ids=["number", "list"])
    def test_token_that_is_not_a_string_refused(self, tmp_path, capsys, token):
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps({"token": token, "journal": "journal.ndjson",
                                    "nodes": [{"id": "n1", "slots": 1}]}))
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert main(["--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("miniqd: auth token must be a string")

    def test_token_not_encodable_as_utf8_refused_from_config(self, tmp_path, capsys):
        # "\ud800" in the JSON decodes to a lone surrogate, which no client
        # could ever send as UTF-8.
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps({"token": "\ud800x", "journal": "journal.ndjson",
                                    "nodes": [{"id": "n1", "slots": 1}]}))
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert main(["--config", str(path)]) == 1
        assert capsys.readouterr().err == "miniqd: auth token must be valid UTF-8 text\n"

    def test_token_not_encodable_as_utf8_refused_from_environment(self, tmp_path, capsys,
                                                                  monkeypatch):
        # os.environ decodes the byte 0xff, which is not UTF-8, to "\udcff".
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps({"journal": "journal.ndjson",
                                    "nodes": [{"id": "n1", "slots": 1}]}))
        monkeypatch.setenv(protocol.TOKEN_ENV_VAR, "\udcffx")
        assert os.environb[protocol.TOKEN_ENV_VAR.encode()] == b"\xffx"
        with pytest.raises(ConfigError):
            load_config(str(path))
        assert main(["--config", str(path)]) == 1
        assert capsys.readouterr().err == "miniqd: auth token must be valid UTF-8 text\n"

    def test_malformed_journal_entry_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, [{"id": "n1", "slots": 2}])
        journal = tmp_path / "journal.ndjson"
        journal.write_text('{"seq":1,"at":0.0,"event":"submitted","job_id":1,"submit_dir":"/"}\n')
        with pytest.raises(JournalCorrupt):
            journal_mod.recover(str(journal), [Node(id="n1", slots_total=2)])
        assert main(["--config", path]) == 1
        assert capsys.readouterr().err == (
            "miniqd: malformed submitted entry at seq 1: no field 'spec'\n"
        )


class TestMainArguments:
    def test_help_prints_usage_and_returns_0(self, capsys):
        assert main(["-h"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: miniqd ")
        assert err == ""

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="no arguments"),
        pytest.param(["--config"], id="--config without a path"),
        pytest.param(["--bogus"], id="unknown flag"),
        pytest.param(["--config", "miniqd.json", "extra"], id="extra argument"),
    ])
    def test_bad_arguments_return_2(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: miniqd ")
        assert "\nminiqd: error: " in err


    @pytest.mark.parametrize("make, fields", [
        pytest.param(lambda path: path.mkdir(), {"journal": "taken"},
                     id="journal that is a directory"),
        pytest.param(lambda path: path.write_text(""), {"workdir": "taken"},
                     id="workdir that is a file"),
    ])
    def test_startup_os_error_prints_one_line_and_returns_1(self, tmp_path, capsys, make,
                                                            fields):
        make(tmp_path / "taken")
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps({**GOOD_CONFIG, "listen": "127.0.0.1:0", **fields}))
        handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
        try:
            assert main(["--config", str(path)]) == 1
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        err = capsys.readouterr().err
        assert err.startswith("miniqd: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_failed_start_restores_the_handlers_and_closes_the_journal(self, tmp_path,
                                                                        capsys, monkeypatch):
        (tmp_path / "taken").write_text("")
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps({**GOOD_CONFIG, "listen": "127.0.0.1:0",
                                    "workdir": "taken"}))
        daemons = []

        class RecordedDaemon(Daemon):
            def __init__(self, config):
                super().__init__(config)
                daemons.append(self)

        monkeypatch.setattr(daemon_mod, "Daemon", RecordedDaemon)
        handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
        try:
            assert main(["--config", str(path)]) == 1
            after = {signum: signal.getsignal(signum) for signum in handlers}
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        assert after == handlers
        (daemon,) = daemons
        assert daemon.journal._fh.closed
        assert capsys.readouterr().err.startswith("miniqd: ")


class TestTickLoop:
    def test_failed_tick_is_printed_and_stops_the_daemon(self, tmp_path, capfd, monkeypatch):
        # Fail-stop: a tick that raises may leave the state half changed,
        # so no later tick may act on it.
        daemon = Daemon(daemon_config(tmp_path, tick=0.01))
        ticks, seen = [], []

        def failing_tick():
            ticks.append(None)
            raise RuntimeError("tick failed")

        def print_and_record(args):
            seen.append(args)
            threading.__excepthook__(args)

        monkeypatch.setattr(threading, "excepthook", print_and_record)
        daemon.tick_once = failing_tick
        daemon.start()
        try:
            assert daemon._stop.wait(5)
            assert wait_until(lambda: seen, 5)
            time.sleep(0.1)  # ten tick intervals
        finally:
            daemon.shutdown()
        assert len(ticks) == 1
        err = capfd.readouterr().err
        assert "Traceback (most recent call last):" in err
        assert "RuntimeError: tick failed" in err

    def test_failed_journal_append_stops_the_daemon_and_the_journal_recovers(self, tmp_path,
                                                                            monkeypatch):
        # The pass moves the job to R in memory, then its started entry
        # cannot be written.  A later tick would time the job out, or, while
        # it holds no process, fail on it: the daemon stops instead, and the
        # journal, holding only the submission, recovers the job as pending.
        daemon = Daemon(daemon_config(tmp_path, tick=0.01))
        started = daemon.journal.started
        failures, seen = [], []

        def started_once_failing(rec, now):
            if not failures:
                failures.append(rec.id)
                raise OSError(errno.ENOSPC, "No space left on device")
            started(rec, now)

        monkeypatch.setattr(daemon.journal, "started", started_once_failing)
        monkeypatch.setattr(threading, "excepthook", seen.append)
        daemon.start()
        try:
            response, _ = daemon.handle_request({
                "type": "submit", "submit_dir": str(tmp_path),
                "script": make_pbs_script("doomed", 1, 1, 1, body="true")})
            job_id = response["payload"]["job_id"]
            assert daemon._stop.wait(5)
            time.sleep(0.1)  # ten tick intervals
            assert failures == [job_id]
            assert [type(args.exc_value) for args in seen] == [OSError]
        finally:
            daemon.shutdown()
        path = daemon.config.journal_path
        assert [e.event for e in read_entries(path)] == ["submitted"]
        recovered = journal_mod.recover(path, daemon.config.nodes).cluster
        assert recovered.jobs[job_id].state is JobStatus.PENDING

    def test_main_returns_1_after_a_failed_tick(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "miniqd.json"
        path.write_text(json.dumps({**GOOD_CONFIG, "listen": "127.0.0.1:0"}))
        seen = []

        def failing_tick(self, now=None):
            raise RuntimeError("tick failed")

        monkeypatch.setattr(Daemon, "tick_once", failing_tick)
        monkeypatch.setattr(threading, "excepthook", seen.append)
        handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
        try:
            assert main(["--config", str(path)]) == 1
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        assert capsys.readouterr().out.startswith("miniqd listening on ")
        assert [str(args.exc_value) for args in seen] == ["tick failed"]

    def test_tick_that_waited_out_the_shutdown_sweep_starts_nothing(self, tmp_path):
        # The tick leaves its wait just before the stop and waits for the
        # lock while shutdown sweeps every leader and closes the journal;
        # here it gets the lock only once shutdown has returned.  A job it
        # started then would outlive the daemon.
        daemon = Daemon(daemon_config(tmp_path, tick=0.01))
        entered, go, ticked = threading.Event(), threading.Event(), threading.Event()
        tick_once = daemon.tick_once

        def parked_tick():
            entered.set()
            go.wait(5)
            tick_once()
            ticked.set()

        def submit(name):
            response, _ = daemon.handle_request({
                "type": "submit", "submit_dir": str(tmp_path),
                "script": make_pbs_script(name, 1, 1, 600, body="sleep 30")})
            return daemon.state.jobs[response["payload"]["job_id"]]

        running = submit("running")
        daemon.tick_once()
        leader = running.proc
        late = submit("late")
        daemon.tick_once = parked_tick
        daemon.start()
        assert entered.wait(5)
        daemon.shutdown()
        go.set()
        assert ticked.wait(5)
        try:
            assert leader.returncode == -signal.SIGKILL  # swept and reaped
            assert (late.state, late.proc) == (JobStatus.PENDING, None)
        finally:
            for proc in (leader, late.proc):
                if proc is not None and proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
