"""Tests for the daemon: wire protocol, scheduling loop, journal discipline."""

from __future__ import annotations

import builtins
import json
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import gated, make_pbs_script, make_spec, process_alive, wait_until
from miniq import journal as journal_mod
from miniq import protocol
from miniq.cli import Client, CommandFailed
from miniq.daemon import Daemon, DaemonConfig, load_config, main
from miniq.errors import BindFailed, ConfigError, JournalCorrupt
from miniq.journal import EVENT_SESSION_CREATED, Journal, read_entries
from miniq.runtime import DEFAULT_RING_CAPACITY, GRACE_SECONDS, READ_BYTES
from miniq.sched import JobStatus, Node, Outcome, status_from_code

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
                  tick: float = 0.05) -> DaemonConfig:
    return DaemonConfig(
        host="127.0.0.1",
        port=port,
        token=TOKEN,
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


def job_state(client: Client, job_id: int) -> str:
    response = client.request({"type": "status", "job_id": job_id})
    rows = response["payload"]["rows"]
    return rows[0]["state"] if rows else "?"


class TestAuth:
    def test_bad_token_rejected_and_closed(self, daemon):
        with pytest.raises(CommandFailed) as excinfo:
            connect(daemon, token="wrong")
        assert excinfo.value.exit_code == 2

    def test_first_message_must_be_auth(self, daemon):
        import socket as socket_mod
        sock = socket_mod.create_connection(daemon.bound_address)
        reader = sock.makefile("rb")
        protocol.send_message(sock, {"type": "status"})
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
        assert wait_until(lambda: proc.poll() is not None, 5)
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
                states = {status_from_code(extra["state"])} if "state" in extra else None
                rows = state.snapshot(100.0, states=states, job_id=extra.get("job_id"))
                expected = protocol.ok({"rows": [row.to_dict() for row in rows]})
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
            now = time.monotonic()
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
                assert jobs[job_id].state.code == code
                assert jobs[job_id].proc is None
                assert ended.count(job_id) == 1
            assert [proc for proc, _ in daemon._dying] == [procs[cancelled], procs[late]]
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
            now = time.monotonic()
            daemon.tick_once(now)
            rec = daemon.state.jobs[bad]
            assert rec.state is JobStatus.FAILED
            assert rec.proc is None
            assert "null byte" in rec.reason

            good = submit("good", str(tmp_path))

            def completed():
                daemon.tick_once(time.monotonic())
                return daemon.state.jobs[good].state is JobStatus.COMPLETED

            assert wait_until(completed, 5)
        finally:
            daemon.shutdown()


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
        session = daemon.sessions.get("orphaning")
        assert wait_until(lambda: session.ring.snapshot().endswith(b"\n"), 5)
        child = int(session.ring.snapshot())

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
        session = daemon.sessions.get("stubborn")
        assert wait_until(lambda: b"ready" in session.ring.snapshot(), 5)
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
        with pytest.raises(BindFailed):
            other = Daemon(config)
            other.start()

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
            first.tick_once(time.monotonic())
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

    def test_sigterm_right_after_banner_shuts_down_cleanly(self, tmp_path):
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
            [sys.executable, "-c", SIGTERM_AT_BANNER, "--config", str(config_path)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.stdout.startswith("miniqd listening on "), (proc.stdout, proc.stderr)
        assert proc.returncode == 0, proc.stderr

    def test_startup_reads_journal_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "journal.ndjson")
        journal = Journal(path)
        journal.append(EVENT_SESSION_CREATED, {"name": "a"}, at=1.0)
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
            daemon.journal.append(EVENT_SESSION_CREATED, {"name": "b"}, at=2.0)
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
