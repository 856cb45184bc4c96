"""Tests for job execution, walltime enforcement and detachable sessions."""

from __future__ import annotations

import math
import os
import random
import signal
import sys
import threading
import time
import tracemalloc

import pytest

from conftest import gated, process_alive, ring_bytes, stream, wait_until
from miniq.errors import (
    DuplicateSession,
    InvalidCommand,
    SpawnFailed,
    UnknownSession,
)
from miniq.jobspec import parse_script
from miniq.runtime import (
    DEFAULT_RING_CAPACITY,
    GRACE_SECONDS,
    READ_BYTES,
    RingBuffer,
    SessionRegistry,
    collect_exits,
    launch_job,
    poll_walltime,
    terminate,
)
from miniq.sched import JobRecord, JobStatus


def launch(tmp_path, script: str, *, job_id: int = 1, dialect_hint: str = "#PBS -N t\n"):
    """A Running job record started now, holding its process."""
    spec = parse_script(dialect_hint + script).spec
    rec = JobRecord(id=job_id, spec=spec, submit_dir=str(tmp_path), state=JobStatus.RUNNING,
                    start_time=time.monotonic())
    rec.proc = launch_job(spec, job_id, str(tmp_path))
    return spec, rec


class TestLaunchJob:
    def test_runs_in_submit_dir(self, tmp_path):
        spec, job = launch(tmp_path, "pwd\n")
        assert job.proc.wait(timeout=10) == 0
        stdout = (tmp_path / f"t.o1").read_bytes()
        assert stdout.strip() == str(tmp_path).encode()

    def test_failing_line_does_not_abort(self, tmp_path):
        spec, job = launch(tmp_path, "module load python/3.8\necho ok\n")
        assert job.proc.wait(timeout=10) == 0  # exit code of the last command
        assert b"ok" in (tmp_path / "t.o1").read_bytes()

    def test_merge_stderr_single_file(self, tmp_path):
        script = "#PBS -N t\n#PBS -j oe\necho out\necho err >&2\n"
        spec = parse_script(script).spec
        launch_job(spec, 1, str(tmp_path)).wait(timeout=10)
        data = (tmp_path / "t.o1").read_bytes()
        assert b"out" in data and b"err" in data
        assert not (tmp_path / "t.e1").exists()

    def test_split_stderr_two_files(self, tmp_path):
        spec, job = launch(tmp_path, "echo out\necho err >&2\n")
        job.proc.wait(timeout=10)
        assert (tmp_path / "t.o1").read_bytes().strip() == b"out"
        assert (tmp_path / "t.e1").read_bytes().strip() == b"err"

    def test_environment_injected(self, tmp_path):
        spec, job = launch(tmp_path, 'echo "$SLURM_SUBMIT_DIR|$PBS_JOBID|$SLURM_JOB_NAME"\n',
                           job_id=7)
        job.proc.wait(timeout=10)
        out = (tmp_path / "t.o7").read_text()
        assert out.strip() == f"{tmp_path}|7|t"

    def test_absolute_output_template(self, tmp_path):
        target = tmp_path / "elsewhere"
        target.mkdir()
        script = f"#SBATCH --job-name=t\n#SBATCH --output={target}/out-%j.txt\necho hi\n"
        spec = parse_script(script).spec
        launch_job(spec, 3, str(tmp_path)).wait(timeout=10)
        assert (target / "out-3.txt").read_bytes().strip() == b"hi"

    def test_missing_submit_dir_raises(self, tmp_path):
        spec = parse_script("#PBS -N t\ntrue\n").spec
        with pytest.raises(SpawnFailed):
            launch_job(spec, 1, str(tmp_path / "nope"))

    def test_nonzero_exit_code_propagates(self, tmp_path):
        spec, job = launch(tmp_path, "exit 3\n")
        assert job.proc.wait(timeout=10) == 3


class TestWalltime:
    def test_overrunning_job_is_killed(self, tmp_path):
        spec, job = launch(tmp_path, "sleep 30\n")
        job.start_time -= spec.walltime_s + 0.01  # already past
        events = poll_walltime([job], time.monotonic())
        assert events == [job.id]
        assert job.proc.poll() is None  # selected, not signalled
        terminate(job.proc)
        assert job.proc.wait(timeout=5) == -signal.SIGTERM

    def test_exact_deadline_not_killed(self, tmp_path):
        spec, job = launch(tmp_path, "sleep 1\n")
        events = poll_walltime([job], now=job.start_time + spec.walltime_s)  # strict >
        assert events == []
        job.proc.wait(timeout=10)

    def test_quick_job_never_times_out(self, tmp_path):
        spec, job = launch(tmp_path, "true\n")
        job.proc.wait(timeout=10)
        assert poll_walltime([job], time.monotonic()) == []

    def test_kill_after_grace_escalates_stubborn_process(self, tmp_path):
        spec, job = launch(tmp_path, "trap '' TERM\nsleep 30\n")
        wait_until(lambda: (tmp_path / "t.o1").exists(), 2)
        time.sleep(0.2)  # let the shell install the trap
        job.start_time -= spec.walltime_s + 0.01
        now = time.monotonic()
        assert poll_walltime([job], now) == [job.id]
        terminate(job.proc)
        leaders = {job.proc: (now + GRACE_SECONDS, None)}
        assert collect_exits(leaders, now + GRACE_SECONDS - 0.1) == []
        time.sleep(0.1)
        assert job.proc.poll() is None  # shrugged off SIGTERM
        assert wait_until(lambda: collect_exits(leaders, now + GRACE_SECONDS), 5) \
            == [(None, -signal.SIGKILL)]
        assert job.proc.returncode == -signal.SIGKILL and leaders == {}

    def test_collect_exits_kills_background_children(self, tmp_path):
        spec, job = launch(tmp_path, "sleep 30 &\necho $! > child.pid\n")
        leaders = {job.proc: (math.inf, job.id)}
        assert wait_until(lambda: collect_exits(leaders, time.monotonic()), 5) == [(1, 0)]
        child = int((tmp_path / "child.pid").read_text())
        assert wait_until(lambda: not process_alive(child), 2)

    def test_collect_exits_kills_the_group_while_its_leader_is_a_zombie(self, tmp_path,
                                                                        monkeypatch):
        # Once the leader is reaped its pid may name someone else's group,
        # so the one SIGKILL must reach the group while the leader is a zombie.
        spec, job = launch(tmp_path, "sleep 30 &\necho $! > child.pid\n")
        exited = os.WEXITED | os.WNOWAIT | os.WNOHANG  # seen, not reaped
        assert wait_until(lambda: os.waitid(os.P_PID, job.proc.pid, exited), 5)
        killpg = os.killpg
        sent = []

        def recording_killpg(pgid, signum):
            try:
                with open(f"/proc/{pgid}/stat") as fh:
                    sent.append((signum, fh.read().rsplit(")", 1)[1].split()[0]))
            except FileNotFoundError:
                sent.append((signum, None))  # reaped: the pid names no process
            killpg(pgid, signum)

        monkeypatch.setattr(os, "killpg", recording_killpg)
        assert collect_exits({job.proc: (math.inf, job.id)}, time.monotonic()) == [(1, 0)]
        assert sent == [(signal.SIGKILL, "Z")]
        child = int((tmp_path / "child.pid").read_text())
        assert wait_until(lambda: not process_alive(child), 2)


class TestRingBuffer:
    def test_keeps_recent_bytes_and_flags_overflow(self):
        ring = RingBuffer(capacity=8)
        ring.append(b"abcd")
        assert ring.read(ring.start, len(ring)) == b"abcd"
        assert ring.truncated is False
        ring.append(b"efghij")
        assert ring.read(ring.start, len(ring)) == b"cdefghij"
        assert ring.truncated is True
        assert (ring.start, ring.end) == (2, 10)
        assert ring.read(3, 4) == b"defg"
        assert ring.read(8, 4) == b"ij"
        with pytest.raises(ValueError):
            ring.read(1, 4)  # dropped

    @pytest.mark.parametrize("capacity", [8, 100, READ_BYTES, 1024 * 1024])
    def test_matches_a_bytes_model(self, capacity):
        rng = random.Random(capacity)
        sizes = [1, 7, 100, READ_BYTES - 1, READ_BYTES, READ_BYTES + 1, capacity]
        ring, model, end, cursor = RingBuffer(capacity), b"", 0, 0
        for _ in range(100):
            # A pipe's reads come in multiples of its writers' 4 KiB buffers.
            size = rng.choice(sizes + [rng.randint(1, capacity), 4096 * rng.randint(1, 16)])
            chunk = rng.randbytes(size)
            ring.append(bytearray(chunk) if rng.random() < 0.2 else chunk)
            model, end = (model + chunk)[-capacity:], end + size
            start = end - len(model)
            assert (ring.start, ring.end, len(ring)) == (start, end, len(model))
            assert ring.truncated is (start > 0)
            assert ring.read(ring.start, len(ring)) == model
            offsets = {start, start + 1, end - 1, end, rng.randint(start, end),
                       start + READ_BYTES, end - READ_BYTES - 1}
            for offset in sorted(o for o in offsets if start <= o <= end):
                for read_size in (1, 3, READ_BYTES):
                    got = ring.read(offset, read_size)
                    assert type(got) is bytes
                    assert got == model[offset - start:offset - start + read_size]
            if start:
                with pytest.raises(ValueError):
                    ring.read(start - 1, 1)
            # An attachment's reads: READ_BYTES at a time from its cursor.
            cursor = max(cursor, start)
            while rng.random() < 0.7 and cursor < end:
                got = ring.read(cursor, READ_BYTES)
                assert got == model[cursor - start:cursor - start + READ_BYTES]
                cursor += len(got)

    def test_a_read_of_one_whole_block_is_that_block(self):
        ring = RingBuffer()
        chunk = bytes(READ_BYTES)
        ring.append(b"x")
        ring.append(chunk)
        assert ring.read(1, READ_BYTES) is chunk
        assert ring.read(0, 2) == b"x\0"

    @pytest.mark.parametrize("sizes", [
        pytest.param([READ_BYTES], id="64 KiB chunks"),
        pytest.param([1, 7, 100, 4096, READ_BYTES - 1, READ_BYTES, READ_BYTES + 1],
                     id="mixed chunks"),
    ])
    def test_holds_its_capacity_and_a_few_blocks_at_most(self, sizes):
        # Each chunk is a fresh object, as a pump read is; the peak counts
        # the one being appended, and a block sealed while it is copied.
        capacity = 1024 * 1024
        rng = random.Random(len(sizes))
        source = rng.randbytes(2 * READ_BYTES + 1)
        ring = RingBuffer(capacity)
        tracemalloc.start()
        try:
            written = 0
            while written < 24 * 1024 * 1024:
                at, size = rng.randrange(READ_BYTES), rng.choice(sizes)
                ring.append(source[at:at + size])
                written += size
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ring) == capacity
        assert peak < capacity + 8 * READ_BYTES, f"{(peak - capacity) / READ_BYTES:.1f} blocks"


def py_counter(n: int, delay: float = 0.0) -> list[str]:
    code = (
        "import sys, time\n"
        f"for i in range({n}):\n"
        f"    print(i, flush=True)\n"
        + (f"    time.sleep({delay})\n" if delay else "")
    )
    return [sys.executable, "-u", "-c", code]


def reap_ended(registry: SessionRegistry) -> list[str]:
    """Stand in for the daemon's tick: sweep the leaders of the registered
    live sessions, reaping each that has exited; returns their names."""
    leaders = {s.proc: (math.inf, s.name) for s in registry._sessions.values() if s.live}
    return [name for name, _ in collect_exits(leaders, time.monotonic())]


class TestSessions:
    def test_create_and_list(self):
        registry = SessionRegistry()
        registry.create("my_session_name", py_counter(3), now=1.0)
        registry.create("another", py_counter(3), now=2.0)
        rows = registry.rows()
        assert [row["name"] for row in rows] == ["another", "my_session_name"]

    def test_list_on_empty_registry(self):
        assert SessionRegistry().rows() == []

    def test_duplicate_name_rejected(self):
        registry = SessionRegistry()
        registry.create("dup", ["sleep", "5"], now=0.0)
        with pytest.raises(DuplicateSession):
            registry.create("dup", ["sleep", "5"], now=1.0)
        terminate(registry.kill("dup").proc)

    def test_empty_command_rejected(self):
        with pytest.raises(InvalidCommand):
            SessionRegistry().create("x", [], now=0.0)

    def test_unknown_command_is_spawn_failure(self):
        with pytest.raises(SpawnFailed):
            SessionRegistry().create("x", ["definitely-not-a-command-zz"], now=0.0)

    def test_attach_replays_before_live(self):
        registry = SessionRegistry()
        session = registry.create("replay", py_counter(1), now=0.0)
        assert wait_until(lambda: not session.streaming, 5)
        attachment = registry.attach("replay")
        chunks = b"".join(stream(attachment))
        assert chunks == b"0\n"
        assert attachment.end_reason == "exit"

    def test_attach_unknown_session(self):
        with pytest.raises(UnknownSession):
            SessionRegistry().attach("nope")

    def test_detach_leaves_process_running(self):
        registry = SessionRegistry()
        session = registry.create("stayalive", py_counter(200, delay=0.02), now=0.0)
        pid = session.proc.pid
        attachment = registry.attach("stayalive")
        registry.detach(attachment)
        assert session.proc.poll() is None
        assert session.proc.pid == pid
        assert session.attachments == []
        other = registry.attach("stayalive")
        registry.detach(attachment)  # a second detach changes nothing
        assert session.attachments == [other]
        assert attachment.end_reason == "detached" and other.end_reason is None
        terminate(registry.kill("stayalive").proc)

    def test_detach_after_the_stream_ended_changes_nothing(self):
        registry = SessionRegistry()
        session = registry.create("brief", py_counter(3), now=0.0)
        attachment = registry.attach("brief")
        assert b"".join(stream(attachment)) == b"0\n1\n2\n"
        assert not session.streaming
        registry.detach(attachment)
        assert attachment.end_reason == "exit"
        assert attachment.read(timeout=0) is None
        assert registry.rows()[0]["attached"] == 0

    def test_second_client_unaffected_by_detach(self):
        registry = SessionRegistry()
        registry.create("shared", py_counter(60, delay=0.01), now=0.0)
        first = registry.attach("shared")
        second = registry.attach("shared")
        registry.detach(first)
        data = b"".join(stream(second))
        assert data.startswith(b"0\n")
        assert b"59\n" in data

    def test_kill_removes_session(self):
        registry = SessionRegistry()
        registry.create("doomed", ["sleep", "30"], now=0.0)
        terminate(registry.kill("doomed").proc)
        with pytest.raises(UnknownSession):
            registry.attach("doomed")
        with pytest.raises(UnknownSession):
            registry.kill("doomed")

    def test_kill_delivers_end_to_attached(self):
        registry = SessionRegistry()
        registry.create("victim", ["sleep", "30"], now=0.0)
        attachment = registry.attach("victim")
        assert attachment.read(timeout=0.01) == b""  # live and quiet: timed out
        terminate(registry.kill("victim").proc)
        assert b"".join(stream(attachment)) == b""
        assert attachment.end_reason == "killed"
        assert attachment.read(timeout=0.01) is None

    def test_detach_reattach_stream_integrity(self):
        # The reattached stream must deliver every emitted byte exactly once,
        # in order, with no seam artifacts between replay and live output.
        registry = SessionRegistry()
        registry.create("integrity", py_counter(100, delay=0.005), now=0.0)
        first = registry.attach("integrity")
        received = b""
        while b"\n30\n" not in received and not received.startswith(b"30\n"):
            chunk = first.read(timeout=5)
            assert chunk is not None
            received += chunk
        registry.detach(first)

        session = registry._sessions["integrity"]
        assert wait_until(lambda: len(session.ring) >= len(b"".join(b"%d\n" % i for i in range(50))), 5)

        second = registry.attach("integrity")
        replayed_then_live = b"".join(stream(second))
        expected = b"".join(b"%d\n" % i for i in range(100))
        assert replayed_then_live == expected

    def test_unread_attachment_holds_the_session_back(self, tmp_path):
        size = 20_000_000
        registry = SessionRegistry()
        session = registry.create("flood", gated(tmp_path / "go", f"head -c {size} /dev/zero"),
                                  now=0.0)
        attachment = registry.attach("flood")
        (tmp_path / "go").touch()
        time.sleep(1.0)  # read nothing
        assert session.live
        assert len(session.ring) <= DEFAULT_RING_CAPACITY
        assert sum(len(chunk) for chunk in stream(attachment)) == size
        assert attachment.end_reason == "exit"

    def test_readers_on_a_small_ring_each_get_every_byte(self, tmp_path):
        registry = SessionRegistry(ring_capacity=4096)
        registry.create("counted", gated(tmp_path / "go", "seq 1 100000"), now=0.0)
        attachments = [registry.attach("counted") for _ in range(4)]
        received = {}

        def drain(i):
            received[i] = b"".join(stream(attachments[i]))

        readers = [threading.Thread(target=drain, args=(i,), daemon=True) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            (tmp_path / "go").touch()
            for reader in readers:
                reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        expected = b"".join(b"%d\n" % i for i in range(1, 100001))
        assert [received[i] == expected for i in range(4)] == [True] * 4
        assert [a.end_reason for a in attachments] == ["exit"] * 4

    def test_readers_on_a_full_ring_each_get_every_byte(self, tmp_path):
        # Output past the ring's capacity, in pump reads of every size up to
        # a block, read by four attachments at once; a fifth thread reads the
        # whole ring under the session's lock, as tests do.
        registry = SessionRegistry()
        session = registry.create("blocks", gated(tmp_path / "go", "seq 1 400000"), now=0.0)
        attachments = [registry.attach("blocks") for _ in range(4)]
        received = {}

        def drain(i):
            received[i] = b"".join(stream(attachments[i]))

        def poll():
            while session.streaming:
                ring_bytes(session)

        threads = [threading.Thread(target=drain, args=(i,), daemon=True) for i in range(4)]
        threads.append(threading.Thread(target=poll, daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            (tmp_path / "go").touch()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = b"".join(b"%d\n" % i for i in range(1, 400001))
        assert len(expected) > DEFAULT_RING_CAPACITY
        assert [received[i] == expected for i in range(4)] == [True] * 4
        assert [a.end_reason for a in attachments] == ["exit"] * 4
        assert ring_bytes(session) == expected[-DEFAULT_RING_CAPACITY:]

    def test_detach_from_killed_session_releases_its_pump(self):
        registry = SessionRegistry(ring_capacity=1024)
        session = registry.create("stalled", ["head", "-c", "100000", "/dev/zero"], now=0.0)
        attachment = registry.attach("stalled")
        assert wait_until(lambda: len(session.ring) == 1024, 5)
        terminate(registry.kill("stalled").proc)
        assert not wait_until(lambda: not session.streaming, 0.5)  # waits for the reader
        registry.detach(attachment)
        assert attachment.read(timeout=1) is None
        assert attachment.end_reason == "detached"
        assert wait_until(lambda: not session.streaming, 5)

    def test_ring_overflow_sets_truncated_for_next_attach(self):
        registry = SessionRegistry(ring_capacity=64)
        session = registry.create("noisy", py_counter(300), now=0.0)
        assert wait_until(lambda: not session.streaming, 10)
        attachment = registry.attach("noisy")
        assert attachment.truncated is True
        data = b"".join(stream(attachment))
        assert len(data) <= 64
        assert data.endswith(b"299\n")

    def test_lost_tombstone_listed_but_not_attachable(self):
        registry = SessionRegistry()
        registry.adopt_lost("ghost", created_at=123.0)
        rows = registry.rows()
        assert rows[0]["lost"] is True and rows[0]["live"] is False
        with pytest.raises(UnknownSession):
            registry.attach("ghost")

    def test_dead_name_can_be_reused(self):
        registry = SessionRegistry()
        registry.create("reuse", py_counter(1), now=0.0)
        with pytest.raises(DuplicateSession):  # until its leader is reaped
            registry.create("reuse", py_counter(2), now=1.0)
        assert wait_until(lambda: reap_ended(registry) == ["reuse"], 5)
        registry.create("reuse", py_counter(2), now=1.0)
        rows = [row for row in registry.rows() if row["name"] == "reuse"]
        assert len(rows) == 1 and rows[0]["live"] is True

    def test_session_ending_on_its_own_takes_its_group(self):
        registry = SessionRegistry()
        session = registry.create(
            "leaves_child", ["sh", "-c", "sleep 30 >/dev/null 2>&1 & echo $!"], now=0.0)
        assert wait_until(lambda: not session.streaming, 5)
        child = int(ring_bytes(session))
        assert process_alive(child)
        assert wait_until(lambda: reap_ended(registry) == ["leaves_child"], 5)
        assert wait_until(lambda: not process_alive(child), 2)

    def test_ended_sessions_close_their_pipes(self):
        # An ended session stays registered, but its output pipe is closed.
        # Earlier tests' sessions may still be ending and closing theirs.
        def pumps():
            return [t for t in threading.enumerate() if t.name.startswith("session-")]

        assert wait_until(lambda: not pumps(), 10), pumps()
        registry = SessionRegistry()
        before = len(os.listdir("/proc/self/fd"))
        sessions = [registry.create(f"brief{i}", ["true"], now=0.0) for i in range(20)]
        assert wait_until(lambda: not any(session.streaming for session in sessions), 10)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_reap_ended_reaps_natural_exits_once(self):
        registry = SessionRegistry()
        session = registry.create("brief", py_counter(1), now=0.0)
        registry.create("running", ["sleep", "30"], now=0.0)
        assert wait_until(lambda: reap_ended(registry) == ["brief"], 5)
        assert session.proc.returncode == 0 and not session.live
        assert reap_ended(registry) == []
        assert [(row["name"], row["live"]) for row in registry.rows()] \
            == [("brief", False), ("running", True)]

    def test_a_stream_ends_when_the_output_closes(self):
        # A leader that closes its output and runs on ends every attached
        # stream at once, and stays live until it exits and is reaped.
        registry = SessionRegistry()
        session = registry.create("quiet", ["sh", "-c", "echo hi; exec >&- 2>&-; sleep 30"],
                                  now=0.0)
        attachment = registry.attach("quiet")
        assert b"".join(stream(attachment)) == b"hi\n"
        assert attachment.end_reason == "exit"
        assert session.live and reap_ended(registry) == []
        assert registry.attach("quiet").end_reason == "exit"
