"""Tests for the append-only journal and crash recovery."""

from __future__ import annotations

import json
import random

import pytest

from conftest import make_spec
from miniq.errors import JournalCorrupt
from miniq.journal import (
    EVENT_ENDED,
    EVENT_SESSION_CREATED,
    EVENT_SESSION_ENDED,
    EVENT_STARTED,
    EVENT_SUBMITTED,
    Journal,
    read_entries,
    recover,
)
from miniq.sched import ClusterState, JobStatus, Node, Outcome


def _line(seq: int, name: str = "a") -> bytes:
    doc = {"seq": seq, "at": 0.0, "event": "session_created", "name": name}
    return json.dumps(doc, ensure_ascii=False).encode("utf-8") + b"\n"


def _entry(seq: int, event, **data) -> bytes:
    doc = {"seq": seq, "at": 0.0, "event": event, **data}
    return json.dumps(doc).encode("utf-8") + b"\n"


LINE_1 = _line(1)
_UNICODE_2 = _line(2, name="caf\u00e9")  # the name's last character is two bytes
_SPEC = make_spec().to_dict()
_SUBMIT_2 = _entry(2, "submitted", job_id=1, spec=_SPEC, submit_dir="/tmp")

# What follows LINE_1, and the verdict: ("ok", entries read) or ("corrupt",
# the seq JournalCorrupt names).
PARITY_TABLE = [
    pytest.param(b"\n" + _line(3), ("corrupt", 2), id="blank line"),
    pytest.param(b" \t\n" + _line(3), ("corrupt", 2), id="whitespace-only line"),
    pytest.param(b"  " + _line(2)[:-1] + b" \r\n" + _line(3), ("ok", 3),
                 id="whitespace-padded line"),
    pytest.param(_line(2)[:-1] + b"x\n" + _line(3), ("corrupt", 2),
                 id="trailing garbage after an object"),
    pytest.param(_line(2)[:-1] + _line(3), ("corrupt", 2), id="two objects on one line"),
    pytest.param(_line(2)[:-9], ("ok", 1), id="torn tail"),
    pytest.param(_UNICODE_2[:_UNICODE_2.index(b"\xa9")], ("ok", 1),
                 id="tail torn inside a multibyte character"),
    pytest.param(b"  ", ("ok", 1), id="whitespace-only tail"),
    pytest.param(_line(2)[:-1], ("ok", 2), id="complete last entry without its newline"),
    pytest.param(_UNICODE_2 + _line(3), ("ok", 3), id="non-ASCII entry"),
    pytest.param(_line(2).replace(b'"a"', b'"\xff"') + _line(3), ("corrupt", 2),
                 id="invalid UTF-8 inside a line"),
    pytest.param(b"\xef\xbb\xbf" + _line(2), ("ok", 2), id="byte order mark before a line"),
    pytest.param(_line(3), ("corrupt", 2), id="gap"),
    pytest.param(_line(3)[:-1], ("corrupt", 2), id="gap in a tail without its newline"),
    # JSON objects with a missing, mistyped or impossible field, after one
    # well-formed submission and start.
    pytest.param(_SUBMIT_2 + _entry(3, "started", job_id=1, allocation={"n1": 1}), ("ok", 3),
                 id="well-formed submission and start"),
    pytest.param(_entry(2, "submitted", job_id=1, submit_dir="/tmp"), ("corrupt", 2),
                 id="submission without a spec"),
    pytest.param(_entry(2, ["submitted"], job_id=1, spec=_SPEC, submit_dir="/tmp"),
                 ("corrupt", 2), id="event that is a list"),
    pytest.param(_entry(2, "submitted", job_id=1, spec={**_SPEC, "name": ""}, submit_dir="/tmp"),
                 ("corrupt", 2), id="spec with an empty name"),
    pytest.param(_entry(2, "submitted", job_id="1", spec=_SPEC, submit_dir="/tmp"),
                 ("corrupt", 2), id="job id that is a string"),
    pytest.param(_entry(2, "submitted", job_id=1, spec={**_SPEC, "features": "gpu"},
                        submit_dir="/tmp"), ("corrupt", 2), id="features that are a string"),
    pytest.param(_entry(2, "submitted", job_id=1, spec={**_SPEC, "body": ["true", 1]},
                        submit_dir="/tmp"), ("corrupt", 2), id="body line that is a number"),
    pytest.param(_entry(2, "submitted", job_id=1, spec={**_SPEC, "walltime_s": 1.5},
                        submit_dir="/tmp"), ("corrupt", 2), id="fractional walltime"),
    pytest.param(_SUBMIT_2 + _entry(3, "started", job_id=1, allocation={"n1": 1})
                 + _entry(4, "started", job_id=1, allocation={"n2": 1}),
                 ("corrupt", 4), id="job started twice"),
    pytest.param(_SUBMIT_2 + _entry(3, "ended", job_id=1, state="R"), ("corrupt", 3),
                 id="job ended in a live state"),
    pytest.param(_SUBMIT_2 + _entry(3, "ended", job_id=1, state="XX"), ("corrupt", 3),
                 id="job ended in an unknown state"),
    pytest.param(_entry(2, "session_created", name=["a"]), ("corrupt", 2),
                 id="session name that is a list"),
    pytest.param(_line(2).replace(b'"at": 0.0', b'"at": "noon"'), ("corrupt", 2),
                 id="time that is a string"),
]


def fresh_nodes():
    return [Node(id="n1", slots_total=4), Node(id="n2", slots_total=4)]


class LiveDaemonSim:
    """Drives a ClusterState while journaling, like the daemon does."""

    def __init__(self, path):
        self.state = ClusterState(fresh_nodes())
        self.journal = Journal(str(path))
        self.now = 0

    def submit(self, spec):
        self.now += 1
        job_id = self.state.submit(spec, "/tmp", self.now)
        self.journal.append(
            EVENT_SUBMITTED,
            {"job_id": job_id, "spec": spec.to_dict(), "submit_dir": "/tmp"},
            at=float(self.now),
        )
        return job_id

    def tick(self):
        self.now += 1
        for event in self.state.tick(self.now):
            self.journal.append(
                EVENT_STARTED,
                {"job_id": event.job_id, "allocation": event.allocation},
                at=float(self.now),
            )

    def finish(self, job_id, outcome):
        self.now += 1
        rec = self.state.transition(job_id, outcome, self.now)
        self.journal.append(
            EVENT_ENDED,
            {"job_id": job_id, "state": rec.state.code,
             "exit_code": rec.exit_code, "reason": rec.reason},
            at=float(self.now),
        )


class TestJournalFile:
    def test_seq_gapless_from_one(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        for i in range(3):
            entry = journal.append(EVENT_SESSION_CREATED, {"name": f"s{i}"}, at=float(i))
            assert entry.seq == i + 1
        journal.close()
        entries = read_entries(str(tmp_path / "j"))
        assert [e.seq for e in entries] == [1, 2, 3]

    def test_gap_is_corrupt(self, tmp_path):
        path = tmp_path / "j"
        lines = [
            {"seq": 1, "at": 0.0, "event": "session_created", "name": "a"},
            {"seq": 3, "at": 0.0, "event": "session_ended", "name": "a"},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(JournalCorrupt) as excinfo:
            read_entries(str(path))
        assert excinfo.value.seq == 2

    def test_unknown_event_is_corrupt(self, tmp_path):
        path = tmp_path / "j"
        path.write_text(json.dumps({"seq": 1, "at": 0.0, "event": "mystery"}) + "\n")
        with pytest.raises(JournalCorrupt):
            read_entries(str(path))

    def test_garbage_line_is_corrupt(self, tmp_path):
        path = tmp_path / "j"
        path.write_text('{"seq": 1, "at": 0.0, "event": "session_created", "name": "a"}\n'
                        "not json\n"
                        '{"seq": 2, "at": 0.0, "event": "session_ended", "name": "a"}\n')
        with pytest.raises(JournalCorrupt):
            read_entries(str(path))

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "j"
        good = json.dumps({"seq": 1, "at": 0.0, "event": "session_created", "name": "a"})
        path.write_text(good + "\n" + '{"seq": 2, "at": 0.0, "ev')
        entries = read_entries(str(path))
        assert len(entries) == 1

    def test_append_after_torn_line_stays_parsable(self, tmp_path):
        path = tmp_path / "j"
        good = json.dumps({"seq": 1, "at": 0.0, "event": "session_created", "name": "a"})
        path.write_text(good + "\n" + '{"seq": 2, "at":')
        journal = Journal(str(path), next_seq=recover(str(path), fresh_nodes()).next_seq)
        journal.append(EVENT_SESSION_ENDED, {"name": "a"}, at=1.0)
        journal.close()
        entries = read_entries(str(path))
        assert [e.seq for e in entries] == [1, 2]
        assert entries[1].event == EVENT_SESSION_ENDED

    def test_empty_file_is_empty_journal(self, tmp_path):
        path = tmp_path / "j"
        path.write_text("")
        assert read_entries(str(path)) == []

    def test_missing_file_is_empty_journal(self, tmp_path):
        assert read_entries(str(tmp_path / "missing")) == []

    def test_non_object_line_is_corrupt(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(LINE_1 + b"[2]\n")
        with pytest.raises(JournalCorrupt) as excinfo:
            read_entries(str(path))
        assert excinfo.value.seq == 2

    @pytest.mark.parametrize("tail, verdict", PARITY_TABLE)
    def test_verdict_parity(self, tmp_path, tail, verdict):
        # Each verdict down to the gaps is the one the per-line bytes parser
        # gave, before the journal was decoded once as a whole.  A corrupt
        # line fails read_entries, a line that cannot be replayed recover.
        path = tmp_path / "j"
        path.write_bytes(LINE_1 + tail)
        if verdict[0] == "corrupt":
            with pytest.raises(JournalCorrupt) as excinfo:
                read_entries(str(path))
                recover(str(path), fresh_nodes())
            assert excinfo.value.seq == verdict[1]
        else:
            assert [e.seq for e in read_entries(str(path))] == list(range(1, verdict[1] + 1))

    @pytest.mark.parametrize(
        "tail, verdict", [row for row in PARITY_TABLE if row.values[1][0] == "ok"]
    )
    def test_recover_leaves_file_appendable(self, tmp_path, tail, verdict):
        path = tmp_path / "j"
        path.write_bytes(LINE_1 + tail)
        recovered = recover(str(path), fresh_nodes())
        assert recovered.next_seq == verdict[1] + 1
        journal = Journal(str(path), next_seq=recovered.next_seq)
        journal.append(EVENT_SESSION_ENDED, {"name": "a"}, at=9.0)
        journal.close()
        entries = read_entries(str(path))
        assert [e.seq for e in entries] == list(range(1, verdict[1] + 2))
        assert path.read_bytes().endswith(b"\n")


class TestRecover:
    def test_completed_and_pending_jobs(self, tmp_path):
        path = tmp_path / "j"
        sim = LiveDaemonSim(path)
        spec = make_spec(slots=4)
        ids = [sim.submit(spec) for _ in range(3)]
        sim.tick()  # starts jobs 1 and 2 (one per node)
        sim.finish(ids[0], Outcome.exit(0))
        sim.journal.close()
        # job 2 was Running at the crash; job 3 pending
        recovered = recover(str(path), fresh_nodes())
        jobs = recovered.cluster.jobs
        assert jobs[1].state is JobStatus.COMPLETED
        assert jobs[1].exit_code == 0
        assert jobs[2].state is JobStatus.FAILED
        assert jobs[2].reason == "daemon-restart"
        assert jobs[3].state is JobStatus.PENDING
        assert recovered.cluster.queue == [3]
        recovered.cluster.assert_conservation()

    def test_pending_job_too_big_for_a_shrunk_cluster_fails(self, tmp_path):
        path = tmp_path / "j"
        sim = LiveDaemonSim(path)
        big = sim.submit(make_spec(nodes=2, slots=4))
        small = [sim.submit(make_spec()) for _ in range(2)]
        sim.journal.close()
        recovered = recover(str(path), [Node(id="n1", slots_total=4)])
        cluster = recovered.cluster
        assert cluster.jobs[big].state is JobStatus.FAILED
        assert cluster.jobs[big].reason == "unsatisfiable"
        assert cluster.queue == small
        cluster.assert_conservation()
        assert [event.job_id for event in cluster.tick(100.0)] == small
        cluster.assert_conservation()

    def test_next_id_continues_after_recovery(self, tmp_path):
        path = tmp_path / "j"
        sim = LiveDaemonSim(path)
        sim.submit(make_spec())
        sim.submit(make_spec())
        sim.journal.close()
        recovered = recover(str(path), fresh_nodes())
        new_id = recovered.cluster.submit(make_spec(), "/tmp", 100)
        assert new_id == 3

    def test_cancelled_pending_job_replays(self, tmp_path):
        path = tmp_path / "j"
        sim = LiveDaemonSim(path)
        job_id = sim.submit(make_spec(nodes=2, slots=4))
        sim.finish(job_id, Outcome.cancel())
        sim.journal.close()
        recovered = recover(str(path), fresh_nodes())
        assert recovered.cluster.jobs[job_id].state is JobStatus.CANCELLED
        assert recovered.cluster.queue == []

    def test_empty_journal_empty_state(self, tmp_path):
        recovered = recover(str(tmp_path / "j"), fresh_nodes())
        assert recovered.cluster.jobs == {}
        assert recovered.cluster.queue == []
        assert recovered.lost_sessions == []

    def test_submission_out_of_id_order_is_corrupt(self, tmp_path):
        path = tmp_path / "j"
        sim = LiveDaemonSim(path)
        sim.submit(make_spec())
        sim.submit(make_spec())
        sim.journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[1].replace(b'"job_id":2', b'"job_id":1'))
        with pytest.raises(JournalCorrupt) as excinfo:
            recover(str(path), fresh_nodes())
        assert excinfo.value.seq == 2

    def test_sessions_without_end_are_lost(self, tmp_path):
        path = tmp_path / "j"
        journal = Journal(str(path))
        journal.append(EVENT_SESSION_CREATED, {"name": "kept"}, at=1.0)
        journal.append(EVENT_SESSION_CREATED, {"name": "closed"}, at=2.0)
        journal.append(EVENT_SESSION_ENDED, {"name": "closed"}, at=3.0)
        journal.close()
        recovered = recover(str(path), fresh_nodes())
        assert recovered.lost_sessions == [("kept", 1.0)]

    def test_replay_equivalence_random_history(self, tmp_path):
        # At any quiescent point the recovered ledger (ids, specs, states,
        # pending order) must equal the live one, modulo Running -> Failed.
        rng = random.Random(5150)
        path = tmp_path / "j"
        sim = LiveDaemonSim(path)
        for _ in range(300):
            roll = rng.random()
            if roll < 0.4:
                sim.submit(make_spec(nodes=rng.randrange(1, 3),
                                     slots=rng.randrange(1, 5),
                                     walltime_s=rng.randrange(1, 50)))
            elif roll < 0.7:
                sim.tick()
            else:
                running = [j for j, r in sim.state.jobs.items()
                           if r.state is JobStatus.RUNNING]
                if running:
                    sim.finish(rng.choice(running),
                               rng.choice([Outcome.exit(0), Outcome.exit(2),
                                           Outcome.timeout(), Outcome.cancel()]))
        sim.journal.close()
        recovered = recover(str(path), fresh_nodes()).cluster

        assert set(recovered.jobs) == set(sim.state.jobs)
        assert recovered.queue == sim.state.queue
        for job_id, live in sim.state.jobs.items():
            replayed = recovered.jobs[job_id]
            assert replayed.spec == live.spec
            if live.state is JobStatus.RUNNING:
                assert replayed.state is JobStatus.FAILED
                assert replayed.reason == "daemon-restart"
            else:
                assert replayed.state is live.state
                assert replayed.exit_code == live.exit_code
