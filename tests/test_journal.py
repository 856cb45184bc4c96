"""Tests for the append-only journal and crash recovery."""

from __future__ import annotations

import json
import random

import pytest

from conftest import assert_all_slots_free, make_pbs_script, make_spec
from miniq.errors import JournalCorrupt
from miniq.jobspec import parse_script
from miniq.journal import EVENT_SESSION_ENDED, Journal, read_entries, recover
from miniq.sched import ClusterState, JobRecord, JobStatus, Node, Outcome


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


# The line the daemon wrote for each event before its writers moved into the
# journal, verbatim: job 1 ran `true`; job 2, "b", could not open its output
# in /nonexistent-dir; job 3 timed out; job 4 was cancelled while pending;
# session "s" was created, then killed.
_SPEC_B = parse_script(make_pbs_script("b", 1, 1, 60, body="true")).spec


def _job(job_id: int, state=JobStatus.PENDING, exit_code=None, reason=None) -> JobRecord:
    return JobRecord(job_id, _SPEC_B, "/nonexistent-dir", state, allocation={"n1": 1},
                     exit_code=exit_code, reason=reason)


ENTRY_FORMATS = [
    pytest.param(
        4, lambda journal: journal.submitted(_job(2), 4.0),
        '{"at":4.0,"event":"submitted","job_id":2,"seq":4,"spec":{"body":["#!/bin/bash","",'
        '"true",""],"dialect":"pbs","features":[],"merge_stderr":true,"name":"b","nodes":1,'
        '"slots_per_node":1,"stderr_template":null,"stdout_template":"%x.o%j","walltime_s":60},'
        '"submit_dir":"/nonexistent-dir"}', id="submitted"),
    pytest.param(
        5, lambda journal: journal.started(_job(2, JobStatus.RUNNING), 5.0),
        '{"allocation":{"n1":1},"at":5.0,"event":"started","job_id":2,"seq":5}', id="started"),
    pytest.param(
        3, lambda journal: journal.ended(_job(1, JobStatus.COMPLETED, exit_code=0), 3.0),
        '{"at":3.0,"event":"ended","exit_code":0,"job_id":1,"reason":null,"seq":3,"state":"CD"}',
        id="ended CD"),
    pytest.param(
        6, lambda journal: journal.ended(_job(2, JobStatus.FAILED, reason=(
            "cannot open stdout sink: [Errno 2] No such file or directory: "
            "'/nonexistent-dir/b.o2'")), 6.0),
        '{"at":6.0,"event":"ended","exit_code":null,"job_id":2,"reason":"cannot open stdout '
        'sink: [Errno 2] No such file or directory: \'/nonexistent-dir/b.o2\'","seq":6,'
        '"state":"F"}', id="ended F"),
    pytest.param(
        9, lambda journal: journal.ended(_job(3, JobStatus.TIMED_OUT), 9.0),
        '{"at":9.0,"event":"ended","exit_code":null,"job_id":3,"reason":null,"seq":9,"state":"TO"}',
        id="ended TO"),
    pytest.param(
        11, lambda journal: journal.ended(_job(4, JobStatus.CANCELLED), 11.0),
        '{"at":11.0,"event":"ended","exit_code":null,"job_id":4,"reason":null,"seq":11,'
        '"state":"CA"}', id="ended CA"),
    pytest.param(
        12, lambda journal: journal.session_created("s", 12.0),
        '{"at":12.0,"event":"session_created","name":"s","seq":12}', id="session_created"),
    pytest.param(
        13, lambda journal: journal.session_ended("s", 13.0),
        '{"at":13.0,"event":"session_ended","name":"s","seq":13}', id="session_ended"),
]


def fresh_nodes():
    return [Node(id="n1", slots_total=4), Node(id="n2", slots_total=4)]


class LiveDaemonSim:
    """Drives a ClusterState while journaling through the daemon's writers."""

    def __init__(self, path):
        self.state = ClusterState(fresh_nodes())
        self.journal = Journal(str(path))
        self.now = 0

    def submit(self, spec):
        self.now += 1
        job_id = self.state.submit(spec, "/tmp", self.now)
        self.journal.submitted(self.state.jobs[job_id], float(self.now))
        return job_id

    def tick(self):
        self.now += 1
        for event in self.state.tick(self.now):
            self.journal.started(self.state.jobs[event.job_id], float(self.now))

    def finish(self, job_id, outcome):
        self.now += 1
        self.journal.ended(self.state.transition(job_id, outcome, self.now), float(self.now))


class TestJournalFile:
    def test_seq_gapless_from_one(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        for i in range(3):
            entry = journal.session_created(f"s{i}", float(i))
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
        journal.session_ended("a", 1.0)
        journal.close()
        entries = read_entries(str(path))
        assert [e.seq for e in entries] == [1, 2]
        assert entries[1].event == EVENT_SESSION_ENDED

    @pytest.mark.parametrize("seq, write, line", ENTRY_FORMATS)
    def test_entry_format(self, tmp_path, seq, write, line):
        path = tmp_path / "j"
        journal = Journal(str(path), next_seq=seq)
        write(journal)
        journal.close()
        assert path.read_text() == line + "\n"

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
        journal.session_ended("a", 9.0)
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
        journal.session_created("kept", 1.0)
        journal.session_created("closed", 2.0)
        journal.session_ended("closed", 3.0)
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


def _random_history(path, seed: int = 5150, steps: int = 300) -> LiveDaemonSim:
    """The history of ``test_replay_equivalence_random_history``, journaled."""
    rng = random.Random(seed)
    sim = LiveDaemonSim(path)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            sim.submit(make_spec(nodes=rng.randrange(1, 3),
                                 slots=rng.randrange(1, 5),
                                 walltime_s=rng.randrange(1, 50)))
        elif roll < 0.7:
            sim.tick()
        else:
            running = [j for j, r in sim.state.jobs.items() if r.state is JobStatus.RUNNING]
            if running:
                sim.finish(rng.choice(running),
                           rng.choice([Outcome.exit(0), Outcome.exit(2),
                                       Outcome.timeout(), Outcome.cancel()]))
    sim.journal.close()
    return sim


# The nodes of ``fresh_nodes`` with one removed, and with fewer slots each.
SHRUNK_CLUSTERS = [
    pytest.param([Node(id="n1", slots_total=4)], id="a node removed"),
    pytest.param([Node(id="n1", slots_total=2), Node(id="n2", slots_total=2)],
                 id="smaller nodes"),
]


class TestReplayLifecycle:
    """Replay runs each entry through the lifecycle the live state ran."""

    def test_conservation_holds_after_every_entry(self, tmp_path, conserving_replay):
        path = tmp_path / "j"
        sim = _random_history(path)
        assert any(rec.state is JobStatus.RUNNING for rec in sim.state.jobs.values())
        recovered = recover(str(path), fresh_nodes()).cluster
        assert conserving_replay == [entry.seq for entry in read_entries(str(path))]
        assert_all_slots_free(recovered)

    @pytest.mark.parametrize("nodes", SHRUNK_CLUSTERS)
    def test_history_recovers_onto_a_shrunk_cluster(self, tmp_path, nodes):
        path = tmp_path / "j"
        sim = _random_history(path)
        recovered = recover(str(path), nodes).cluster
        unsatisfiable = 0
        for job_id, live in sim.state.jobs.items():
            replayed = recovered.jobs[job_id]
            if live.state is JobStatus.RUNNING:
                assert (replayed.state, replayed.reason) == (JobStatus.FAILED, "daemon-restart")
            elif live.state is JobStatus.PENDING and replayed.state is JobStatus.FAILED:
                assert replayed.reason == "unsatisfiable"
                unsatisfiable += 1
            else:
                assert replayed == live, job_id
        assert unsatisfiable > 0
        assert_all_slots_free(recovered)

    @pytest.mark.parametrize("tail", [
        pytest.param(_entry(3, "ended", job_id=1, state="CD", exit_code=0, reason=None),
                     id="exit of a pending job"),
        pytest.param(_entry(3, "started", job_id=2, allocation={"n1": 1}),
                     id="start of an unknown job"),
    ])
    def test_entry_the_live_lifecycle_refuses_is_corrupt(self, tmp_path, tail):
        path = tmp_path / "j"
        path.write_bytes(LINE_1 + _SUBMIT_2 + tail)
        with pytest.raises(JournalCorrupt) as excinfo:
            recover(str(path), fresh_nodes())
        assert excinfo.value.seq == 3
