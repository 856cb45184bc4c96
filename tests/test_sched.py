"""Tests for the FIFO + EASY backfill scheduler and job lifecycle."""

from __future__ import annotations

import bisect
import collections
import copy
import importlib
import json
import math
import random
from pathlib import Path

import pytest

import refsim
from conftest import make_cluster, make_spec
from harness import run_cluster
from miniq import journal, sched
from miniq.errors import InvalidTransition, NoSuchJob, Unsatisfiable
from miniq.jobspec import JobSpec
from miniq.sched import (
    ClusterState,
    JobStatus,
    Node,
    Outcome,
    ResourceRequest,
    first_fit,
    shadow_time,
)
from test_journal import SHRUNK_CLUSTERS, _random_history


class TestSubmit:
    def test_ids_start_at_one_and_increase(self, two_node_cluster):
        first = two_node_cluster.submit(make_spec(), "/tmp", now=0)
        second = two_node_cluster.submit(make_spec(), "/tmp", now=1)
        assert (first, second) == (1, 2)
        assert two_node_cluster.jobs[1].state is JobStatus.PENDING
        assert two_node_cluster.queue == [1, 2]

    def test_too_many_nodes_rejected(self):
        state = make_cluster(8)
        with pytest.raises(Unsatisfiable):
            state.submit(make_spec(nodes=2), "/tmp", now=0)

    def test_too_many_slots_rejected(self):
        state = make_cluster(8, 8)
        with pytest.raises(Unsatisfiable):
            state.submit(make_spec(slots=16), "/tmp", now=0)

    def test_missing_feature_rejected(self):
        state = make_cluster(8, features=(frozenset({"gpu"}),))
        with pytest.raises(Unsatisfiable):
            state.submit(make_spec(features=frozenset({"tpu"})), "/tmp", now=0)

    def test_feature_satisfied(self):
        state = make_cluster(8, features=(frozenset({"gpu"}),))
        job_id = state.submit(make_spec(features=frozenset({"gpu"})), "/tmp", now=0)
        assert job_id == 1

    def test_cached_satisfiable_matches_uncached_sum(self):
        rng = random.Random(2024)
        pool = ["gpu", "fast", "big"]
        features = tuple(
            frozenset(rng.sample(pool, rng.randrange(0, 3))) for _ in range(6)
        )
        state = make_cluster(2, 4, 8, 4, 16, 1, features=features)
        for _ in range(500):
            request = ResourceRequest(
                nodes=rng.randrange(1, 8),
                slots_per_node=rng.randrange(1, 18),
                features=frozenset(rng.sample(pool, rng.randrange(0, 3))),
            )
            eligible = sum(
                1 for node in state.nodes
                if node.slots_total >= request.slots_per_node and request.features <= node.features
            )
            # Asked twice: once computed, once (for a fitting shape) cached.
            assert state.satisfiable(request) is (eligible >= request.nodes)
            assert state.satisfiable(request) is (eligible >= request.nodes)


class TestFirstFit:
    def nodes(self, *free):
        return [Node(id=f"n{i + 1}", slots_total=8, slots_free=f) for i, f in enumerate(free)]

    def test_first_node_in_order_wins(self):
        alloc = first_fit(ResourceRequest(nodes=1, slots_per_node=8), self.nodes(8, 8))
        assert alloc == {"n1": 8}

    def test_two_nodes_both_bound(self):
        alloc = first_fit(ResourceRequest(nodes=2, slots_per_node=4), self.nodes(8, 8))
        assert alloc == {"n1": 4, "n2": 4}

    def test_no_cross_node_aggregation(self):
        assert first_fit(ResourceRequest(nodes=1, slots_per_node=16), self.nodes(8, 8)) is None

    def test_skips_busy_nodes(self):
        alloc = first_fit(ResourceRequest(nodes=1, slots_per_node=8), self.nodes(3, 8))
        assert alloc == {"n2": 8}

    def test_feature_filter(self):
        nodes = [
            Node(id="cpu1", slots_total=8),
            Node(id="gpu1", slots_total=8, features=frozenset({"gpu"})),
        ]
        alloc = first_fit(
            ResourceRequest(nodes=1, slots_per_node=2, features=frozenset({"gpu"})), nodes
        )
        assert alloc == {"gpu1": 2}


def brute_force_shadow(state: ClusterState, request: ResourceRequest):
    """Oracle for shadow_time: (instant, first-fit nodes at it), or None when
    the request never fits.

    The head fits now, or else at the first whole instant, counted from the
    earliest release (which may lie before the clock), by which every job
    ending then has released its slots; the nodes are the first ones in
    configuration order that then hold a full slot group.
    """
    running = [rec for rec in state.jobs.values() if rec.state is JobStatus.RUNNING]
    ends = [rec.start_time + rec.spec.walltime_s for rec in running]
    # (instant, release every job ending by): the clock with nothing released,
    # then each whole instant from the first release to the last.
    probes = [(state.clock, -math.inf),
              *((t, t) for t in range(int(min(ends, default=0)), int(max(ends, default=0)) + 1))]
    for now, released_by in probes:
        free = {n.id: n.slots_free for n in state.nodes}
        for rec, end in zip(running, ends):
            if end <= released_by:
                for node_id, slots in rec.allocation.items():
                    free[node_id] += slots
        granted = [node.id for node in state.nodes
                   if free[node.id] >= request.slots_per_node and request.features <= node.features]
        if len(granted) >= request.nodes:
            return now, frozenset(granted[:request.nodes])
    return None


class TestShadowTime:
    def test_single_running_job_release(self):
        state = make_cluster(1, 1)
        blocker = state.submit(make_spec(nodes=2, slots=1, walltime_s=100), "/tmp", 0)
        state.tick(0)
        assert state.jobs[blocker].state is JobStatus.RUNNING
        head = ResourceRequest(nodes=1, slots_per_node=1)
        assert shadow_time(head, state) == brute_force_shadow(state, head) == (100, {"n1"})

    def test_two_releases_max_required(self):
        state = make_cluster(1, 1)
        a = state.submit(make_spec(nodes=1, slots=1, walltime_s=50), "/tmp", 0)
        b = state.submit(make_spec(nodes=1, slots=1, walltime_s=100), "/tmp", 0)
        state.tick(0)
        assert state.jobs[a].state is JobStatus.RUNNING
        assert state.jobs[b].state is JobStatus.RUNNING
        head = ResourceRequest(nodes=2, slots_per_node=1)
        assert shadow_time(head, state) == brute_force_shadow(state, head) == (100, {"n1", "n2"})

    def test_finished_history_does_not_change_reservation(self):
        def blocked_state(history: int) -> ClusterState:
            # ``history`` finished jobs (every fifth cancelled while Pending),
            # then two jobs running until t=30 and t=70.
            state = make_cluster(2, 2, 2)
            outcomes = [Outcome.exit(0), Outcome.timeout(), Outcome.cancel(),
                        Outcome.daemon_failure("x")]
            for i in range(history):
                job_id = state.submit(make_spec(nodes=3, slots=2, walltime_s=5), "/tmp", 0)
                if i % 5:
                    state.tick(0)
                    state.transition(job_id, outcomes[i % len(outcomes)], 0)
                else:
                    state.transition(job_id, Outcome.cancel(), 0)
            state.submit(make_spec(nodes=1, slots=2, walltime_s=30), "/tmp", 0)
            state.submit(make_spec(nodes=2, slots=1, walltime_s=70), "/tmp", 0)
            state.tick(0)
            assert len(state.releases) == 2
            return state

        head = ResourceRequest(nodes=3, slots_per_node=2)
        fresh = blocked_state(0)
        old = blocked_state(500)
        assert len(old.jobs) == 502
        expected = brute_force_shadow(fresh, head)
        assert shadow_time(head, fresh) == shadow_time(head, old) == expected
        assert expected[1] == {"n1", "n2", "n3"}

    def test_head_already_fits_returns_now(self):
        state = make_cluster(4)
        state.clock = 17
        when, reserved = shadow_time(ResourceRequest(nodes=1, slots_per_node=2), state)
        assert when == 17
        assert reserved == {"n1"}

    def test_random_states_match_brute_force(self):
        # Mixed features, multi-node heads, releases tied at one instant
        # (start times and walltimes from small sets), overdue releases (the
        # clock moved past some ends without a transition), heads that fit
        # now and heads that never fit; every case must come up.
        rng = random.Random(8)
        pool = [frozenset(), frozenset({"gpu"}), frozenset({"big"}), frozenset({"gpu", "big"})]
        seen = collections.Counter()
        for _ in range(3000):
            count = rng.randrange(1, 7)
            state = make_cluster(*(rng.randrange(1, 7) for _ in range(count)),
                                 features=tuple(rng.choice(pool) for _ in range(count)))
            now = 0
            for _ in range(rng.randrange(0, 10)):
                spec = make_spec(nodes=rng.randrange(1, 3), slots=rng.randrange(1, 5),
                                 walltime_s=rng.choice((5, 10, 20)),
                                 features=rng.choice(pool[:2]))
                if state.satisfiable(spec.resources):
                    state.submit(spec, "/tmp", now)
                    state.tick(now)
                now += rng.choice((0, 0, 1, 5))
            state.clock = now + rng.choice((0, 0, 3, 12, 30))
            head = ResourceRequest(nodes=rng.randrange(1, 4), slots_per_node=rng.randrange(1, 5),
                                   features=rng.choice(pool[:2]))
            expected = brute_force_shadow(state, head)
            if expected is None:
                with pytest.raises(Unsatisfiable):
                    shadow_time(head, state)
                seen["never fits"] += 1
                continue
            assert shadow_time(head, state) == expected, (state.nodes, state.releases, head)
            when = expected[0]
            seen["fits now" if when == state.clock else
                 "overdue" if when < state.clock else "later"] += 1
            seen["multi-node"] += head.nodes > 1
            seen["features"] += bool(head.features)
            seen["tied"] += sum(rec.start_time + rec.spec.walltime_s == when
                                for _, _, rec in state.releases) > 1
        assert min(seen[case] for case in ("never fits", "fits now", "overdue", "later",
                                           "multi-node", "features", "tied")) >= 50, seen


class TestFreeCount:
    """The count a pass makes before it probes: a request passes only if
    enough nodes hold a full slot group, by ``ClusterState._free``, the
    ascending list of every node's free slots that the cluster state keeps."""

    POOL = [frozenset(), frozenset({"gpu"}), frozenset({"big"}), frozenset({"gpu", "big"})]

    @staticmethod
    def check_count(state: ClusterState, request: ResourceRequest, seen: collections.Counter):
        # The count ignores features, so it may admit a request first_fit
        # cannot place, but never rejects one first_fit could; without
        # features the two agree.
        free = state._free
        assert free == sorted(node.slots_free for node in state.nodes)
        admitted = len(free) - bisect.bisect_left(free, request.slots_per_node) >= request.nodes
        placed = first_fit(request, state.nodes) is not None
        if not admitted:
            assert not placed, (state.nodes, request)
        elif not request.features:
            assert placed, (state.nodes, request)
        seen[("admitted" if admitted else "rejected", bool(request.features), placed)] += 1
        seen["multi-node"] += request.nodes > 1
        seen["below zero"] += free[0] < 0

    def random_request(self, rng: random.Random) -> ResourceRequest:
        return ResourceRequest(nodes=rng.randrange(1, 4), slots_per_node=rng.randrange(1, 5),
                               features=rng.choice(self.POOL[:2]))

    def random_step(self, state: ClusterState, rng: random.Random, now: int) -> None:
        """A submit, a tick, an end of a Running job or a cancel of a Pending one."""
        roll = rng.random()
        if roll < 0.4:
            spec = make_spec(nodes=rng.randrange(1, 3), slots=rng.randrange(1, 5),
                             walltime_s=rng.randrange(1, 30), features=rng.choice(self.POOL[:2]))
            if state.satisfiable(spec.resources):
                state.submit(spec, "/tmp", now)
        elif roll < 0.7:
            state.tick(now)
        elif roll < 0.9 and state.releases:
            # In start order, as the Running jobs started.
            started = sorted((rec.start_time, job_id) for _, job_id, rec in state.releases)
            state.transition(rng.choice(started)[1],
                             rng.choice([Outcome.exit(0), Outcome.timeout(), Outcome.cancel()]),
                             now)
        elif state.queue:
            state.transition(rng.choice(state.queue), Outcome.cancel(), now)

    def test_random_states_count_rejects_only_what_first_fit_cannot_place(self):
        # Mixed features and multi-node requests on random clusters, checked
        # after every step.  Every case must come up.
        rng = random.Random(18)
        seen = collections.Counter()
        for _ in range(300):
            count = rng.randrange(1, 7)
            state = make_cluster(*(rng.randrange(1, 7) for _ in range(count)),
                                 features=tuple(rng.choice(self.POOL) for _ in range(count)))
            for now in range(rng.randrange(1, 30)):
                self.random_step(state, rng, now)
                self.check_count(state, self.random_request(rng), seen)
            state.assert_conservation()
        assert min(seen[case] for case in (("rejected", False, False), ("rejected", True, False),
                                           ("admitted", False, True), ("admitted", True, True),
                                           ("admitted", True, False), "multi-node")) >= 50, seen

    @pytest.mark.parametrize("nodes", SHRUNK_CLUSTERS)
    def test_recover_onto_a_shrunk_cluster_keeps_the_index(self, tmp_path, monkeypatch, nodes):
        # Replay binds the journaled allocations, which may hold more slots
        # than a smaller node has, so its slots_free goes below 0 until the
        # jobs still Running are failed; the index follows it there.
        rng = random.Random(19)
        seen = collections.Counter()
        replay = journal._replay

        def replay_and_check(entry, cluster, sessions_open):
            replay(entry, cluster, sessions_open)
            self.check_count(cluster, self.random_request(rng), seen)

        monkeypatch.setattr(journal, "_replay", replay_and_check)
        path = tmp_path / "j"
        _random_history(path)
        state = journal.recover(str(path), nodes).cluster
        # Only the smaller nodes go below 0: replay skips the removed node.
        assert (seen["below zero"] > 0) is (len(nodes) == 2), seen
        for now in range(1000, 1200):
            self.random_step(state, rng, now)
            self.check_count(state, self.random_request(rng), seen)
            state.assert_conservation()


class TestTick:
    def test_idle_cluster_starts_pending_job(self, two_node_cluster):
        job_id = two_node_cluster.submit(make_spec(slots=8), "/tmp", now=0)
        events = two_node_cluster.tick(0)
        assert [e.job_id for e in events] == [job_id]
        assert two_node_cluster.jobs[job_id].state is JobStatus.RUNNING
        two_node_cluster.assert_conservation()

    def test_multiple_head_starts_in_one_tick(self, two_node_cluster):
        first = two_node_cluster.submit(make_spec(slots=8), "/tmp", 0)
        second = two_node_cluster.submit(make_spec(slots=8), "/tmp", 0)
        events = two_node_cluster.tick(0)
        assert [e.job_id for e in events] == [first, second]

    @staticmethod
    def _blocked_head_state():
        # n1 busy until t=100; the head needs both nodes.
        state = make_cluster(1, 1)
        blocker = state.submit(make_spec(nodes=1, slots=1, walltime_s=100), "/tmp", 0)
        state.tick(0)
        assert state.jobs[blocker].state is JobStatus.RUNNING
        head = state.submit(make_spec(nodes=2, slots=1, walltime_s=10), "/tmp", 10)
        return state, head

    def test_backfill_fits_before_shadow(self):
        state, head = self._blocked_head_state()
        filler = state.submit(make_spec(nodes=1, slots=1, walltime_s=50), "/tmp", 40)
        events = state.tick(40)
        assert [e.job_id for e in events] == [filler]  # 40 + 50 <= 100
        assert state.jobs[head].state is JobStatus.PENDING
        state.assert_conservation()

    def test_backfill_blocked_by_reservation(self):
        state, head = self._blocked_head_state()
        filler = state.submit(make_spec(nodes=1, slots=1, walltime_s=70), "/tmp", 40)
        events = state.tick(40)
        assert events == []  # 40 + 70 > 100 and n2 is reserved for the head
        assert state.jobs[filler].state is JobStatus.PENDING

    def test_backfill_allowed_on_unreserved_node(self):
        # Head wants one 4-slot group; its reservation sits on n1, so a long
        # job fitting entirely on n2 may start although it outlives the shadow.
        state = make_cluster(4, 2)
        blocker = state.submit(make_spec(nodes=1, slots=4, walltime_s=100), "/tmp", 0)
        state.tick(0)
        head = state.submit(make_spec(nodes=1, slots=4, walltime_s=10), "/tmp", 1)
        long_small = state.submit(make_spec(nodes=1, slots=2, walltime_s=500), "/tmp", 2)
        events = state.tick(5)
        assert [e.job_id for e in events] == [long_small]
        assert state.jobs[head].state is JobStatus.PENDING
        assert state.jobs[blocker].state is JobStatus.RUNNING

    @staticmethod
    def count_probes(monkeypatch) -> list:
        probed = []

        def counting_first_fit(request, nodes):
            probed.append(request)
            return first_fit(request, nodes)

        monkeypatch.setattr(sched, "first_fit", counting_first_fit)
        return probed

    def test_head_failing_the_count_is_not_probed(self, monkeypatch):
        # n1 is held until t=100 and the head needs a slot on both nodes;
        # only n2 has one free, so the count rules the head out unprobed.
        state, head = self._blocked_head_state()
        probed = self.count_probes(monkeypatch)
        assert state.tick(20) == []
        assert probed == []
        assert state.jobs[head].state is JobStatus.PENDING

    def test_unplaceable_shape_rejected_by_count(self, monkeypatch):
        # n1 is held until t=100 and reserved for the head.  Two queued jobs
        # want two 2-slot groups, which only n2 can give: the free-node count
        # rules them out without a probe.  A job of another shape behind
        # them fits on n2 and must still start.
        state = make_cluster(4, 2)
        state.submit(make_spec(nodes=1, slots=4, walltime_s=100), "/tmp", 0)
        state.tick(0)
        head = state.submit(make_spec(nodes=1, slots=4, walltime_s=10), "/tmp", 1)
        wide = [state.submit(make_spec(nodes=2, slots=2, walltime_s=5), "/tmp", 1)
                for _ in range(2)]
        small = state.submit(make_spec(nodes=1, slots=2, walltime_s=500), "/tmp", 1)
        probed = self.count_probes(monkeypatch)
        events = state.tick(5)
        assert [e.job_id for e in events] == [small]
        assert [state.jobs[j].state for j in (head, *wide)] == [JobStatus.PENDING] * 3
        assert probed.count(ResourceRequest(nodes=2, slots_per_node=2)) == 0
        state.assert_conservation()

    def test_shape_failing_on_features_probed_once_per_pass(self, monkeypatch):
        # n1 is held until t=100 and reserved for the head.  Two queued jobs
        # want a 2-slot group on a gpu node: n2 and n3 have the slots, so the
        # count admits them, but only n1 carries gpu.  One probe finds no
        # placement; the job behind them fits on n2 and must still start.
        gpu = frozenset({"gpu"})
        state = make_cluster(4, 2, 2, features=(gpu, frozenset(), frozenset()))
        state.submit(make_spec(nodes=1, slots=4, walltime_s=100), "/tmp", 0)
        state.tick(0)
        head = state.submit(make_spec(nodes=1, slots=4, walltime_s=10, features=gpu), "/tmp", 1)
        tagged = [state.submit(make_spec(nodes=1, slots=2, walltime_s=5, features=gpu), "/tmp", 1)
                  for _ in range(2)]
        small = state.submit(make_spec(nodes=1, slots=2, walltime_s=500), "/tmp", 1)
        probed = self.count_probes(monkeypatch)
        events = state.tick(5)
        assert events == [(small, {"n2": 2})]
        assert [state.jobs[j].state for j in (head, *tagged)] == [JobStatus.PENDING] * 3
        assert probed.count(ResourceRequest(nodes=1, slots_per_node=2, features=gpu)) == 1
        state.assert_conservation()

    def test_blocked_shape_probed_once_per_pass(self, monkeypatch):
        # n1 is held until t=100 and the head needs both nodes, so both are
        # reserved.  Five jobs fit on n2 but outlive the shadow time: one
        # probe places their shape, and every one of them is held back.
        state, head = self._blocked_head_state()
        blocked = [state.submit(make_spec(nodes=1, slots=1, walltime_s=70), "/tmp", 20)
                   for _ in range(5)]
        probed = self.count_probes(monkeypatch)
        assert state.tick(40) == []
        assert [state.jobs[j].state for j in (head, *blocked)] == [JobStatus.PENDING] * 6
        assert probed.count(ResourceRequest(nodes=1, slots_per_node=1)) == 1

    def test_no_reservation_while_nothing_behind_the_head_fits(self, monkeypatch):
        # n1 is held until t=100; the head and the jobs behind it all need
        # both nodes, so no job has a placement to check against a shadow.
        state, head = self._blocked_head_state()
        wide = [state.submit(make_spec(nodes=2, slots=1, walltime_s=5), "/tmp", 20)
                for _ in range(3)]
        heads = TestSettledPass.count_shadows(monkeypatch)
        assert state.tick(40) == []
        assert heads == []
        assert [state.jobs[j].state for j in (head, *wide)] == [JobStatus.PENDING] * 4

    def test_start_discards_reused_placement(self, monkeypatch):
        # n1's two slots are held until t=100; the head needs one slot on
        # each node, so all three are reserved.  The placement on n2 found
        # for the long jobs is reused by the first short one; the next short
        # job is placed anew on n3, and the count leaves the last no node.
        state = make_cluster(2, 1, 1)
        state.submit(make_spec(nodes=1, slots=2, walltime_s=100), "/tmp", 0)
        state.tick(0)
        head = state.submit(make_spec(nodes=3, slots=1), "/tmp", 1)
        long_jobs = [state.submit(make_spec(nodes=1, slots=1, walltime_s=500), "/tmp", 1)
                     for _ in range(2)]
        short = [state.submit(make_spec(nodes=1, slots=1, walltime_s=10), "/tmp", 1)
                 for _ in range(3)]
        probed = self.count_probes(monkeypatch)
        events = state.tick(5)
        assert events == [(short[0], {"n2": 1}), (short[1], {"n3": 1})]
        assert [state.jobs[j].state for j in (head, *long_jobs, short[2])] == \
            [JobStatus.PENDING] * 4
        assert probed.count(ResourceRequest(nodes=1, slots_per_node=1)) == 2
        state.assert_conservation()

    def test_clock_must_not_go_backwards(self, two_node_cluster):
        two_node_cluster.tick(10)
        with pytest.raises(ValueError):
            two_node_cluster.tick(9)


class TestSettledPass:
    """After a pass that starts nothing, or a pass over the whole queue whose
    starts take no slots on a held job's nodes, the next examines only the
    jobs submitted since; an end, a cancel or any other start makes it
    examine the whole queue again."""

    @staticmethod
    def count_shadows(monkeypatch) -> list:
        heads = []

        def counting_shadow_time(request, state):
            heads.append(request)
            return shadow_time(request, state)

        monkeypatch.setattr(sched, "shadow_time", counting_shadow_time)
        return heads

    @staticmethod
    def _settled_state():
        # Both nodes are reserved for the head, so the job that fits on n2
        # must end by t=100 to start; 40 + 70 > 100.
        state, head = TestTick._blocked_head_state()
        held = state.submit(make_spec(nodes=1, slots=1, walltime_s=70), "/tmp", 40)
        assert state.tick(40) == []
        ((_, blocker, _),) = state.releases
        return state, blocker, head, held

    @staticmethod
    def _held_on_n2_state(n4_slots: int = 1):
        # n1 and n3 are held until t=100 and the head needs three nodes, so
        # n1-n3 are reserved and n4 is not.  The long job behind the head
        # first-fits on n2, a reserved node, and will be held back.
        state = make_cluster(1, 1, 1, n4_slots)
        blockers = [state.submit(make_spec(nodes=1, slots=1, walltime_s=wall), "/tmp", 0)
                    for wall in (100, 1, 100)]
        state.tick(0)
        state.transition(blockers[1], Outcome.exit(0), 1)
        head = state.submit(make_spec(nodes=3, slots=1, walltime_s=10), "/tmp", 2)
        long_job = state.submit(make_spec(nodes=1, slots=1, walltime_s=500), "/tmp", 2)
        return state, head, long_job

    def test_new_submits_alone_examine_only_the_new_jobs(self, monkeypatch):
        state, head, long_job = self._held_on_n2_state()
        assert state.tick(5) == []

        heads = self.count_shadows(monkeypatch)
        probed = TestTick.count_probes(monkeypatch)
        short = state.submit(make_spec(nodes=1, slots=1, walltime_s=10), "/tmp", 6)
        assert state.tick(6) == [(short, {"n2": 1})]  # 6 + 10 <= 100
        assert (heads, probed) == ([], [ResourceRequest(nodes=1, slots_per_node=1)])
        # The start leaves n2 full, so the long job now first-fits on n4,
        # outside the reservation: the pass a second later must see it.
        assert state.tick(7) == [(long_job, {"n4": 1})]
        assert state.jobs[head].state is JobStatus.PENDING
        state.assert_conservation()

    def test_start_off_every_held_node_settles_the_queue(self, monkeypatch):
        # Only n4 holds two slots, so the wide job starts there, off the
        # reservation and off n2: nothing the pass examined can start until
        # a job ends, and the pass a second later examines nothing.
        state, head, long_job = self._held_on_n2_state(n4_slots=2)
        wide = state.submit(make_spec(nodes=1, slots=2, walltime_s=500), "/tmp", 2)
        assert state.tick(5) == [(wide, {"n4": 2})]
        heads = self.count_shadows(monkeypatch)
        probed = TestTick.count_probes(monkeypatch)
        assert state.tick(6) == []
        assert (heads, probed) == ([], [])
        assert [state.jobs[j].state for j in (head, long_job)] == [JobStatus.PENDING] * 2
        state.assert_conservation()

    def test_start_on_a_held_node_leaves_the_queue_unsettled(self):
        # The short job takes n2 and ends by t=100, so it starts; the held
        # long job now first-fits on n4, outside the reservation, and the
        # pass a second later starts it, as a pass over the whole queue does.
        def run(full_passes: bool) -> tuple:
            state, head, long_job = self._held_on_n2_state()
            short = state.submit(make_spec(nodes=1, slots=1, walltime_s=10), "/tmp", 2)
            passes = []
            for now in (5, 6, 7):
                if full_passes:
                    state._settled = state._reservation = None
                passes.append(state.tick(now))
            assert state.jobs[head].state is JobStatus.PENDING
            state.assert_conservation()
            return passes, long_job, short

        passes, long_job, short = run(full_passes=False)
        assert passes == [[(short, {"n2": 1})], [(long_job, {"n4": 1})], []]
        assert run(full_passes=True)[0] == passes

    def test_end_makes_the_next_pass_examine_the_queue(self):
        state, blocker, head, held = self._settled_state()
        state.transition(blocker, Outcome.exit(0), 50)
        assert state.tick(50) == [(head, {"n1": 1, "n2": 1})]
        assert state.jobs[held].state is JobStatus.PENDING
        state.assert_conservation()

    def test_cancelled_head_makes_the_next_pass_examine_the_queue(self):
        state, blocker, head, held = self._settled_state()
        state.transition(head, Outcome.cancel(), 41)
        assert state.tick(41) == [(held, {"n2": 1})]
        state.assert_conservation()

    def test_backfill_start_keeps_the_reservation(self, monkeypatch):
        # n1 is held until t=100 and the head needs one slot on both nodes.
        # Two short jobs backfill onto n2 in two passes: both end by t=100,
        # so the reservation made for the first still holds for the second.
        state = make_cluster(1, 2)
        state.submit(make_spec(nodes=1, slots=1, walltime_s=100), "/tmp", 0)
        state.tick(0)
        head = state.submit(make_spec(nodes=2, slots=1, walltime_s=10), "/tmp", 1)
        heads = self.count_shadows(monkeypatch)
        for at in (40, 41):
            short = state.submit(make_spec(nodes=1, slots=1, walltime_s=50), "/tmp", at)
            assert state.tick(at) == [(short, {"n2": 1})]
        assert heads == [ResourceRequest(nodes=2, slots_per_node=1)]
        head_request = state.jobs[head].spec.resources
        assert state._reservation == (head, *shadow_time(head_request, state))
        state.assert_conservation()

    def test_end_drops_the_reservation(self, monkeypatch):
        # n1 is held until t=100 and n2 until t=50; the head needs all three
        # nodes, so its shadow is t=100.  n1's job ends early at t=30, which
        # brings the shadow forward to t=50: a job that would have ended by
        # t=100 no longer ends by the shadow, and every node is reserved.
        state = make_cluster(1, 1, 1)
        blockers = [state.submit(make_spec(nodes=1, slots=1, walltime_s=wall), "/tmp", 0)
                    for wall in (100, 50)]
        state.tick(0)
        head = state.submit(make_spec(nodes=3, slots=1, walltime_s=10), "/tmp", 1)
        held = state.submit(make_spec(nodes=1, slots=1, walltime_s=500), "/tmp", 1)
        assert state.tick(1) == []
        assert state._reservation == (head, 100, {"n1", "n2", "n3"})
        state.transition(blockers[0], Outcome.exit(0), 30)
        heads = self.count_shadows(monkeypatch)
        late = state.submit(make_spec(nodes=1, slots=1, walltime_s=30), "/tmp", 30)
        assert state.tick(30) == []  # 30 + 30 > 50
        assert len(heads) == 1
        assert state._reservation == (head, 50, {"n1", "n2", "n3"})
        assert [state.jobs[j].state for j in (head, held, late)] == [JobStatus.PENDING] * 3
        state.assert_conservation()

    def test_time_alone_starts_no_settled_job(self, monkeypatch):
        # Past t=100 the blocker is overdue: the reservation still waits on
        # its release, which only a transition applies.
        state, blocker, head, held = self._settled_state()
        heads = self.count_shadows(monkeypatch)
        probed = TestTick.count_probes(monkeypatch)
        for now in (41, 99, 100, 101, 150, 10_000):
            assert state.tick(now) == []
        assert (heads, probed) == ([], [])
        assert [state.jobs[j].state for j in (head, held)] == [JobStatus.PENDING] * 2
        state.assert_conservation()


class TestTransition:
    def running_job(self):
        state = make_cluster(8)
        job_id = state.submit(make_spec(slots=8), "/tmp", 0)
        state.tick(0)
        return state, job_id

    def test_exit_completes_and_frees_slots(self):
        state, job_id = self.running_job()
        assert state.nodes[0].slots_free == 0
        rec = state.transition(job_id, Outcome.exit(0), now=5)
        assert rec.state is JobStatus.COMPLETED
        assert rec.exit_code == 0
        assert state.nodes[0].slots_free == 8
        state.assert_conservation()

    def test_timeout(self):
        state, job_id = self.running_job()
        rec = state.transition(job_id, Outcome.timeout(), now=5)
        assert rec.state is JobStatus.TIMED_OUT

    def test_cancel_pending_job(self):
        state = make_cluster(8)
        job_id = state.submit(make_spec(), "/tmp", 0)
        rec = state.transition(job_id, Outcome.cancel(), now=1)
        assert rec.state is JobStatus.CANCELLED
        assert state.queue == []

    def test_cancel_completed_is_invalid(self):
        state, job_id = self.running_job()
        state.transition(job_id, Outcome.exit(0), now=5)
        with pytest.raises(InvalidTransition):
            state.transition(job_id, Outcome.cancel(), now=6)

    def test_unknown_job(self):
        state = make_cluster(8)
        with pytest.raises(NoSuchJob):
            state.transition(999, Outcome.cancel(), now=0)

    def test_daemon_failure_from_running(self):
        state, job_id = self.running_job()
        rec = state.transition(job_id, Outcome.daemon_failure("spawn failed"), now=5)
        assert rec.state is JobStatus.FAILED
        assert rec.reason == "spawn failed"

    def test_random_sequences_never_corrupt_state(self):
        # Illegal transitions must raise and leave everything untouched.
        rng = random.Random(99)
        state = make_cluster(2, 2)
        outcomes = [Outcome.exit(0), Outcome.exit(1), Outcome.timeout(),
                    Outcome.cancel(), Outcome.daemon_failure("x")]
        now = 0
        for _ in range(2000):
            now += 1
            action = rng.randrange(3)
            if action == 0:
                state.submit(make_spec(nodes=rng.randrange(1, 3),
                                       slots=rng.randrange(1, 3),
                                       walltime_s=rng.randrange(1, 6)), "/tmp", now)
            elif action == 1:
                state.tick(now)
            elif state.jobs:
                job_id = rng.choice(list(state.jobs))
                before_state = state.jobs[job_id].state
                before = (
                    copy.deepcopy(state.jobs[job_id]),
                    list(state.queue),
                    [n.slots_free for n in state.nodes],
                )
                legal = (
                    before_state is JobStatus.RUNNING
                    or (before_state is JobStatus.PENDING)
                )
                outcome = rng.choice(outcomes)
                if before_state is JobStatus.PENDING and outcome.state is not JobStatus.CANCELLED:
                    legal = False
                try:
                    state.transition(job_id, outcome, now)
                    assert legal, f"illegal transition accepted from {before_state}"
                except InvalidTransition:
                    assert not legal
                    after = (
                        state.jobs[job_id],
                        list(state.queue),
                        [n.slots_free for n in state.nodes],
                    )
                    assert (before[0], before[1], before[2]) == after
            state.assert_conservation()


class TestSnapshot:
    def test_pending_row(self):
        state = make_cluster(8)
        state.submit(make_spec(name="automl_job", walltime_s=14400), "/tmp", 0)
        rows = state.snapshot(now=0)
        assert len(rows) == 1
        row = json.loads(rows[0])
        assert (row["id"], row["state"], row["elapsed_s"]) == (1, "PD", None)

    def test_running_row_elapsed_and_limit(self):
        state = make_cluster(8)
        state.submit(make_spec(name="automl_job", slots=8, walltime_s=14400), "/tmp", 0)
        state.tick(0)
        rows = state.snapshot(now=60)
        row = json.loads(rows[0])
        assert row["state"] == "R"
        assert row["elapsed_s"] == 60
        assert row["limit_s"] == 14400
        assert (row["nodes"], row["slots_per_node"]) == (1, 8)

    def test_filter_excludes_everything(self):
        state = make_cluster(8)
        state.submit(make_spec(), "/tmp", 0)
        assert state.snapshot(now=0, states={JobStatus.RUNNING}) == []

    def test_rows_ascend_by_id(self):
        state = make_cluster(8)
        for _ in range(5):
            state.submit(make_spec(), "/tmp", 0)
        rows = state.snapshot(now=0)
        assert [json.loads(r)["id"] for r in rows] == [1, 2, 3, 4, 5]

    def test_row_listed_running_is_listed_finished_after_it_ends(self):
        state = make_cluster(8)
        state.submit(make_spec(slots=8, walltime_s=600), "/tmp", 0)
        state.tick(10)
        assert [(r["state"], r["elapsed_s"]) for r in map(json.loads, state.snapshot(now=40))] \
            == [("R", 30)]
        state.transition(1, Outcome.exit(0), 55)
        (row,) = state.snapshot(now=500)
        fields = json.loads(row)
        assert (fields["state"], fields["elapsed_s"]) == ("CD", 45)
        assert state.snapshot(now=900) == [row]
        assert row == json.dumps(fields, separators=(",", ":"))

    def test_job_id_builds_one_row(self, monkeypatch):
        state = make_cluster(8)
        for _ in range(5000):
            state.submit(make_spec(), "/tmp", 0)
        built = []
        build_row = sched.status_row

        def counting_row(rec, now):
            built.append(rec.id)
            return build_row(rec, now)

        monkeypatch.setattr(sched, "status_row", counting_row)
        assert [json.loads(r)["id"] for r in state.snapshot(now=0, job_id=2500)] == [2500]
        assert state.snapshot(now=0, job_id=9999) == []
        assert state.snapshot(now=0, job_id=[1]) == []  # unhashable, as off the wire
        assert state.snapshot(now=0, job_id=2500, states={JobStatus.RUNNING}) == []
        assert built == [2500]


class TestRowCache:
    """A kept row is served only while its job's state is the one it was
    built in: after each step of a random history, every row equals the
    compact JSON of the fields read from the job's record."""

    NAMES = ("job", "caf\u00e9", 'say "hi"', "\u03bb\U0001f600")

    @staticmethod
    def expected(rec, now) -> str:
        if rec.state is JobStatus.RUNNING:
            elapsed = int(now - rec.start_time)
        elif rec.start_time is not None and rec.end_time is not None:
            elapsed = int(rec.end_time - rec.start_time)
        else:
            elapsed = None
        return json.dumps({
            "id": rec.id,
            "name": rec.spec.name,
            "state": rec.state.value,
            "nodes": rec.spec.resources.nodes,
            "slots_per_node": rec.spec.resources.slots_per_node,
            "elapsed_s": elapsed,
            "limit_s": rec.spec.walltime_s,
        }, separators=(",", ":"))

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_follow_a_random_history(self, seed):
        rng = random.Random(seed)
        state = make_cluster(2, 3)
        now, taken = 0.0, set()
        for _ in range(300):
            now += rng.choice((0.0, 0.4, 1.0, 2.7))
            pending = list(state.queue)
            running = [job_id for _, job_id, _ in state.releases]
            steps = ["submit", "submit", "tick", "snapshot"]
            if pending:
                steps.append("cancel-pending")
            if running:
                steps += ["exit", "timeout", "cancel-running"]
            step = rng.choice(steps)
            taken.add(step)
            if step == "submit":
                spec = make_spec(nodes=rng.randint(1, 2), slots=rng.randint(1, 2),
                                 walltime_s=rng.randint(1, 30), name=rng.choice(self.NAMES))
                state.submit(spec, "/tmp", now)
            elif step == "tick":
                state.tick(now)
            elif step == "exit":
                state.transition(rng.choice(running), Outcome.exit(rng.randrange(3)), now)
            elif step == "timeout":
                state.transition(rng.choice(running), Outcome.timeout(), now)
            elif step == "cancel-pending":
                state.transition(rng.choice(pending), Outcome.cancel(), now)
            elif step == "cancel-running":
                state.transition(rng.choice(running), Outcome.cancel(), now)
            elif step == "snapshot":
                states = rng.choice((None, {rng.choice(list(JobStatus))}))
                job_id = rng.choice((None, rng.randint(0, len(state.jobs) + 1)))
                assert state.snapshot(now, states=states, job_id=job_id) == [
                    self.expected(rec, now) for rec in state.jobs.values()
                    if (states is None or rec.state in states)
                    and (job_id is None or rec.id == job_id)]
            assert state.snapshot(now) == [self.expected(rec, now)
                                           for rec in state.jobs.values()]
        assert taken == {"submit", "tick", "exit", "timeout", "cancel-pending",
                         "cancel-running", "snapshot"}

    def test_row_text_is_the_encoded_dict(self):
        """A row is byte for byte the compact encoding of its dict, whatever
        the name holds: the spec is built without the name check, so
        backslashes and control characters reach the row too."""
        rng = random.Random(29)
        alphabet = 'aZ9_-."\\/éλ\U0001f600\x00\x1f\x7f \ud800 \t\n'
        elapsed_seen = set()
        for job_id in range(1, 3001):
            name = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            spec = JobSpec._make((name, ResourceRequest(rng.randint(1, 64), rng.randint(1, 128)),
                                  rng.randint(1, 10**7), None, (), None))
            state = rng.choice(list(JobStatus))
            start = end = None
            now = rng.choice((0.0, 5.5, 10.0**6))
            if state is JobStatus.RUNNING:
                start = now - rng.choice((0.0, 0.9, 59.5, 10.0**6))
            elif state is not JobStatus.PENDING and rng.random() < 0.8:
                start = rng.uniform(0, 100)
                end = start + rng.choice((0.0, 0.4, 3600.0, 10.0**9))
            rec = sched.JobRecord(job_id * rng.choice((1, 10**9)), spec, "/tmp", state,
                                  start_time=start, end_time=end)
            if state is JobStatus.RUNNING:
                elapsed = int(now - start)
            elif start is not None and end is not None:
                elapsed = int(end - start)
            else:
                elapsed = None
            elapsed_seen.add(elapsed if elapsed in (None, 0) else "large" if elapsed > 10**5
                             else "other")
            assert sched.status_row(rec, now) == sched._encode({
                "id": rec.id, "name": name, "state": state.value,
                "nodes": spec.resources.nodes, "slots_per_node": spec.resources.slots_per_node,
                "elapsed_s": elapsed, "limit_s": spec.walltime_s}), name
        assert elapsed_seen == {None, 0, "large", "other"}


class TestOracleAgreement:
    """The production scheduler, driven event-by-event, must match the
    independent discrete-time reference on randomized workloads."""

    @pytest.mark.parametrize("backfill", [True, False], ids=["backfill", "fifo"])
    def test_random_workloads_match_reference(self, backfill):
        rng = random.Random(4242)
        for _ in range(400):
            node_slots = [rng.randrange(1, 3) for _ in range(rng.randrange(1, 3))]
            jobs = [
                (rng.randrange(1, 3), rng.randrange(1, 3), rng.randrange(1, 6))
                for _ in range(rng.randrange(1, 6))
            ]
            expected = refsim.simulate(node_slots, jobs, backfill=backfill)
            actual, _ = run_cluster(node_slots, jobs, backfill=backfill)
            assert actual == expected, (node_slots, jobs)

    @pytest.mark.parametrize("backfill", [True, False], ids=["backfill", "fifo"])
    def test_random_workloads_with_features_match_reference(self, backfill):
        rng = random.Random(77)
        feature_pool = [frozenset(), frozenset({"gpu"})]
        for _ in range(200):
            count = rng.randrange(1, 4)
            node_slots = [rng.randrange(1, 3) for _ in range(count)]
            node_feats = [rng.choice(feature_pool) for _ in range(count)]
            jobs = [
                (rng.randrange(1, 3), rng.randrange(1, 3), rng.randrange(1, 6))
                for _ in range(rng.randrange(1, 6))
            ]
            job_feats = [rng.choice(feature_pool) for _ in jobs]
            expected = refsim.simulate(node_slots, jobs, node_feats, job_feats, backfill)
            actual, _ = run_cluster(node_slots, jobs, node_feats, job_feats, backfill)
            assert actual == expected, (node_slots, node_feats, jobs, job_feats)


class TestReferenceReplay:
    """Arrivals over time on a wider cluster: ``perfbench/backlog.py``'s
    bursty trace replayed through ``ClusterState`` must start every job when
    ``perfbench/refsched.py``, an EASY scheduler sharing no code with miniq,
    starts it.  The oracle sweep queues everything at t=0 on at most two
    nodes, so it cannot see a wrong reservation on 32 nodes."""

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_backlog_trace_starts_match_reference(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        backlog = importlib.import_module("backlog")
        refsched = importlib.import_module("refsched")
        trace, specs, state = backlog.setup(seed)
        starts: dict[int, int] = {}
        for _ in backlog.replay(trace, specs, state, starts):
            pass
        expected = refsched.simulate([backlog.SLOTS] * backlog.N_NODES,
                                     backlog.node_features(), trace)
        assert len(starts) == len(trace)
        assert starts == expected
        state.assert_conservation()


class TestArrivalsDifferential:
    """``perfbench/backlog.py``'s trace generator at a smaller scale (8 nodes
    of 4 slots, one tagged; two bursts of 100 jobs): on every seed each
    start must equal ``perfbench/refsched.py``'s, and a replay in which
    every pass examines the whole queue and computes its reservation anew."""

    def test_small_bursty_traces_match_reference_and_full_passes(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        backlog = importlib.import_module("backlog")
        refsched = importlib.import_module("refsched")
        for name, value in (("N_NODES", 8), ("SLOTS", 4), ("TAGGED", 1), ("BURST", 100),
                            ("BURSTS", 2), ("NODES_W", ([1, 2, 4, 8], [50, 25, 15, 10])),
                            ("PPN_W", ([1, 2, 4], [30, 40, 30]))):
            monkeypatch.setattr(backlog, name, value)
        heads = TestSettledPass.count_shadows(monkeypatch)

        def replay(trace, specs, state, full_passes: bool) -> dict[int, int]:
            tick = state.tick
            if full_passes:
                def full_tick(now):
                    state._settled = state._reservation = None
                    return tick(now)

                state.tick = full_tick
            else:
                def checked_tick(now):
                    events = tick(now)
                    settled_after_start[0] += bool(events) and state._settled is not None
                    if state._reservation is not None and state.queue and \
                            state._reservation[0] == state.queue[0]:
                        head = state.jobs[state.queue[0]].spec.resources
                        assert state._reservation[1:] == shadow_time(head, state), now
                        checked[0] += 1
                    return events

                state.tick = checked_tick
            starts: dict[int, int] = {}
            for _ in backlog.replay(trace, specs, state, starts):
                pass
            assert len(starts) == len(trace)
            state.assert_conservation()
            return starts

        shadows = [0, 0]
        checked = [0]  # ticks after which a kept reservation was checked
        settled_after_start = [0]  # ticks that started jobs and settled the queue
        for seed in range(50):
            trace, specs, state = backlog.setup(seed)
            expected = refsched.simulate([backlog.SLOTS] * backlog.N_NODES,
                                         backlog.node_features(), trace)
            control = ClusterState([Node(n.id, n.slots_total, n.features) for n in state.nodes])
            for cluster, full_passes in ((state, False), (control, True)):
                before = len(heads)
                assert replay(trace, specs, cluster, full_passes) == expected, (seed, full_passes)
                shadows[full_passes] += len(heads) - before
        # The settled skip and the kept reservation were taken: they saved
        # reservations, and each one kept matched a fresh one.  Passes that
        # started jobs settled the queue too, with the same starts.
        assert shadows[0] < shadows[1], shadows
        assert checked[0] > 10_000, checked
        assert settled_after_start[0] > 2_500, settled_after_start


class TestDeterminism:
    def test_identical_workloads_schedule_identically(self):
        node_slots = [2, 1, 2]
        jobs = [(2, 1, 3), (1, 2, 5), (3, 1, 1), (1, 1, 4), (2, 2, 2)]
        first = run_cluster(node_slots, jobs)
        second = run_cluster(node_slots, jobs)
        assert first == second


class TestConservation:
    def test_randomized_workload_conserves_slots(self):
        rng = random.Random(31337)
        state = make_cluster(4, 2, 8)
        now = 0
        submitted = 0
        while submitted < 300:
            now += 1
            roll = rng.random()
            if roll < 0.5:
                try:
                    state.submit(
                        make_spec(
                            nodes=rng.randrange(1, 4),
                            slots=rng.randrange(1, 10),
                            walltime_s=rng.randrange(1, 30),
                        ),
                        "/tmp",
                        now,
                    )
                    submitted += 1
                except Unsatisfiable:
                    submitted += 1
            elif roll < 0.8:
                state.tick(now)
            else:
                running = [j for j, r in state.jobs.items() if r.state is JobStatus.RUNNING]
                if running:
                    job_id = rng.choice(running)
                    outcome = rng.choice(
                        [Outcome.exit(0), Outcome.timeout(), Outcome.cancel()]
                    )
                    state.transition(job_id, outcome, now)
            state.assert_conservation()

    def test_releases_that_disagree_with_jobs_are_caught(self):
        state = make_cluster(8)
        for _ in range(2):
            state.submit(make_spec(), "/tmp", 0)
        state.tick(0)
        state.assert_conservation()
        end, job_id, rec = state.releases[0]
        twin = copy.copy(rec)
        assert twin == rec and twin is not rec
        state.releases[0] = (end, job_id, twin)
        with pytest.raises(AssertionError, match="Running jobs by end"):
            state.assert_conservation()
        del state.releases[0]
        with pytest.raises(AssertionError, match="Running jobs by end"):
            state.assert_conservation()

    def test_jobs_out_of_id_order_are_caught(self):
        state = make_cluster(8)
        for _ in range(3):
            state.submit(make_spec(), "/tmp", 0)
        state.assert_conservation()
        state.jobs = {job_id: state.jobs[job_id] for job_id in (2, 1, 3)}
        with pytest.raises(AssertionError, match="ascending id order"):
            state.assert_conservation()
