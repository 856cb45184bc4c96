"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria:
  1 paper-script fidelity          6 walltime enforcement
  2 dialect equivalence            7 detach/reattach integrity
  3 no over-allocation             8 crash recovery
  4 backfill oracle equivalence    9 end-to-end workflow
  5 EASY head protection
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time

import refsim
from conftest import (
    PBS_SCRIPT,
    SLURM_SCRIPT,
    make_cluster,
    make_pbs_script,
    make_slurm_script,
    make_spec,
    stream,
    wait_until,
)
from harness import run_cluster
from miniq.cli import Client
from miniq.daemon import Daemon, DaemonConfig
from miniq.errors import Unsatisfiable
from miniq.jobspec import parse_script
from miniq.runtime import SessionRegistry
from miniq.sched import JobStatus, Node, Outcome

TOKEN = "acceptance-token"


def criterion(number: int, name: str, budget_s: float | None = None):
    """Wrap a test so it reports one PASS/FAIL line and honors its budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                if budget_s is not None:
                    assert elapsed < budget_s, (
                        f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
                    )
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)", flush=True)

        return wrapper

    return decorate


# --------------------------------------------------------------------- #
# 1: the two scripts from the source material parse to the exact JobSpec
# --------------------------------------------------------------------- #

@criterion(1, "paper-script fidelity", budget_s=1.0)
def test_paper_script_fidelity():
    pbs = parse_script(PBS_SCRIPT, default_name="automl_job.pbs").spec
    assert pbs.name == "automl_job"
    assert pbs.resources.nodes == 1
    assert pbs.resources.slots_per_node == 8
    assert pbs.walltime_s == 14400
    assert pbs.output.merge_stderr is True

    slurm = parse_script(SLURM_SCRIPT, default_name="automl_job.slurm").spec
    assert slurm.name == "automl_job"
    assert slurm.resources.nodes == 1
    assert slurm.resources.slots_per_node == 8
    assert slurm.walltime_s == 14400
    assert slurm.output.stdout_template == "output_"


# --------------------------------------------------------------------- #
# 2: both dialects of the same request normalize identically
# --------------------------------------------------------------------- #

@criterion(2, "dialect equivalence", budget_s=5.0)
def test_dialect_equivalence():
    rng = random.Random(20240801)
    mismatches = 0
    for _ in range(500):
        name = f"job{rng.randrange(10**9)}"
        nodes = rng.randrange(1, 5)
        slots = rng.randrange(1, 17)
        walltime = rng.randrange(1, 10**5 + 1)
        pbs = parse_script(make_pbs_script(name, nodes, slots, walltime)).spec
        slurm = parse_script(make_slurm_script(name, nodes, slots, walltime)).spec
        same = (
            pbs.name == slurm.name
            and pbs.resources == slurm.resources
            and pbs.walltime_s == slurm.walltime_s
            and pbs.body == slurm.body
        )
        mismatches += 0 if same else 1
    assert mismatches == 0


# --------------------------------------------------------------------- #
# 3: slot conservation under a randomized workload
# --------------------------------------------------------------------- #

@criterion(3, "no over-allocation", budget_s=10.0)
def test_no_over_allocation():
    rng = random.Random(90210)
    state = make_cluster(4, 2, 8, features=(frozenset(), frozenset({"gpu"}), frozenset()))
    now = 0
    submissions = 0
    running_pool: list[int] = []
    while submissions < 1000:
        now += 1
        roll = rng.random()
        if roll < 0.45:
            features = frozenset({"gpu"}) if rng.random() < 0.15 else frozenset()
            try:
                state.submit(
                    make_spec(
                        nodes=rng.randrange(1, 5),
                        slots=rng.randrange(1, 10),
                        walltime_s=rng.randrange(1, 40),
                        features=features,
                    ),
                    "/tmp",
                    now,
                )
            except Unsatisfiable:
                pass
            submissions += 1
        elif roll < 0.75:
            state.tick(now)
        elif roll < 0.9:
            running_pool = [
                job_id for job_id, rec in state.jobs.items()
                if rec.state is JobStatus.RUNNING
            ]
            if running_pool:
                state.transition(
                    rng.choice(running_pool),
                    rng.choice([Outcome.exit(0), Outcome.exit(1), Outcome.timeout()]),
                    now,
                )
        else:
            if state.queue:
                state.transition(rng.choice(state.queue), Outcome.cancel(), now)
        state.assert_conservation()


# --------------------------------------------------------------------- #
# 4: event-driven scheduler == brute-force discrete-time reference
# --------------------------------------------------------------------- #

def cluster_shapes():
    """Every cluster with at most two nodes and per-node slots in {1, 2}."""
    return [[1], [2], [1, 1], [1, 2], [2, 1], [2, 2]]


def satisfiable_combos(node_slots: list[int]) -> list[tuple[int, int, int]]:
    combos = []
    for nodes_wanted in (1, 2):
        for slots in (1, 2):
            eligible = sum(1 for cap in node_slots if cap >= slots)
            if eligible < nodes_wanted:
                continue
            for wall in range(1, 6):
                combos.append((nodes_wanted, slots, wall))
    return combos


@criterion(4, "backfill oracle equivalence", budget_s=60.0)
def test_backfill_oracle_equivalence():
    checked = 0
    for node_slots in cluster_shapes():
        combos = satisfiable_combos(node_slots)
        workloads = itertools.chain(
            # every ordered workload of up to four jobs
            *(itertools.product(combos, repeat=k) for k in range(1, 5)),
            # every five-job combination, queued in canonical order
            itertools.combinations_with_replacement(combos, 5),
        )
        for workload in workloads:
            jobs = list(workload)
            expected = refsim.simulate(node_slots, jobs)
            actual, _ = run_cluster(node_slots, jobs)
            assert actual == expected, f"divergence: nodes={node_slots} jobs={jobs}"
            checked += 1

    # seeded deep sample: arbitrary orderings at the five-job depth
    rng = random.Random(12021)
    combos = satisfiable_combos([2, 2])
    for _ in range(30000):
        jobs = [rng.choice(combos) for _ in range(5)]
        expected = refsim.simulate([2, 2], jobs)
        actual, _ = run_cluster([2, 2], jobs)
        assert actual == expected, f"divergence: nodes=[2, 2] jobs={jobs}"
        checked += 1
    assert checked > 350_000


# --------------------------------------------------------------------- #
# 5: backfill never moves the job the reservation protects
# --------------------------------------------------------------------- #

@criterion(5, "EASY head protection", budget_s=10.0)
def test_easy_head_protection():
    # The protected job is the first one to block at the head of the queue:
    # at that moment both runs are in identical states and the reservation
    # guarantees backfill cannot delay it, so its start must match plain FIFO.
    rng = random.Random(5309)
    regressions = 0
    compared = 0
    for _ in range(200):
        node_slots = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        jobs = [
            (rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 8))
            for _ in range(rng.randrange(2, 7))
        ]
        with_backfill, blocked_heads = run_cluster(node_slots, jobs, backfill=True)
        without_backfill, _ = run_cluster(node_slots, jobs, backfill=False)
        if not blocked_heads:
            continue
        compared += 1
        protected = blocked_heads[0]
        if with_backfill[protected] != without_backfill[protected]:
            regressions += 1
    assert regressions == 0
    assert compared > 0


# --------------------------------------------------------------------- #
# 6: walltime kills land promptly
# --------------------------------------------------------------------- #

def acceptance_daemon(tmp_path, *, slots=8, tick=0.2) -> Daemon:
    config = DaemonConfig(
        host="127.0.0.1",
        port=0,
        token=TOKEN,
        nodes=[Node(id="n1", slots_total=slots)],
        journal_path=str(tmp_path / "journal.ndjson"),
        workdir_root=str(tmp_path / "work"),
        tick_interval_s=tick,
    )
    daemon = Daemon(config)
    daemon.start()
    return daemon


@criterion(6, "walltime enforcement")
def test_walltime_enforcement(tmp_path):
    daemon = acceptance_daemon(tmp_path, tick=0.2)
    try:
        client_host, client_port = daemon.bound_address
        client = Client(f"{client_host}:{client_port}", TOKEN)
        client.connect()
        for attempt in range(5):
            script = make_pbs_script(f"sleepy{attempt}", 1, 1, 1, body="sleep 10")
            payload = client.expect_ok({
                "type": "submit", "script": script, "submit_dir": str(tmp_path),
            })
            job_id = payload["job_id"]
            assert wait_until(
                lambda: daemon.state.jobs[job_id].state is JobStatus.RUNNING, 5)
            deadline = daemon.state.jobs[job_id].start_time + 1.0

            def timed_out():
                return daemon.state.jobs[job_id].state is JobStatus.TIMED_OUT

            assert wait_until(timed_out, 5, interval=0.005)
            observed = time.monotonic()
            latency = observed - deadline
            assert latency <= 1.4, f"attempt {attempt}: TimedOut after {latency:.3f}s"
        client.close()
    finally:
        daemon.shutdown()


# --------------------------------------------------------------------- #
# 7: a reattached client sees every line exactly once
# --------------------------------------------------------------------- #

@criterion(7, "detach/reattach integrity", budget_s=5.0)
def test_detach_reattach_integrity():
    code = (
        "import time\n"
        "for i in range(1, 101):\n"
        "    print(i, flush=True)\n"
        "    time.sleep(0.02)\n"
    )
    expected = b"".join(b"%d\n" % i for i in range(1, 101))
    registry = SessionRegistry()
    registry.create("numbers", [sys.executable, "-u", "-c", code], now=0.0)

    first = registry.attach("numbers")
    seen = b""
    while b"\n50\n" not in seen:
        chunk = first.read(timeout=5)
        assert chunk is not None, "stream ended before line 50"
        seen += chunk
    registry.detach(first)

    session = registry._sessions["numbers"]
    line70 = b"".join(b"%d\n" % i for i in range(1, 71))
    assert wait_until(lambda: len(session.ring) >= len(line70), 5)

    second = registry.attach("numbers")
    delivered = b"".join(stream(second))
    assert delivered == expected
    assert second.end_reason == "exit"


# --------------------------------------------------------------------- #
# 8: SIGKILL the daemon; the journal rebuilds the ledger
# --------------------------------------------------------------------- #

def write_daemon_config(tmp_path, *, slots=2) -> str:
    config_path = tmp_path / "miniqd.json"
    config_path.write_text(json.dumps({
        "listen": "127.0.0.1:0",
        "token": TOKEN,
        "tick_interval_s": 0.05,
        "nodes": [{"id": "n1", "slots": slots}],
        "journal": str(tmp_path / "journal.ndjson"),
        "workdir": str(tmp_path / "work"),
    }))
    return str(config_path)


def spawn_miniqd(config_path: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "miniq.daemon", "--config", config_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = proc.stdout.readline().strip()
    assert banner.startswith("miniqd listening on "), banner
    return proc, banner.rsplit(" ", 1)[1]


def wire_rows(address: str, job_id: int | None = None) -> list[dict]:
    client = Client(address, TOKEN)
    client.connect()
    try:
        request = {"type": "status"}
        if job_id is not None:
            request["job_id"] = job_id
        return client.expect_ok(request)["rows"]
    finally:
        client.close()


@criterion(8, "crash recovery")
def test_crash_recovery(tmp_path):
    config_path = write_daemon_config(tmp_path, slots=2)
    proc, address = spawn_miniqd(config_path)
    try:
        client = Client(address, TOKEN)
        client.connect()

        def submit(script):
            return client.expect_ok({
                "type": "submit", "script": script, "submit_dir": str(tmp_path),
            })["job_id"]

        def states():
            return {row["id"]: row["state"] for row in wire_rows(address)}

        quick = submit(make_pbs_script("quick", 1, 1, 60, body="echo done"))
        assert wait_until(lambda: states()[quick] == "CD", 10)
        long_running = submit(make_pbs_script("long", 1, 2, 600, body="sleep 30"))
        assert wait_until(lambda: states()[long_running] == "R", 10)
        queued = submit(make_pbs_script("queued", 1, 1, 60, body="echo later"))

        assert wait_until(
            lambda: states() == {quick: "CD", long_running: "R", queued: "PD"}, 10)
        pre_crash = {row["id"]: row for row in wire_rows(address)}
        client.close()
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()

    restarted, new_address = spawn_miniqd(config_path)
    try:
        rows = {row["id"]: row for row in wire_rows(new_address)}
        assert rows[quick]["state"] == "CD"
        assert rows[long_running]["state"] == "F"
        assert rows[queued]["state"] == "PD"
        # replay equivalence, modulo the Running -> Failed crash rule
        assert set(rows) == set(pre_crash)
        for job_id, before in pre_crash.items():
            after = rows[job_id]
            assert after["name"] == before["name"]
            assert after["limit_s"] == before["limit_s"]
            if before["state"] != "R":
                assert after["state"] == before["state"]
        # the recovered daemon must schedule the still-pending job
        assert wait_until(
            lambda: {r["id"]: r["state"] for r in wire_rows(new_address)}[queued] == "CD",
            10)
    finally:
        restarted.send_signal(signal.SIGTERM)
        restarted.wait(timeout=10)
        restarted.stdout.close()


# --------------------------------------------------------------------- #
# 9: the full submit/monitor workflow through the real CLI
# --------------------------------------------------------------------- #

@criterion(9, "end-to-end workflow", budget_s=10.0)
def test_end_to_end_workflow(tmp_path):
    config_path = write_daemon_config(tmp_path, slots=8)
    proc, address = spawn_miniqd(config_path)
    submit_dir = tmp_path / "proj"
    submit_dir.mkdir()
    env = dict(os.environ, MINIQ_SERVER=address, MINIQ_TOKEN=TOKEN,
               MINIQ_CONFIG=str(tmp_path / "absent.json"))

    def miniq(*argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "miniq.cli", *argv],
            capture_output=True, text=True, env=env, cwd=cwd or str(submit_dir),
        )

    try:
        # Hold the node so the workflow job is observably PD first.
        blocker = submit_dir / "blocker.pbs"
        blocker.write_text(make_pbs_script("blocker", 1, 8, 60, body="sleep 0.8"))
        result = miniq("submit", str(blocker))
        assert result.returncode == 0, result.stderr

        script = submit_dir / "automl_job.slurm"
        script.write_text(SLURM_SCRIPT.replace(
            "python my_automl_script.py",
            'echo "workdir=$SLURM_SUBMIT_DIR"\nsleep 1',
        ))
        result = miniq("submit", str(script))
        assert result.returncode == 0, result.stderr
        job_id = int(result.stdout.strip())

        observed: list[str] = []
        deadline = time.monotonic() + 9
        while time.monotonic() < deadline:
            stat = miniq("--json", "stat", str(job_id))
            assert stat.returncode == 0, stat.stderr
            state = json.loads(stat.stdout.splitlines()[0])["state"]
            if not observed or observed[-1] != state:
                observed.append(state)
            if state == "CD":
                break
            time.sleep(0.05)
        assert observed == ["PD", "R", "CD"], observed

        # Output policy: the literal file name from the script, in submit_dir.
        output_file = submit_dir / "output_"
        assert output_file.exists()
        assert f"workdir={submit_dir}" in output_file.read_text()

        # The table view renders the paper's walltime as H:MM:SS.
        table = miniq("stat", str(job_id))
        assert "4:00:00" in table.stdout
        assert "automl_job" in table.stdout
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
        proc.stdout.close()
