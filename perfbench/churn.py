"""`churn`: a closed-loop burst of short jobs through the whole daemon path.

One client submits a burst of jobs back to back over one connection, waits
until the journal shows every job ended, times full ``status`` listings of
the whole history, stops the daemon with SIGTERM and times a restart on the
burst's journal.  Each round uses a fresh daemon and journal; a run repeats
whole rounds until ``--seconds`` have passed.

Right before and right after each listing and each restart, the client
times a fixed piece of work of the same kind in its own process (a JSON
round trip; starting a Python interpreter).  Listings and restarts are
taken as multiples of the mean of those two, so the host's swings in
speed, which move both, cancel out; ``op_vs_ref`` is the geometric mean of
the listings' median ratio and the restarts'.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common
import layers
import tracing
from common import check, p50, pct

BURST = 500           # jobs per round
MIN_ROUNDS = 2        # so that submit p99 has ten samples beyond it
STATUS_LISTINGS = 20  # full status requests per round
RESTARTS = 3          # restarts on each round's journal
TICK_S = 0.01
# 4 x 32 slots and a 10 ms tick cap throughput at 12800 jobs/s, well above
# what the daemon's own work allows, so the burst drains at the daemon's pace.
NODES = [
    {"id": "n1", "slots": 32},
    {"id": "n2", "slots": 32},
    {"id": "n3", "slots": 32, "features": ["fast"]},
    {"id": "n4", "slots": 32, "features": ["fast"]},
]
# (nodes, ppn, feature) shapes and their weights in the burst: an assumed mix
# of mostly one-slot jobs, not taken from any measured workload.
SHAPES = [((1, 1, None), 40), ((1, 2, None), 15), ((2, 1, None), 10), ((1, 4, None), 10),
          ((2, 2, None), 10), ((1, 1, "fast"), 10), ((2, 4, "fast"), 5)]
NAMES = ["fit", "prep", "sim", "post", "eval"]
WALLTIMES = ["0:05:00", "0:15:00", "1:00:00"]
DRAIN_TIMEOUT_S = 120.0


def make_burst(seed: int, submit_dirs: list[Path]) -> list[dict]:
    """The burst's jobs: script text plus what the benchmark expects back."""
    rng = random.Random(seed)
    shapes, weights = zip(*SHAPES)
    jobs = []
    for i in range(BURST):
        nodes, ppn, feature = rng.choices(shapes, weights)[0]
        name = f"{rng.choice(NAMES)}{i}"
        wall = rng.choice(WALLTIMES)
        submit_dir = str(rng.choice(submit_dirs))
        if rng.random() < 0.5:
            merged = rng.random() < 0.5
            node_spec = f"{nodes}:ppn={ppn}" + (f":{feature}" if feature else "")
            lines = ["#!/bin/bash", f"#PBS -N {name}", f"#PBS -l nodes={node_spec}",
                     f"#PBS -l walltime={wall}"]
            if merged:
                lines.append("#PBS -j oe")
            lines += ["", 'echo "$PBS_JOBID $PBS_JOBNAME $PBS_O_WORKDIR"',
                      'echo "err $PBS_JOBID" >&2']
            out = "%x.o%j"
            err = None if merged else "%x.e%j"
        else:
            lines = ["#!/bin/bash", f"#SBATCH --job-name={name}", f"#SBATCH --nodes={nodes}",
                     f"#SBATCH --ntasks-per-node={ppn}", f"#SBATCH --time={wall}"]
            if feature:
                lines.append(f"#SBATCH --constraint={feature}")
            out = "slurm-%j.out"
            if rng.random() < 0.5:
                out = f"{name}-%j.log"
                lines.append(f"#SBATCH --output={out}")
            lines += ["", 'echo "$SLURM_JOB_ID $SLURM_JOB_NAME $SLURM_SUBMIT_DIR"',
                      'echo "err $SLURM_JOB_ID" >&2']
            err = None
        jobs.append({"script": "\n".join(lines) + "\n", "name": name, "dir": submit_dir,
                     "out": out, "err": err})
    return jobs


def json_reference_s(doc) -> float:
    """Seconds this process takes to encode ``doc`` as a JSON line and decode it."""
    t0 = time.perf_counter()
    json.loads((json.dumps(doc, separators=(",", ":")) + "\n").encode())
    return time.perf_counter() - t0


def spawn_reference_s() -> float:
    """Seconds to start a Python interpreter that imports the standard
    modules a server needs, and reap it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import json, selectors, socket, threading"], check=True)
    return time.perf_counter() - t0


def _expand(template: str, job_id: int, name: str) -> str:
    return template.replace("%j", str(job_id)).replace("%x", name)


def wait_for_drain(journal: Path, jobs: int) -> None:
    """Tail the journal until it holds an ``ended`` entry for every job."""
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    ended, offset, partial = 0, 0, b""
    while ended < jobs:
        check(time.monotonic() < deadline, f"only {ended}/{jobs} jobs ended in time")
        time.sleep(0.02)
        with open(journal, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
        offset += len(data)
        lines = (partial + data).split(b"\n")
        partial = lines.pop()
        ended += sum(1 for line in lines if b'"event":"ended"' in line)


def check_round(jobs: list[dict], ids: list[int], entries: list[dict]) -> None:
    """Checks the outputs of one burst against the journal and job files."""
    by_id = {job_id: job for job_id, job in zip(ids, jobs)}
    slots = {node["id"]: node["slots"] for node in NODES}
    used = dict.fromkeys(slots, 0)
    held: dict[int, dict] = {}
    ended: dict[int, dict] = {}
    for entry in entries:
        event = entry["event"]
        if event == "started":
            held[entry["job_id"]] = entry["allocation"]
            for node, count in entry["allocation"].items():
                used[node] += count
                check(used[node] <= slots[node], f"node {node} over-allocated at seq {entry['seq']}")
        elif event == "ended":
            ended[entry["job_id"]] = entry
            for node, count in held.pop(entry["job_id"], {}).items():
                used[node] -= count
    check(sorted(ended) == sorted(ids), "journal does not end every submitted job")
    for job_id, entry in ended.items():
        check(entry["state"] == "CD" and entry["exit_code"] == 0,
              f"job {job_id} ended {entry['state']} with exit code {entry['exit_code']}")
        job = by_id[job_id]
        line = f"{job_id} {job['name']} {job['dir']}\n"
        err_line = f"err {job_id}\n"
        out = Path(job["dir"], _expand(job["out"], job_id, job["name"])).read_text()
        if job["err"] is None:
            check(out == line + err_line, f"job {job_id} merged output is {out!r}")
        else:
            err = Path(job["dir"], _expand(job["err"], job_id, job["name"])).read_text()
            check(out == line and err == err_line, f"job {job_id} output is {out!r} / {err!r}")


def check_rows(rows: list[dict], jobs: list[dict], ids: list[int], what: str) -> None:
    check([row["id"] for row in rows] == ids, f"{what}: rows do not list every job id in order")
    for row, job in zip(rows, jobs):
        check(row["name"] == job["name"] and row["state"] == "CD",
              f"{what}: row {row['id']} is {row['name']} {row['state']}")


def run_round(seed: int, index: int, tracer) -> dict:
    workdir = common.fresh_dir(f"churn-r{index}")
    submit_dirs = [workdir / f"submit{i}" for i in range(3)]
    for path in submit_dirs:
        path.mkdir()
    jobs = make_burst(seed, submit_dirs)
    config = common.write_config(workdir, NODES, TICK_S)
    journal = workdir / "journal.ndjson"
    # Span files of the burst's daemon, then of each restart.
    spans = [workdir / f"spans{k}.json" if tracer else None for k in range(1 + RESTARTS)]

    daemon, client, setup_s = common.start_daemon(config, spans_path=spans[0])
    try:
        submit_ms, ids = [], []
        for job in jobs:
            t0 = time.perf_counter()
            reply = client.request({"type": "submit", "script": job["script"],
                                    "submit_dir": job["dir"]})
            submit_ms.append((time.perf_counter() - t0) * 1e3)
            check(reply["ok"], f"submit refused: {reply}")
            ids.append(reply["payload"]["job_id"])
        wait_for_drain(journal, len(jobs))
        status_ms, status_ratio = [], []
        for _ in range(STATUS_LISTINGS):
            before = json_reference_s(jobs)
            t0 = time.perf_counter()
            rows = client.expect_ok({"type": "status"})["rows"]
            status_s = time.perf_counter() - t0
            after = json_reference_s(jobs)
            status_ms.append(status_s * 1e3)
            status_ratio.append(status_s / ((before + after) / 2))
            check_rows(rows, jobs, ids, "status")
        rss_mb = daemon.peak_rss_mb()
        cpu_s = daemon.cpu_s()
        client.close()
    finally:
        code = daemon.stop()
    check(code == 0, f"miniqd exited {code} after SIGTERM")
    entries = [json.loads(line) for line in journal.read_bytes().splitlines()]
    check_round(jobs, ids, entries)
    journal_bytes = journal.stat().st_size

    restart_s, restart_ratio = [], []
    for k in range(RESTARTS):
        before = spawn_reference_s()
        t0 = time.perf_counter()
        restarted = common.DaemonProcess(config, spans_path=spans[1 + k])
        try:
            client = common.connect(restarted.address)
            rows = client.expect_ok({"type": "status"})["rows"]
            restart_s.append(time.perf_counter() - t0)
            client.close()
        finally:
            code = restarted.stop()
        restart_ratio.append(restart_s[-1] / ((before + spawn_reference_s()) / 2))
        check(code == 0, f"restarted miniqd exited {code} after SIGTERM")
        check_rows(rows, jobs, ids, "status after restart")

    out = {"setup_s": setup_s, "submit_ms": submit_ms, "status_ms": status_ms,
           "restart_s": restart_s, "rss_mb": rss_mb, "status_ratio": status_ratio,
           "restart_ratio": restart_ratio,
           "cpu_s": cpu_s, "journal_bytes": journal_bytes, "jobs": len(jobs),
           "attempted": len(jobs) + STATUS_LISTINGS + RESTARTS}
    if tracer:
        out["spans"] = [tracing.load(path) for path in spans]
    shutil.rmtree(workdir)
    return out


def run(seed: int, seconds: float, tracer) -> common.Result:
    rounds = []
    t_end = time.monotonic() + seconds
    while len(rounds) < MIN_ROUNDS or time.monotonic() < t_end:
        rounds.append(run_round(seed, len(rounds), tracer))
    result = common.Result(attempted=sum(r["attempted"] for r in rounds))
    submit_ms = [ms for r in rounds for ms in r["submit_ms"]]
    status_vs_ref = p50([x for r in rounds for x in r["status_ratio"]])
    restart_vs_ref = p50([x for r in rounds for x in r["restart_ratio"]])
    result.notes["rounds"] = len(rounds)
    result.notes["status_vs_ref"] = status_vs_ref
    result.notes["restart_vs_ref"] = restart_vs_ref
    # Wall-clock figures, printed but not reported as metrics: from one set
    # of runs to the next they swing with the host's speed by more than the
    # bounds allow.  The ratios divide that swing out.
    result.notes["submit_p99_ms"] = pct(submit_ms, 0.99)
    result.notes["status_p50_ms"] = p50([ms for r in rounds for ms in r["status_ms"]])
    result.notes["restart_s"] = p50([s for r in rounds for s in r["restart_s"]])
    result.put("setup_s", p50([r["setup_s"] for r in rounds]), "s")
    result.put("peak_rss_mb", p50([r["rss_mb"] for r in rounds]), "MB")
    # The reads churn times are listings and restarts; each counts as much.
    result.put("op_vs_ref", math.sqrt(status_vs_ref * restart_vs_ref), "ratio")
    if tracer:
        result.put_layers(layers.metrics(layers.Inputs(
            rounds=len(rounds),
            work=tracing.Spans.merge([r["spans"][0] for r in rounds]),
            startup=tracing.Spans.merge([trace for r in rounds for trace in r["spans"][1:]]),
            client=tracing.Spans(tracer.frozen()),
            jobs=sum(r["jobs"] for r in rounds),
            journal_bytes=sum(r["journal_bytes"] for r in rounds),
            cpu_s=sum(r["cpu_s"] for r in rounds),
            submit_rtt_ms=submit_ms)))
    return result
