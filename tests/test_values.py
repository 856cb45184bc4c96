"""Value types and records: tuple equality and hashing, immutability, copies,
and what the daemon imports at startup."""

from __future__ import annotations

import copy
import subprocess
import sys

import pytest

from conftest import make_cluster, make_pbs_script, make_spec
from miniq.jobspec import Dialect, JobSpec, OutputPolicy, ResourceRequest, parse_script
from miniq.journal import JournalEntry
from miniq.sched import Outcome, StartEvent

FROZEN = [
    pytest.param(ResourceRequest, (2, 4, frozenset({"gpu"})), id="ResourceRequest"),
    pytest.param(OutputPolicy, ("%x.o%j", "%x.e%j", False), id="OutputPolicy"),
    pytest.param(JobSpec, ("job", ResourceRequest(2, 4, frozenset({"gpu"})), 60,
                           OutputPolicy("slurm-%j.out", None, True), ("true",), Dialect.SLURM),
                 id="JobSpec"),
    pytest.param(Outcome, ("exit", 3, None), id="Outcome"),
    pytest.param(StartEvent, (7, {"n1": 2, "n2": 2}), id="StartEvent"),
    pytest.param(JournalEntry, (1, 0.5, "submitted", {"job_id": 1}), id="JournalEntry"),
]


@pytest.mark.parametrize("cls, fields", FROZEN)
def test_frozen_value_type(cls, fields):
    value, twin = cls(*fields), cls(*copy.deepcopy(fields))
    assert value == twin and value is not twin
    try:
        hash(fields)
    except TypeError:  # a dict field makes the value unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict
    copied = copy.deepcopy(value)
    assert copied == value and type(copied) is cls


def test_dialects_asking_for_one_shape_give_one_set_key():
    pbs = parse_script("#!/bin/sh\n#PBS -l nodes=2:ppn=4:gpu\n#PBS -l walltime=1:00:00\n"
                       "true\n").spec
    slurm = parse_script("#!/bin/sh\n#SBATCH --nodes=2\n#SBATCH --ntasks-per-node=4\n"
                         "#SBATCH --constraint=gpu\n#SBATCH --time=2:00:00\ntrue\n").spec
    assert pbs != slurm
    assert {pbs.resources, slurm.resources} == {ResourceRequest(2, 4, frozenset({"gpu"}))}


def test_job_record_equality_ignores_row():
    state = make_cluster(8)
    state.submit(make_spec(), "/tmp", 0)
    state.tick(1)
    state.transition(1, Outcome.exit(0), 2)
    rec = state.jobs[1]
    twin = copy.deepcopy(rec)
    state.snapshot(now=3)  # keeps the finished job's row on its record
    assert rec.row is not None and twin.row is None
    assert rec == twin
    twin.proc = object()  # a process only the live daemon can hold
    assert rec == twin
    twin.exit_code = 1
    assert rec != twin


def test_startup_imports_no_dataclasses_or_inspect():
    code = ("import miniq.daemon, miniq.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


# Serves an authenticated submit (run to completion) and status in a fresh
# interpreter, then prints which of the modules the daemon avoids it loaded
# beyond what the interpreter itself loads before running any code.
SERVE_AND_LIST_MODULES = """
import sys
baseline = set(sys.modules)
import socket, time
from miniq import protocol
from miniq.daemon import Daemon, DaemonConfig
from miniq.sched import Node

root, script = sys.argv[1], sys.argv[2]
daemon = Daemon(DaemonConfig("127.0.0.1", 0, "t", [Node(id="n1", slots_total=1)],
                             root + "/journal.ndjson", root, tick_interval_s=0.02))
daemon.start()
sock = socket.create_connection(daemon.bound_address)
reader = sock.makefile("rb")

def request(message):
    protocol.send_message(sock, message)
    response = protocol.read_message(reader)
    assert response["ok"], response
    return response["payload"]

request({"type": "auth", "token": "t"})
job_id = request({"type": "submit", "script": script, "submit_dir": root})["job_id"]
deadline = time.monotonic() + 30
while request({"type": "status", "job_id": job_id})["rows"][0]["state"] != "CD":
    assert time.monotonic() < deadline, "job did not complete"
    time.sleep(0.02)
sock.close()
daemon.shutdown()
avoided = {"argparse", "hmac", "_hashlib", "traceback", "queue"}
print(sorted(avoided & (set(sys.modules) - baseline)))
"""


def test_serving_daemon_loads_no_argparse_hmac_traceback_or_queue(tmp_path):
    # Only miniq.daemon is imported: miniq.cli needs argparse.
    script = make_pbs_script("guard", 1, 1, 60, body="true")
    out = subprocess.run([sys.executable, "-c", SERVE_AND_LIST_MODULES, str(tmp_path), script],
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
