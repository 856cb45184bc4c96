"""The benchmark's tracing wrappers find every name they wrap in miniq."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Installs every wrapper, then runs one `true` job to completion on a daemon
# that is not started, through handle_request and tick_once, and prints the
# job's state and the names of the spans recorded inside a tick.
TRACED_JOB = """\
import json, sys, time
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
tracing.install_client(tracing.Tracer())
from miniq.daemon import Daemon, DaemonConfig
from miniq.sched import JobStatus, Node

workdir = sys.argv[1]
daemon = Daemon(DaemonConfig("127.0.0.1", 0, "token", [Node("n1", 1)],
                             workdir + "/journal.ndjson", workdir))
try:
    response, _ = daemon.handle_request({"type": "submit", "submit_dir": workdir,
                                         "script": "#PBS -N t\\ntrue\\n"})
    rec = daemon.state.jobs[response["payload"]["job_id"]]
    deadline = time.monotonic() + 10
    while rec.state is not JobStatus.COMPLETED and time.monotonic() < deadline:
        daemon.tick_once()
        time.sleep(0.01)
finally:
    daemon.shutdown()
spans = tracer.frozen()
print(json.dumps({"state": rec.state.value, "in_tick": sorted(
    {s[0] for s in spans if s[3] >= 0 and spans[s[3]][0] == "daemon.tick_once"})}))
"""


def test_every_name_the_benchmark_wraps_exists(tmp_path):
    # perfbench/tracing.py replaces functions by name in miniq's modules;
    # renaming one would break the traced benchmark runs, and a tick that
    # stopped calling one would leave its metric reading 0.  A subprocess
    # keeps the wrappers out of this test run.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    result = subprocess.run([sys.executable, "-c", TRACED_JOB, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout)
    assert traced["state"] == "CD"
    assert {"runtime.collect_exits", "runtime.poll_walltime",
            "runtime.launch_job"} <= set(traced["in_tick"])
