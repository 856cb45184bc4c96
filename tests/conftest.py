"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

# Run the suite against the checked-out package, installed or not. The path is
# absolute so that child processes (`python -m miniq.cli`, `miniq.daemon`)
# started with another working directory import the same `src` through the
# inherited PYTHONPATH.
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC_DIR)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])
)

from miniq.jobspec import (
    Dialect,
    JobSpec,
    OutputPolicy,
    ResourceRequest,
    render_walltime,
)
from miniq.sched import ClusterState, Node

# The two reference job scripts the whole artifact is built around.
PBS_SCRIPT = """\
#!/bin/bash
#PBS -N automl_job
#PBS -l nodes=1:ppn=8
#PBS -l walltime=4:00:00
#PBS -j oe

# Load necessary modules
module load python/3.8
module load pytorch/1.9

# Navigate to the working directory
cd $PBS_O_WORKDIR

# Run the Python script
python my_automl_script.py
"""

SLURM_SCRIPT = """\
#!/bin/bash
#SBATCH --job-name=automl_job
#SBATCH --nodes=1
#SBATCH --ntasks-per-node=8
#SBATCH --time=04:00:00
#SBATCH --output=output_

# Load necessary modules
module load python/3.8
module load pytorch/1.9

# Navigate to the working directory
cd $SLURM_SUBMIT_DIR

# Run the Python script
python my_automl_script.py
"""


def make_pbs_script(name: str, nodes: int, slots: int, walltime_s: int,
                    body: str = "python my_automl_script.py") -> str:
    return (
        "#!/bin/bash\n"
        f"#PBS -N {name}\n"
        f"#PBS -l nodes={nodes}:ppn={slots}\n"
        f"#PBS -l walltime={render_walltime(walltime_s)}\n"
        f"#PBS -j oe\n"
        "\n"
        f"{body}\n"
    )


def make_slurm_script(name: str, nodes: int, slots: int, walltime_s: int,
                      body: str = "python my_automl_script.py") -> str:
    return (
        "#!/bin/bash\n"
        f"#SBATCH --job-name={name}\n"
        f"#SBATCH --nodes={nodes}\n"
        f"#SBATCH --ntasks-per-node={slots}\n"
        f"#SBATCH --time={render_walltime(walltime_s)}\n"
        "\n"
        f"{body}\n"
    )


_SPEC_CACHE: dict[tuple, JobSpec] = {}


def make_spec(nodes: int = 1, slots: int = 1, walltime_s: int = 60,
              features: frozenset[str] = frozenset(), name: str = "job",
              body: tuple[str, ...] = ("true",)) -> JobSpec:
    """Minimal valid JobSpec for scheduler-level tests (cached: specs are
    immutable and shared freely)."""
    key = (nodes, slots, walltime_s, features, name, body)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = JobSpec(
            name=name,
            resources=ResourceRequest(nodes=nodes, slots_per_node=slots, features=features),
            walltime_s=walltime_s,
            output=OutputPolicy("%x.o%j", "%x.e%j", merge_stderr=False),
            body=body,
            dialect=Dialect.PBS,
        )
        _SPEC_CACHE[key] = spec
    return spec


def make_cluster(*slot_counts: int, features: tuple[frozenset, ...] | None = None) -> ClusterState:
    nodes = []
    for i, slots in enumerate(slot_counts):
        feats = features[i] if features else frozenset()
        nodes.append(Node(id=f"n{i + 1}", slots_total=slots, features=feats))
    return ClusterState(nodes)


def gated(gate, command: str) -> list[str]:
    """A session command that runs the shell ``command`` once the file
    ``gate`` exists, so that an attach made before the gate opens sees every
    byte it writes."""
    return ["sh", "-c", f'until [ -e "$0" ]; do sleep 0.01; done; exec {command}', str(gate)]


def wait_until(predicate, timeout: float, interval: float = 0.02):
    """Poll until predicate() is truthy; returns its value (falsy on timeout)."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            return predicate()
        time.sleep(interval)


def process_alive(pid: int) -> bool:
    """True while pid runs; a zombie or a reaped process counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def two_node_cluster() -> ClusterState:
    return make_cluster(8, 8)
