"""Value types and records: tuple equality and hashing, immutability, copies,
and what the daemon imports at startup."""

from __future__ import annotations

import copy
import subprocess
import sys

import pytest

from conftest import make_cluster, make_spec
from miniq.jobspec import Dialect, Directive, JobSpec, OutputPolicy, ResourceRequest, parse_script
from miniq.journal import JournalEntry
from miniq.sched import Outcome, StartEvent

FROZEN = [
    pytest.param(Directive, ("N", "job", 2, "#PBS -N job"), id="Directive"),
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
