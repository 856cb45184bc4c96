"""A seeded corpus of job scripts whose parse outcomes are pinned in a file.

``parse_corpus.json`` holds one outcome per script of ``corpus()``: the
spec's ``to_dict()`` and the warnings, or the exception's class, ``str``
and ``line_no``.  Any change to the parser that changes an outcome fails
here, with the first script that differs.  After a deliberate change of
behaviour, record the outcomes again with

    PYTHONPATH=src python3 tests/test_parse_corpus.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from miniq.errors import ScriptError
from miniq.jobspec import Dialect, parse_script

SEED = 24
SCRIPTS = 1000
OUTCOMES = Path(__file__).with_name("parse_corpus.json")

NAMES = ["a", "fit", "automl_job", "x" * 64, "y" * 65, "bad/name", "back\\slash", "",
         "with space", "dot.name", "tab\tname"]
WALLTIMES = ["4:00:00", "04:00:00", "25:00", "90", "1-00:00:00", "2-01:30:15", "0:00:30",
             "0", "", "9:99:00", "1:60", "1-00:00", "abc", "-5", "1.5", "4:00:00:00",
             " 1:00:00 ", "99999999", "277777777777:46:40", "277777777777:46:41"]
COUNTS = ["1", "2", "4", "16"] * 4 + ["0", "zero", "-1", " 2", "+3", "1.0", ""]
FEATURES = ["gpu", "fast", "tpu", "x1"] * 4 + ["GPU", "a-b", ""]
TEMPLATES = ["slurm-%j.out", "%x-%j.log", "output_", "out-%q.txt", "100%", "%%j", "log/%x.%j"]
BODY = ["echo hi", "", "module load python/3.8", "  #PBS -N indented", "\t#SBATCH --nodes=2",
        "# a comment", "srun ./solver", "cd $PBS_O_WORKDIR", "#PBS", "#SBATCHED"]


def _pbs_line(rng: random.Random) -> str:
    kind = rng.randrange(16)
    if kind == 0:
        return f"-N {rng.choice(NAMES)}"
    if kind in (1, 2):
        items = []
        for _ in range(rng.randint(1, 3)):
            item = rng.randrange(5)
            if item == 0:
                items.append(f"walltime={rng.choice(WALLTIMES)}")
            elif item == 1:
                spec = rng.choice(COUNTS)
                if rng.random() < 0.7:
                    spec += f":ppn={rng.choice(COUNTS)}"
                for _ in range(rng.randrange(3)):
                    spec += ":" + rng.choice(FEATURES)
                if rng.random() < 0.1:
                    spec += ":mem=4gb"
                items.append(f"nodes={spec}")
            elif item == 2:
                items.append(rng.choice(["mem=4gb", "ncpus=4", "select"]))
            else:
                items.append(f"walltime={rng.choice(WALLTIMES[:7])}")
        return "-l " + rng.choice([",", ", "]).join(items)
    if kind == 3:
        return f"-j {rng.choice(['oe', 'oe', 'oe', 'eo', 'n', ''])}"
    if kind == 4:
        return rng.choice(["-q batch", "-A acct", "-m abe", "-V"])
    if kind == 5:
        return rng.choice(["nodes=1", "-", "", "-l", "-l  ", "--x", "- N a"])
    return f"-l walltime={rng.choice(WALLTIMES[:7])}"


def _slurm_line(rng: random.Random) -> str:
    kind = rng.randrange(16)
    sep = rng.choice(["=", "=", " "])
    if kind == 0:
        return f"--job-name{sep}{rng.choice(NAMES)}"
    if kind == 1:
        return f"--nodes{sep}{rng.choice(COUNTS)}"
    if kind == 2:
        return f"--ntasks-per-node{sep}{rng.choice(COUNTS)}"
    if kind in (3, 4):
        return f"--time{sep}{rng.choice(WALLTIMES)}"
    if kind == 5:
        return f"--output{sep}{rng.choice(TEMPLATES)}"
    if kind == 6:
        tags = ",".join(rng.choice(FEATURES) for _ in range(rng.randint(1, 3)))
        return f"--constraint{sep}{tags}"
    if kind == 7:
        return rng.choice(["--mem=4G", "--partition debug", "--exclusive", "--error=e.log"])
    if kind == 8:
        return rng.choice(["-N 1", "--", "--=x", "", "-- x", "--time ="])
    return f"--time={rng.choice(WALLTIMES[:7])}"


def _script(rng: random.Random) -> str:
    shape = rng.random()
    dialects = ["pbs"] if shape < 0.45 else ["slurm"] if shape < 0.9 else \
        ["pbs", "slurm"] if shape < 0.95 else []
    lines = ["#!/bin/bash"] if rng.random() < 0.8 else []
    for _ in range(rng.randint(1, 5)):
        dialect = rng.choice(dialects) if dialects else None
        if dialect is None:
            lines.append(rng.choice(BODY))
        elif dialect == "pbs":
            indent = " " if rng.random() < 0.05 else ""
            lines.append(indent + "#PBS " + rng.choice(["", "", " ", "\t"]) + _pbs_line(rng))
        elif dialect == "slurm":
            indent = "\t" if rng.random() < 0.05 else ""
            lines.append(indent + "#SBATCH " + rng.choice(["", "", " "]) + _slurm_line(rng))
        if rng.random() < 0.3:
            lines.append(rng.choice(BODY))
    lines += [rng.choice(BODY) for _ in range(rng.randrange(3))]
    crlf = rng.random() < 0.2
    text = ""
    for line in lines:  # a lone CR joins two lines into one
        text += line + rng.choices(["\n", "\r\n", "\r"], [1, 8, 1] if crlf else [97, 1, 2])[0]
    if rng.random() < 0.1:
        text = text.rstrip("\r\n")
    if rng.random() < 0.03:  # a lone CR inside a line
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + "\r" + text[cut:]
    return text


def corpus() -> list[tuple[str, dict]]:
    """(script, parse_script keyword arguments), SCRIPTS of them, from SEED."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(SCRIPTS):
        kwargs = {}
        if rng.random() < 0.15:
            kwargs["strict"] = True
        if rng.random() < 0.1:
            kwargs["dialect"] = rng.choice([Dialect.PBS, Dialect.SLURM])
        if rng.random() < 0.1:
            kwargs["default_name"] = rng.choice(["stem", "", "z" * 80, "a/b"])
        cases.append((_script(rng), kwargs))
    return cases


def outcome(script: str, kwargs: dict) -> dict:
    try:
        parsed = parse_script(script, **kwargs)
    except ScriptError as exc:
        return {"error": [type(exc).__name__, str(exc), exc.line_no]}
    return {"spec": parsed.spec.to_dict(), "warnings": parsed.warnings}


def _digest(cases: list[tuple[str, dict]]) -> str:
    text = json.dumps(cases, default=lambda dialect: dialect.value)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_outcome_matches_the_recorded_one():
    cases = corpus()
    with open(OUTCOMES, encoding="utf-8") as f:
        recorded = json.load(f)
    assert recorded["digest"] == _digest(cases), "the generator changed: record again"
    assert len(recorded["outcomes"]) == len(cases)
    for i, ((script, kwargs), expected) in enumerate(zip(cases, recorded["outcomes"])):
        got = outcome(script, kwargs)
        assert got == expected, (
            f"script {i} ({kwargs}) parses differently:\n{script!r}\n"
            f"recorded: {expected}\nnow:      {got}")


def record() -> None:
    cases = corpus()
    lines = [json.dumps(outcome(script, kwargs), separators=(",", ":")) for script, kwargs in cases]
    with open(OUTCOMES, "w", encoding="utf-8") as f:
        f.write(f'{{"digest":"{_digest(cases)}","outcomes":[\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
