"""Shared pieces of the benchmark: paths, statistics, and a `miniqd` process
handle that times start-up and reads the daemon's memory and CPU from /proc.

Every file the benchmark writes lives under ``STATE_DIR`` inside the
checkout, and each workload removes what it wrote before it returns.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
SRC_DIR = REPO_DIR / "src"
STATE_DIR = REPO_DIR / ".bench_state"

TOKEN = "perfbench-token"
STOP_TIMEOUT_S = 30.0
REPLY_TIMEOUT_S = 60.0
CLK_TCK = os.sysconf("SC_CLK_TCK")


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark computed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def p50(values) -> float:
    return statistics.median(values)


def pct(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Result:
    """What one run prints: operation counts and named metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        """An end-to-end metric."""
        self.metrics[name] = {"value": value, "unit": unit}

    def put_layers(self, metrics: dict[str, tuple[float, str]]) -> None:
        """The per-layer metrics of the traced run, name -> (value, unit)."""
        for name, (value, unit) in metrics.items():
            self.layers[name] = {"value": value, "unit": unit}


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a process, in MB (10^6 bytes)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc status")


def fresh_dir(name: str) -> Path:
    path = STATE_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def daemon_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def write_config(workdir: Path, nodes: list[dict], tick_interval_s: float) -> Path:
    """Daemon config with an ephemeral port; journal and session cwd in ``workdir``."""
    path = workdir / "miniqd.json"
    path.write_text(json.dumps({
        "listen": "127.0.0.1:0",
        "token": TOKEN,
        "tick_interval_s": tick_interval_s,
        "nodes": nodes,
        "journal": str(workdir / "journal.ndjson"),
        "workdir": str(workdir / "sessions"),
    }))
    return path


class DaemonProcess:
    """One `miniqd` child: spawned, then stopped with SIGTERM and reaped.

    With ``spans_path`` the daemon runs under the benchmark's tracing
    launcher, which writes its spans there once the daemon has shut down.
    """

    def __init__(self, config_path: Path, *, spans_path: Path | None = None):
        log = open(config_path.parent / "miniqd.log", "ab")
        if spans_path is None:
            argv = [sys.executable, "-m", "miniq.daemon", "--config", str(config_path)]
        else:
            argv = [sys.executable, str(BENCH_DIR / "launcher.py"), "--spans", str(spans_path),
                    "--config", str(config_path)]
        self.t_spawn = time.perf_counter()
        try:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                         env=daemon_env(), text=True)
        finally:
            log.close()
        banner = self.proc.stdout.readline().strip()
        if not banner.startswith("miniqd listening on "):
            self.stop()
            raise RuntimeError(f"miniqd did not start: {banner!r}")
        self.address = banner.rsplit(" ", 1)[1]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon, in MB (10^6 bytes)."""
        return peak_rss_mb(self.pid)

    def cpu_s(self) -> float:
        """User plus system CPU of the daemon process itself (not its jobs)."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def term_handler_installed(self) -> bool:
        """Whether the daemon catches SIGTERM yet (SigCgt in /proc status)."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("SigCgt:"):
                    return bool(int(line.split()[1], 16) >> (signal.SIGTERM - 1) & 1)
        return False

    def stop(self) -> int:
        """SIGTERM, then reap.  `miniqd` prints its banner before it installs
        its SIGTERM handler, so a signal sent in between would kill it
        outright; wait for the handler first."""
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while self.proc.poll() is None and not self.term_handler_installed():
            if time.monotonic() > deadline:
                break
            time.sleep(0.001)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


def connect(address: str):
    """An authenticated ``miniq.cli.Client``; a reply slower than
    ``REPLY_TIMEOUT_S`` fails the run instead of hanging it."""
    from miniq.cli import Client

    client = Client(address, TOKEN)
    client.connect()
    client.sock.settimeout(REPLY_TIMEOUT_S)
    return client


def start_daemon(config_path: Path, *, spans_path: Path | None = None):
    """Spawn `miniqd` and wait for its first reply on an authenticated
    connection.  Returns (daemon, client, seconds from spawn to that reply)."""
    daemon = DaemonProcess(config_path, spans_path=spans_path)
    try:
        client = connect(daemon.address)
        client.expect_ok({"type": "session_list"})
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, time.perf_counter() - daemon.t_spawn
