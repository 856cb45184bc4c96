"""`attach`: stream a session's output live, then replay its ring again and again.

Each round starts a fresh daemon and one session that prints a known,
order-sensitive stream (``seq``).  The session waits for a file the client
creates after its attach is acknowledged, so the client sees the whole
stream live.  The client reads to the ``exit`` end frame, then attaches to
the ended session ``REPLAYS`` times; each attach replays the full 1 MiB ring.
Load comes from one process over at most two connections.

Right before and right after each replay, the client times the same
transfer from ``refstream.py``, a reference server that shares no code with
miniq: the ring's bytes in one data frame.  Each replay time is reported as
a multiple of the mean of those two (``op_vs_ref``), so the host's swings
in speed, which move both, cancel out.
"""

from __future__ import annotations

import base64
import json
import random
import shutil
import socket
import subprocess
import sys
import time

import common
import layers
import tracing
from common import check, p50

STREAM_NUMBERS = 3_000_000  # seq prints ~24 MB
REPLAYS = 20
RING_BYTES = 1024 * 1024
NODES = [{"id": "n1", "slots": 4}]
TICK_S = 0.05


def stream_for(seed: int) -> tuple[list[int], bytes]:
    """``seq``'s arguments and the exact bytes it prints."""
    rng = random.Random(seed)
    first, step = rng.randint(1, 10**6), rng.randint(1, 9)
    last = first + step * (STREAM_NUMBERS - 1)
    expected = "".join(f"{n}\n" for n in range(first, last + 1, step)).encode()
    return [first, step, last], expected


class Reference:
    """A ``refstream.py`` server, and the client side of its transfers."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(common.BENCH_DIR / "refstream.py")],
                                     stdout=subprocess.PIPE, text=True)
        self.port = int(self.proc.stdout.readline())

    def seconds(self, path: str, expected: bytes) -> float:
        """Request to end frame for a replay of ``path``, whose bytes must be
        ``expected``."""
        with socket.create_connection(("127.0.0.1", self.port)) as sock, \
                sock.makefile("rb") as reader:
            t0 = time.perf_counter()
            sock.sendall(path.encode() + b"\n")
            parts = []
            while (frame := json.loads(reader.readline()))["type"] == "data":
                parts.append(base64.b64decode(frame["bytes"]))
            elapsed = time.perf_counter() - t0
        check(b"".join(parts) == expected, f"reference replay of {path} differs")
        return elapsed

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def read_stream(client) -> tuple[bytes, str]:
    """Data frames up to the end frame; returns (bytes, end reason)."""
    from miniq.protocol import read_message

    parts = []
    while True:
        frame = read_message(client.reader)
        check(frame is not None, "connection closed before the end frame")
        if frame.get("type") == "end":
            return b"".join(parts), frame.get("reason")
        check(frame.get("type") == "data", f"unexpected frame {frame}")
        parts.append(base64.b64decode(frame["bytes"]))


def run_round(seq: list[int], expected: bytes, reference: Reference, tail: str, index: int,
              tracer) -> dict:
    workdir = common.fresh_dir(f"attach-r{index}")
    config = common.write_config(workdir, NODES, TICK_S)
    spans = workdir / "spans.json" if tracer else None
    name = f"stream{index}"
    command = ["/bin/sh", "-c",
               "while [ ! -e go ]; do sleep 0.005; done; exec seq " + " ".join(map(str, seq))]

    daemon, control, setup_s = common.start_daemon(config, spans_path=spans)
    try:
        control.expect_ok({"type": "session_create", "name": name, "command": command})
        attached = common.connect(daemon.address)
        reply = attached.expect_ok({"type": "attach", "name": name})
        t0 = time.perf_counter()
        (workdir / "sessions" / "go").touch()
        data, reason = read_stream(attached)
        stream_s = time.perf_counter() - t0
        attached.close()
        check(reason == "exit", f"live stream ended with {reason!r}")
        check(not reply["truncated"], "first attach reported a truncated replay")
        check(data == expected, f"live stream differs: {len(data)} bytes, expected {len(expected)}")

        replay_ms, replay_ratio = [], []
        for _ in range(REPLAYS):
            again = common.connect(daemon.address)
            before = reference.seconds(tail, expected[-RING_BYTES:])
            t0 = time.perf_counter()
            reply = again.expect_ok({"type": "attach", "name": name})
            replay, reason = read_stream(again)
            replay_s = time.perf_counter() - t0
            after = reference.seconds(tail, expected[-RING_BYTES:])
            replay_ms.append(replay_s * 1e3)
            replay_ratio.append(replay_s / ((before + after) / 2))
            again.close()
            check(reason == "exit" and reply["truncated"], f"replay ended {reason!r}, {reply}")
            check(replay == expected[-RING_BYTES:], "replay differs from the stream's last 1 MiB")
        rss_mb = daemon.peak_rss_mb()
        cpu_s = daemon.cpu_s()
        control.close()
    finally:
        code = daemon.stop()
    check(code == 0, f"miniqd exited {code} after SIGTERM")
    out = {"setup_s": setup_s, "mb_s": len(expected) / 1e6 / stream_s, "replay_ms": replay_ms,
           "replay_ratio": replay_ratio, "rss_mb": rss_mb, "cpu_s": cpu_s,
           "mb": (len(expected) + REPLAYS * RING_BYTES) / 1e6,
           "attempted": 1 + REPLAYS}
    if tracer:
        out["spans"] = tracing.load(spans)
    shutil.rmtree(workdir)
    return out


def run(seed: int, seconds: float, tracer) -> common.Result:
    seq, expected = stream_for(seed)
    tail = common.fresh_dir("attach-ref") / "tail.bin"
    tail.write_bytes(expected[-RING_BYTES:])
    rounds = []
    t_end = time.monotonic() + seconds
    reference = Reference()
    try:
        while not rounds or time.monotonic() < t_end:
            rounds.append(run_round(seq, expected, reference, str(tail), len(rounds), tracer))
    finally:
        reference.stop()
    result = common.Result(attempted=sum(r["attempted"] for r in rounds))
    result.notes["rounds"] = len(rounds)
    # Wall-clock figures, printed only: they swing with the host's speed, and
    # no reference tracked the live stream's swings (see the README).
    result.notes["attach_mb_s"] = p50([r["mb_s"] for r in rounds])
    result.notes["replay_p50_ms"] = p50([ms for r in rounds for ms in r["replay_ms"]])
    result.put("setup_s", p50([r["setup_s"] for r in rounds]), "s")
    result.put("peak_rss_mb", p50([r["rss_mb"] for r in rounds]), "MB")
    result.put("op_vs_ref", p50([x for r in rounds for x in r["replay_ratio"]]), "ratio")
    if tracer:
        work = tracing.Spans.merge([r["spans"] for r in rounds])
        result.put_layers(layers.metrics(layers.Inputs(
            rounds=len(rounds), work=work, startup=work,
            client=tracing.Spans(tracer.frozen()),
            cpu_s=sum(r["cpu_s"] for r in rounds),
            mb_streamed=sum(r["mb"] for r in rounds),
            live_chunks=[size for r in rounds for size in live_chunks(r["spans"])])))
    return result


def live_chunks(trace: tuple[list[tuple], dict]) -> list[int]:
    """Sizes of the chunks one round's live attach read: the reads that
    returned before the round's second attach request (its first replay)."""
    spans, _ = trace
    attaches = sorted(s[tracing.START] for s in spans
                      if s[tracing.NAME] == "daemon.handle_request" and s[tracing.TAG] == "attach")
    return [s[tracing.TAG] for s in spans
            if s[tracing.NAME] == "runtime.attachment_read" and s[tracing.TAG]
            and s[tracing.END] < attaches[1]]
