"""Measure what one journal-style append costs on the checkout's filesystem.

    python3 perfbench/fsync_cost.py

Appends a 300-byte line ``APPENDS`` times, flushing and fsyncing each as
``miniq.journal.Journal`` does, and prints p50 and p99 with the filesystem
type.  The file is written under ``.bench_state/`` and removed afterwards.
"""

from __future__ import annotations

import os
import shutil
import time

import common

APPENDS = 2000


def filesystem(path: str) -> str:
    """Type of the mount that holds ``path``, from /proc/mounts."""
    best, kind = "", "unknown"
    with open("/proc/mounts") as fh:
        for line in fh:
            mount, fstype = line.split()[1:3]
            if path.startswith(mount) and len(mount) > len(best):
                best, kind = mount, fstype
    return kind


def main() -> None:
    workdir = common.fresh_dir("fsync")
    samples = []
    try:
        with open(workdir / "probe.ndjson", "ab") as fh:
            for _ in range(APPENDS):
                t0 = time.perf_counter()
                fh.write(b"x" * 299 + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
                samples.append((time.perf_counter() - t0) * 1e3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"filesystem {filesystem(str(common.REPO_DIR))}: {APPENDS} appends, "
          f"p50 {common.p50(samples):.3f} ms, p99 {common.pct(samples, 0.99):.3f} ms")


if __name__ == "__main__":
    main()
