"""Run `miniqd` with the benchmark's timing wrappers installed.

    python perfbench/launcher.py --spans OUT.json --config miniqd.json

Installs the wrappers from ``tracing.install``, then calls
``miniq.daemon.main`` with the remaining arguments.  When ``main`` returns
(after SIGTERM), the spans and counters go to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import sys

import tracing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    args, rest = parser.parse_known_args()
    from miniq import daemon

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = daemon.main(rest)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
