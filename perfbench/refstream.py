"""Reference server for the `attach` workload's replay ratio.

    python3 perfbench/refstream.py

Listens on an ephemeral port of 127.0.0.1 and prints it.  Each connection
sends the path of a file on one line and gets the file's bytes back in one
data frame of miniq's wire format (base64 in a JSON line) and an end frame,
as the replay of a session's ring does.  Each file is read once and kept in
memory.  It shares no code with miniq and never changes with it, so the
time a replay takes is a yardstick for the host's speed.  Runs until
terminated.
"""

from __future__ import annotations

import base64
import json
import socket
import sys

END = b'{"type":"end","reason":"exit"}\n'


def main() -> None:
    files: dict[str, bytes] = {}
    with socket.create_server(("127.0.0.1", 0)) as server:
        print(server.getsockname()[1], flush=True)
        while True:
            conn, _ = server.accept()
            with conn, conn.makefile("rb") as reader:
                path = reader.readline().decode().rstrip("\n")
                if path not in files:
                    with open(path, "rb") as fh:
                        files[path] = fh.read()
                frame = {"type": "data", "bytes": base64.b64encode(files[path]).decode("ascii")}
                conn.sendall((json.dumps(frame, separators=(",", ":")) + "\n").encode() + END)


if __name__ == "__main__":
    sys.exit(main())
