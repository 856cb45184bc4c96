"""Tests for the wire protocol: data frames as ready-encoded lines."""

from __future__ import annotations

import base64
import io
import json
import random

import pytest

from miniq import protocol


class RecordingSocket:
    def __init__(self):
        self.sent = b""

    def sendall(self, data: bytes) -> None:
        self.sent += data


# Lengths 0 to 3 cover every base64 padding case; the largest is a full ring.
@pytest.mark.parametrize("size", [0, 1, 2, 3, 65536, 1024 * 1024])
def test_data_frame_line_is_the_json_encoding(size):
    chunk = random.Random(size).randbytes(size)
    sock = RecordingSocket()
    protocol.send_message(sock, protocol.data_frame(chunk))
    expected = json.dumps({"type": "data", "bytes": base64.b64encode(chunk).decode()},
                          separators=(",", ":")) + "\n"
    assert sock.sent == expected.encode()
    frame = protocol.read_message(io.BytesIO(sock.sent))
    assert protocol.decode_data_frame(frame) == chunk
