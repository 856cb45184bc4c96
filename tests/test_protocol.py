"""Tests for the wire protocol: data frames as ready-encoded lines."""

from __future__ import annotations

import base64
import io
import json
import random

import pytest

from miniq import protocol
from miniq.errors import ProtocolError


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


def test_message_that_is_not_an_object_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="must be a JSON object"):
        protocol.read_message(io.BytesIO(b"[1]\n"))


def test_nesting_too_deep_to_decode_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        protocol.read_message(io.BytesIO(b"[" * 100000 + b"\n"))


@pytest.mark.parametrize("text, address", [
    ("", ("127.0.0.1", 7075)),
    ("example:0", ("example", 0)),
    (":65535", ("127.0.0.1", 65535)),
])
def test_parse_address(text, address):
    assert protocol.parse_address(text) == address


@pytest.mark.parametrize("text", ["h:abc", "h:-1", "h:65536", "h:99999"])
def test_port_outside_its_range_is_a_protocol_error(text):
    with pytest.raises(ProtocolError, match="bad port"):
        protocol.parse_address(text)
