"""Wire protocol: newline-terminated JSON documents over TCP.

Each message is one JSON object on one line, so the protocol can be driven
from a plain socket tool.  Requests get exactly one ``{ok, code, payload}``
response, except ``attach`` which upgrades the connection to a stream of
``{"type": "data", "bytes": <base64>}`` frames closed by ``{"type": "end"}``.
"""

from __future__ import annotations

import base64
import json
import socket

from .errors import ProtocolError

MAX_LINE_BYTES = 16 * 1024 * 1024  # scripts and frames comfortably fit

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7075
DEFAULT_SERVER = f"{DEFAULT_HOST}:{DEFAULT_PORT}"
TOKEN_ENV_VAR = "MINIQ_TOKEN"

# json.dumps with any option builds a new encoder per call; this one is built once.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def send_message(sock: socket.socket, message: dict | str | bytes) -> None:
    """Send one message; a ``str`` or ``bytes`` is a line the caller already
    encoded, and ``bytes`` are sent as they are."""
    if isinstance(message, dict):
        message = _encode(message) + "\n"
    if isinstance(message, str):
        message = message.encode("utf-8")
    sock.sendall(message)


def read_message(reader) -> dict | None:
    """Read one message from a file-like reader; None at EOF."""
    line = reader.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("message exceeds maximum line length")
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ProtocolError(f"message is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def ok(payload: dict | None = None) -> dict:
    return {"ok": True, "code": "ok", "payload": payload or {}}


def err(code: str, message: str, **extra) -> dict:
    payload = {"message": message}
    payload.update(extra)
    return {"ok": False, "code": code, "payload": payload}


def data_frame(chunk: bytes) -> bytes:
    """The wire line of one data frame, ready for ``send_message``.

    It is the same bytes as encoding ``{"type": "data", "bytes": <base64>}``
    with ``json.dumps``: the base64 alphabet ``[A-Za-z0-9+/=]`` holds no
    character JSON escapes, so the payload goes between the quotes as it is
    and skips the encoder's passes over a string of up to 1.4 MB.  The line
    is built as ``bytes``, so the base64 is copied once more, into the line.
    """
    return b"".join((b'{"type":"data","bytes":"', base64.b64encode(chunk), b'"}\n'))


def decode_data_frame(frame: dict) -> bytes:
    return base64.b64decode(frame["bytes"])


def end_frame(reason: str) -> dict:
    return {"type": "end", "reason": reason}


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (both optional, default DEFAULT_SERVER); the port must be 0-65535."""
    if ":" not in text:
        return text or DEFAULT_HOST, DEFAULT_PORT
    host, _, port_text = text.rpartition(":")
    port = int(port_text) if port_text.isdecimal() and len(port_text) <= 5 else -1
    if not 0 <= port <= 65535:
        raise ProtocolError(f"bad port in address {text!r}")
    return host or DEFAULT_HOST, port
