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


def send_message(sock: socket.socket, message: dict | str) -> None:
    """Send one message; a ``str`` is a line the caller already encoded."""
    if not isinstance(message, str):
        message = json.dumps(message, separators=(",", ":")) + "\n"
    sock.sendall(message.encode("utf-8"))


def read_message(reader) -> dict | None:
    """Read one message from a file-like reader; None at EOF."""
    line = reader.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("message exceeds maximum line length")
    try:
        message = json.loads(line)
    except ValueError as exc:
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


def data_frame(chunk: bytes) -> str:
    """The wire line of one data frame, ready for ``send_message``.

    It is the same bytes as encoding ``{"type": "data", "bytes": <base64>}``
    with ``json.dumps``: the base64 alphabet ``[A-Za-z0-9+/=]`` holds no
    character JSON escapes, so the payload goes between the quotes as it is
    and skips the encoder's passes over a string of up to 1.4 MB.
    """
    return '{"type":"data","bytes":"' + base64.b64encode(chunk).decode("ascii") + '"}\n'


def decode_data_frame(frame: dict) -> bytes:
    return base64.b64decode(frame["bytes"])


def end_frame(reason: str) -> dict:
    return {"type": "end", "reason": reason}


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (host and port optional, default DEFAULT_SERVER)."""
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ProtocolError(f"bad port in address {text!r}") from None
        return host or DEFAULT_HOST, port
    return text or DEFAULT_HOST, DEFAULT_PORT
