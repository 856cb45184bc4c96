"""Exception hierarchy shared across the package.

Every error carries a stable machine-readable ``code`` so the daemon can
relay failures over the wire and the CLI can map them to exit codes.
"""

from __future__ import annotations


class MiniqError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


# --- job script parsing ------------------------------------------------- #

class ScriptError(MiniqError):
    """A problem in a job script; ``line_no`` points at the offending line."""

    code = "parse-error"

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no

    def __str__(self) -> str:
        base = super().__str__()
        if self.line_no is not None:
            return f"line {self.line_no}: {base}"
        return base


class MixedDialects(ScriptError):
    code = "mixed-dialects"


class NoDirectives(ScriptError):
    code = "no-directives"


class MalformedDirective(ScriptError):
    code = "malformed-directive"


class BadTimeFormat(ScriptError):
    code = "bad-time-format"


class MissingWalltime(ScriptError):
    code = "missing-walltime"


class InvalidResource(ScriptError):
    code = "invalid-resource"


class BadName(ScriptError):
    code = "bad-name"


class BadOutputTemplate(ScriptError):
    code = "bad-output-template"


# --- scheduling --------------------------------------------------------- #

class Unsatisfiable(MiniqError):
    """The request can never be placed on the configured cluster."""

    code = "unsatisfiable"


class NoSuchJob(MiniqError):
    code = "no-such-job"


class InvalidTransition(MiniqError):
    code = "invalid-transition"


# --- runtime ------------------------------------------------------------ #

class SpawnFailed(MiniqError):
    code = "spawn-failed"


class InvalidCommand(MiniqError):
    code = "invalid-command"


class DuplicateSession(MiniqError):
    code = "duplicate-session"


class UnknownSession(MiniqError):
    code = "unknown-session"


class NotAttached(MiniqError):
    """Never raised: its code answers a ``detach`` on a connection that
    streams no attach."""

    code = "not-attached"


# --- daemon ------------------------------------------------------------- #

class JournalCorrupt(MiniqError):
    code = "journal-corrupt"

    def __init__(self, message: str, seq: int | None = None):
        super().__init__(message)
        self.seq = seq


class BindFailed(MiniqError):
    code = "bind-failed"


class ProtocolError(MiniqError):
    code = "protocol-error"


class ConfigError(MiniqError):
    code = "config-error"


class ShuttingDown(MiniqError):
    """A change requested once the daemon has begun to shut down."""

    code = "shutting-down"


class InvalidField(MiniqError):
    """A missing or mistyped field of a request, config, journal entry or spec."""

    code = "invalid-request"
