"""Job script parsing: PBS and SLURM directive dialects normalized to one JobSpec.

A job script is plain shell text whose scheduler instructions live in comment
lines starting with ``#PBS `` or ``#SBATCH `` at column 0.  Parsing happens in
three stages: dialect detection, directive extraction, and normalization into
a dialect-independent :class:`JobSpec`.  Non-directive lines (including the
shebang and blank lines) are preserved byte-for-byte as the job body.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple

from .errors import (
    BadName,
    BadOutputTemplate,
    BadTimeFormat,
    InvalidResource,
    MalformedDirective,
    MissingWalltime,
    MixedDialects,
    NoDirectives,
)

PBS_PREFIX = "#PBS "
SLURM_PREFIX = "#SBATCH "

MAX_NAME_LEN = 64
DEFAULT_WALLTIME_S = 3600
DEFAULT_JOB_NAME = "job"

# Default output file name templates when the script names none.
PBS_DEFAULT_STDOUT = "%x.o%j"
PBS_DEFAULT_STDERR = "%x.e%j"
SLURM_DEFAULT_STDOUT = "slurm-%j.out"

_FEATURE_RE = re.compile(r"^[a-z0-9]+$")
# Output templates: %j is the job id, %x the job name, and no other % is allowed.
_PLACEHOLDER_RE = re.compile(r"%([jx])")
_BAD_PLACEHOLDER_RE = re.compile(r"%(?![jx])")


class Dialect(enum.Enum):
    PBS = "pbs"
    SLURM = "slurm"


class Directive(namedtuple("Directive", "key value line_no raw", defaults=("",))):
    """One scheduler instruction extracted from a script line.

    ``raw`` keeps the original line so the multiset of input lines can be
    reconstructed from (directives, body).  A PBS ``-l`` list yields one
    Directive per comma-separated item, all sharing the same raw line.
    """

    __slots__ = ()


class ResourceRequest(namedtuple("ResourceRequest", "nodes slots_per_node features")):
    """A request shape: ``nodes`` nodes, each with ``slots_per_node`` free
    slots and every tag in ``features``.  The scheduler keys sets by shape,
    so hashing and equality are the tuple's own, run in C."""

    __slots__ = ()

    def __new__(cls, nodes: int = 1, slots_per_node: int = 1,
                features: frozenset[str] = frozenset()):
        if nodes < 1 or slots_per_node < 1:
            raise InvalidResource(
                f"nodes and slots per node must be >= 1, got {nodes}x{slots_per_node}"
            )
        for tag in features:
            if not _FEATURE_RE.match(tag):
                raise InvalidResource(f"feature tag {tag!r} is not lowercase alphanumeric")
        return tuple.__new__(cls, (nodes, slots_per_node, features))


class OutputPolicy(namedtuple("OutputPolicy", "stdout_template stderr_template merge_stderr")):
    __slots__ = ()

    def __new__(cls, stdout_template: str, stderr_template: str | None = None,
                merge_stderr: bool = False):
        if merge_stderr and stderr_template is not None:
            raise BadOutputTemplate("merged stderr cannot also name a stderr file")
        validate_output_template(stdout_template)
        if stderr_template is not None:
            validate_output_template(stderr_template)
        return tuple.__new__(cls, (stdout_template, stderr_template, merge_stderr))


class JobSpec(namedtuple("JobSpec", "name resources walltime_s output body dialect")):
    """Normalized, dialect-independent description of one job."""

    __slots__ = ()

    def __new__(cls, name: str, resources: ResourceRequest, walltime_s: int,
                output: OutputPolicy, body: tuple[str, ...], dialect: Dialect):
        validate_job_name(name)
        if walltime_s <= 0:
            raise BadTimeFormat("walltime must be positive")
        return tuple.__new__(cls, (name, resources, walltime_s, output, body, dialect))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": self.resources.nodes,
            "slots_per_node": self.resources.slots_per_node,
            "features": sorted(self.resources.features),
            "walltime_s": self.walltime_s,
            "stdout_template": self.output.stdout_template,
            "stderr_template": self.output.stderr_template,
            "merge_stderr": self.output.merge_stderr,
            "body": list(self.body),
            "dialect": self.dialect.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """The inverse of ``to_dict``, for a spec read back as JSON.

        Each field must have the JSON type ``to_dict`` writes: a missing field
        raises KeyError, a mistyped one TypeError, and a value the constructors
        refuse raises the same ScriptError as at submission.
        """
        body = expect_type(d["body"], list, "body")
        for line in body:
            expect_type(line, str, "body line")
        stderr_template = d.get("stderr_template")
        if stderr_template is not None:
            expect_type(stderr_template, str, "stderr_template")
        return cls(
            name=expect_type(d["name"], str, "name"),
            resources=ResourceRequest(
                nodes=expect_type(d["nodes"], int, "nodes"),
                slots_per_node=expect_type(d["slots_per_node"], int, "slots_per_node"),
                features=frozenset(expect_type(d.get("features", []), list, "features")),
            ),
            walltime_s=expect_type(d["walltime_s"], int, "walltime_s"),
            output=OutputPolicy(
                stdout_template=expect_type(d["stdout_template"], str, "stdout_template"),
                stderr_template=stderr_template,
                merge_stderr=expect_type(d["merge_stderr"], bool, "merge_stderr"),
            ),
            body=tuple(body),
            dialect=Dialect(d["dialect"]),
        )


def expect_type(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind`` (so a bool is not an int)."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


class ParsedScript:
    """Result of the full parse pipeline, with non-fatal warnings."""

    __slots__ = ("spec", "warnings")

    def __init__(self, spec: JobSpec, warnings: list[str] | None = None):
        self.spec = spec
        self.warnings = [] if warnings is None else warnings


def validate_job_name(name: str) -> None:
    if not name:
        raise BadName("job name must not be empty")
    if len(name) > MAX_NAME_LEN:
        raise BadName(f"job name longer than {MAX_NAME_LEN} characters")
    if "/" in name or "\\" in name:
        raise BadName(f"job name {name!r} contains a path separator")


def validate_output_template(template: str) -> None:
    """Only %j (job id) and %x (job name) may appear after a percent sign."""
    if _BAD_PLACEHOLDER_RE.search(template):
        raise BadOutputTemplate(f"unsupported placeholder in output template {template!r}")


def _split_lines(script_text: str) -> list[str]:
    # CRLF is accepted and normalized to LF.
    return script_text.replace("\r\n", "\n").split("\n")


def detect_dialect(script_text: str) -> Dialect:
    """Decide which directive family a script uses.

    PBS iff at least one line starts with ``#PBS `` and none with
    ``#SBATCH ``; symmetric for SLURM.
    """
    lines = _split_lines(script_text)
    has_pbs = any(line.startswith(PBS_PREFIX) for line in lines)
    has_slurm = any(line.startswith(SLURM_PREFIX) for line in lines)
    if has_pbs and has_slurm:
        raise MixedDialects("script mixes #PBS and #SBATCH directives")
    if has_pbs:
        return Dialect.PBS
    if has_slurm:
        return Dialect.SLURM
    raise NoDirectives("script contains no #PBS or #SBATCH lines")


def parse_directives(script_text: str, dialect: Dialect) -> tuple[list[Directive], list[str]]:
    """Split a script into directives and body lines.

    Every line starting with the dialect prefix becomes one or more
    Directives (PBS ``-l`` lists split on commas); all other lines go to the
    body in their original order.
    """
    prefix = PBS_PREFIX if dialect is Dialect.PBS else SLURM_PREFIX
    directives: list[Directive] = []
    body: list[str] = []
    for line_no, line in enumerate(_split_lines(script_text), start=1):
        if not line.startswith(prefix):
            body.append(line)
            continue
        rest = line[len(prefix):].strip()
        if dialect is Dialect.PBS:
            directives.extend(_parse_pbs_directive(rest, line_no, line))
        else:
            directives.append(_parse_slurm_directive(rest, line_no, line))
    return directives, body


def _parse_pbs_directive(rest: str, line_no: int, raw: str) -> list[Directive]:
    if not rest.startswith("-") or len(rest) < 2:
        raise MalformedDirective(f"cannot parse PBS directive {raw!r}", line_no)
    parts = rest.split(None, 1)
    key = parts[0][1:]
    value = parts[1].strip() if len(parts) > 1 else ""
    if not key:
        raise MalformedDirective(f"cannot parse PBS directive {raw!r}", line_no)
    if key == "l":
        if not value:
            raise MalformedDirective("-l directive with no resource list", line_no)
        return [
            Directive(key="l", value=item.strip(), line_no=line_no, raw=raw)
            for item in value.split(",")
        ]
    return [Directive(key=key, value=value, line_no=line_no, raw=raw)]


def _parse_slurm_directive(rest: str, line_no: int, raw: str) -> Directive:
    if not rest.startswith("--"):
        raise MalformedDirective(f"cannot parse SLURM directive {raw!r}", line_no)
    body = rest[2:]
    if "=" in body:
        key, value = body.split("=", 1)
    else:
        parts = body.split(None, 1)
        key = parts[0] if parts else ""
        value = parts[1].strip() if len(parts) > 1 else ""
    if not key:
        raise MalformedDirective(f"cannot parse SLURM directive {raw!r}", line_no)
    return Directive(key=key, value=value.strip(), line_no=line_no, raw=raw)


def parse_walltime(text: str) -> int:
    """Parse a walltime string into total seconds.

    Accepted grammars: ``D-HH:MM:SS``, ``HH:MM:SS``, ``MM:SS`` and bare
    integer minutes.  Minute and second fields must be below 60.
    """
    text = text.strip()
    if not text:
        raise BadTimeFormat("empty walltime")
    days = 0
    clock = text
    if "-" in text:
        day_part, clock = text.split("-", 1)
        if not day_part.isdigit():
            raise BadTimeFormat(f"bad day count in {text!r}")
        days = int(day_part)
        if clock.count(":") != 2:
            raise BadTimeFormat(f"day form must be D-HH:MM:SS, got {text!r}")
    fields = clock.split(":")
    if any(not f.isdigit() for f in fields):
        raise BadTimeFormat(f"non-numeric field in walltime {text!r}")
    values = [int(f) for f in fields]
    if len(fields) == 1:
        if days:
            raise BadTimeFormat(f"day form must be D-HH:MM:SS, got {text!r}")
        return values[0] * 60  # bare integer means minutes
    if len(fields) == 2:
        minutes, seconds = values
        hours = 0
    elif len(fields) == 3:
        hours, minutes, seconds = values
    else:
        raise BadTimeFormat(f"too many fields in walltime {text!r}")
    if minutes >= 60 or seconds >= 60:
        raise BadTimeFormat(f"minutes and seconds must be < 60 in {text!r}")
    return ((days * 24 + hours) * 60 + minutes) * 60 + seconds


def render_walltime(seconds: int) -> str:
    """Render seconds as H:MM:SS (hours unbounded), the inverse of parse_walltime."""
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


def _parse_count(value: str, what: str, line_no: int) -> int:
    if not value.strip().isdigit():
        raise InvalidResource(f"{what} must be a positive integer, got {value!r}", line_no)
    count = int(value)
    if count < 1:
        raise InvalidResource(f"{what} must be >= 1, got {count}", line_no)
    return count


def _parse_feature(tag: str, line_no: int) -> str:
    tag = tag.strip()
    if not _FEATURE_RE.match(tag):
        raise InvalidResource(f"feature tag {tag!r} is not lowercase alphanumeric", line_no)
    return tag


def _parse_pbs_nodes(value: str, line_no: int) -> tuple[int, int | None, set[str]]:
    """Parse a PBS node spec like ``1:ppn=8`` or ``2:ppn=4:gpu``."""
    segments = value.split(":")
    nodes = _parse_count(segments[0], "nodes", line_no)
    slots: int | None = None
    features: set[str] = set()
    for segment in segments[1:]:
        if "=" in segment:
            seg_key, seg_value = segment.split("=", 1)
            if seg_key == "ppn":
                slots = _parse_count(seg_value, "ppn", line_no)
            else:
                raise InvalidResource(f"unsupported node property {segment!r}", line_no)
        elif segment:
            features.add(_parse_feature(segment, line_no))
    return nodes, slots, features


def normalize(
    directives: list[Directive],
    body: list[str],
    dialect: Dialect,
    *,
    default_name: str = DEFAULT_JOB_NAME,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> JobSpec:
    """Fold parsed directives into a JobSpec, applying defaults.

    Unknown directives are collected into ``warnings`` (if given) unless
    ``strict`` is set, in which case they raise MalformedDirective.  Absent
    fields default to nodes=1, slots_per_node=1, walltime=3600 s and the
    (truncated) ``default_name``; in strict mode a missing walltime is an
    error instead.
    """
    sink = warnings if warnings is not None else []

    def warn(message: str, line_no: int) -> None:
        if strict:
            raise MalformedDirective(message, line_no)
        sink.append(f"line {line_no}: {message}")

    name: str | None = None
    name_line = 0
    nodes: int | None = None
    slots: int | None = None
    features: set[str] = set()
    walltime: int | None = None
    walltime_line = 0
    merge = False
    stdout_template: str | None = None

    for d in directives:
        if dialect is Dialect.PBS:
            if d.key == "N":
                name, name_line = d.value, d.line_no
            elif d.key == "l":
                if "=" not in d.value:
                    warn(f"ignoring resource item {d.value!r}", d.line_no)
                    continue
                res_key, res_value = d.value.split("=", 1)
                if res_key == "nodes":
                    nodes, node_slots, node_features = _parse_pbs_nodes(res_value, d.line_no)
                    if node_slots is not None:
                        slots = node_slots
                    features |= node_features
                elif res_key == "walltime":
                    try:
                        walltime, walltime_line = parse_walltime(res_value), d.line_no
                    except BadTimeFormat as exc:
                        raise BadTimeFormat(str(exc), d.line_no) from None
                else:
                    warn(f"ignoring resource item {d.value!r}", d.line_no)
            elif d.key == "j":
                if d.value == "oe":
                    merge = True
                else:
                    warn(f"ignoring join mode {d.value!r}", d.line_no)
            else:
                warn(f"ignoring unknown directive -{d.key}", d.line_no)
        else:
            if d.key == "job-name":
                name, name_line = d.value, d.line_no
            elif d.key == "nodes":
                nodes = _parse_count(d.value, "nodes", d.line_no)
            elif d.key == "ntasks-per-node":
                slots = _parse_count(d.value, "ntasks-per-node", d.line_no)
            elif d.key == "time":
                try:
                    walltime, walltime_line = parse_walltime(d.value), d.line_no
                except BadTimeFormat as exc:
                    raise BadTimeFormat(str(exc), d.line_no) from None
            elif d.key == "output":
                try:
                    validate_output_template(d.value)
                except BadOutputTemplate as exc:
                    raise BadOutputTemplate(str(exc), d.line_no) from None
                stdout_template = d.value
            elif d.key == "constraint":
                for tag in d.value.split(","):
                    features.add(_parse_feature(tag, d.line_no))
            else:
                warn(f"ignoring unknown directive --{d.key}", d.line_no)

    if name is None:
        name = default_name[:MAX_NAME_LEN] or DEFAULT_JOB_NAME
    else:
        try:
            validate_job_name(name)
        except BadName as exc:
            raise BadName(str(exc), name_line) from None

    if walltime is None:
        if strict:
            raise MissingWalltime("no walltime directive (strict mode)")
        walltime = DEFAULT_WALLTIME_S
    elif walltime <= 0:
        raise BadTimeFormat("walltime must be positive", walltime_line)

    resources = ResourceRequest(
        nodes=nodes if nodes is not None else 1,
        slots_per_node=slots if slots is not None else 1,
        features=frozenset(features),
    )

    if dialect is Dialect.PBS:
        if merge:
            output = OutputPolicy(PBS_DEFAULT_STDOUT, None, merge_stderr=True)
        else:
            output = OutputPolicy(PBS_DEFAULT_STDOUT, PBS_DEFAULT_STDERR, merge_stderr=False)
    else:
        # SLURM routes stderr into the stdout file unless told otherwise;
        # a separate --error file is not modeled.
        output = OutputPolicy(stdout_template or SLURM_DEFAULT_STDOUT, None, merge_stderr=True)

    return JobSpec(
        name=name,
        resources=resources,
        walltime_s=walltime,
        output=output,
        body=tuple(body),
        dialect=dialect,
    )


def parse_script(
    script_text: str,
    *,
    dialect: Dialect | None = None,
    default_name: str = DEFAULT_JOB_NAME,
    strict: bool = False,
) -> ParsedScript:
    """Full pipeline: detect dialect (unless forced), parse, normalize."""
    if dialect is None:
        dialect = detect_dialect(script_text)
    directives, body = parse_directives(script_text, dialect)
    warnings: list[str] = []
    spec = normalize(
        directives, body, dialect,
        default_name=default_name, strict=strict, warnings=warnings,
    )
    return ParsedScript(spec=spec, warnings=warnings)


def expand_output_template(template: str, job_id: int, job_name: str) -> str:
    """Substitute %j (decimal job id) and %x (job name); literals pass through."""
    return _PLACEHOLDER_RE.sub(
        lambda match: str(job_id) if match[1] == "j" else job_name, template)


def job_environment(spec: JobSpec, job_id: int, submit_dir: str) -> dict[str, str]:
    """Environment injected into every job, regardless of dialect.

    Both the PBS_* and SLURM_* families are present so either script style
    runs unmodified; paired variables always hold identical values.
    """
    job_id_text = str(job_id)
    return {
        "PBS_O_WORKDIR": submit_dir,
        "SLURM_SUBMIT_DIR": submit_dir,
        "PBS_JOBID": job_id_text,
        "SLURM_JOB_ID": job_id_text,
        "PBS_JOBNAME": spec.name,
        "SLURM_JOB_NAME": spec.name,
    }
