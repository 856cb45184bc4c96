"""Job script parsing: PBS and SLURM directive dialects normalized to one JobSpec.

A job script is plain shell text whose scheduler instructions live in comment
lines starting with ``#PBS `` or ``#SBATCH `` at column 0.  Parsing is dialect
detection, then one pass over the lines that applies each directive as it is
split, building a dialect-independent :class:`JobSpec`.  Non-directive lines
(including the shebang and blank lines) are preserved byte-for-byte as the job
body.
"""

from __future__ import annotations

import enum
import math
import re
from collections import namedtuple
from types import GenericAlias

from .errors import (
    BadName,
    BadOutputTemplate,
    BadTimeFormat,
    InvalidField,
    InvalidResource,
    MalformedDirective,
    MissingWalltime,
    MixedDialects,
    NoDirectives,
    ScriptError,
)

PBS_PREFIX = "#PBS "
SLURM_PREFIX = "#SBATCH "

MAX_NAME_LEN = 64
DEFAULT_WALLTIME_S = 3600
MAX_WALLTIME_S = 10**15  # "unlimited" (--time=99999999) fits; now + it keeps whole seconds
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


# The members as module globals for the parser: on Python 3.11, reading one
# off the class goes through EnumType's attribute hook, several times slower.
_PBS, _SLURM = Dialect.PBS, Dialect.SLURM


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
        if not 0 < walltime_s <= MAX_WALLTIME_S:
            raise BadTimeFormat(f"walltime must be 1 to {MAX_WALLTIME_S} s")
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
        """The inverse of ``to_dict``, for a spec read back as JSON: a field
        without the JSON type ``to_dict`` writes raises InvalidField, and a
        value the constructors refuse the same ScriptError as at submission."""
        (name, nodes, slots_per_node, features, walltime_s, stdout_template, stderr_template,
         merge_stderr, body, dialect) = read_fields(d, _SPEC_FIELDS)
        return cls(name, ResourceRequest(nodes, slots_per_node, frozenset(features)), walltime_s,
                   OutputPolicy(stdout_template, stderr_template, merge_stderr), tuple(body),
                   dialect)


REQUIRED = object()  # the default of a field that must be given


def read_fields(doc, table) -> list:
    """The JSON object ``doc``'s fields, one per ``(name, kind, default)`` row
    of ``table``, in table order; InvalidField for a field that breaks its row.

    An absent field and a ``null`` one are the same: ``default``, refused if
    that is REQUIRED.  Any other value's type must be exactly ``kind``, so a
    bool is never an int; but a ``float`` field takes an int or a finite
    float, an enum kind one of its string values (as the member), and
    ``list[str]``, ``list[dict]`` or ``dict[str, int]`` checks each item.
    """
    if type(doc) is not dict:
        raise InvalidField(f"expected a JSON object, got {doc!r}")
    values = []
    for name, kind, default in table:
        value = doc.get(name)
        if type(value) is kind and kind is not float:
            values.append(value)
        elif value is None:
            if default is REQUIRED:
                raise InvalidField(f"no field {name!r}")
            values.append(default)
        else:
            values.append(_widen(name, kind, value))
    return values


def _widen(name: str, kind, value):
    """``value`` as a field of ``kind`` that its type alone does not settle, or InvalidField."""
    meta = type(kind)
    if meta is GenericAlias:  # list[str], list[dict] or dict[str, int]
        if type(value) is kind.__origin__:
            item = kind.__args__[-1]
            for v in value.values() if type(value) is dict else value:
                if type(v) is not item:
                    break
            else:
                return value
        what = kind
    elif meta is enum.EnumMeta:
        member = kind._value2member_map_.get(value) if type(value) is str else None
        if member is not None:
            return member
        what = "one of " + ", ".join(map(repr, kind._value2member_map_))
    elif kind is float:
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            return value
        what = "a finite number"
    else:
        what = kind.__name__
    raise InvalidField(f"{name} must be {what}, got {value!r}")


_SPEC_FIELDS = (("name", str, REQUIRED), ("nodes", int, REQUIRED),
                ("slots_per_node", int, REQUIRED), ("features", list[str], ()),
                ("walltime_s", int, REQUIRED), ("stdout_template", str, REQUIRED),
                ("stderr_template", str, None), ("merge_stderr", bool, REQUIRED),
                ("body", list[str], REQUIRED), ("dialect", Dialect, REQUIRED))


class ParsedScript:
    """A parsed script's spec, with its non-fatal warnings."""

    __slots__ = ("spec", "warnings")

    def __init__(self, spec: JobSpec, warnings: list[str]):
        self.spec = spec
        self.warnings = warnings


def validate_job_name(name: str) -> None:
    if type(name) is not str:
        raise BadName(f"job name must be a string, got {name!r}")
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


def detect_dialect(script_text: str) -> Dialect:
    """Decide which directive family a script uses.

    PBS iff at least one line starts with ``#PBS `` and none with
    ``#SBATCH ``; symmetric for SLURM.  Only ``\\n`` ends a line, so a line
    starts with a prefix exactly when ``"\\n" + script_text`` holds
    ``"\\n" + prefix``.
    """
    text = "\n" + script_text
    has_pbs = "\n" + PBS_PREFIX in text
    has_slurm = "\n" + SLURM_PREFIX in text
    if has_pbs and has_slurm:
        raise MixedDialects("script mixes #PBS and #SBATCH directives")
    if has_pbs:
        return _PBS
    if has_slurm:
        return _SLURM
    raise NoDirectives("script contains no #PBS or #SBATCH lines")


def parse_walltime(text: str) -> int:
    """Parse a walltime string into total seconds.

    Accepted grammars: ``D-HH:MM:SS``, ``HH:MM:SS``, ``MM:SS`` and bare
    integer minutes.  Minute and second fields must be below 60.
    """
    text = text.strip()
    if not text:
        raise BadTimeFormat("empty walltime")
    day_part = ""
    clock = text
    if "-" in text:
        day_part, clock = text.split("-", 1)
        if not day_part.isdecimal():
            raise BadTimeFormat(f"bad day count in {text!r}")
        if clock.count(":") != 2:
            raise BadTimeFormat(f"day form must be D-HH:MM:SS, got {text!r}")
    fields = clock.split(":")
    # Every field is digits exactly when none is empty and their join is digits;
    # isdecimal, not isdigit, which also holds for digits int() refuses ('²').
    if "" in fields or not clock.replace(":", "").isdecimal():
        raise BadTimeFormat(f"non-numeric field in walltime {text!r}")
    try:
        days = int(day_part) if day_part else 0
        values = list(map(int, fields))
    except ValueError:  # int() refuses more than 4300 digits
        raise BadTimeFormat(f"too many digits in walltime {text!r}") from None
    if len(values) == 1:  # a day count comes only with HH:MM:SS
        return values[0] * 60  # bare integer means minutes
    if len(values) > 3:
        raise BadTimeFormat(f"too many fields in walltime {text!r}")
    hours, minutes, seconds = values if len(values) == 3 else (0, *values)
    if minutes >= 60 or seconds >= 60:
        raise BadTimeFormat(f"minutes and seconds must be < 60 in {text!r}")
    return ((days * 24 + hours) * 60 + minutes) * 60 + seconds


def render_walltime(seconds: int) -> str:
    """Render seconds as H:MM:SS (hours unbounded), the inverse of parse_walltime."""
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


def _parse_count(value: str, what: str) -> int:
    try:  # isdecimal, not isdigit ('²'); int() refuses more than 4300 digits
        count = int(value) if value.strip().isdecimal() else None
    except ValueError:
        count = None
    if count is None:
        raise InvalidResource(f"{what} must be a positive integer, got {value!r}")
    if count < 1:
        raise InvalidResource(f"{what} must be >= 1, got {count}")
    return count


def _parse_feature(tag: str) -> str:
    tag = tag.strip()
    if not _FEATURE_RE.match(tag):
        raise InvalidResource(f"feature tag {tag!r} is not lowercase alphanumeric")
    return tag


def _parse_pbs_nodes(value: str, slots: int, features: set[str]) -> tuple[int, int]:
    """Parse a PBS node spec like ``1:ppn=8`` or ``2:ppn=4:gpu`` into (nodes,
    slots per node), ``slots`` unless a ppn names it; tags go to ``features``."""
    segments = value.split(":")
    nodes = _parse_count(segments[0], "nodes")
    for segment in segments[1:]:
        seg_key, eq, seg_value = segment.partition("=")
        if seg_key == "ppn" and eq:
            slots = _parse_count(seg_value, "ppn")
        elif eq:
            raise InvalidResource(f"unsupported node property {segment!r}")
        elif segment:
            features.add(_parse_feature(segment))
    return nodes, slots


# The output policies of scripts that name no output file, built once.
_PBS_SPLIT_OUTPUT = OutputPolicy(PBS_DEFAULT_STDOUT, PBS_DEFAULT_STDERR)
_PBS_MERGED_OUTPUT = OutputPolicy(PBS_DEFAULT_STDOUT, None, True)
_SLURM_DEFAULT_OUTPUT = OutputPolicy(SLURM_DEFAULT_STDOUT, None, True)


def _warn(warnings: list[str], strict: bool, message: str, line_no: int) -> None:
    if strict:
        raise MalformedDirective(message, line_no)
    warnings.append(f"line {line_no}: {message}")


def parse_script(
    script_text: str,
    *,
    dialect: Dialect | None = None,
    default_name: str = DEFAULT_JOB_NAME,
    strict: bool = False,
) -> ParsedScript:
    """Detect the dialect (unless forced), then read the script in one pass.

    Every line starting with the dialect's prefix is a directive (a PBS
    ``-l`` list holds one per comma-separated item); all other lines go to
    the body in their original order.  CRLF is accepted and normalized to LF.
    Each directive is split and then applied.  A line that cannot be split
    raises MalformedDirective at once; the first error in a directive's
    meaning is raised only once every line has been split.

    Unknown directives are warnings unless ``strict`` is set, in which case
    they raise MalformedDirective.  Absent fields default to nodes=1,
    slots_per_node=1, walltime=3600 s and the (truncated) ``default_name``;
    in strict mode a missing walltime is an error instead.
    """
    if dialect is None:
        dialect = detect_dialect(script_text)
    pbs = dialect is _PBS
    prefix = PBS_PREFIX if pbs else SLURM_PREFIX
    cut = len(prefix)
    body: list[str] = []
    warnings: list[str] = []
    error: ScriptError | None = None
    name: str | None = None
    name_line = walltime_line = 0
    nodes = slots = 1
    features: set[str] = set()
    walltime: int | None = None
    merge = False
    stdout_template = ""

    for line_no, line in enumerate(script_text.replace("\r\n", "\n").split("\n"), 1):
        if not line.startswith(prefix):
            body.append(line)
            continue
        if pbs:  # "-key value", or "-l item,item"
            parts = line[cut:].split(None, 1)
            key = parts[0] if parts else ""
            value = parts[1].rstrip() if len(parts) > 1 else ""
            if key[:1] != "-" or len(key) < 2:
                raise MalformedDirective(f"cannot parse PBS directive {line!r}", line_no)
            if key == "-l" and not value:
                raise MalformedDirective("-l directive with no resource list", line_no)
        else:  # "--key=value" or "--key value"
            rest = line[cut:].strip()
            key, eq, value = rest[2:].partition("=")
            if not eq:  # split at the first run of whitespace
                key, value = (key.split(None, 1) + ["", ""])[:2]
            if not key or not rest.startswith("--"):
                raise MalformedDirective(f"cannot parse SLURM directive {line!r}", line_no)
            value = value.strip()
        try:
            if pbs:
                if key == "-N":
                    name, name_line = value, line_no
                elif key == "-l":
                    for item in value.split(","):
                        item = item.strip()
                        res_key, eq, res_value = item.partition("=")
                        if res_key == "nodes" and eq:
                            nodes, slots = _parse_pbs_nodes(res_value, slots, features)
                        elif res_key == "walltime" and eq:
                            walltime, walltime_line = parse_walltime(res_value), line_no
                        else:
                            _warn(warnings, strict, f"ignoring resource item {item!r}", line_no)
                elif key == "-j":
                    if value == "oe":
                        merge = True
                    else:
                        _warn(warnings, strict, f"ignoring join mode {value!r}", line_no)
                else:
                    _warn(warnings, strict, f"ignoring unknown directive {key}", line_no)
            elif key == "job-name":
                name, name_line = value, line_no
            elif key == "nodes":
                nodes = _parse_count(value, "nodes")
            elif key == "ntasks-per-node":
                slots = _parse_count(value, "ntasks-per-node")
            elif key == "time":
                walltime, walltime_line = parse_walltime(value), line_no
            elif key == "output":
                validate_output_template(value)
                stdout_template = value
            elif key == "constraint":
                for tag in value.split(","):
                    features.add(_parse_feature(tag))
            else:
                _warn(warnings, strict, f"ignoring unknown directive --{key}", line_no)
        except ScriptError as exc:
            if exc.line_no is None:
                exc.line_no = line_no
            if error is None:
                error = exc

    if error is not None:
        raise error
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

    if pbs:
        output = _PBS_MERGED_OUTPUT if merge else _PBS_SPLIT_OUTPUT
    elif stdout_template:
        output = OutputPolicy(stdout_template, None, True)
    else:
        # SLURM routes stderr into the stdout file unless told otherwise;
        # a separate --error file is not modeled.
        output = _SLURM_DEFAULT_OUTPUT

    try:
        spec = JobSpec(name, ResourceRequest(nodes, slots, frozenset(features)), walltime,
                       output, tuple(body), dialect)
    except BadTimeFormat as exc:  # the walltime's range, checked by the spec
        raise BadTimeFormat(str(exc), walltime_line) from None
    return ParsedScript(spec, warnings)


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
