"""Tests for job-script parsing and normalization."""

from __future__ import annotations

import math
import random

import pytest

from conftest import PBS_SCRIPT, SLURM_SCRIPT, make_pbs_script, make_slurm_script
from miniq.errors import (
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
from miniq.jobspec import (
    MAX_WALLTIME_S,
    REQUIRED,
    Dialect,
    JobSpec,
    detect_dialect,
    expand_output_template,
    job_environment,
    parse_script,
    parse_walltime,
    read_fields,
    render_walltime,
)


class TestDetectDialect:
    def test_pbs_script(self):
        assert detect_dialect("#PBS -N automl_job\n") is Dialect.PBS

    def test_slurm_script(self):
        assert detect_dialect("#SBATCH --job-name=automl_job\n") is Dialect.SLURM

    def test_mixed_prefixes_rejected(self):
        with pytest.raises(MixedDialects):
            detect_dialect("#PBS -N a\n#SBATCH --job-name=a\n")

    def test_no_directives(self):
        with pytest.raises(NoDirectives):
            detect_dialect("#!/bin/bash\necho hi\n")

    def test_prefix_requires_column_zero(self):
        with pytest.raises(NoDirectives):
            detect_dialect("  #PBS -N indented\n")


class TestParseDirectives:
    def test_pbs_resource_list(self):
        spec = parse_script("#PBS -l nodes=1:ppn=8\n").spec
        assert (spec.resources.nodes, spec.resources.slots_per_node) == (1, 8)

    def test_slurm_key_value(self):
        assert parse_script("#SBATCH --time=04:00:00\n").spec.walltime_s == 14400

    def test_slurm_space_separated_value(self):
        assert parse_script("#SBATCH --nodes 2\n").spec.resources.nodes == 2

    def test_module_load_stays_in_body(self):
        assert "module load pytorch/1.9" in parse_script(PBS_SCRIPT).spec.body

    def test_shebang_and_blank_lines_preserved_in_order(self):
        body = parse_script(PBS_SCRIPT).spec.body
        assert body[0] == "#!/bin/bash"
        assert "" in body

    def test_pbs_comma_list_splits(self):
        parsed = parse_script("#PBS -l walltime=1:00:00,nodes=2:ppn=4,mem=4gb\n")
        assert parsed.spec.walltime_s == 3600
        assert (parsed.spec.resources.nodes, parsed.spec.resources.slots_per_node) == (2, 4)
        assert parsed.warnings == ["line 1: ignoring resource item 'mem=4gb'"]

    def test_malformed_pbs_directive_reports_line(self):
        with pytest.raises(MalformedDirective) as excinfo:
            parse_script("#!/bin/bash\n#PBS nodes=1\n")
        assert excinfo.value.line_no == 2

    def test_malformed_slurm_directive(self):
        with pytest.raises(MalformedDirective):
            parse_script("#SBATCH -N 1\n")

    def test_crlf_normalized(self):
        spec = parse_script("#PBS -N x\r\necho hi\r\n").spec
        assert spec.name == "x"
        assert spec.body == ("echo hi", "")

    def test_body_fidelity_multiset(self):
        # The body is exactly the lines that are not directives, in order.
        for script, prefix in ((PBS_SCRIPT, "#PBS "), (SLURM_SCRIPT, "#SBATCH ")):
            lines = script.split("\n")
            body = parse_script(script).spec.body
            assert body == tuple(line for line in lines if not line.startswith(prefix))
            assert len(body) < len(lines)


class TestErrorOrder:
    """Every line is split before any error in a directive's meaning is
    raised: a line that cannot be split wins, and of the rest the first."""

    @pytest.mark.parametrize("script, strict", [
        pytest.param("#!/bin/bash\n#PBS -l walltime=abc\necho\n#PBS nodes=1\n", False,
                     id="bad walltime"),
        pytest.param("#!/bin/bash\n#PBS -q batch\necho\n#PBS nodes=1\n", True,
                     id="unknown directive, strict"),
        pytest.param("#!/bin/bash\n#SBATCH --nodes=0\necho\n#SBATCH -N 1\n", False,
                     id="bad count"),
    ])
    def test_a_line_that_cannot_be_split_is_raised_first(self, script, strict):
        with pytest.raises(MalformedDirective, match="cannot parse") as excinfo:
            parse_script(script, strict=strict)
        assert excinfo.value.line_no == 4

    @pytest.mark.parametrize("script, strict, error, line_no", [
        pytest.param("#PBS -l walltime=abc\n#PBS -l nodes=0\n", False, BadTimeFormat, 1,
                     id="walltime, then count"),
        pytest.param("#PBS -l nodes=0\n#PBS -l walltime=abc\n", False, InvalidResource, 1,
                     id="count, then walltime"),
        pytest.param("#SBATCH --mem=4G\n#SBATCH --time=abc\n", True, MalformedDirective, 1,
                     id="unknown directive, strict, then walltime"),
        pytest.param("#SBATCH --output=%q\n#SBATCH --mem=4G\n", True, BadOutputTemplate, 1,
                     id="template, then unknown directive, strict"),
        pytest.param("#PBS -N a\n#PBS -l walltime=abc,nodes=0\n", False, BadTimeFormat, 2,
                     id="two in one -l list"),
    ])
    def test_the_first_meaning_error_is_raised(self, script, strict, error, line_no):
        with pytest.raises(ScriptError) as excinfo:
            parse_script(script, strict=strict)
        assert (type(excinfo.value), excinfo.value.line_no) == (error, line_no)


class TestParseWalltime:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4:00:00", 14400),
            ("04:00:00", 14400),
            ("25:00", 1500),
            ("1-00:00:00", 86400),
            ("0:00:30", 30),
            ("90", 5400),  # bare integer minutes
            ("2-01:30:15", 2 * 86400 + 3600 + 30 * 60 + 15),
        ],
    )
    def test_accepted_grammars(self, text, expected):
        assert parse_walltime(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "9:99:00", "1:00:60", "4:00:00:00", "abc", "1:xx:00", "-5", "1-00:00",
         "1.5", "00:90"],
    )
    def test_rejected_grammars(self, text):
        with pytest.raises(BadTimeFormat):
            parse_walltime(text)

    @pytest.mark.parametrize("line, error", [
        pytest.param("#SBATCH --time=\u00b2\n", BadTimeFormat, id="clock field"),
        pytest.param("#SBATCH --time=\u00b2-01:00:00\n", BadTimeFormat, id="day count"),
        pytest.param("#PBS -l nodes=\u00b2\n", InvalidResource, id="node count"),
        pytest.param("#SBATCH --time=" + "1" * 5000, BadTimeFormat, id="5000-digit walltime"),
        pytest.param("#SBATCH --nodes=" + "1" * 5000, InvalidResource, id="5000-digit nodes"),
        pytest.param("#PBS -l nodes=" + "1" * 5000, InvalidResource, id="5000-digit PBS nodes"),
    ])
    def test_digit_that_int_refuses_is_a_script_error(self, line, error):
        # str.isdigit holds for a superscript two, and str.isdecimal for a
        # string of more than 4300 digits; int() refuses both.
        with pytest.raises(error) as excinfo:
            parse_script(line)
        assert excinfo.value.line_no == 1

    def test_decimal_digits_of_other_scripts_still_parse(self):
        assert parse_walltime("\u0663") == 180  # ARABIC-INDIC DIGIT THREE, minutes
        assert parse_walltime("\u0661-00:00:00") == 86400

    def test_round_trip_render_parse(self):
        rng = random.Random(7)
        for _ in range(500):
            seconds = rng.randrange(1, 10**6)
            assert parse_walltime(render_walltime(seconds)) == seconds


class TestNormalize:
    def test_paper_pbs_script(self):
        spec = parse_script(PBS_SCRIPT).spec
        assert spec.name == "automl_job"
        assert spec.resources.nodes == 1
        assert spec.resources.slots_per_node == 8
        assert spec.walltime_s == 14400
        assert spec.output.merge_stderr is True
        assert spec.output.stderr_template is None
        assert spec.dialect is Dialect.PBS

    def test_paper_slurm_script(self):
        spec = parse_script(SLURM_SCRIPT).spec
        assert spec.name == "automl_job"
        assert spec.resources.nodes == 1
        assert spec.resources.slots_per_node == 8
        assert spec.walltime_s == 14400
        # The stdout file name is taken literally; no placeholder is guessed.
        assert spec.output.stdout_template == "output_"
        assert spec.dialect is Dialect.SLURM

    def test_defaults_for_minimal_script(self):
        spec = parse_script("#PBS -N x\n").spec
        assert spec.resources.nodes == 1
        assert spec.resources.slots_per_node == 1
        assert spec.walltime_s == 3600

    def test_default_name_from_filename_stem(self):
        spec = parse_script("#PBS -l walltime=1:00:00\n", default_name="automl_job").spec
        assert spec.name == "automl_job"

    def test_default_name_truncated_to_64(self):
        spec = parse_script("#PBS -l walltime=1:00:00\n", default_name="x" * 100).spec
        assert len(spec.name) == 64

    def test_unknown_directives_warn(self):
        parsed = parse_script("#SBATCH --job-name=a\n#SBATCH --mem=4G\n")
        assert parsed.spec.name == "a"
        assert len(parsed.warnings) == 1
        assert "mem" in parsed.warnings[0]

    def test_strict_mode_rejects_unknown_directive(self):
        with pytest.raises(MalformedDirective):
            parse_script("#SBATCH --job-name=a\n#SBATCH --mem=4G\n", strict=True)

    def test_strict_mode_requires_walltime(self):
        with pytest.raises(MissingWalltime):
            parse_script("#PBS -N a\n", strict=True)

    def test_zero_walltime_rejected(self):
        with pytest.raises(BadTimeFormat):
            parse_script("#PBS -N a\n#PBS -l walltime=0\n")

    def test_walltime_bound(self):
        # Up to MAX_WALLTIME_S parses, "unlimited" spellings included; past
        # it the directive's line is named, and the spec itself refuses it.
        top = f"#PBS -N a\n#PBS -l walltime={render_walltime(MAX_WALLTIME_S)}\n"
        assert parse_script(top).spec.walltime_s == MAX_WALLTIME_S
        assert parse_script("#SBATCH --time=99999999\n").spec.walltime_s == 5_999_999_940
        for walltime in (render_walltime(MAX_WALLTIME_S + 1), "9" * 400 + ":00:00"):
            with pytest.raises(BadTimeFormat) as excinfo:
                parse_script(f"#PBS -N a\n#PBS -l walltime={walltime}\n#PBS -j oe\n")
            assert excinfo.value.line_no == 2
        spec = parse_script(top).spec
        with pytest.raises(BadTimeFormat):
            JobSpec(**{**spec._asdict(), "walltime_s": MAX_WALLTIME_S + 1})

    def test_bad_name_rejected(self):
        with pytest.raises(BadName):
            parse_script("#PBS -N bad/name\n")
        with pytest.raises(BadName):
            parse_script(f"#SBATCH --job-name={'y' * 65}\n")

    def test_name_that_is_not_a_string_rejected(self):
        # JobSpec.from_dict refuses such a name, so no spec may hold one.
        with pytest.raises(BadName):
            parse_script("#PBS -l walltime=1:00:00\n", default_name=["x"])

    def test_invalid_resource_counts(self):
        with pytest.raises(InvalidResource):
            parse_script("#PBS -l nodes=0:ppn=8\n")
        with pytest.raises(InvalidResource):
            parse_script("#SBATCH --ntasks-per-node=zero\n")

    def test_pbs_feature_tags(self):
        spec = parse_script("#PBS -N a\n#PBS -l nodes=2:ppn=4:gpu\n").spec
        assert spec.resources.features == frozenset({"gpu"})
        assert spec.resources.nodes == 2
        assert spec.resources.slots_per_node == 4

    def test_slurm_constraint_features(self):
        spec = parse_script("#SBATCH --job-name=a\n#SBATCH --constraint=gpu,tpu\n").spec
        assert spec.resources.features == frozenset({"gpu", "tpu"})

    def test_uppercase_feature_rejected(self):
        with pytest.raises(InvalidResource):
            parse_script("#PBS -l nodes=1:ppn=1:GPU\n")

    def test_pbs_default_output_templates(self):
        spec = parse_script("#PBS -N a\n").spec  # no -j oe
        assert spec.output.merge_stderr is False
        assert spec.output.stdout_template == "%x.o%j"
        assert spec.output.stderr_template == "%x.e%j"

    def test_slurm_default_output_template(self):
        spec = parse_script("#SBATCH --job-name=a\n").spec
        assert spec.output.stdout_template == "slurm-%j.out"
        assert spec.output.merge_stderr is True

    def test_bad_output_placeholder_rejected(self):
        with pytest.raises(BadOutputTemplate):
            parse_script("#SBATCH --job-name=a\n#SBATCH --output=out-%q.txt\n")

    def test_normalization_is_deterministic(self):
        first = parse_script(SLURM_SCRIPT).spec
        second = parse_script(SLURM_SCRIPT).spec
        assert first == second

    def test_dialect_equivalence_generated_pairs(self):
        rng = random.Random(2024)
        for _ in range(100):
            name = "job" + str(rng.randrange(10**6))
            nodes = rng.randrange(1, 5)
            slots = rng.randrange(1, 17)
            walltime = rng.randrange(1, 10**5)
            pbs = parse_script(make_pbs_script(name, nodes, slots, walltime)).spec
            slurm = parse_script(make_slurm_script(name, nodes, slots, walltime)).spec
            assert pbs.name == slurm.name
            assert pbs.resources == slurm.resources
            assert pbs.walltime_s == slurm.walltime_s
            assert pbs.body == slurm.body


class TestOutputTemplate:
    @pytest.mark.parametrize(
        "template,job_id,name,expected",
        [
            ("slurm-%j.out", 42, "automl_job", "slurm-42.out"),
            ("%x-%j.log", 7, "automl_job", "automl_job-7.log"),
            ("output_", 3, "automl_job", "output_"),
        ],
    )
    def test_expansion(self, template, job_id, name, expected):
        assert expand_output_template(template, job_id, name) == expected


class TestJobEnvironment:
    def test_both_families_present(self):
        spec = parse_script(PBS_SCRIPT).spec
        env = job_environment(spec, 5, "/home/u/proj")
        assert env["PBS_O_WORKDIR"] == "/home/u/proj"
        assert env["SLURM_SUBMIT_DIR"] == "/home/u/proj"
        assert env["PBS_JOBID"] == env["SLURM_JOB_ID"] == "5"
        assert env["PBS_JOBNAME"] == env["SLURM_JOB_NAME"] == "automl_job"


class TestReadFields:
    TABLE = (("n", int, REQUIRED), ("x", float, 0.5), ("d", Dialect, None),
             ("tags", list[str], ()), ("alloc", dict[str, int], None))

    @pytest.mark.parametrize("doc, values", [
        pytest.param({"n": 3}, [3, 0.5, None, (), None], id="absent"),
        pytest.param({"n": 3, "x": None, "d": None, "tags": None, "alloc": None},
                     [3, 0.5, None, (), None], id="null is absent"),
        pytest.param({"n": 3, "x": 2, "d": "slurm", "tags": ["a"], "alloc": {"n1": 2}},
                     [3, 2, Dialect.SLURM, ["a"], {"n1": 2}], id="given"),
    ])
    def test_values(self, doc, values):
        assert read_fields(doc, self.TABLE) == values

    @pytest.mark.parametrize("doc", [
        {}, {"n": None}, {"n": True}, {"n": 1.0}, {"n": "1"},
        {"n": 1, "x": math.nan}, {"n": 1, "x": -math.inf}, {"n": 1, "x": True}, {"n": 1, "x": "1"},
        {"n": 1, "d": "PBS"}, {"n": 1, "d": 5}, {"n": 1, "d": ["pbs"]},
        {"n": 1, "tags": ["a", 1]}, {"n": 1, "tags": "a"}, {"n": 1, "tags": {"a": "b"}},
        {"n": 1, "alloc": {"n1": True}}, {"n": 1, "alloc": {"n1": 1.0}}, {"n": 1, "alloc": [1]},
        [], None, "n",
    ], ids=repr)
    def test_refused(self, doc):
        with pytest.raises(InvalidField):
            read_fields(doc, self.TABLE)
