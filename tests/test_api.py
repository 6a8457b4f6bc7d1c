"""Tests for the stable facade (:mod:`repro.api`).

The facade is a thin, validated veneer over the existing pipeline and
runtime — these tests pin three contracts: (1) facade runs are
bit-identical to the legacy wiring they replaced, (2) the input parser
accepts the full numeric-literal grammar and rejects garbage with
:class:`~repro.errors.ConfigError`, and (3) the retired loose keywords
and ``repro.runtime.run_source`` are gone: options travel only in
:class:`~repro.api.CompileOptions` / :class:`~repro.api.RunOptions`.
"""

import pytest

import repro
from repro import api
from repro.errors import ConfigError
from repro.reuse import PipelineConfig, ReusePipeline
import repro.runtime
from repro.runtime import Machine, compile_program
from tests.support import run_plain

# The heavier kernel from the adaptive tests: enough work per call that
# the reuse transformation is profitable on a high-locality stream.
PROGRAM = """
int tab[8] = {5, 3, 8, 1, 9, 2, 7, 4};
static int kernel(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 10; i++)
        r += tab[i & 7] * ((v + i) & 63) + v % (i + 2);
    return r;
}
int main(void) {
    int acc = 0;
    while (__input_avail())
        acc += kernel(__input_int());
    __output_int(acc);
    return acc;
}
"""

INPUTS = [3, 9, 3, 17, 9, 3] * 40


class TestInputParser:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("42", 42),
            ("-7", -7),
            ("  3 ", 3),
            ("2.5", 2.5),
            ("-0.125", -0.125),
            ("1e5", 100000.0),
            ("-1e-3", -0.001),
            ("+2E2", 200.0),
        ],
    )
    def test_accepts_numeric_literals(self, token, expected):
        value = api.parse_input_literal(token)
        assert value == expected
        assert type(value) is type(expected)

    @pytest.mark.parametrize("token", ["", "  ", "abc", "1..2", "0x10", "nan", "inf", "-inf"])
    def test_rejects_garbage(self, token):
        with pytest.raises(ConfigError):
            api.parse_input_literal(token)

    def test_stream_mixes_commas_and_whitespace(self):
        assert api.parse_input_stream("1, 2\n3\t4,5") == [1, 2, 3, 4, 5]
        assert api.parse_input_stream("") == []

    def test_exported_from_package_root(self):
        assert repro.parse_input_literal is api.parse_input_literal
        assert repro.parse_input_stream is api.parse_input_stream


class TestValidation:
    def test_unknown_opt_level(self):
        with pytest.raises(ConfigError, match="opt"):
            repro.CompileOptions(opt="O2")

    def test_config_type_checked(self):
        with pytest.raises(ConfigError, match="PipelineConfig"):
            repro.CompileOptions(config={"min_executions": 8})

    def test_session_validates_opt(self):
        with pytest.raises(ConfigError):
            api.Session(repro.CompileOptions(opt="fast"))

    def test_governor_policy_exported_and_validated(self):
        with pytest.raises(ConfigError):
            repro.GovernorPolicy(window=0)

    def test_pipeline_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            PipelineConfig(8)

    @pytest.mark.parametrize(
        "kw",
        [
            {"opt_level": "O2"},
            {"load_factor": 0.0},
            {"load_factor": 1.5},
            {"min_executions": -1},
            {"table_capacity_override": 0},
            {"memory_budget_bytes": -1},
            {"entry": ""},
            {"governor": "fast"},
        ],
    )
    def test_pipeline_config_rejects_bad_knobs(self, kw):
        with pytest.raises(ConfigError):
            PipelineConfig(**kw)


class TestFacadeVsLegacy:
    def test_plain_run_matches_unoptimized_run(self):
        program = repro.compile(PROGRAM, repro.CompileOptions(reuse=False))
        facade = program.run(INPUTS)
        value, metrics = run_plain(PROGRAM, inputs=INPUTS)
        assert facade.value == value
        assert facade.metrics == metrics

    def test_reuse_run_matches_legacy_pipeline_wiring(self):
        config = PipelineConfig(min_executions=16)
        program = repro.compile(PROGRAM, repro.CompileOptions(config=config))
        facade = program.run(INPUTS)

        result = ReusePipeline(PROGRAM, config).run(list(INPUTS))
        machine = Machine("O0")
        machine.set_inputs(list(INPUTS))
        for seg_id, table in result.build_tables().items():
            machine.install_table(seg_id, table)
        value = compile_program(result.program, machine).run("main")
        assert facade.value == value
        assert facade.metrics == machine.metrics()

    def test_transformed_output_matches_plain(self):
        plain = repro.compile(PROGRAM, repro.CompileOptions(reuse=False)).run(INPUTS)
        reused = repro.compile(PROGRAM).run(INPUTS)
        assert reused.output_checksum == plain.output_checksum
        assert reused.cycles < plain.cycles  # high-locality stream profits
        assert reused.speedup_vs(plain) > 1.0


class TestCompiledProgram:
    def test_profile_is_idempotent(self):
        program = repro.compile(
            PROGRAM, repro.CompileOptions(config=PipelineConfig(min_executions=16))
        )
        first = program.profile(INPUTS)
        second = program.profile([1, 2, 3])  # ignored: already profiled
        assert first is second

    def test_transformed_source_roundtrip(self):
        program = repro.compile(
            PROGRAM, repro.CompileOptions(config=PipelineConfig(min_executions=16))
        )
        with pytest.raises(ConfigError):
            program.transformed_source()  # not profiled yet
        program.profile(INPUTS)
        text = program.transformed_source()
        assert "main" in text
        assert text != PROGRAM

    def test_governed_run_reports_telemetry(self):
        program = repro.compile(
            PROGRAM,
            repro.CompileOptions(config=PipelineConfig(min_executions=16), governed=True),
        )
        result = program.run(INPUTS)
        assert result.governor
        for snap in result.governor.values():
            assert snap["state"] == "active"  # stationary inputs
        assert result.governor_transitions() == {}

    def test_run_result_properties(self):
        result = repro.compile(PROGRAM, repro.CompileOptions(reuse=False)).run(INPUTS)
        assert result.cycles == result.metrics.cycles > 0
        assert result.seconds == pytest.approx(result.metrics.seconds)
        assert result.energy_joules > 0
        assert result.table_stats == {}


class TestSession:
    def test_compile_is_memoized(self):
        with api.Session() as session:
            a = session.compile(PROGRAM)
            b = session.compile(PROGRAM)
        assert a is b

    def test_tables_stay_warm_across_runs(self):
        options = repro.CompileOptions(config=PipelineConfig(min_executions=16))
        with api.Session(options) as session:
            program = session.compile(PROGRAM)
            program.profile(INPUTS)
            first = program.run(INPUTS)
            second = program.run(INPUTS)
        hits = lambda r: sum(s.hits for s in r.table_stats.values())
        # the second run probes tables the first already filled
        assert hits(second) > hits(first)
        assert second.output_checksum == first.output_checksum

    def test_one_shot_runs_are_cold(self):
        program = repro.compile(
            PROGRAM, repro.CompileOptions(config=PipelineConfig(min_executions=16))
        )
        program.profile(INPUTS)
        hits = lambda r: sum(s.hits for s in r.table_stats.values())
        assert hits(program.run(INPUTS)) == hits(program.run(INPUTS))


class TestShims:
    def test_run_source_removed(self):
        assert not hasattr(repro.runtime, "run_source")
        assert not hasattr(repro, "run_source")

    def test_build_tables_adaptive_kwarg_retired(self):
        result = ReusePipeline(PROGRAM, PipelineConfig(min_executions=16)).run(
            list(INPUTS)
        )
        with pytest.raises(TypeError):
            result.build_tables(adaptive=True)
        tables = result.build_tables(governed=True)
        assert tables and all(hasattr(t, "governor") for t in tables.values())


class TestCompileOptions:
    def test_frozen_and_replace(self):
        options = repro.CompileOptions(opt="O3", governed=True)
        with pytest.raises(Exception):  # FrozenInstanceError
            options.opt = "O0"
        tweaked = options.replace(opt="O0")
        assert tweaked.opt == "O0" and tweaked.governed is True
        assert options.opt == "O3"

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            repro.CompileOptions().replace(backend="gpu")

    @pytest.mark.parametrize(
        "kw",
        [
            {"opt": "O2"},
            {"profile": "statements"},
            {"backend": "gpu"},
            {"config": {"min_executions": 8}},
        ],
    )
    def test_rejects_bad_options(self, kw):
        with pytest.raises(ConfigError):
            repro.CompileOptions(**kw)

    def test_profile_inputs_coerced_to_tuple(self):
        options = repro.CompileOptions(profile_inputs=[1, 2, 3])
        assert options.profile_inputs == (1, 2, 3)

    def test_content_key_tracks_semantics_not_observers(self):
        base = repro.CompileOptions()
        assert base.content_key(PROGRAM) == repro.CompileOptions().content_key(PROGRAM)
        # observers (trace/profile) don't change what is compiled
        assert (
            base.replace(trace=True, profile="lines").content_key(PROGRAM)
            == base.content_key(PROGRAM)
        )
        # semantic knobs do
        assert base.replace(opt="O3").content_key(PROGRAM) != base.content_key(PROGRAM)
        assert (
            base.replace(config=PipelineConfig(min_executions=8)).content_key(PROGRAM)
            != base.content_key(PROGRAM)
        )
        assert base.content_key(PROGRAM) != base.content_key(PROGRAM + " ")

    def test_run_options_validates_entry(self):
        with pytest.raises(ConfigError):
            repro.RunOptions(entry="")
        assert repro.RunOptions(entry="main").entry == "main"

    def test_exported_from_package_root(self):
        assert repro.CompileOptions is api.CompileOptions
        assert repro.RunOptions is api.RunOptions


class TestLegacyKeywordShims:
    """The loose keywords are retired: passing one is a TypeError."""

    @pytest.mark.parametrize(
        "kw",
        ["opt", "reuse", "config", "governed", "trace", "profile",
         "profile_inputs", "backend"],
    )
    def test_compile_rejects_legacy_kwargs(self, kw):
        with pytest.raises(TypeError, match=kw):
            repro.compile(PROGRAM, **{kw: None})

    def test_compile_rejects_options_plus_legacy(self):
        with pytest.raises(TypeError):
            repro.compile(PROGRAM, repro.CompileOptions(), reuse=False)

    def test_compile_rejects_unknown_keyword(self):
        with pytest.raises(TypeError, match="optimize"):
            repro.compile(PROGRAM, optimize="O3")

    def test_run_rejects_entry_kwarg(self):
        program = repro.compile(PROGRAM, repro.CompileOptions(reuse=False))
        with pytest.raises(TypeError, match="entry"):
            program.run(INPUTS, entry="main")

    def test_session_rejects_legacy_kwargs(self):
        with pytest.raises(TypeError, match="opt"):
            api.Session(opt="O3")

    def test_session_compile_rejects_legacy_kwargs(self):
        with api.Session() as session:
            with pytest.raises(TypeError, match="reuse"):
                session.compile(PROGRAM, reuse=False)

    def test_session_rejects_compile_only_keywords(self):
        with pytest.raises(TypeError, match="profile"):
            api.Session(profile=True)

    @pytest.mark.parametrize("options", [{"opt": "O3"}, "O3"])
    def test_options_must_be_compile_options(self, options):
        with pytest.raises(ConfigError, match="CompileOptions"):
            repro.compile(PROGRAM, options)
        with pytest.raises(ConfigError, match="CompileOptions"):
            api.Session(options)


class TestSessionLifecycle:
    def test_close_is_idempotent(self):
        session = api.Session(metrics=True)
        session.close()
        session.close()
        assert session.closed

    def test_closed_session_rejects_work(self):
        session = api.Session()
        session.close()
        with pytest.raises(ConfigError, match="closed Session"):
            session.compile(PROGRAM)
        with pytest.raises(ConfigError, match="closed Session"):
            session.run(PROGRAM, INPUTS)

    def test_evict_drops_memoized_program(self):
        with api.Session() as session:
            first = session.compile(PROGRAM)
            assert session.evict(PROGRAM) is True
            assert session.evict(PROGRAM) is False
            assert session.compile(PROGRAM) is not first

    def test_memo_distinguishes_options(self):
        with api.Session() as session:
            default = session.compile(PROGRAM)
            governed = session.compile(
                PROGRAM, session.options.replace(governed=True)
            )
            assert default is not governed
            assert session.compile(PROGRAM) is default

    def test_run_program_publishes_session_metrics(self):
        with api.Session(metrics=True) as session:
            program = session.compile(PROGRAM)
            session.run_program(program, INPUTS)
            snapshot = session.registry.snapshot()
        runs = snapshot["families"]["repro_session_runs"]["samples"][0]["value"]
        assert runs == 1
