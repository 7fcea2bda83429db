import json
import os
import subprocess
import sys

import pytest

import davkit
from davkit import DavkitError, ValidationError, ground_bounds, parse_ground_set
from davkit import cli as _cli
from davkit import search as _search
from davkit import zerosum as _zerosum
from davkit.cli import (
    COMMANDS,
    EXIT_BROKEN_PIPE,
    EXIT_CONSISTENCY,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    main,
    run,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDavenportCommand:
    def test_exact_interval(self, capsys):
        code, out, _ = run_cli(capsys, "davenport", "[-2,3]", "--no-stats")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["schema"] == "davkit/1"
        assert report["exact"] is True
        assert report["result"]["value"] == 5
        assert report["result"]["witness"]["text"] == "(-2)^3*3^2"
        assert "exhaustive-search" in report["provenance"]
        assert "stats" not in report

    def test_stats_present_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "davenport", "[-1,1]")
        report = json.loads(out)
        assert report["stats"]["nodes"] >= 1

    def test_no_stats_output_is_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "davenport", "C2x[-1,1]", "--no-stats")
        _, second, _ = run_cli(capsys, "davenport", "C2x[-1,1]", "--no-stats")
        assert first == second

    def test_threads_do_not_change_output(self, capsys):
        _, a, _ = run_cli(capsys, "davenport", "[-3,3]", "--no-stats", "--threads", "1")
        _, b, _ = run_cli(capsys, "davenport", "[-3,3]", "--no-stats", "--threads", "4")
        assert a == b

    def test_cap_reports_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "davenport", "[-3,3]", "--cap", "3", "--no-stats")
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["exact"] is False
        assert report["result"]["lower"] == 3 and report["result"]["upper"] == 5

    @pytest.mark.parametrize("ground,cap", [("[-3,3]", "3"), ("C2x[-1,1]^2", "8"), ("[-2,2]^2", "9")])
    def test_capped_upper_and_provenance_from_ground_bounds(self, capsys, ground, cap):
        _, out, _ = run_cli(capsys, "davenport", ground, "--cap", cap, "--no-stats")
        report = json.loads(out)
        bounds = ground_bounds(parse_ground_set(ground))
        assert report["exact"] is False
        assert report["result"]["upper"] == bounds.upper
        assert report["provenance"] == ["exhaustive-search-capped", *bounds.provenance]

    def test_failed_witness_certificate_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(_zerosum, "is_minimal", lambda s: False)
        code, out, err = run_cli(capsys, "davenport", "[-2,3]", "--no-stats")
        assert code == EXIT_CONSISTENCY
        assert out == "" and "minimality certificate" in err


class TestAtomsCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "atoms", "[-3,3]", "--length", "4", "--no-stats")
        report = json.loads(out)
        assert report["result"]["count"] == 4

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "atoms", "[-3,3]", "--length", "4", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "length,sequence"
        assert len(lines) == 5
        assert all(line.startswith("4,") for line in lines[1:])

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(capsys, "davenport", "[-1,1]", "--format", "csv")
        assert code == EXIT_USAGE and "csv" in err


class TestCheckMinimalCommand:
    def test_minimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-minimal", "[-2,3]", "--seq", "3^2*(-2)^3", "--no-stats"
        )
        report = json.loads(out)
        assert report["result"]["minimal"] is True

    def test_witness_reported(self, capsys):
        code, out, _ = run_cli(capsys, "check-minimal", "--seq", "1^4*(-2)^2")
        report = json.loads(out)
        assert report["result"]["minimal"] is False
        assert report["result"]["witness"]["text"] == "(-2)*1^2"

    def test_membership_validated(self, capsys):
        code, _, err = run_cli(capsys, "check-minimal", "[-1,1]", "--seq", "3*(-3)")
        assert code == EXIT_USAGE


class TestReorderCommand:
    def test_sign_opposing(self, capsys):
        code, out, _ = run_cli(
            capsys, "reorder", "--seq", "3^2*(-2)^3", "--seed-element", "3", "--no-stats"
        )
        report = json.loads(out)
        assert report["result"]["elements"] == [3, -2, -2, 3, -2]
        assert report["result"]["prefix_sums"] == [3, 1, -1, 2, 0]
        assert report["result"]["containment"]["interval"] == [-2, 3]

    def test_greedy_for_boxes(self, capsys):
        code, out, _ = run_cli(capsys, "reorder", "--seq", "(1,1)*(-1,1)*(0,-1)^2")
        report = json.loads(out)
        assert report["result"]["mode"] == "greedy-sup-norm"
        assert report["result"]["achieved_sup"] <= 2


class TestBoundsCommand:
    def test_ground(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "[-2,2]^2", "--no-stats")
        report = json.loads(out)
        assert report["result"]["lower"] == 9 and report["result"]["upper"] == 45

    def test_group(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--group", "C3xC3xC3")
        report = json.loads(out)
        assert report["result"]["value"] == 7
        assert report["provenance"] == ["group-p-group-exact"]


class TestConstructCommand:
    def test_hypercube(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "hypercube", "--m", "2", "--d", "2"
        )
        report = json.loads(out)
        assert report["result"]["length"] == 9
        assert report["result"]["certified"] is True

    def test_group_box(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "group-box", "--n", "3", "--m", "2", "--d", "1"
        )
        report = json.loads(out)
        assert report["result"]["length"] == 9

    def test_interval_max_non_coprime_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--kind", "interval-max", "--m", "2", "--M", "4"
        )
        assert code == EXIT_USAGE


class TestClassifyCommand:
    def test_symmetric_max(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--m", "3", "--seq", "3^2*(-2)^3")
        report = json.loads(out)
        assert report["result"]["case"] == "SYM_MAX_POS"

    def test_interval_max(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--m", "3", "--M", "4", "--seq", "4^3*(-3)^4"
        )
        report = json.loads(out)
        assert report["result"]["case"] == "INTERVAL_MAX"


class TestVerifyCommand:
    def test_inverse_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--inverse", "--m", "2..3")
        report = json.loads(out)
        assert code == EXIT_OK and report["result"]["ok"] is True

    def test_powers(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--powers")
        report = json.loads(out)
        assert code == EXIT_OK and report["result"]["ok"] is True

    def test_nothing_requested_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == EXIT_USAGE


class TestHuntChiGap:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "hunt-chi-gap", "--abs", "2", "--max-size", "3")
        report = json.loads(out)
        assert report["result"]["gaps"] == []

    def test_threads_reach_the_search(self, capsys, monkeypatch):
        seen = []
        real = _search.hunt_chi_gap

        def spy(max_abs, max_size, threads=1):
            seen.append(threads)
            return real(max_abs, max_size, threads=threads)

        monkeypatch.setattr(_search, "hunt_chi_gap", spy)
        _, one, _ = run_cli(capsys, "hunt-chi-gap", "--abs", "2", "--max-size", "3", "--threads", "1")
        _, two, _ = run_cli(capsys, "hunt-chi-gap", "--abs", "2", "--max-size", "3", "--threads", "2")
        assert seen == [1, 2]
        assert one == two


class TestErrorsAndSpec:
    def test_parse_error_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "davenport", "[3,-2]")
        assert code == EXIT_USAGE and "lo > hi" in err

    def test_bad_sequence_token_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "check-minimal", "--seq", "(a,1)")
        assert code == EXIT_USAGE and err.startswith("error:") and "position 0" in err

    def test_residue_tuple_longer_than_rank_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "check-minimal", "C2x[-1,1]", "--seq", "(1,1|1)")
        assert code == EXIT_USAGE and "residues" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--group", "C2xCa"],
            ["construct", "--kind", "hypercube", "--m", "1"],
            ["verify", "--inverse", "--m", "2..a"],
            ["reorder", "--seq", "3*(-3)", "--seed-element", "x"],
            ["hunt-chi-gap", "--abs", "0"],
            ["davenport", "[-1,1]", "--threads", "-1"],
            ["atoms", "[-1,1]", "--length", "5", "--threads", "-1"],
            ["bounds", "[-2,3]", "--threads", "-1"],
            ["davenport", "[-2,3]", "--cap", "0"],
            ["davenport", "[-2,3]", "--cap", "-3"],
            ["verify", "--inverse", "--m", "3..2"],
            ["bounds", "[-2,3]", "--group", "C2"],
            # numbers of more than the 4,300 digits that Python converts
            ["bounds", "[-1,1" + "0" * 5000 + "]"],
            ["bounds", "[-1,1]^" + "1" * 5001],
            ["bounds", "--group", "C" + "1" * 5001],
            ["check-minimal", "--seq", "1^" + "1" * 5001],
            ["check-minimal", "--seq", "1" * 5001],
            ["check-minimal", "--seq", "(1," + "1" * 5001 + ")"],
            # only ASCII digits, with no underscores, are numbers of the grammar
            ["check-minimal", "--seq", "1_0*(-10)"],
            ["bounds", "[-\u0661,\u0662]"],
            # so are the numbers of the options, --seed-element and --m ranges
            ["davenport", "[-2,3]", "--cap", "\u0663"],
            ["atoms", "[-2,2]", "--length", "0_2"],
            ["construct", "--kind", "two-element", "--x", "1_0", "--y", "-3"],
            ["classify", "--m", "3", "--M", "+4", "--seq", "4^3*(-3)^4"],
            ["reorder", "--seq", "10*(-10)", "--seed-element", "1_0"],
            ["verify", "--inverse", "--m", "2..\u0663"],
            ["hunt-chi-gap", "--abs", "1_0"],
            ["bounds", "[-2,3]", "--threads", "0_1"],
            # a sequence that is not an atom has no sign-opposing order
            ["reorder", "--seq", "1*2"],
            ["reorder", "--seq", "1^2*(-1)^2"],
            # an empty value is read, not taken for a missing option
            ["verify", "--inverse", "--m", ""],
            ["bounds", "--group", ""],
        ],
        ids=["group-factor", "missing-parameter", "range", "seed-element", "zero-abs",
             "negative-threads", "negative-threads-no-search", "negative-threads-bounds",
             "zero-cap", "negative-cap", "empty-range", "ground-and-group",
             "long-interval-bound", "long-power", "long-group-order", "long-multiplicity",
             "long-element", "long-coordinate", "underscore-digits", "non-ascii-digits",
             "cap-non-ascii", "length-underscore", "construct-underscore", "classify-plus",
             "seed-element-underscore", "range-non-ascii", "abs-underscore", "threads-underscore",
             "reorder-no-opposite-sign", "reorder-prefix-zero", "empty-m-value",
             "empty-group-value"],
    )
    def test_bad_parameter_is_usage_error(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "davkit", *argv], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_no_option_reads_numbers_with_int(self):
        # every numeric option goes through the grammar's reader
        for command in COMMANDS:
            parser = _subparsers(_build_parser(command))[command]
            assert [a.dest for a in parser._actions if a.type is int] == [], command

    def test_parameter_that_is_not_an_int_is_validation_error(self):
        # a job built by hand carries what it is given: no int() here
        with pytest.raises(ValidationError, match="--length must be an integer"):
            run({"command": "atoms", "ground": "[-2,2]", "parameters": {"length": "3"}})

    @pytest.mark.parametrize(
        "job",
        [
            [1],
            "davenport",
            {"command": ["x"]},
            {"command": "davenport", "ground": 5},
            {"command": "check-minimal", "parameters": {"seq": 3}},
            {"command": "bounds", "parameters": {"group": 2}},
            {"command": "verify", "parameters": {"inverse": True, "m": 3}},
            {"command": "reorder", "parameters": {"seq": "3*(-3)", "seed_element": 3}},
            {"command": "davenport", "ground": "[-2,3]", "parameters": [1]},
            {"command": "davenport", "ground": "[-2,3]", "no_stats": "yes"},
            {"command": "davenport", "ground": "[-2,3]", "parameters": {"cpa": 3}},
            {"command": "davenport", "ground": "[-2,3]", "parameters": {"cap": True}},
            {"command": "atoms", "ground": "[-2,2]", "parameters": {"length": 2.0}},
            {"command": "verify", "parameters": {"inverse": "yes"}},
            {"command": "construct", "parameters": {"kind": ["hypercube"], "m": 2, "d": 2}},
        ],
        ids=["not-an-object", "a-string", "command-list", "ground-int", "seq-int", "group-int",
             "m-range-int", "seed-element-int", "parameters-list", "no-stats-string",
             "misspelt-option", "cap-bool", "length-float", "flag-string", "kind-list"],
    )
    def test_job_with_a_wrong_type_is_validation_error(self, job):
        # a job file is checked against the command table before it runs
        with pytest.raises(ValidationError):
            run(job)

    def test_every_davkit_error_exits_with_a_documented_code(self, capsys, monkeypatch):
        # each error class that a davkit module defines, raised inside a job
        for name in davkit.__all__:
            getattr(davkit, name)  # runs every lazily loaded module
        classes, todo = [], [DavkitError]
        while todo:
            for sub in todo.pop().__subclasses__():
                todo.append(sub)
                if sub.__module__.startswith("davkit."):
                    classes.append(sub)
        assert len(classes) >= 8
        prefixes = {
            EXIT_USAGE: "error:", EXIT_GUARD: "guard:", EXIT_CONSISTENCY: "consistency failure:"
        }
        for cls in classes:
            exc = cls.__new__(cls)  # some take their own arguments; the message is enough
            Exception.__init__(exc, "raised")

            def fail(threads, exc=exc):
                raise exc

            monkeypatch.setattr(_cli, "check_threads", fail)
            code = main(["bounds", "[-1,2]"])
            err = capsys.readouterr().err
            assert code in prefixes, cls.__name__
            assert err == f"{prefixes[code]} raised\n", cls.__name__

    def test_degenerate_axis_computes(self, capsys):
        code, out, _ = run_cli(capsys, "davenport", "[-1,1]x[0,0]", "--no-stats")
        assert code == EXIT_OK and json.loads(out)["result"]["value"] == 2

    def test_guard_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("DAVKIT_GUARD", "3")
        code, _, err = run_cli(capsys, "davenport", "[-5,5]")
        assert code == EXIT_GUARD

    @pytest.mark.parametrize(
        "value, message",
        [("abc", "error: bad DAVKIT_GUARD value 'abc'"),
         ("-5", "error: DAVKIT_GUARD must be >= 0, got -5")],
        ids=["not-an-integer", "negative"],
    )
    def test_bad_guard_value_is_usage_error(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("DAVKIT_GUARD", value)
        code, out, err = run_cli(capsys, "bounds", "[-1,2]")
        assert code == EXIT_USAGE and out == ""
        assert err.strip() == message

    def test_closed_stdout_exits_quietly(self):
        # the read end is closed before the child starts, so its first
        # write meets a broken pipe
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "davkit", "check-minimal", "[-2,3]", "--seq", "3^2*(-2)^3"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == ""

    @pytest.mark.parametrize("command", ["bounds", "davenport"])
    @pytest.mark.parametrize("power", [100000, 1000000])
    def test_huge_box_power_is_a_guard_exit(self, command, power):
        # the bound of [-1,1]^100000 has about 1.8 million bits, and its
        # 3^100000 elements some 47,700 digits
        proc = subprocess.run(
            [sys.executable, "-m", "davkit", command, f"[-1,1]^{power}", "--no-stats"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_GUARD and proc.stdout == ""
        assert proc.stderr.startswith("guard:") and "bits" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_cardinality_is_named_as_a_power_of_two(self, capsys):
        # its bound passes the bits guard; its 3^1000 elements do not
        code, out, err = run_cli(capsys, "davenport", "[-1,1]^1000", "--no-stats")
        assert code == EXIT_GUARD and out == ""
        assert err.startswith("guard: ground set has at least 2^1584 elements")

    def test_every_bound_within_the_bits_guard_prints(self, capsys):
        # each of the 1190 factors of the bound is 2379, of 12 bits: 14,280
        # bits in all, within the guard of 14,284, and 4,018 digits
        code, out, _ = run_cli(capsys, "bounds", "[-1,1]^1190", "--no-stats")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["upper"] == 2379**1190
        code, out, err = run_cli(capsys, "bounds", "[-1,1]^1191", "--no-stats")
        assert code == EXIT_GUARD and out == ""
        assert err.startswith("guard: the bound of a 1191-axis box needs up to 14292 bits")

    @pytest.mark.parametrize("ground", ["[-1,1]^" + str(10**30), "[-1,1]^1000001", "[0,0]^600000x[-1,1]^400001"])
    def test_box_above_the_axes_guard_is_a_guard_exit(self, capsys, ground):
        # raised before the list of axes is built
        code, out, err = run_cli(capsys, "bounds", ground, "--no-stats")
        assert code == EXIT_GUARD and out == ""
        assert err.startswith("guard: a box of") and "above the guard of 1000000" in err

    def test_product_bound_above_the_bits_guard_is_a_guard_exit(self, capsys):
        # the box factor passes its own guard; times D(C_(10^300)) the
        # bound has 14,344 bits, too many to print
        code, out, err = run_cli(capsys, "bounds", f"C{10**300}x[-1,1]^1190", "--no-stats")
        assert code == EXIT_GUARD and out == ""
        assert err.startswith("guard: a bound of 14344 bits")

    def test_emit_spec_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "atoms", "[-2,2]", "--length", "3", "--no-stats", "--emit-spec"
        )
        assert code == EXIT_OK
        rebuilt_code, rebuilt = run(json.loads(out))
        direct_code, direct = run(
            {
                "command": "atoms",
                "ground": "[-2,2]",
                "parameters": {"length": 3},
                "no_stats": True,
            }
        )
        assert rebuilt_code == direct_code == EXIT_OK
        assert rebuilt == direct

    def test_job_defaults_and_the_callers_job_is_unchanged(self):
        job = {"command": "davenport", "ground": "[-2,3]"}
        code, report = run(job)
        assert job == {"command": "davenport", "ground": "[-2,3]"}
        assert code == EXIT_OK and report["input"] == {"ground": "[-2,3]", "parameters": {}}
        assert "stats" in report  # no_stats defaults to false
        full = {"command": "davenport", "ground": "[-2,3]", "parameters": {},
                "output": "json", "no_stats": False, "threads": 0}
        _, explicit = run(full)
        report["stats"]["elapsed_s"] = explicit["stats"]["elapsed_s"] = 0
        assert report == explicit
        job = {"command": "atoms", "ground": "[-2,2]", "parameters": {"length": 2}}
        _, report = run(job)
        report["input"]["parameters"]["length"] = 3
        assert job["parameters"] == {"length": 2}

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "davenport")  # missing ground
        assert code == EXIT_USAGE


def _subparsers(parser) -> dict:
    """Command name -> its subparser."""
    return next(a for a in parser._actions if a.dest == "command").choices


def _own_flags(command: str) -> list[str]:
    return ["--" + dest.replace("_", "-") for dest in COMMANDS[command][3]]


class TestCommandTable:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        out = capsys.readouterr().out
        assert stop.value.code == 0
        for name, (_, help_line, _, _) in COMMANDS.items():
            assert f"    {name}" in out and help_line in out, name
        assert len(COMMANDS) == 9

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_lists_its_options(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert stop.value.code == 0
        assert out.startswith(f"usage: davkit {command} ")
        for flag in ["--format", "--no-stats", "--threads", "--emit-spec", *_own_flags(command)]:
            assert f"  {flag}" in out, flag

    @pytest.mark.parametrize("command", COMMANDS)
    def test_parser_holds_only_the_commands_options(self, command):
        # a process builds the options of the one command it runs
        for name, parser in _subparsers(_build_parser(command)).items():
            flags = {f for a in parser._actions for f in a.option_strings}
            if name == command:
                assert set(_own_flags(name)) <= flags
            else:
                assert flags == {"-h", "--help"}, name


# the davkit modules whose code has run: the others are still lazy
_EXECUTED = (
    "sorted(n for n, m in sys.modules.items() if n.startswith('davkit.') and type(m) is types.ModuleType)"
)


def test_cli_import_loads_no_process_pool():
    # the pool modules are imported only where a parallel search starts,
    # and of davkit's own modules the import runs the cli and core alone
    code = (
        "import sys, types, davkit.cli\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        f"print({_EXECUTED})"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", str(["davkit.cli", "davkit.core"])]


_SEARCHING = {"bounds", "search", "zerosum"}


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["bounds", "[-2,3]"], {"bounds"}),
        (["bounds", "--group", "C2xC4"], {"bounds"}),
        (["check-minimal", "[-2,3]", "--seq", "3^2*(-2)^3"], {"zerosum"}),
        (["reorder", "--seq", "3^2*(-2)^3", "--seed-element", "3"], {"reorder"}),
        (["reorder", "--seq", "(1,1)*(-1,1)*(0,-1)^2"], {"reorder"}),
        (["classify", "--m", "3", "--seq", "3^2*(-2)^3"], {"inverse"}),
        (["construct", "--kind", "hypercube", "--m", "2", "--d", "2"], {"constructions", "zerosum"}),
        (["verify", "--powers"], {"constructions", "zerosum"}),
        (["davenport", "[-2,3]"], _SEARCHING),
        (["atoms", "[-2,3]", "--length", "5"], _SEARCHING),
        (["hunt-chi-gap", "--abs", "1", "--max-size", "2"], _SEARCHING),
        (["verify", "--inverse", "--m", "2..3"], _SEARCHING | {"inverse"}),
    ],
    ids=["bounds", "bounds-group", "check-minimal", "reorder-sign-opposing", "reorder-greedy",
         "classify", "construct", "verify-powers", "davenport", "atoms", "hunt-chi-gap",
         "verify-inverse"],
)
def test_command_executes_only_its_modules(argv, executed):
    # davkit's submodules run on first use, so a command runs only the
    # modules it needs; a stray top-level import would show here
    code = (
        "import contextlib, io, sys, types, davkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = davkit.cli.main(sys.argv[1:])\n"
        f"print(code, {_EXECUTED})"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = sorted(f"davkit.{m}" for m in executed | {"cli", "core"})
    assert proc.stdout.strip() == f"{EXIT_OK} {expected}"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "davkit", "davenport", "[-1,1]", "--no-stats"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == 2
