import json
import subprocess
import sys

from davkit import search as _search
from davkit.cli import (
    EXIT_CONSISTENCY,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    JobSpec,
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
        assert report["result"]["lower"] == 3 and report["result"]["upper"] == 6

    def test_failed_witness_certificate_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(_search, "is_minimal", lambda s: False)
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

    def test_degenerate_axis_computes(self, capsys):
        code, out, _ = run_cli(capsys, "davenport", "[-1,1]x[0,0]", "--no-stats")
        assert code == EXIT_OK and json.loads(out)["result"]["value"] == 2

    def test_guard_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("DAVKIT_GUARD", "3")
        code, _, err = run_cli(capsys, "davenport", "[-5,5]")
        assert code == EXIT_GUARD

    def test_emit_spec_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "atoms", "[-2,2]", "--length", "3", "--no-stats", "--emit-spec"
        )
        assert code == EXIT_OK
        spec = JobSpec.from_json(json.loads(out))
        rebuilt_code, rebuilt = run(spec)
        direct_code, direct = run(
            JobSpec(
                command="atoms",
                ground="[-2,2]",
                parameters={"length": 3},
                no_stats=True,
            )
        )
        assert rebuilt_code == direct_code == EXIT_OK
        assert rebuilt == direct

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "davenport")  # missing ground
        assert code == EXIT_USAGE


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "davkit", "davenport", "[-1,1]", "--no-stats"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == 2
