import json

import pytest

from qcong.cli import main


def run(argv):
    return main(argv)


class TestExpand:
    def test_biregular(self, capsys):
        assert run(["expand", "--gf", "biregular", "--spec", "2,9",
                    "--order", "5"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 2 4 6 8"

    def test_overpartition(self, capsys):
        assert run(["expand", "--gf", "overpartition", "--order", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 4 8 14"

    def test_eta_quotient(self, capsys):
        assert run(["expand", "--gf", "eta", "--eta", "6:4", "--order", "13"]) == 0
        out = capsys.readouterr().out
        assert "# leading q-power 1" in out
        assert out.strip().splitlines()[1].split()[7] == "-4"

    def test_mod_ring(self, capsys):
        assert run(["expand", "--gf", "biregular", "--spec", "2,9",
                    "--order", "5", "--ring", "mod", "--mod", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 2 0 2 0"

    def test_bad_spec_is_usage_error(self, capsys):
        assert run(["expand", "--gf", "biregular", "--spec", "2,4",
                    "--order", "5"]) == 2


class TestVerifyLemma:
    def test_identity(self, capsys):
        assert run(["verify-lemma", "eq7", "--order", "80"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_lemma_2_9(self, capsys):
        assert run(["verify-lemma", "lem2.9", "--p", "3", "--k", "1",
                    "--m", "1", "--order", "60"]) == 0

    def test_unknown_identity(self, capsys):
        assert run(["verify-lemma", "eq99"]) == 2

    def test_lemma_2_9_needs_parameters(self, capsys):
        assert run(["verify-lemma", "lem2.9"]) == 2


class TestVerifyClaim:
    def test_passing_claim(self, capsys):
        assert run(["verify-claim", "prop3.1a", "--nmax", "25"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_failing_claim_exit_code(self, capsys):
        assert run(["verify-claim", "eq4.7.t3", "--nmax", "10"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_claim(self, capsys):
        assert run(["verify-claim", "nonsense"]) == 2

    def test_exact_ring_flag(self, capsys):
        assert run(["verify-claim", "prop5.1", "--nmax", "20",
                    "--ring", "exact"]) == 0


class TestVerifyAll:
    def test_filtered_run_with_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run(["verify-all", "--filter", "(8,3)", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert {c["id"] for c in doc["claims"]} == {"thm7.1", "eq28"}
        assert all(c["status"] == "pass" for c in doc["claims"])

    def test_json_report_directory_is_created(self, tmp_path, capsys):
        path = tmp_path / "reports" / "claims.json"
        assert run(["verify-all", "--filter", "(8,3)", "--json", str(path)]) == 0
        assert len(json.loads(path.read_text())["claims"]) == 2

    def test_unwritable_json_path_is_usage_error(self, tmp_path, capsys):
        assert run(["verify-all", "--filter", "(8,3)", "--nmax", "5",
                    "--json", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_argparse_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify-all", "--ring", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_skips_do_not_fail_exit_code(self, capsys):
        assert run(["verify-all", "--filter", "thm10a"]) == 0
        out = capsys.readouterr().out
        assert "[SKIP]" in out

    def test_known_failures_drive_exit_code(self, capsys):
        assert run(["verify-all", "--filter", "eq4.7.t4"]) == 1


class TestOtherCommands:
    def test_oracle_compare(self, capsys):
        assert run(["oracle-compare", "--spec", "8,3", "--nmax", "25"]) == 0

    def test_hecke_check(self, capsys):
        assert run(["hecke-check", "--form", "eta4_20", "--prime", "13"]) == 0
        out = capsys.readouterr().out
        assert "eigenvalue" in out and "PASS" in out

    def test_modform_check(self, capsys):
        assert run(["modform-check", "--eta", "6:4", "--level", "36"]) == 0
        out = capsys.readouterr().out
        assert "weight 2" in out and "holomorphic at all cusps: True" in out

    def test_modform_check_failing_conditions(self, capsys):
        assert run(["modform-check", "--eta", "1:1", "--level", "1"]) == 1

    def test_search(self, capsys):
        assert run(["search", "--spec", "2,9", "--amax", "6",
                    "--mods", "4,8", "--nmax", "60"]) == 0
        out = capsys.readouterr().out
        assert "B(2,9)(6n+3) == 0 (mod 4)" in out
        assert "known" in out

    def test_search_several_specs(self, capsys):
        assert run(["search", "--spec", "2,9", "--spec", "5,2", "--amax", "4",
                    "--mods", "4", "--nmax", "30"]) == 0
        out = capsys.readouterr().out
        assert "B(2,9)(4n+3) == 0 (mod 4)" in out
        assert "B(5,2)(4n+3) == 0 (mod 4)" in out
        assert "# 2 congruence patterns found" in out

    def test_verify_derivations_documented_refutations(self, capsys):
        assert run(["verify-derivations", "--terms", "20"]) == 0
        out = capsys.readouterr().out
        refuted = [line.split()[0] for line in out.splitlines()
                   if line.endswith("REFUTED (documented)")]
        assert refuted == ["eq4.7[t=3]", "eq4.7[t=4]", "eq9.5[t=3]"]
        assert "0 undocumented" in out

    def test_search_rejects_unit_modulus(self, capsys):
        assert run(["search", "--spec", "2,9", "--amax", "4",
                    "--mods", "1", "--nmax", "30"]) == 2


class TestUsageErrors:
    def test_mod_without_mod_ring_is_usage_error(self, capsys):
        assert run(["expand", "--gf", "biregular", "--spec", "2,9",
                    "--order", "8", "--mod", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--ring mod" in captured.err

    def test_min_evidence_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["search", "--spec", "2,9", "--amax", "4", "--mods", "4",
                 "--min-evidence", "5"])
        assert exc.value.code == 2

    def test_search_below_evidence_floor(self, capsys):
        assert run(["search", "--spec", "2,9", "--amax", "4",
                    "--mods", "4", "--nmax", "9"]) == 2
        assert "evidence floor 10" in capsys.readouterr().err

    def test_search_over_the_order_limit_is_usage_error(self, capsys):
        # 5 * (100000 + 1) = 500005 coefficients, refused before any build
        assert run(["search", "--spec", "2,9", "--amax", "5", "--mods", "4",
                    "--nmax", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "500005" in captured.err

    def test_hecke_check_nmax_zero_is_usage_error(self, capsys):
        assert run(["hecke-check", "--form", "eta4_20", "--prime", "5",
                    "--nmax", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestHeckeCheckSingleBuild:
    def test_small_nmax_reads_support_from_the_same_build(self, capsys):
        # p * nmax = 50 < 300: one build to q^300 serves both checks
        assert run(["hecke-check", "--form", "eta6_4", "--prime", "5",
                    "--nmax", "10"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "eta6_4 | T_5: eigenform, eigenvalue 0",
            "eta6_4 support check mod 6: PASS",
        ]


def test_module_entry_point_exit_code():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "qcong", "expand", "--gf", "biregular",
         "--spec", "2,9", "--order", "8", "--mod", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")


class TestBadCounts:
    """Counts are integers >= 1 in every subcommand; anything else is a
    usage error (exit 2 with an ``error:`` line), checked before any work."""

    @pytest.mark.parametrize("argv", [
        ["expand", "--gf", "overpartition", "--order", "-3"],
        ["expand", "--gf", "overpartition", "--order", "0"],
        ["verify-lemma", "eq7", "--order", "-1"],
        ["verify-claim", "prop3.1a", "--nmax", "-1"],
        ["verify-claim", "thm8.1a.t2", "--nmax", "0"],
        ["verify-all", "--nmax", "-1"],
        ["verify-derivations", "--terms", "-5"],
        ["oracle-compare", "--spec", "2,9", "--nmax", "-1"],
        ["hecke-check", "--form", "eta6_4", "--prime", "5", "--nmax", "-2"],
        ["search", "--spec", "2,9", "--amax", "0", "--mods", "4"],
        ["search", "--spec", "2,9", "--amax", "4", "--mods", "4", "--nmax", "-1"],
        ["expand", "--gf", "overpartition", "--order", "ten"],
    ])
    def test_bad_count_exits_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "count" in captured.err

    def test_count_of_one_is_accepted(self, capsys):
        assert run(["expand", "--gf", "overpartition", "--order", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1 2"
        assert run(["verify-claim", "thm8.1a.t2", "--nmax", "1"]) == 0
        assert "n in [1, 1]" in capsys.readouterr().out
