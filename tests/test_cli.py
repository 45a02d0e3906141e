"""Command-line surface: exit codes, artifacts, golden comparisons."""

import json
import subprocess
import sys

import pytest

from ucycle.cli import build_parser, load_golden, main
from ucycle.core import CycleParams, CyclicString, verify_cover
from ucycle.lift import de_bruijn_sequence

REF_27 = "021210210210102021102210210"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSearchCommand:
    def test_invalid_verdict_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--q", "2", "--n", "2",
                               "--set", "0,2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "invalid"

    def test_valid_includes_witness(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--q", "2", "--n", "3",
                               "--set", "0,1,2", "--format", "json")
        doc = json.loads(out)
        # the complement rule reads 111 on a translate r <= 4, here r = 3
        assert code == 0 and doc["witness"] == "00011101"

    def test_budget_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "search", "--q", "2", "--n", "5",
                               "--set", "0,1,2,3,12", "--budget-nodes", "10")
        assert code == 3
        assert "inconclusive" in err

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "--q", "2", "--n", "3",
                               "--set", "0,1,x")
        assert code == 2

    def test_zero_node_budget_is_usage_error(self, capsys):
        # 0 must reach the "must be positive" check, not mean "unlimited"
        code, _, err = run_cli(capsys, "search", "--q", "2", "--n", "3",
                               "--set", "0,1,2", "--budget-nodes", "0")
        assert code == 2
        assert "must be positive" in err

    def test_zero_time_budget_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "--q", "2", "--n", "3",
                               "--set", "0,1,2", "--budget-secs", "0")
        assert code == 2
        assert "must be positive" in err

    @pytest.mark.parametrize("argv", [
        ["gen-ap", "--q", "3", "--n", "3", "--budget-secs", "5"],
        ["decompose", "--n", "6", "--d", "3", "--budget-secs", "5"]])
    def test_budget_flag_a_command_does_not_read_is_usage_error(
            self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err


class TestVerifyCommand:
    def test_budget_environment_is_not_read(self, tmp_path, capsys,
                                            monkeypatch):
        # budgets come from flags only; a stray variable changes nothing
        monkeypatch.setenv("UCYCLE_BUDGET_NODES", "abc")
        f = tmp_path / "cycle.txt"
        f.write_text(REF_27 + "\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(f), "--q", "3",
                               "--n", "3", "--set", "0,3,6")
        assert code == 0
        assert "complete=True" in out

    def test_reference_string(self, tmp_path, capsys):
        f = tmp_path / "cycle.txt"
        f.write_text(REF_27 + "\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(f), "--q", "3",
                               "--n", "3", "--set", "0,3,6")
        assert code == 0
        assert "complete=True" in out

    def test_incomplete_nonzero_exit(self, tmp_path, capsys):
        f = tmp_path / "cycle.txt"
        f.write_text("0000\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(f), "--q", "2",
                               "--n", "2", "--set", "0,1")
        assert code == 1

    def test_round_trip_gen_then_verify(self, tmp_path, capsys):
        out_file = tmp_path / "ap.txt"
        code, out, _ = run_cli(capsys, "gen-ap", "--q", "3", "--n", "3")
        assert code == 0
        cycle_line = out.splitlines()[0]
        out_file.write_text(cycle_line + "\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(out_file),
                               "--q", "3", "--n", "3", "--set", "0,3,6")
        assert code == 0


    @pytest.mark.parametrize("flags", [["--reduced"], []])
    def test_reduced_cycle_with_and_without_flag(self, tmp_path, capsys,
                                                 flags):
        # length q**n - 1 is read as reduced whether or not it is asked for
        code, out, _ = run_cli(capsys, "gen-reduced", "--q", "3", "--n", "3",
                               "--set", "0,1,3")
        assert code == 0
        f = tmp_path / "reduced.txt"
        f.write_text(out.splitlines()[0] + "\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(f), "--q", "3",
                               "--n", "3", "--set", "0,1,3",
                               "--format", "json", *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["complete"] and doc["reduced"]

    def test_any_length_cover(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "approx", "--q", "2", "--n", "4",
                               "--set", "0,1,2,3", "--type", "1",
                               "--seed", "11")
        assert code == 0
        cycle = out.splitlines()[0]
        assert len(cycle) not in (15, 16)
        f = tmp_path / "approx.txt"
        f.write_text(cycle + "\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(f), "--q", "2",
                               "--n", "4", "--set", "0,1,2,3")
        assert code == 0
        assert "complete=True" in out

    def test_truncated_string_reports_missing(self, tmp_path, capsys):
        f = tmp_path / "cycle.txt"
        f.write_text(REF_27[:20] + "\n")
        code, out, _ = run_cli(capsys, "verify", "--file", str(f), "--q", "3",
                               "--n", "3", "--set", "0,3,6")
        assert code == 1
        assert "complete=False" in out
        assert "# missing" in out


class TestGenerationCommands:
    def test_gen_ap_even_q_n2_uses_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "gen-ap", "--q", "4", "--n", "2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "trail-decomposition"
        assert doc["verification"]["complete"]

    def test_gen_ap_q2_n2_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen-ap", "--q", "2", "--n", "2")
        assert code == 2

    def test_gen_ap_seed_cycle(self, tmp_path, capsys):
        seed = de_bruijn_sequence(3, 2).text()
        f = tmp_path / "seed.txt"
        f.write_text(seed[4:] + seed[:4] + "\n")
        code, out, _ = run_cli(capsys, "gen-ap", "--q", "3", "--n", "3",
                               "--seed-cycle", str(f), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "lift-splice"
        chi = CyclicString.from_text(doc["cycle"], 3)
        assert verify_cover(chi, CycleParams.unreduced(3, 3),
                            (0, 3, 6)).complete

    def test_gen_ap_seed_cycle_on_decomposition_route_is_usage_error(
            self, tmp_path, capsys):
        # even q at n = 2 is built from trails; a seed it cannot read is
        # refused rather than silently ignored
        f = tmp_path / "seed.txt"
        f.write_text(de_bruijn_sequence(4, 1).text() + "\n")
        code, out, err = run_cli(capsys, "gen-ap", "--q", "4", "--n", "2",
                                 "--seed-cycle", str(f))
        assert code == 2 and out == ""
        assert "--seed-cycle" in err

    def test_gen_ap_seed_cycle_wrong_length(self, tmp_path, capsys):
        f = tmp_path / "seed.txt"
        f.write_text(de_bruijn_sequence(3, 2).text()[:8] + "\n")
        code, _, err = run_cli(capsys, "gen-ap", "--q", "3", "--n", "3",
                               "--seed-cycle", str(f))
        assert code == 2
        assert "wrong length" in err

    def test_double_ap3_pipeline(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "gen-ap", "--q", "2", "--n", "3")
        # {0,2,4} over q=2 is a stride construction, not a doubling input;
        # use the classical order-3 string instead
        f = tmp_path / "db.txt"
        f.write_text("00010111\n")
        code, out, _ = run_cli(capsys, "double-ap3", "--input", str(f),
                               "--q", "2", "--d", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 64
        assert doc["verification"]["complete"]

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_double_ap3_nonpositive_d_is_usage_error(self, tmp_path, capsys,
                                                      d):
        f = tmp_path / "db.txt"
        f.write_text("00010111\n")
        code, out, err = run_cli(capsys, "double-ap3", "--input", str(f),
                                 "--q", "2", "--d", d)
        assert code == 2 and out == ""
        assert "need d >= 1" in err

    def test_gen_reduced(self, capsys):
        code, out, _ = run_cli(capsys, "gen-reduced", "--q", "3", "--n", "3",
                               "--set", "0,1,3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 26
        assert doc["verification"]["complete"]

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--q", "2", "--n", "2",
                               "--set", "0,1", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "ordinary"

    def test_classify_triple_criterion_is_one_verdict(self, capsys):
        # (0, 1, 3) over F_3 is ordinary, and the criterion agrees
        code, out, _ = run_cli(capsys, "classify", "--q", "3", "--n", "3",
                               "--set", "0,1,3", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "ordinary"
        assert doc["triple_criterion"] is False

    def test_classify_exceptional_one_dependency_per_orbit(self, capsys):
        # the six generators of F_8* form two Frobenius orbits, {1, 2, 4}
        # and {3, 6, 5}
        code, out, _ = run_cli(capsys, "classify", "--q", "2", "--n", "3",
                               "--set", "0,1,7")
        assert code == 0
        assert out.splitlines() == [
            "exceptional",
            "# dependent for every generator; 2 dependencies recorded"]

    def test_gen_reduced_over_f2(self, capsys):
        code, out, _ = run_cli(capsys, "gen-reduced", "--q", "2", "--n", "1",
                               "--set", "0")
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_classify_over_f2(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--q", "2", "--n", "1",
                               "--set", "0")
        assert code == 0
        assert out.splitlines() == ["ordinary",
                                    "# witness poly (ascending): (1, 1)"]

    def test_decompose_impossible_is_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "2", "--d", "2",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "impossible"

    def test_decompose_emit_chi(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--n", "3", "--d", "3",
                               "--emit-chi", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["chi_index_set"] == [0, 3]

    def test_approx_type1(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--q", "2", "--n", "4",
                               "--set", "0,1,2,3", "--type", "1",
                               "--seed", "11", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["verification"]["complete"]
        assert doc["config"]["seed"] == 11

    def test_approx_type1_verifies_the_given_set(self, capsys):
        # 17 and 18 are not reduced mod 2**4: the cover is for 0,3,17,18
        code, out, _ = run_cli(capsys, "approx", "--q", "2", "--n", "4",
                               "--set", "0,3,17,18", "--type", "1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["complete"]
        assert doc["verification"]["index_set"] == [0, 3, 17, 18]
        chi = CyclicString.from_text(doc["cycle"], 2)
        assert verify_cover(chi, (2, 4), (0, 3, 17, 18)).complete

    def test_approx_type1_accepts_elements_equal_mod_q_to_the_n(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--q", "2", "--n", "3",
                               "--set", "0,1,9", "--type", "1")
        assert code == 0
        assert "complete=True" in out

    def test_approx_type1_repeated_element_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "approx", "--q", "2", "--n", "3",
                               "--set", "0,1,1,2", "--type", "1")
        assert code == 2
        assert "distinct" in err

    def test_approx_type2_reports_missing(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--q", "2", "--n", "4",
                               "--set", "0,1,2,3", "--type", "2",
                               "--seed", "4", "--m", "24", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and "missing" in doc

    def test_approx_zero_length_is_usage_error(self, capsys):
        # 0 must reach the "m must be positive" check, not mean "default m"
        code, _, err = run_cli(capsys, "approx", "--q", "2", "--n", "3",
                               "--set", "0,1,2", "--type", "2", "--m", "0")
        assert code == 2
        assert "m must be positive" in err

    def test_janson(self, capsys):
        code, out, _ = run_cli(capsys, "janson", "--mu", "0", "--Delta", "1",
                               "--delta", "1")
        assert code == 0 and out.strip() == "1.0"


class TestAtlasAndGolden:
    def test_atlas_to_file_and_diff(self, tmp_path, capsys):
        out_file = tmp_path / "atlas.tsv"
        code, _, _ = run_cli(capsys, "atlas", "--q", "3", "--n", "3",
                             "--size", "3", "--out", str(out_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "diff-golden", "--atlas",
                               str(out_file), "--table", "obs1")
        assert code == 0
        assert "match=True" in out

    def test_atlas_resume_identical(self, tmp_path, capsys):
        ck = tmp_path / "ck.tsv"
        a1 = tmp_path / "a1.tsv"
        a2 = tmp_path / "a2.tsv"
        run_cli(capsys, "atlas", "--q", "2", "--n", "3", "--size", "3",
                "--resume", str(ck), "--out", str(a1))
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:1]) + "\n")
        run_cli(capsys, "atlas", "--q", "2", "--n", "3", "--size", "3",
                "--resume", str(ck), "--out", str(a2))
        assert a1.read_bytes() == a2.read_bytes()

    @pytest.mark.parametrize("torn", ["0,1", "0,1,2\tval"])
    def test_atlas_resume_drops_a_torn_last_line(self, tmp_path, capsys,
                                                 torn):
        argv = ["atlas", "--q", "2", "--n", "3", "--size", "3"]
        fresh = tmp_path / "fresh.tsv"
        run_cli(capsys, *argv, "--resume", str(fresh))
        fresh_lines = fresh.read_text().splitlines()
        ck = tmp_path / "ck.tsv"
        ck.write_text(fresh_lines[0] + "\n" + torn)
        code, out, _ = run_cli(capsys, *argv, "--resume", str(ck))
        assert code == 0
        assert out.splitlines() == sorted(fresh_lines)
        lines = ck.read_text().splitlines()
        assert sorted(lines) == sorted(fresh_lines)
        assert all(ln.split("\t")[1] in ("valid", "invalid") for ln in lines)

    def test_atlas_resume_rejects_a_bad_complete_line(self, tmp_path, capsys):
        ck = tmp_path / "ck.tsv"
        ck.write_text("0,1,2\tval\n")
        code, _, err = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                               "--size", "3", "--resume", str(ck))
        assert code == 2
        assert "0,1,2\\tval" in err

    def test_atlas_resume_rejects_a_key_that_is_not_a_representative(
            self, tmp_path, capsys):
        # {0,2,5} is an affine image of a (2,3) size-3 class, not its
        # canonical representative, so no fresh run ever writes this line
        ck = tmp_path / "ck.tsv"
        ck.write_text("0,2,5\tinvalid\n")
        code, _, err = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                               "--size", "3", "--resume", str(ck))
        assert code == 2
        assert "0,2,5\\tinvalid" in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_atlas_nonpositive_jobs_is_usage_error(self, capsys, jobs):
        code, out, err = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                                 "--size", "3", "--jobs", jobs)
        assert code == 2 and out == ""
        assert "jobs must be positive" in err

    def test_obs2_matches(self, tmp_path, capsys):
        out_file = tmp_path / "atlas24.tsv"
        run_cli(capsys, "atlas", "--q", "2", "--n", "4", "--size", "4",
                "--out", str(out_file))
        code, out, _ = run_cli(capsys, "diff-golden", "--atlas",
                               str(out_file), "--table", "obs2")
        assert code == 0

    def test_corrupted_atlas_reports_missing(self, tmp_path, capsys):
        out_file = tmp_path / "atlas.tsv"
        run_cli(capsys, "atlas", "--q", "3", "--n", "3", "--size", "3",
                "--out", str(out_file))
        lines = [ln for ln in out_file.read_text().splitlines()
                 if not ln.endswith("invalid")]
        out_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "diff-golden", "--atlas",
                               str(out_file), "--table", "obs1")
        assert code == 1
        assert "missing=1" in out

    @pytest.mark.parametrize("bad", ["0,1,2 invalid", "0,1,x\tinvalid",
                                     "0,1,2\tmaybe"])
    def test_diff_golden_names_a_bad_line(self, tmp_path, capsys, bad):
        atlas_file = tmp_path / "atlas.tsv"
        atlas_file.write_text("# header\n0,1,3\tinvalid\n" + bad + "\n")
        code, out, err = run_cli(capsys, "diff-golden", "--atlas",
                                 str(atlas_file), "--table", "obs1")
        assert code == 2 and out == ""
        assert str(atlas_file) in err
        assert f"bad line 3: {bad!r}" in err

    def test_golden_tables_load(self):
        meta, rows = load_golden("obs3")
        assert meta["q"] == 2 and meta["n"] == 5
        assert rows[0] == (0, 1, 2, 3, 12)
        assert rows[-1] == (0, 4, 8, 16, 24)
        assert len(rows) == len(set(rows))


class TestParserReuse:
    APPROX = ["approx", "--q", "2", "--n", "3", "--set", "0,1,2",
              "--format", "json"]
    CALLS = [
        ["decompose", "--n", "6", "--d", "6", "--budget-nodes", "1"],
        APPROX + ["--type", "2", "--seed", "5"],
        APPROX + ["--type", "2"],
        APPROX + ["--type", "3"],  # argparse rejects the choice
        APPROX + ["--type", "1"],
        ["decompose", "--n", "6", "--d", "9"],
    ]

    def test_calls_in_turn_match_a_fresh_parser_each(self, capsys):
        # one parser serves every main() call; no default or parsed value
        # may leak from one call into the next
        build_parser.cache_clear()
        in_turn = [run_cli(capsys, *argv) for argv in self.CALLS]
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in in_turn] == [3, 0, 0, 2, 0, 0]
        assert in_turn[1][1] != in_turn[2][1]  # seed 5, then the default 0
        # references in reverse order, so that state carried from one call
        # to the next meets different neighbours
        for argv, got in reversed(list(zip(self.CALLS, in_turn))):
            build_parser.cache_clear()
            assert run_cli(capsys, *argv) == got, argv


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ucycle", "janson", "--mu", "1",
             "--Delta", "1", "--delta", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_usage_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ucycle", "no-such-command"],
            capture_output=True, text=True)
        assert proc.returncode == 2
