"""Command-line surface: exit codes, artifacts, golden comparisons."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ucycle
from ucycle import approx, decomp, galois, kernel, lift, search
from ucycle.cli import build_parser, load_golden, main
from ucycle.core import DESK_SCALE, CycleParams, CyclicString, verify_cover
from ucycle.lift import de_bruijn_sequence

REF_27 = "021210210210102021102210210"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _verdicts(lines):
    """The set<TAB>verdict part of atlas or checkpoint lines."""
    return ["\t".join(ln.split("\t")[:2]) for ln in lines]


def refuse_to_allocate(*args):
    raise AssertionError("allocated before the size check")


class Hung(Exception):
    """A command ran past its time limit (not an error `main` catches)."""


def run_within(capsys, seconds, *argv):
    """run_cli under a timer that raises Hung after `seconds`: a command
    that takes longer fails the test instead of stalling the suite."""
    def hang(*_):
        raise Hung(f"{' '.join(argv)[:80]} ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run_cli(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


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

    def test_json_names_the_engine(self, capsys, monkeypatch):
        argv = ["search", "--q", "2", "--n", "3", "--set", "0,1,2",
                "--format", "json"]
        engine = "python" if kernel.load() is None else "c"
        assert json.loads(run_cli(capsys, *argv)[1])["engine"] == engine
        monkeypatch.setattr(kernel, "load", lambda: None)
        doc = json.loads(run_cli(capsys, *argv)[1])
        assert doc["engine"] == "python" and doc["schema"] == 1

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

    @pytest.mark.parametrize("secs", ["nan", "inf"])
    def test_nonfinite_time_budget_is_usage_error(self, capsys, secs):
        # nan would never fire, and neither value is a JSON number
        code, out, err = run_cli(capsys, "search", "--q", "2", "--n", "3",
                                 "--set", "0,1,2", "--budget-secs", secs,
                                 "--format", "json")
        assert code == 2 and out == ""
        assert "time budget must be finite" in err

    @pytest.mark.parametrize("q,n", [("0", "2"), ("-2", "2"), ("2", "-1")])
    def test_alphabet_or_window_out_of_range_is_usage_error(self, capsys,
                                                            q, n):
        code, out, err = run_cli(capsys, "search", "--q", q, "--n", n,
                                 "--set", "0,1")
        assert code == 2 and out == ""
        assert "error: need q >= 2 and n >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["gen-ap", "--q", "3", "--n", "3", "--budget-secs", "5"],
        ["decompose", "--n", "6", "--d", "3", "--budget-secs", "5"],
        ["decompose", "--n", "6", "--d", "3", "--budget-nodes", "5"]])
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

    def test_round_trip_through_the_out_file(self, tmp_path, capsys):
        # the text file `--out` writes holds `# verified:` and `# route:`
        # lines after the cycle; `verify --file` skips them
        out_file = tmp_path / "ap.txt"
        code, _, _ = run_cli(capsys, "gen-ap", "--q", "3", "--n", "3",
                             "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().count("\n# ") == 2
        code, out, err = run_cli(capsys, "verify", "--file", str(out_file),
                                 "--q", "3", "--n", "3", "--set", "0,3,6")
        assert (code, out, err) == (0, "complete=True\n", "")

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

    def test_double_ap3_reads_its_own_out_file(self, tmp_path, capsys):
        # each doubling reads the text file the previous one wrote
        f = tmp_path / "d0.txt"
        f.write_text("00010111\n")
        for step, (q, d) in enumerate([(2, 1), (4, 8)]):
            dst = tmp_path / f"d{step + 1}.txt"
            code, _, err = run_cli(capsys, "double-ap3", "--input",
                                   str(tmp_path / f"d{step}.txt"), "--q",
                                   str(q), "--d", str(d), "--out", str(dst))
            assert code == 0, err
        chi = CyclicString.from_text(dst.read_text(), 8)
        assert len(chi) == 512
        assert verify_cover(chi, (8, 3), (0, 64, 128)).complete

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

    @pytest.mark.parametrize("command", ["classify", "gen-reduced"])
    def test_window_zero_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--q", "2", "--n", "0",
                                 "--set", "0")
        assert code == 2 and out == ""
        assert "error: field degree must be positive, got 0" in err

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

    def test_decompose_emit_chi_needs_two_vertices(self, capsys):
        # K~_1's one loop would read as a cycle over one symbol
        code, out, err = run_cli(capsys, "decompose", "--n", "1", "--d", "1",
                                 "--emit-chi")
        assert code == 2 and out == ""
        assert "--emit-chi needs n >= 2" in err

    @pytest.mark.parametrize("argv,line", [
        (["gen-ap", "--q", "254", "--n", "2"],
         "# verified: complete=True q=254 n=2 set=0,254"),
        (["decompose", "--n", "254", "--d", "254"],
         "254 trails of length 254")])
    def test_trails_of_twice_a_prime_are_built(self, capsys, argv, line):
        # (254, 254) has no m < 254 with m | 254 and 254 | m*m; its trails
        # were read off a {0, 254}-cycle search that ran out of its
        # 2,000,000-node budget and exited 3
        code, out, err = run_within(capsys, 30, *argv)
        assert code == 0, err
        assert line in out.splitlines()

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

    def test_approx_type1_length_is_usage_error(self, capsys):
        # --m sets the random string's length, which only type 2 draws
        code, out, err = run_cli(capsys, "approx", "--q", "2", "--n", "3",
                                 "--set", "0,1,2", "--type", "1", "--m", "9")
        assert code == 2 and out == ""
        assert "--m applies only to --type 2" in err

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("arg", ["--mu", "--Delta", "--delta"])
    def test_janson_nonfinite_is_usage_error(self, capsys, arg, value):
        # nan printed nan and inf printed 1.0, both with exit 0
        argv = {"--mu": "1", "--Delta": "1", "--delta": "1", arg: value}
        code, out, err = run_cli(capsys, "janson",
                                 *(x for kv in argv.items() for x in kv))
        assert code == 2 and out == ""
        assert "mu, Delta and delta must be finite" in err

    @pytest.mark.parametrize("kind", [["--type", "1"],
                                      ["--type", "2", "--m", "5"]])
    def test_approx_alphabet_below_two_is_usage_error(self, capsys, kind):
        # q = 0 reached random.randrange(0) and reported its empty range
        code, out, err = run_cli(capsys, "approx", "--q", "0", "--n", "2",
                                 "--set", "0,1", *kind)
        assert code == 2 and out == ""
        assert "alphabet size must be >= 2" in err

    @pytest.mark.parametrize("q", ["0", "-2"])
    def test_gen_ap_alphabet_below_two_is_usage_error(self, capsys, q):
        # even q at n = 2 went to the trail route, whose message is about
        # decompose's arguments
        code, out, err = run_cli(capsys, "gen-ap", "--q", q, "--n", "2")
        assert code == 2 and out == ""
        assert "need q >= 2" in err


class TestDeskScale:
    """Inputs past core.DESK_SCALE = 2**24 are usage errors before anything
    of their size is built; the building step is stubbed to fail, so a
    missing check fails the test instead of allocating gigabytes."""

    def test_gen_ap(self, capsys, monkeypatch):
        # 2**25 words; the order-24 de Bruijn sequence came first
        monkeypatch.setattr(lift, "de_bruijn_sequence", refuse_to_allocate)
        code, out, err = run_cli(capsys, "gen-ap", "--q", "2", "--n", "25")
        assert code == 2 and out == ""
        assert "exceeds desk scale 16777216" in err

    def test_decompose(self, capsys, monkeypatch):
        # 4098**2 edges; K~_3 was blown up into 5.6M trails first
        monkeypatch.setattr(decomp, "_blowup_trails", refuse_to_allocate)
        code, out, err = run_cli(capsys, "decompose", "--n", "4098",
                                 "--d", "3")
        assert code == 2 and out == ""
        assert "exceeds desk scale 16777216" in err

    def test_atlas(self, capsys, monkeypatch):
        # 2**25 positions; the class list drew on all of them first
        monkeypatch.setattr(search, "affine_class_representatives",
                            refuse_to_allocate)
        code, out, err = run_cli(capsys, "atlas", "--q", "2", "--n", "25",
                                 "--size", "25")
        assert code == 2 and out == ""
        assert "exceeds desk scale 16777216" in err

    @pytest.mark.parametrize("kind", [
        ["--set", "0,16777216", "--type", "1"],
        ["--set", "0,1", "--type", "2", "--m", "16777217"]])
    def test_approx(self, capsys, monkeypatch, kind):
        # type 1 draws span + 1 symbols, type 2 draws --m of them
        monkeypatch.setattr(approx, "random",
                            SimpleNamespace(Random=refuse_to_allocate))
        code, out, err = run_cli(capsys, "approx", "--q", "2", "--n", "2",
                                 *kind)
        assert code == 2 and out == ""
        assert "random length 16777217 exceeds desk scale 16777216" in err


    def test_approx_alphabet_run(self, capsys, monkeypatch):
        # type 1 at n = 1 is the run 0 .. q-1, 2**25 symbols here; the run
        # is tuple(range(q)), built before CyclicString sees it
        monkeypatch.setattr(approx, "CyclicString", refuse_to_allocate)
        monkeypatch.setattr(approx, "range", refuse_to_allocate,
                            raising=False)
        code, out, err = run_cli(capsys, "approx", "--q", "33554432",
                                 "--n", "1", "--set", "0", "--type", "1")
        assert code == 2 and out == ""
        assert "33554432**1 exceeds desk scale 16777216" in err

    @pytest.mark.parametrize("argv", [
        ["search", "--set", "0,1"],
        ["atlas", "--size", "1000000000"],
        ["gen-ap"],
        ["gen-reduced", "--set", "0,1"],
        ["classify", "--set", "0,1"],
        ["verify", "--set", "0,1", "--file"],
        ["approx", "--set", "0,1", "--type", "1"],
        ["approx", "--set", "0,1", "--type", "2"]],
        ids=["search", "atlas", "gen-ap", "gen-reduced", "classify", "verify",
             "approx-type1", "approx-type2"])
    def test_huge_window_is_refused_at_once(self, tmp_path, capsys, argv):
        # each command computed 3**n before comparing it with the bound,
        # 15 to 41 s at n = 3e7, and four then failed to print it
        if argv[0] == "verify":
            (tmp_path / "cycle.txt").write_text("012\n")
            argv = argv + [str(tmp_path / "cycle.txt")]
        start = time.monotonic()
        code, out, err = run_cli(capsys, argv[0], "--q", "3",
                                 "--n", "1000000000", *argv[1:])
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert "3**1000000000 exceeds desk scale 16777216" in err

    @pytest.mark.parametrize("q,n,I", [
        ("1000000007", "2", "0,1"), ("2305843009213693951", "1", "0")],
        ids=["prime-1e9", "prime-2**61"])
    @pytest.mark.parametrize("command", ["gen-reduced", "classify"])
    def test_huge_alphabet_is_refused_before_factoring(
            self, capsys, monkeypatch, command, q, n, I):
        # prime_power tried every p up to q before the field's size check:
        # 10 s at 1e9 + 7, and 2**61 - 1 would never finish
        monkeypatch.setattr(galois, "build_field", refuse_to_allocate)
        code, out, err = run_within(capsys, 2, command, "--q", q, "--n", n,
                                    "--set", I)
        assert code == 2 and out == ""
        assert f"{q}**{n} exceeds desk scale 16777216" in err

    @pytest.mark.parametrize("n,m,expected", [
        (40, ["--m", "40"], "2**40 exceeds desk scale 16777216"),
        (15000, ["--m", "15000"],
         "15000 windows of 15000 symbols exceed desk scale 16777216"),
        (22, [], "16777216 windows of 22 symbols exceed desk scale")],
        ids=["n40", "n15000", "n22-default-m"])
    def test_approx_type2_window_is_bounded(self, capsys, monkeypatch,
                                            n, m, expected):
        # --m let any window size through: at n = 40 the verifier walked
        # all 2**40 words to list the missing ones, and the draw kept m
        # windows of n symbols, 2**24 of 22 at the default m for n = 22
        monkeypatch.setattr(approx, "random",
                            SimpleNamespace(Random=refuse_to_allocate))
        code, out, err = run_within(
            capsys, 2, "approx", "--q", "2", "--n", str(n), "--set",
            ",".join(map(str, range(n))), "--type", "2", *m)
        assert code == 2 and out == ""
        assert expected in err

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(q=st.one_of(st.sampled_from([
               2 ** 61 - 1, 2 ** 31 - 1, 1_000_000_007, 4099,
               2 ** 60, 3 ** 38, 6 * (2 ** 31 - 1), 4097]),
               st.integers(2, 2 ** 61 - 1)),
           n=st.one_of(st.integers(1, 30), st.integers(1, 10 ** 9)))
    def test_every_command_refuses_past_desk_scale_at_once(
            self, tmp_path, capsys, q, n):
        # each (q, n) past the bound, primes and composites among q; for
        # n <= 30 the set has n elements, so the checks after its size
        # check are reached too
        assume(n >= 25 or q ** n > DESK_SCALE)
        cycle = tmp_path / "cycle.txt"
        cycle.write_text("01\n")
        I = ",".join(map(str, range(min(n, 30))))
        for argv in (["search", "--set", I],
                     ["atlas", "--size", str(n)],
                     ["gen-ap"],
                     ["gen-reduced", "--set", I],
                     ["classify", "--set", I],
                     ["approx", "--set", I, "--type", "1"],
                     ["approx", "--set", I, "--type", "2"],
                     ["approx", "--set", I, "--type", "2",
                      "--m", str(min(n, 30))],
                     ["verify", "--set", I, "--file", str(cycle)],
                     ["verify", "--set", I, "--file", str(cycle),
                      "--reduced"]):
            code, out, err = run_within(capsys, 2, argv[0], "--q", str(q),
                                        "--n", str(n), *argv[1:])
            assert (code, out) == (2, ""), (argv, err)
            assert err.startswith("error: ") and "Traceback" not in err


class TestHostileInput:
    """Parseable but hostile input inside the desk scale: each call ends
    with exit 0-3 within 2 s and no traceback, and a refused call leaves
    its input files as they were."""

    BAD_BYTES = b"\xff\xfe\x00bad\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--q", "2", "--n", "3", "--set", "0,1,2", "--file"],
        ["gen-ap", "--q", "3", "--n", "3", "--seed-cycle"],
        ["double-ap3", "--q", "2", "--d", "1", "--input"],
        ["diff-golden", "--table", "obs1", "--atlas"],
        ["atlas", "--q", "2", "--n", "3", "--size", "3", "--resume"]],
        ids=["verify", "gen-ap", "double-ap3", "diff-golden", "atlas"])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, argv):
        # each decoded the file outside the try that adds its path
        path = tmp_path / "input.txt"
        path.write_bytes(self.BAD_BYTES)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert f"{path}: 'utf-8' codec can't decode byte 0xff" in err
        assert path.read_bytes() == self.BAD_BYTES

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(qn=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                               (4, 2), (5, 2), (7, 2)]),
           data=st.data(),
           m=st.sampled_from([0, -1, -2 ** 24, 1, 2 ** 24, 2 ** 24 + 1]),
           d=st.integers(-2, 9),
           cycle=st.sampled_from([b"", BAD_BYTES, b"01\n10\n",
                                  b"0123456789\n"]),
           checkpoint=st.sampled_from([
               b"0,1,3\tinvalid\n0,1,2\tval",       # torn
               b"0,1,3\tinvalid",                    # no newline
               b"0,1,2,3\tinvalid\n0,9,18\tinvalid\n",  # other runs'
               b"0,1,2\tvalid\n"]))                 # no witness
    def test_hostile_input_ends_at_once(self, tmp_path, capsys, qn, data,
                                        m, d, cycle, checkpoint):
        # sets with duplicates, negatives and members up to 10**30; --m
        # at 0, negative, below n and around 2**24 (n >= 2, since at n = 1
        # --m 2**24 is inside the bound and 14 s of real work);
        # cycle files that are empty, not UTF-8, two cycles or a symbol
        # >= q; checkpoints torn, with no newline, of other runs, or with
        # a valid line and no witness
        members = data.draw(st.lists(st.one_of(
            st.integers(-3, 3),
            st.sampled_from([10 ** 30, 10 ** 30 + 1, -10 ** 30])),
            min_size=qn[1], max_size=qn[1]))
        q, n = map(str, qn)
        sizes = ["--q", q, "--n", n]
        cyc, ck = tmp_path / "cycle.txt", tmp_path / "ck.tsv"
        cyc.write_bytes(cycle)
        ck.write_bytes(checkpoint)
        I = "--set=" + ",".join(map(str, members))
        for argv in (["search", *sizes, I, "--budget-secs", "1"],
                     ["atlas", *sizes, "--size", n, "--resume", str(ck),
                      "--budget-secs", "1"],
                     ["diff-golden", "--atlas", str(ck), "--table", "obs1"],
                     ["gen-reduced", *sizes, I],
                     ["classify", *sizes, I],
                     ["approx", *sizes, I, "--type", "1"],
                     ["approx", *sizes, I, "--type", "2", "--m", str(m)],
                     ["verify", *sizes, I, "--file", str(cyc)],
                     ["gen-ap", *sizes, "--seed-cycle", str(cyc)],
                     ["double-ap3", "--q", q, "--d", str(d), "--input",
                      str(cyc)]):
            before = cyc.read_bytes(), ck.read_bytes()
            code, _, err = run_within(capsys, 2, *argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err, argv
            if code == 2:
                assert (cyc.read_bytes(), ck.read_bytes()) == before, argv


class TestInputChecks:
    """Checks a command reaches on bad input, each with its exit code and
    message; the last case is a budget echoed in the JSON config."""

    @pytest.mark.parametrize("argv,text,code,expected", [
        pytest.param(["verify", "--q", "3", "--n", "2", "--set", "0,1,2",
                      "--file"], "001122021", 2,
                     "index set size 3 != window size 2", id="verify-size"),
        pytest.param(["verify", "--q", "3", "--n", "3", "--set", "0,3,6",
                      "--file"], "# from gen-ap\n01x\n", 2,
                     "cycle.txt: bad symbol 'x' on line 2",
                     id="verify-symbol"),
        pytest.param(["verify", "--q", "3", "--n", "3", "--set", "0,3,6",
                      "--file"], "012\n\n012\n", 2,
                     "cycle.txt: expected one cycle line, found 2",
                     id="verify-two-cycles"),
        pytest.param(["gen-ap", "--q", "3", "--n", "1"], None, 2,
                     "need n >= 2 and q >= 2", id="gen-ap-window"),
        pytest.param(["double-ap3", "--q", "2", "--d", "1", "--input"], "01",
                     2, "expected length q**3 = 8, got 2",
                     id="double-ap3-length"),
        pytest.param(["double-ap3", "--q", "2", "--d", "3", "--input"],
                     "00010111", 2, "3 does not divide q**3 = 8",
                     id="double-ap3-divisor"),
        pytest.param(["classify", "--q", "2", "--n", "3", "--set", "0,1"],
                     None, 2, "need 3 exponents", id="classify-size"),
        pytest.param(["gen-reduced", "--q", "2", "--n", "3", "--set",
                      "0,1,8"], None, 2, "distinct exponents mod 7",
                     id="gen-reduced-collision"),
        pytest.param(["search", "--q", "2", "--n", "25", "--set",
                      ",".join(map(str, range(25)))], None, 2,
                     "2**25 exceeds desk scale 16777216",
                     id="search-scale"),
        pytest.param(["search", "--q", "2", "--n", "3", "--set", "0,1,2",
                      "--budget-secs", "60", "--format", "json"], None, 0,
                     '"time_limit": 60.0', id="search-time-budget"),
    ])
    def test_input_check(self, tmp_path, capsys, argv, text, code, expected):
        if text is not None:
            path = tmp_path / "cycle.txt"
            path.write_text(text)
            argv = argv + [str(path)]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        if code:
            assert out == "" and expected in err
        else:
            assert expected in out


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
        assert out.splitlines() == sorted(_verdicts(fresh_lines))
        lines = ck.read_text().splitlines()
        assert sorted(lines) == sorted(fresh_lines)
        assert all(ln.split("\t")[1] in ("valid", "invalid") for ln in lines)

    @pytest.mark.parametrize("text,expected", [
        ("00010111", "no complete line; remove the file to start afresh"),
        ("garbage line\n0,1", "bad line 1: 'garbage line'")],
        ids=["no-newline", "bad-line-then-torn-line"])
    def test_atlas_resume_checks_before_it_cuts(self, tmp_path, capsys,
                                                  text, expected):
        # the unterminated last line was cut before any line was checked:
        # a cycle file passed by mistake was emptied and overwritten
        ck = tmp_path / "ck.tsv"
        ck.write_bytes(text.encode())
        code, out, err = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                                 "--size", "3", "--resume", str(ck))
        assert code == 2 and out == ""
        assert f"checkpoint {ck}: {expected}" in err
        assert ck.read_bytes() == text.encode()

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

    @pytest.mark.parametrize("line", [
        "0,1,3\tvalid",                 # the one invalid (2,3) class
        "0,1,3\tvalid\t00010111",       # a de Bruijn cycle, not a 0,1,3-cycle
        "0,1,2\tvalid\t00001111",
        "0,1,2\tvalid\t0001011",
        "0,1,2\tvalid\t00020111",
        "0,1,2\tvalid\t0001011x",
    ])
    def test_atlas_resume_rejects_an_unverified_valid_line(
            self, tmp_path, capsys, line):
        ck = tmp_path / "ck.tsv"
        ck.write_text(line + "\n")
        code, out, err = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                                 "--size", "3", "--resume", str(ck))
        assert code == 2 and out == ""
        assert repr(line) in err and "no witness" in err

    def test_atlas_resume_trusts_an_invalid_line(self, tmp_path, capsys):
        # invalid lines carry no certificate yet, so a wrong one is believed
        ck = tmp_path / "ck.tsv"
        ck.write_text("0,1,2\tinvalid\n")
        code, out, _ = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                               "--size", "3", "--resume", str(ck))
        assert code == 0
        assert "0,1,2\tinvalid" in out.splitlines()

    def test_atlas_budget_leaves_classes_inconclusive(self, capsys,
                                                      monkeypatch):
        # a class out of budget no longer ends the run; forking after the
        # first class makes the --jobs 2 run use a helper, on a host taken
        # to have 2 CPUs
        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        monkeypatch.setattr(search, "_cpus", lambda: 2)
        runs = [run_cli(capsys, "atlas", "--q", "2", "--n", "4", "--size",
                        "4", "--budget-nodes", "5", "--jobs", jobs)
                for jobs in ("1", "2")]
        for code, out, err in runs:
            assert code == 3
            assert len(out.splitlines()) == 25
            assert "inconclusive: 22 classes ran out of budget" in err
        assert runs[0][1] == runs[1][1]
        verdicts = [ln.split("\t")[1] for ln in runs[0][1].splitlines()]
        assert verdicts.count("inconclusive") == 22
        assert verdicts.count("invalid") == 3

    def test_atlas_resume_retries_inconclusive_classes(self, tmp_path,
                                                       capsys):
        # budgeted resumes left 25, 30 and 35 lines: each appended the same
        # 5 inconclusive classes again
        argv = ["atlas", "--q", "2", "--n", "4", "--size", "4"]
        _, fresh, _ = run_cli(capsys, *argv)
        ck = tmp_path / "ck.tsv"
        for _ in range(3):
            code, _, _ = run_cli(capsys, *argv, "--budget-nodes", "50",
                                 "--resume", str(ck))
            lines = ck.read_text().splitlines()
            assert code == 3 and len(lines) == 25
        undecided = sum(ln.endswith("\tinconclusive") for ln in lines)
        code, out, _ = run_cli(capsys, *argv, "--resume", str(ck))
        assert code == 0 and out == fresh
        added = ck.read_text().splitlines()[25:]
        assert len(added) == undecided == 5
        assert "inconclusive" not in "".join(added)

    def test_atlas_checkpoint_has_one_line_per_class_under_jobs(
            self, tmp_path, capsys):
        ck = tmp_path / "ck.tsv"
        out_file = tmp_path / "atlas.tsv"
        code, _, _ = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                             "--size", "3", "--jobs", "2", "--resume",
                             str(ck), "--out", str(out_file))
        assert code == 0
        out_lines = out_file.read_text().splitlines()
        assert len(out_lines) == 4
        assert sorted(_verdicts(ck.read_text().splitlines())) == out_lines

    def test_atlas_size_other_than_n_is_usage_error(self, capsys,
                                                     monkeypatch):
        import ucycle.search

        monkeypatch.setattr(ucycle.search, "affine_class_representatives",
                            lambda *a: pytest.fail("classes enumerated"))
        code, out, err = run_cli(capsys, "atlas", "--q", "2", "--n", "3",
                                 "--size", "4")
        assert code == 2 and out == ""
        assert "--size 4 must equal --n 3" in err

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

    def test_diff_golden_never_matches_an_inconclusive_class(self, tmp_path,
                                                              capsys):
        atlas_file = tmp_path / "atlas.tsv"
        atlas_file.write_text("0,9,18\tinconclusive\n")
        code, out, _ = run_cli(capsys, "diff-golden", "--atlas",
                               str(atlas_file), "--table", "obs1")
        assert code == 1
        assert "matched=0 missing=1" in out

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
        ["search", "--q", "2", "--n", "5", "--set", "0,1,2,6,26",
         "--budget-nodes", "1"],
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


class TestOutputDocuments:
    """Each command writes the one document `--format` asks for."""

    @pytest.mark.parametrize("argv", [
        ["search", "--q", "2", "--n", "3", "--set", "0,1,2"],
        ["gen-ap", "--q", "3", "--n", "2"],
        ["double-ap3", "--input", "{db}", "--q", "2", "--d", "1"],
        ["gen-reduced", "--q", "3", "--n", "3", "--set", "0,1,3"],
        ["classify", "--q", "2", "--n", "3", "--set", "0,1,5"],
        ["decompose", "--n", "6", "--d", "9", "--emit-chi"],
        ["decompose", "--n", "2", "--d", "2"],
        ["approx", "--q", "2", "--n", "4", "--set", "0,1,2,3", "--type", "1"],
        ["approx", "--q", "2", "--n", "4", "--set", "0,1,2,3", "--type", "2"],
        ["janson", "--mu", "1", "--Delta", "1", "--delta", "1"],
        ["verify", "--file", "{db}", "--q", "2", "--n", "3", "--set", "0,1,2"],
        ["diff-golden", "--atlas", "{empty}", "--table", "obs2"]],
        ids=" ".join)
    def test_json_is_one_line(self, tmp_path, capsys, argv):
        # atlas is left out: it writes set<TAB>verdict lines in either format
        files = {"db": tmp_path / "db.txt", "empty": tmp_path / "empty.tsv"}
        files["db"].write_text("00010111\n")
        files["empty"].write_text("")
        argv = [a.format(**files) for a in argv]
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code in (0, 1), err
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)

    @pytest.mark.parametrize("n,d,route", [
        (4, 16, "euler"), (6, 4, "blowup"), (7, 7, "cyclic")])
    def test_decompose_text_and_json_name_the_same_trails(self, capsys, n, d,
                                                          route):
        assert decomp.decompose_equal(n, d).route == route
        argv = ["decompose", "--n", str(n), "--d", str(d), "--emit-chi"]
        _, text, _ = run_cli(capsys, *argv)
        _, js, _ = run_cli(capsys, *argv, "--format", "json")
        doc = json.loads(js)
        head, *rows, chi = text.splitlines()
        assert head == f"{n * n // d} trails of length {d}"
        assert [[[int(x) for x in e.split(">")] for e in row.split()]
                for row in rows] == doc["trails"]
        assert chi == doc["chi"]

    def test_decompose_builds_only_the_document_asked_for(self, capsys,
                                                          monkeypatch):
        def refuse(self):
            raise AssertionError("built the document not asked for")
        argv = ["decompose", "--n", "6", "--d", "9", "--emit-chi"]
        monkeypatch.setattr(decomp.TrailDecomposition, "to_json_obj", refuse)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("4 trails of length 9\n1>")
        monkeypatch.undo()
        # the text document is where the u>v lines are formatted
        monkeypatch.setattr(decomp.TrailDecomposition, "to_text_lines",
                            refuse)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and len(json.loads(out)["trails"]) == 4


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ucycle", "janson", "--mu", "1",
             "--Delta", "1", "--delta", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_import_starts_no_process_machinery(self):
        # `import ucycle.cli` stays free of the modules a search loads only
        # when it forks or builds its kernel, and of process pools, which
        # nothing uses
        banned = ["multiprocessing", "concurrent.futures", "pickle",
                  "signal", "subprocess", "ctypes", "ucycle.kernel"]
        code = ("import sys, ucycle.cli\n"
                f"print([m for m in {banned!r} if m in sys.modules])\n")
        src = str(pathlib.Path(ucycle.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # the position search's tables for 2**24 positions; the exact cover's
    # kernel state for (2,12), about 30 MB, once the kernel is built and
    # the cap leaves 16 MB above what the process already maps
    OUT_OF_MEMORY = {
        "position-search": ("cap = 300 << 20\n",
                            "4096 --n 2 --set 0,1"),
        "kernel": ("import ucycle.cli\n"
                   "from ucycle import kernel\n"
                   "if kernel.load() is None:\n"
                   "    sys.exit(99)\n"
                   "with open('/proc/self/statm', encoding='ascii') as fh:\n"
                   "    mapped = int(fh.read().split()[0])\n"
                   "cap = mapped * resource.getpagesize() + (16 << 20)\n",
                   "2 --n 12 --set " + ",".join(map(str, range(12)))),
    }

    @pytest.mark.parametrize("case", list(OUT_OF_MEMORY))
    def test_out_of_memory_exits_three(self, case):
        # a size inside the desk scale that the memory at hand cannot hold:
        # one line and exit 3, since no verdict is claimed, not a traceback
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs Linux address-space limits")
        setup, sizes = self.OUT_OF_MEMORY[case]
        code = ("import resource, sys\n" + setup +
                "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                "from ucycle.cli import main\n"
                f"sys.exit(main('search --q {sizes} --budget-nodes 1000'"
                ".split()))\n")
        src = str(pathlib.Path(ucycle.__file__).resolve().parents[1])
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        if proc.returncode == 99:
            pytest.skip("the kernel did not load")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (3, "", "error: out of memory\n")
        assert time.monotonic() - start < 10

    def test_closed_stdout_pipe_exits_141_without_an_error_line(self):
        # the reader is gone before the command writes a byte: exit as a
        # process that SIGPIPE ended, not as a usage error
        src = str(pathlib.Path(ucycle.__file__).resolve().parents[1])
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ucycle", "decompose", "--n", "40",
                 "--d", "40", "--format", "json"],
                stdout=w, stderr=subprocess.PIPE, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_usage_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ucycle", "no-such-command"],
            capture_output=True, text=True)
        assert proc.returncode == 2
