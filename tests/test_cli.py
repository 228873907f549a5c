import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mereovc
from mereovc import laws, lukasiewicz
from mereovc.cli import main, parse_rational
from mereovc.errors import UsageError

DATA = Path(__file__).resolve().parent / "data"

TOY = (
    "color,shape,size,d\n"
    "red,round,small,4\n"
    "red,square,small,5\n"
    "blue,round,large,7\n"
)

# finite decisions whose differences overflow the float range
BIG = "a,dec\nx,1e308\ny,-1e308\n"


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity tokens json.loads allows."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestRationalFlag:
    def test_accepts_fractions_and_integers(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("1") == Fraction(1)
        assert parse_rational("0") == Fraction(0)

    @pytest.mark.parametrize("bad", ["0.5", "half", "1/0", ""])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(UsageError):
            parse_rational(bad)

    @pytest.mark.parametrize("good, value", [
        (" 1/2 ", Fraction(1, 2)), ("+3", Fraction(3)), ("-1/4", Fraction(-1, 4)),
        ("02/4", Fraction(1, 2)),
    ])
    def test_accepts_signed_integer_ratios(self, good, value):
        assert parse_rational(good) == value

    @pytest.mark.parametrize("bad", [
        "1e-1", "5E-1", "1_0/20", "1 /2", "1/ 2", "1/-2", "/2", "1/", "\u0661", "inf", "nan",
    ])
    def test_rejects_everything_but_signed_integer_ratios(self, capsys, table, bad):
        code, out, err = run(
            capsys, "predict", table,
            "--omega", "color=red,shape=round,size=small", "--epsilon", bad)
        assert (code, out) == (2, "")
        assert "rational" in err


class TestPredict:
    def test_full_report(self, capsys, table):
        code, out, _ = run(
            capsys, "predict", table,
            "--omega", "color=red,shape=round,size=small",
            "--expert", "5", "--epsilon", "1", "--delta", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["vc_star"] == 3
        assert [f["radius"] for f in report["per_object"]] == [3, 2, 1]
        assert [f["reward"] for f in report["per_object"]] == [1, 1, 0]
        assert report["winner"] == [1, 5.0]
        assert report["config"]["epsilon"] == "1"
        assert report["max_rewarded_loss"] == 1.0

    def test_without_expert_omits_scoring(self, capsys, table):
        code, out, _ = run(
            capsys, "predict", table,
            "--omega", "color=red,shape=round,size=small",
        )
        assert code == 0
        report = json.loads(out)
        assert "expert" not in report
        assert "winner" not in report
        assert "regret" not in report
        assert all("reward" not in f and "loss" not in f for f in report["per_object"])
        assert "weighted" in report

    def test_omega_from_file(self, capsys, table, tmp_path):
        omega = tmp_path / "omega.csv"
        omega.write_text("color,shape,size\nred,round,small\n", encoding="utf-8")
        code, out, _ = run(capsys, "predict", table, "--omega", str(omega))
        assert code == 0
        assert json.loads(out)["omega"] == {
            "color": "red", "shape": "round", "size": "small"}

    def test_omega_file_repeating_a_feature_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("x,y,dec\na,b,1\n", encoding="utf-8")
        omega = tmp_path / "omega.csv"
        omega.write_text("x,y,x\na,b,c\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", str(path), "--omega", str(omega))
        assert (code, out) == (2, "")
        assert "feature 'x' is assigned twice" in err

    def test_missing_feature_is_usage_error(self, capsys, table):
        code, _, err = run(capsys, "predict", table, "--omega", "color=red,shape=round")
        assert code == 2
        assert "size" in err

    def test_unknown_feature_is_usage_error(self, capsys, table):
        code, _, err = run(
            capsys, "predict", table,
            "--omega", "color=red,shape=round,size=small,weight=9")
        assert code == 2
        assert "weight" in err

    def test_missing_table_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "predict", str(tmp_path / "absent.csv"), "--omega", "f=1")
        assert code == 1

    def test_bad_decision_cell_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f,d\nx,oops\n", encoding="utf-8")
        code, _, err = run(capsys, "predict", str(path), "--omega", "f=x")
        assert code == 1
        assert "row 2" in err

    def test_row_after_a_multiline_cell_names_its_physical_line(self, capsys, tmp_path):
        path = tmp_path / "multiline.csv"
        path.write_text('x,d\n"a\nb",1\nc,oops\n', encoding="utf-8")
        code, out, err = run(capsys, "predict", str(path), "--omega", "x=a")
        assert (code, out) == (1, "")
        assert f"{path}: row 4, column 'd'" in err

    def test_float_epsilon_rejected(self, capsys, table):
        code, _, err = run(
            capsys, "predict", table,
            "--omega", "color=red,shape=round,size=small", "--epsilon", "0.5")
        assert code == 2
        assert "rational" in err

    def test_table_with_bom(self, capsys, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffx,dec\na,1\nb,2\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", str(path), "--omega", "x=a")
        assert (code, err) == (0, "")
        assert strict_json(out)["omega"] == {"x": "a"}

    def test_omega_file_with_bom(self, capsys, table, tmp_path):
        omega = tmp_path / "omega.csv"
        omega.write_text("\ufeffcolor,shape,size\nred,round,small\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", table, "--omega", str(omega))
        assert (code, err) == (0, "")
        assert list(strict_json(out)["omega"]) == ["color", "shape", "size"]

    def test_blank_first_line_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\nx,dec\na,1\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", str(path), "--omega", "x=a")
        assert (code, out) == (1, "")
        assert f"{path}: line 1 is blank" in err

    @pytest.mark.parametrize("broken", ["table", "omega"])
    def test_non_utf8_file_is_input_error(self, capsys, table, tmp_path, broken):
        path = tmp_path / f"{broken}.csv"
        path.write_bytes(b"\xffcolor,shape,size\nred,round,small\n")
        argv = [table, "--omega", str(path)] if broken == "omega" else [str(path), "--omega", "x=a"]
        code, out, err = run(capsys, "predict", *argv)
        assert (code, out) == (1, "")
        assert f"{path}: not UTF-8 text (byte 0xff)" in err

    def test_oversized_cell_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x,dec\na,1\n" + "b" * 131073 + ",2\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", str(path), "--omega", "x=a")
        assert (code, out) == (1, "")
        assert f"{path}: line 3: field larger than field limit" in err

    def test_csv_output(self, capsys, table):
        code, out, _ = run(
            capsys, "predict", table,
            "--omega", "color=red,shape=round,size=small",
            "--expert", "5", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,touching_size,vc,radius,forecast,reward,loss"
        assert len(lines) == 4

    def test_overflowing_plain_mean_is_a_domain_error(self, capsys, tmp_path):
        # every vc is 0 at epsilon 1, so the weighted prediction falls back
        # to fmean, whose sum of three 1e308 forecasts overflows
        path = tmp_path / "big.csv"
        path.write_text("a,dec\nx,1e308\nx,1e308\nx,1e308\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", str(path), "--omega", "a=y")
        assert (code, out) == (3, "")
        assert "overflows the float range" in err

    def test_csv_overflowing_loss_is_a_domain_error(self, capsys, tmp_path):
        # loss |1e308 - -1e308| overflows to inf, which JSON refuses too
        path = tmp_path / "big.csv"
        path.write_text(BIG, encoding="utf-8")
        code, out, err = run(
            capsys, "predict", str(path), "--omega", "a=y", "--expert=1e308", "--output", "csv")
        assert (code, out) == (3, "")
        assert "outside the float range" in err


class TestEvaluateLoo:
    def test_report_shape(self, capsys, table):
        code, out, _ = run(capsys, "evaluate-loo", table, "--epsilon", "1", "--delta", "3")
        assert code == 0
        report = json.loads(out)
        assert report["object_count"] == 3
        assert len(report["trials"]) == 3
        assert set(report["mistakes"]) == {
            "per_object", "per_trial", "total", "covered_trials", "mistake_free_objects"}
        assert "approx_predicted" in report
        assert set(report["regret_stats"]) == {"mean", "max"}

    def test_deterministic_bytes(self, capsys, table):
        _, first, _ = run(capsys, "evaluate-loo", table, "--seed", "7")
        _, second, _ = run(capsys, "evaluate-loo", table, "--seed", "7")
        assert first == second

    def test_needs_two_objects(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("f,d\nx,4\n", encoding="utf-8")
        code, _, err = run(capsys, "evaluate-loo", str(path))
        assert code == 3

    def test_inconsistent_table_with_a_feature_named_d(self, capsys, tmp_path):
        # the decision copy column of an inconsistent table must not
        # collide with a real feature of the same name
        path = tmp_path / "dname.csv"
        path.write_text("x,d,dec\na,b,1\na,b,2\nc,b,3\n", encoding="utf-8")
        code, out, err = run(capsys, "evaluate-loo", str(path))
        assert (code, err) == (0, "")
        assert strict_json(out)["object_count"] == 3

    def test_non_finite_decisions_are_input_errors(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x,dec\na,nan\nb,inf\n", encoding="utf-8")
        code, out, err = run(capsys, "evaluate-loo", str(path))
        assert (code, out) == (1, "")
        assert "'nan' is not a finite real number" in err

    def test_overflowing_loss_is_a_domain_error(self, capsys, tmp_path):
        # finite decisions whose difference overflows to inf
        path = tmp_path / "big.csv"
        path.write_text("x,dec\na,1e308\nb,-1e308\n", encoding="utf-8")
        code, out, err = run(capsys, "evaluate-loo", str(path))
        assert (code, out) == (3, "")
        assert "not valid JSON" in err

    def test_csv_output(self, capsys, table):
        code, out, _ = run(capsys, "evaluate-loo", table, "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("trial,holdout,expert,")
        assert len(lines) == 4

    def test_overflowing_regret_mean_is_a_domain_error(self, capsys, tmp_path):
        # each regret is finite, but their sum for the mean is not
        path = tmp_path / "big.csv"
        path.write_text("a,dec\nx,1e308\ny,-1e308\nz,1e308\n", encoding="utf-8")
        code, out, err = run(capsys, "evaluate-loo", str(path))
        assert (code, out) == (3, "")
        assert "overflows the float range" in err

    def test_csv_non_finite_regret_is_a_domain_error(self, capsys, tmp_path):
        # weighted -1e308 against expert 1e308 gives regret inf - inf = nan
        path = tmp_path / "big.csv"
        path.write_text(BIG, encoding="utf-8")
        code, out, err = run(capsys, "evaluate-loo", str(path), "--output", "csv")
        assert (code, out) == (3, "")
        assert "outside the float range" in err


# decisions whose json text differs from a naive float format: a signed
# zero, an exponent form, the smallest subnormal, a short repr, an integer
EDGE_DECISIONS = "a,b,dec\nx,y,-0\nx,z,1e16\np,y,5e-324\np,z,0.1\nq,y,-7\n"


class TestReportRoundTrip:
    """Every report is exactly what json.dumps(indent=2) writes for its
    own parse, so the agent columns' %r text is json's number text."""

    @pytest.fixture
    def edge_table(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(EDGE_DECISIONS, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["predict", "--omega", "a=x,b=y", "--delta", "3"],
        ["predict", "--omega", "a=x,b=y", "--delta", "3", "--expert", "0.1"],
        ["predict", "--omega", "a=q,b=z", "--epsilon", "1/2", "--expert", "-0"],
        ["evaluate-loo", "--delta", "3"],
        ["evaluate-loo", "--epsilon", "1/2", "--tie", "lowest"],
    ])
    def test_report_is_its_own_json_dumps(self, capsys, edge_table, argv):
        code, out, err = run(capsys, argv[0], edge_table, *argv[1:])
        assert (code, err) == (0, "")
        assert out == json.dumps(strict_json(out), indent=2) + "\n"

    def test_trial_columns_hold_the_types_the_writer_needs(self, edge_table):
        with open(edge_table, encoding="utf-8") as handle:
            system = mereovc.load_decision_system(handle)
        config = mereovc.PredictionConfig(delta=3)
        omega = {"a": "x", "b": "y"}
        trials = [mereovc.run_trial(system, omega, expert=0.1, config=config),
                  *mereovc.leave_one_out(system, config)]
        for trial in trials:
            for column in (trial.objects, trial.touching_sizes, trial.vcs,
                           trial.radii, trial.rewards):
                assert set(map(type, column)) == {int}
            for column in (trial.forecasts, trial.losses):
                assert set(map(type, column)) == {float}


class TestMoods:
    def test_list_has_24_valid_rows(self, capsys):
        code, out, _ = run(capsys, "moods", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "figure,premiss1,premiss2,conclusion,valid,name"
        assert len(lines) == 257
        valid = [l for l in lines[1:] if ",true," in l]
        assert len(valid) == 24

    def test_list_json(self, capsys):
        code, out, _ = run(capsys, "moods", "list", "--output", "json")
        entries = json.loads(out)
        assert len(entries) == 256
        assert sum(e["valid"] for e in entries) == 24

    def test_check_valid(self, capsys):
        code, out, _ = run(capsys, "moods", "check", "Amb & Aam -> Aab")
        assert code == 0
        assert out.startswith("valid")

    def test_check_by_name(self, capsys):
        code, out, _ = run(capsys, "moods", "check", "Celarent")
        assert code == 0
        assert out.startswith("valid")

    def test_check_invalid_prints_countermodel(self, capsys):
        code, out, _ = run(capsys, "moods", "check", "Abm & Aam -> Iab")
        assert code == 0
        assert out.startswith("invalid")
        assert "countermodel" in out

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "moods", "check", "Barbapapa")
        assert code == 2

    def test_bad_syntax_is_usage_error(self, capsys):
        code, _, err = run(capsys, "moods", "check", "Amb & -> Aab")
        assert code == 2


class TestAlgebraSelftest:
    def test_all_green(self, capsys):
        code, out, _ = run(
            capsys, "algebra", "selftest", "--atoms", "3", "--random", "5")
        assert code == 0
        assert "all" in out.splitlines()[-1]
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "argv",
        [["--atoms", "1"], ["--atoms", "6"], ["--max-atoms", "1"], ["--random", "-1"]],
    )
    def test_out_of_range_counts_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "algebra", "selftest", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


    def test_failure_report_is_pinned(self, capsys, monkeypatch):
        # a weight that loses one atom and a negation shifted by 0.01: the
        # FAIL lines, their first counterexamples and the summary are fixed
        def weight_without_last_atom(x):
            dropped = max(x.universe.atoms, key=repr)
            return sum((x.universe.atom_weights[a] for a in x.members if a != dropped),
                       Fraction(0))

        monkeypatch.setattr(laws, "weight", weight_without_last_atom)
        monkeypatch.setattr(lukasiewicz, "negation", lambda p: 1.0 - p + 0.01)
        code, out, err = run(capsys, "algebra", "selftest", "--atoms", "3", "--random", "5")
        expected = (DATA / "selftest_broken_operators.txt").read_text(encoding="utf-8")
        assert (code, out, err) == (1, expected, "")

    # stdout sha256 of each run by its flags, recorded on CPython 3.11.7
    PINNED = json.loads((DATA / "selftest_stdout_sha256.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("flags", list(PINNED))
    def test_stdout_is_pinned(self, capsys, flags):
        code, out, err = run(capsys, "algebra", "selftest", *flags.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[flags]


def test_unknown_flag_exits_2(capsys):
    code = main(["predict", "--bogus"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate-loo", "--delta", "0"],
        ["evaluate-loo", "--eta", "2"],
        ["evaluate-loo", "--epsilon", "3/2"],
        ["evaluate-loo", "--tolerance", "inf"],
        ["predict", "--omega", "color=red,shape=round,size=small", "--expert", "nan"],
    ],
)
def test_out_of_range_flags_exit_2(capsys, table, argv):
    code, out, err = run(capsys, argv[0], table, *argv[1:])
    assert (code, out) == (2, "")
    assert "error" in err


@pytest.mark.parametrize("module", ["mereovc", "mereovc.cli"])
def test_runs_as_a_module(module):
    env = dict(os.environ)
    src = str(Path(mereovc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", module, "moods", "check", "Barbara"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "valid: Amb & Aam -> Aab\n", "")
