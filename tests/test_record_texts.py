"""evaluate-loo and predict, written from cached record texts, against the
reports the trial-by-trial route builds, and metamorphic relations that
need no oracle.

The record writer keys its texts by touching size, decision and reward,
and by loss value, so a bug shows as a record with another record's
text: a forecast of the other sign, a loss of another trial. The old
route (test_loo_session.old_route_report) builds each report with
run_trial per holdout and json.dumps. The relations (T. Y. Chen,
S. C. Cheung & S. M. Yiu, "Metamorphic testing: a new approach for
generating next test cases", HKUST-CS98-01, 1998) hold at any n:
permuting the feature columns or renaming each feature's values leaves
every CSV byte equal, and every JSON byte but each trial's omega, which is
the holdout's permuted or renamed row; permuting the rows leaves the
ledger totals equal.
"""

import contextlib
import csv
import io
import json
import math
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mereovc.cli import main
from mereovc.predict import PredictionConfig, max_rewarded_loss, run_trial
from mereovc.tables import load_decision_system

from test_count_path import EPSILONS, MODES
from test_loo_session import old_route_report, tables

ZEROS_TABLE = (
    "a,b,dec\n"
    "x,y,0\n"
    "x,z,-0\n"
    "p,y,1e16\n"
    "p,z,5e-324\n"
    "x,y,-0\n"
    "q,z,0\n"
)


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def old_predict_report(path, omega, expert, config, decision=None) -> str:
    """The predict report as the command built it from run_trial's columns,
    one dict per agent record, before the record texts."""
    with open(path, newline="", encoding="utf-8") as handle:
        system = load_decision_system(handle, decision_column=decision)
    trial = run_trial(system, omega, expert, config)
    records = [
        {"id": a, "touching_size": size, "vc": vc, "radius": r, "forecast": f,
         "reward": w, "loss": loss}
        for a, size, vc, r, f, w, loss in zip(
            trial.objects, trial.touching_sizes, trial.vcs, trial.radii, trial.forecasts,
            trial.rewards, trial.losses)
    ]
    report = {
        "config": {
            "epsilon": str(config.epsilon), "delta": config.delta, "mode": config.mode,
            "tie": config.tie_strategy, "seed": config.rng_seed, "eta": config.eta,
            "tolerance": config.radius_tolerance, "decision": decision,
        },
        "omega": omega,
        "expert": trial.expert,
        "vc_star": trial.vc_star,
        "per_object": records,
        "winner": list(trial.winner) if trial.winner is not None else None,
        "weighted": trial.weighted,
        "weights_degenerate": trial.weights_degenerate,
        "regret": trial.regret,
        "max_rewarded_loss": max_rewarded_loss(trial),
        "seed": config.rng_seed,
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def forecast_signs(text: str) -> list[float]:
    """Each record's forecast as printed, in order; -0.0 keeps its sign."""
    return [math.copysign(1.0, float(v)) for v in re.findall(r'"forecast": (\S+?),?\n', text)]


@pytest.mark.parametrize("flags, config", [
    ([], PredictionConfig()),
    (["--epsilon", "1/2", "--delta", "3", "--tie", "lowest"],
     PredictionConfig(epsilon=Fraction(1, 2), delta=3, tie_strategy="lowest")),
])
def test_zero_decisions_keep_their_sign_in_every_record(tmp_path, flags, config):
    path = tmp_path / "zeros.csv"
    path.write_text(ZEROS_TABLE, encoding="utf-8")
    signs = {0: 1.0, 1: -1.0, 2: 1.0, 3: 1.0, 4: -1.0, 5: 1.0}

    code, out = run(["evaluate-loo", str(path), *flags])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert out == old_route_report(str(path), config, None)[0]
    report = json.loads(out)
    want = [signs[r["id"]] for t in report["trials"] for r in t["per_object"]]
    assert forecast_signs(out) == want
    assert want.count(-1.0) == 2 * 5 and want.count(1.0) == 4 * 5

    for expert in ("0", "-0", "1e16", "5e-324"):
        argv = ["predict", str(path), "--omega", "a=x,b=y", "--expert", expert, *flags]
        code, out = run(argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert out == old_predict_report(str(path), {"a": "x", "b": "y"}, float(expert), config)
        assert forecast_signs(out) == [signs[o] for o in range(6)]


def table_csv(system) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*system.features, "dec"])
    for o in system.objects:
        writer.writerow([*system.rows[o], repr(system.decisions[o])])
    return out.getvalue()


def flags_of(config) -> list[str]:
    return ["--epsilon", str(config.epsilon), "--delta", str(config.delta), "--mode",
            config.mode, "--tie", "lowest" if config.tie_strategy == "lowest_object_id" else
            "random", "--seed", str(config.rng_seed), "--decision", "dec"]


def assert_old_route_bytes(text: str, config) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text, encoding="utf-8")
        want_json, want_csv = old_route_report(str(path), config, "dec")
        assert run(["evaluate-loo", str(path), *flags_of(config)]) == (0, want_json)
        assert run(["evaluate-loo", str(path), *flags_of(config), "--output", "csv"]) == (
            0, want_csv)


@pytest.mark.parametrize("tie", ["random", "lowest_object_id"])
@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(1)], ids=str)
def test_evaluate_loo_prints_the_old_route_bytes_on_every_session_table(epsilon, tie):
    """test_loo_session's tables: float decisions, inconsistent rest tables
    (ground F+1), all-VC-0 trials and tied winners."""
    for delta, mode in ((1, "exact"), (3, "at_least")):
        config = PredictionConfig(epsilon=epsilon, delta=delta, mode=mode, tie_strategy=tie,
                                  rng_seed=5)
        for system in tables():
            assert_old_route_bytes(table_csv(system), config)


DECISIONS = [0.0, -0.0, 0.1, 0.2, 0.3, 1.5, -2.25, 1 / 3, 7.0, 1e16, 5e-324, 4.0, 5.0, 6.0]


@st.composite
def float_tables(draw):
    """Two to nine rows of up to three features; copied rows with other
    decisions make rest tables inconsistent, and a feature of distinct
    values gives all-VC-0 trials at epsilon 1/2."""
    names = [f"f{j}" for j in range(draw(st.integers(0, 3)))]
    base = draw(st.lists(st.tuples(*[st.sampled_from("abc") for _ in names]),
                         min_size=1, max_size=6))
    rows = base + draw(st.lists(st.sampled_from(base), max_size=3))
    if len(rows) < 2:
        rows.append(rows[0])
    decisions = draw(st.lists(st.one_of(st.sampled_from(DECISIONS), st.floats(-1e6, 1e6)),
                              min_size=len(rows), max_size=len(rows)))
    lines = [",".join([*names, "dec"])]
    lines += [",".join([*row, repr(d)]) for row, d in zip(rows, decisions)]
    return "\n".join(lines) + "\n"


configs = st.builds(
    PredictionConfig,
    epsilon=st.sampled_from(EPSILONS),
    delta=st.integers(1, 3),
    mode=st.sampled_from(MODES),
    tie_strategy=st.sampled_from(["random", "lowest_object_id"]),
    rng_seed=st.integers(0, 5),
)


@settings(max_examples=150, deadline=None)
@given(float_tables(), configs)
@example("x,dec\na,0.1\na,0.2\nb,0.3\nb,-0.0\n", PredictionConfig(delta=3))
@example("x,dec\na,0.1\nb,0.2\nc,0.3\n", PredictionConfig(epsilon=Fraction(1, 2)))
@example("x,y,dec\na,b,5\na,c,4\na,e,6\na,f,5\n", PredictionConfig(delta=2, rng_seed=3))
def test_generated_tables_print_the_old_route_bytes(text, config):
    assert_old_route_bytes(text, config)


@st.composite
def wide_tables(draw, max_rows=400):
    """Up to max_rows rows of up to six features over two to four letters,
    some rows copied, decisions ints or one-decimal floats."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, features, letters = (draw(st.integers(2, max_rows)), draw(st.integers(1, 6)),
                            draw(st.integers(2, 4)))
    rows = []
    for i in range(n):
        if i and rng.random() < 0.2:
            rows.append(rng.choice(rows))
        else:
            rows.append([rng.choice("abcd"[:letters]) for _ in range(features)])
    real = draw(st.booleans())
    decisions = [repr(rng.randint(0, 90) / 10) if real else str(rng.randint(0, 9)) for _ in rows]
    return rng, [f"f{j}" for j in range(features)], rows, decisions


def csv_of(names, rows, decisions) -> str:
    lines = [",".join([*names, "dec"])]
    lines += [",".join([*row, d]) for row, d in zip(rows, decisions)]
    return "\n".join(lines) + "\n"


PROTOCOLS = [["--delta", "3"], ["--epsilon", "1/2", "--mode", "at_least", "--delta", "2"],
             ["--epsilon", "2/3", "--tie", "lowest", "--seed", "4"]]


def csv_report(text: str, flags) -> str:
    return report_text(text, [*flags, "--output", "csv"])


def report_text(text: str, flags) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text, encoding="utf-8")
        code, out = run(["evaluate-loo", str(path), *flags])
    assert code == 0
    return out


def n400():
    """A 400-row table of four three-letter features and int decisions."""
    rng = random.Random(400)
    rows = [[rng.choice("abc") for _ in range(4)] for _ in range(400)]
    return rng, ["f0", "f1", "f2", "f3"], rows, [str(rng.randint(0, 9)) for _ in rows]


@settings(max_examples=12, deadline=None)
@given(wide_tables(), st.sampled_from(PROTOCOLS))
@example(n400(), PROTOCOLS[0])
def test_permuting_the_feature_columns_keeps_every_csv_byte(table, flags):
    rng, names, rows, decisions = table
    order = rng.sample(range(len(names)), len(names))
    permuted = [[row[j] for j in order] for row in rows]
    assert csv_report(csv_of([names[j] for j in order], permuted, decisions), flags) == csv_report(
        csv_of(names, rows, decisions), flags)


@settings(max_examples=12, deadline=None)
@given(wide_tables(), st.sampled_from(PROTOCOLS))
@example(n400(), PROTOCOLS[1])
def test_renaming_each_features_values_keeps_every_csv_byte(table, flags):
    rng, names, rows, decisions = table
    renames = []
    for j in range(len(names)):
        values = sorted({row[j] for row in rows})
        renames.append(dict(zip(values, rng.sample([f"v{j}_{k}" for k in range(9)], len(values)))))
    renamed = [[renames[j][v] for j, v in enumerate(row)] for row in rows]
    assert csv_report(csv_of(names, renamed, decisions), flags) == csv_report(
        csv_of(names, rows, decisions), flags)


def ledger_totals(report: str) -> tuple[int, int]:
    """The mistake total and the covered trials, read off the CSV."""
    lines = list(csv.DictReader(io.StringIO(report)))
    return sum(int(r["mistakes"]) for r in lines), sum(r["winner_id"] != "" for r in lines)


@settings(max_examples=12, deadline=None)
@given(wide_tables(), st.sampled_from(PROTOCOLS))
@example(n400(), PROTOCOLS[2])
def test_permuting_the_rows_keeps_the_ledger_totals(table, flags):
    rng, names, rows, decisions = table
    order = rng.sample(range(len(rows)), len(rows))
    shuffled = csv_of(names, [rows[i] for i in order], [decisions[i] for i in order])
    assert ledger_totals(csv_report(shuffled, flags)) == ledger_totals(
        csv_report(csv_of(names, rows, decisions), flags))


def omegas_and_rest(text: str) -> tuple[list[list], str]:
    """Each trial's omega as its (feature, value) pairs in order, and the
    JSON report without them, written again so that -0.0 stays apart."""
    report = json.loads(text)
    omegas = [list(trial.pop("omega").items()) for trial in report["trials"]]
    return omegas, json.dumps(report, indent=2)


@settings(max_examples=25, deadline=None)
@given(wide_tables(max_rows=30), st.sampled_from(PROTOCOLS))
def test_json_route_permuting_the_feature_columns_moves_only_omega(table, flags):
    """Every trial's records, VC*, winner, weighted value and regret, and the
    mistakes block, are those of the unpermuted table; each omega is the
    holdout's permuted row."""
    rng, names, rows, decisions = table
    order = rng.sample(range(len(names)), len(names))
    permuted = [[row[j] for j in order] for row in rows]
    omegas, report = omegas_and_rest(report_text(
        csv_of([names[j] for j in order], permuted, decisions), flags))
    want_omegas, want = omegas_and_rest(report_text(csv_of(names, rows, decisions), flags))
    assert report == want
    assert omegas == [[(names[j], row[j]) for j in order] for row in rows]
    assert want_omegas == [list(zip(names, row)) for row in rows]


@settings(max_examples=25, deadline=None)
@given(wide_tables(max_rows=30), st.sampled_from(PROTOCOLS))
def test_json_route_renaming_each_features_values_moves_only_omega(table, flags):
    rng, names, rows, decisions = table
    renames = []
    for j in range(len(names)):
        values = sorted({row[j] for row in rows})
        renames.append(dict(zip(values, rng.sample([f"v{j}_{k}" for k in range(9)], len(values)))))
    renamed = [[renames[j][v] for j, v in enumerate(row)] for row in rows]
    omegas, report = omegas_and_rest(report_text(csv_of(names, renamed, decisions), flags))
    assert report == omegas_and_rest(report_text(csv_of(names, rows, decisions), flags))[1]
    assert omegas == [list(zip(names, row)) for row in renamed]
