"""The one-pass leave-one-out session against the trial-by-trial route.

leave_one_out must give, trial by trial, what run_trial gives on the rest
table system.without_object(o) with omega system.row(o) and
expert system.decisions[o]. Trials are also compared by repr, so -0.0
against 0.0 or a last-digit difference fails. The evaluate-loo command
must print, as JSON and as CSV, the bytes of the report built here from
that old route.
"""

import csv
import io
import json
import random
import sys
from fractions import Fraction
from itertools import compress
from statistics import fmean

import pytest

from mereovc.cli import main
from mereovc.errors import DomainError
from mereovc import predict
from mereovc.mistakes import count_mistakes
from mereovc.predict import PredictionConfig, leave_one_out, run_trial
from mereovc.tables import (
    DecisionSystem,
    ground_size,
    load_decision_system,
    loo_ground_sizes,
)
from mereovc.vc import vc_count

from test_count_path import EPSILONS, MODES

REAL_DECISIONS = [0.1, 0.2, 0.3, 1.5, -2.25, 1 / 3, 7.0]


def random_table(rng, n_features, duplicate_rows):
    """Two to eight rows of two-valued cells with real-valued decisions;
    copied rows give a clash when their decisions differ."""
    names = tuple(f"f{i}" for i in range(n_features))
    rows = [tuple(rng.choice("ab") for _ in names) for _ in range(rng.randint(2, 5))]
    rows += [rng.choice(rows) for _ in range(duplicate_rows)]
    decisions = [rng.choice(REAL_DECISIONS) for _ in rows]
    return DecisionSystem.from_rows(names, rows, decisions)


def tables():
    rng = random.Random(77)
    out = [
        random_table(rng, n_features, duplicate_rows)
        for n_features in range(1, 5)
        for duplicate_rows in (0, 1, 3)
        for _ in range(3)
    ]
    out += [
        # removing object 2 leaves its class consistent; removing 0 or 1 does not
        DecisionSystem.from_rows(("x",), [("a",), ("a",), ("a",), ("b",)], [1.5, 1.5, 0.25, 3]),
        # two mixed classes: every rest table stays inconsistent
        DecisionSystem.from_rows(
            ("x",), [("a",), ("a",), ("b",), ("b",), ("c",)], [0.1, 0.2, 0.3, 0.4, 0.5]
        ),
        # a feature named like the old synthetic column, in an inconsistent table
        DecisionSystem.from_rows(
            ("x", "d"), [("a", "b"), ("a", "b"), ("c", "b")], [1.25, 2.5, 0.3]
        ),
        # no features at all: every row is one class
        DecisionSystem.from_rows((), [(), (), ()], [0.1, 0.2, 0.2]),
        # two objects
        DecisionSystem.from_rows(("x", "y"), [("a", "b"), ("a", "c")], [0.1, -0.7]),
        # no row agrees with another anywhere: every vc is 0 at epsilon 1/2
        DecisionSystem.from_rows(("x",), [("a",), ("b",), ("c",)], [0.1, 0.2, 0.3]),
        # equal losses around each expert: tied winners
        DecisionSystem.from_rows(
            ("x", "y"), [("a", "b"), ("a", "c"), ("a", "e"), ("a", "f")], [5, 4, 6, 5]
        ),
        SUM_PANEL,
    ]
    return out


# Trial 0 averages 0.1, 0.2 and 0.3 at equal VC. Since Python 3.12 sum()
# adds floats with compensation, so a running total differs in the last digit.
SUM_PANEL = DecisionSystem.from_rows(
    ("x", "y"), [("a", "b"), ("a", "p"), ("a", "q"), ("a", "r")], [1.0, 0.1, 0.2, 0.3]
)


def oracle(system, config):
    """The trials and ledger by the trial-by-trial route."""
    trials = [
        run_trial(
            system.without_object(o), system.row(o), system.decisions[o], config, i
        )
        for i, o in enumerate(system.objects)
    ]
    return trials, count_mistakes(trials)


def test_tables_cover_every_case():
    systems = tables()
    grounds = [loo_ground_sizes(s) for s in systems]
    assert any(g == [len(s.features)] * len(g) for s, g in zip(systems, grounds))
    assert any(g == [len(s.features) + 1] * len(g) for s, g in zip(systems, grounds))
    assert any(len(set(g)) == 2 for g in grounds)
    assert any(not s.features for s in systems)
    assert any(len(s.objects) == 2 for s in systems)
    assert any("d" in s.features for s in systems)
    assert any(d != int(d) for s in systems for d in s.decisions.values())


@pytest.mark.parametrize("system", tables())
def test_ground_sizes_match_each_rest_table(system):
    assert loo_ground_sizes(system) == [
        ground_size(system.without_object(o)) for o in system.objects
    ]


@pytest.mark.parametrize("tie", ["random", "lowest_object_id"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("epsilon", EPSILONS, ids=str)
def test_session_matches_run_trial_and_count_mistakes(epsilon, mode, tie):
    for delta in (1, 3):
        config = PredictionConfig(
            epsilon=epsilon, delta=delta, mode=mode, tie_strategy=tie, rng_seed=5
        )
        for system in tables():
            session = leave_one_out(system, config)
            trials, ledger = oracle(system, config)
            assert len(session) == len(trials)
            for i, want in enumerate(trials):
                assert session[i] == want
                assert repr(session[i]) == repr(want)
            assert count_mistakes(session) == ledger


def test_the_tables_reach_ties_and_all_zero_weights():
    ties = 0
    degenerate = False
    for epsilon in EPSILONS:
        for mode in MODES:
            config = PredictionConfig(epsilon=epsilon, delta=3, mode=mode)
            for system in tables():
                for trial in oracle(system, config)[0]:
                    degenerate |= trial.weights_degenerate
                    rewarded = list(compress(trial.losses, trial.rewards))
                    ties += rewarded.count(min(rewarded, default=None)) > 1
    assert degenerate
    assert ties


def test_weighted_mean_is_a_sum_of_products_not_a_running_total():
    config = PredictionConfig(epsilon=Fraction(1), mode="exact")
    trial = leave_one_out(SUM_PANEL, config)[0]
    assert trial.forecasts == [0.1, 0.2, 0.3]
    assert trial.vcs == [1, 1, 1]
    products = [0.1, 0.2, 0.3]
    assert repr(trial.weighted) == repr(sum(products) / 3)
    running = 0.0
    for p in products:
        running += p
    if sys.version_info >= (3, 12):
        assert running != sum(products)


def test_session_builds_no_rest_table_trial_or_agent(monkeypatch):
    system = tables()[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("built per trial")

    monkeypatch.setattr(predict, "run_trial", forbidden)
    monkeypatch.setattr(DecisionSystem, "__post_init__", forbidden)
    monkeypatch.setattr(DecisionSystem, "without_object", forbidden)
    assert len(leave_one_out(system)) == len(system.objects)


# Rows 0 and 1 agree on every feature but not on the decision: removing
# either leaves a consistent table (ground 2), removing 2 or 3 keeps the
# clash (ground 3), so one session meets both ground sizes.
MIXED_GROUNDS = DecisionSystem.from_rows(
    ("f1", "f2"), [("x", "a"), ("x", "a"), ("y", "b"), ("z", "b")], [1, 2, 3, 4]
)


def test_session_computes_each_vc_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return vc_count(*args)

    monkeypatch.setattr(predict, "vc_count", counted)
    grounds = loo_ground_sizes(MIXED_GROUNDS)
    assert grounds == [2, 2, 3, 3]
    trials = leave_one_out(MIXED_GROUNDS)
    pairs = {(g, t) for g, trial in zip(grounds, trials) for t in trial.touching_sizes}
    assert len(calls) == len(set(calls)) == len(pairs) == 4
    # the memo lives in one call: the next session computes its VCs afresh
    leave_one_out(MIXED_GROUNDS)
    assert len(calls) == 8


def wide_table():
    """256 features, so the session counts in two-byte lanes: rows that
    differ from one base row in a few cells, agreeing on up to 256 features,
    and a copied row with another decision, so that some rest tables are
    inconsistent (ground 257)."""
    rng = random.Random(256)
    base = [rng.choice("ab") for _ in range(256)]
    rows = []
    for flips in (0, 1, 2, 5, 40, 255):
        row = list(base)
        for j in rng.sample(range(256), flips):
            row[j] = "c"
        rows.append(tuple(row))
    rows.append(rows[1])
    return DecisionSystem.from_rows(
        tuple(f"f{j}" for j in range(256)), rows, [1.5, 2, 0.25, 3, 3, 7, 4]
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(1)], ids=str)
def test_session_matches_run_trial_on_a_256_feature_table(epsilon, mode):
    system = wide_table()
    assert {256, 257} <= set(loo_ground_sizes(system))
    config = PredictionConfig(epsilon=epsilon, delta=3, mode=mode)
    session = leave_one_out(system, config)
    trials, ledger = oracle(system, config)
    assert max(max(t.touching_sizes) for t in trials) == 256
    assert repr(session) == repr(trials)
    assert count_mistakes(session) == ledger


def test_session_needs_two_objects():
    with pytest.raises(DomainError, match="at least two objects"):
        leave_one_out(DecisionSystem.from_rows(("x",), [("a",)], [1.0]))


LOO_TABLE = (
    "x,y,dec,z\n"
    "a,b,0.1,p\n"
    "a,b,0.2,p\n"
    "a,c,0.3,q\n"
    "b,c,1.5,q\n"
    "b,c,1.5,q\n"
    "a,c,-2.25,p\n"
    "b,b,0.7,q\n"
    "a,b,0.2,q\n"
)


def old_route_report(path, config, decision):
    """The evaluate-loo report, JSON and CSV text, built with run_trial per
    holdout and count_mistakes, as the command built it before the session."""
    with open(path, newline="", encoding="utf-8") as handle:
        system = load_decision_system(handle, decision_column=decision)
    trials, ledger = oracle(system, config)
    digests = [
        {
            "trial": index,
            "holdout": o,
            "omega": system.row(o),
            "expert": t.expert,
            "vc_star": t.vc_star,
            "per_object": [
                {
                    "id": a,
                    "touching_size": size,
                    "vc": vc,
                    "radius": r,
                    "forecast": f,
                    "reward": w,
                    "loss": loss,
                }
                for a, size, vc, r, f, w, loss in zip(
                    t.objects, t.touching_sizes, t.vcs, t.radii, t.forecasts, t.rewards, t.losses
                )
            ],
            "winner": list(t.winner) if t.winner is not None else None,
            "weighted": t.weighted,
            "weights_degenerate": t.weights_degenerate,
            "regret": t.regret,
        }
        for index, (o, t) in enumerate(zip(system.objects, trials))
    ]
    regrets = [t.regret for t in trials]
    report = {
        "config": {
            "epsilon": str(config.epsilon),
            "delta": config.delta,
            "mode": config.mode,
            "tie": config.tie_strategy,
            "seed": config.rng_seed,
            "eta": config.eta,
            "tolerance": config.radius_tolerance,
            "decision": decision,
        },
        "object_count": len(system.objects),
        "trials": digests,
        "approx_predicted": all(ledger.covered),
        "mistakes": {
            "per_object": {str(o): n for o, n in ledger.per_object_mistakes.items()},
            "per_trial": list(ledger.per_trial),
            "total": ledger.total,
            "covered_trials": sum(ledger.covered),
            "mistake_free_objects": sorted(ledger.mistake_free_objects),
        },
        "regret_stats": {"mean": fmean(regrets), "max": max(regrets)},
    }
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["trial", "holdout", "expert", "vc_star", "winner_id",
                     "winner_forecast", "weighted", "regret", "mistakes"])
    for digest, misses in zip(digests, ledger.per_trial):
        winner = digest["winner"] or [None, None]
        writer.writerow([digest["trial"], digest["holdout"], digest["expert"],
                         digest["vc_star"], winner[0], winner[1],
                         digest["weighted"], digest["regret"], misses])
    return json.dumps(report, indent=2, allow_nan=False) + "\n", out.getvalue()


@pytest.mark.parametrize(
    "flags, config",
    [
        ([], PredictionConfig()),
        (
            ["--epsilon", "1/2", "--delta", "2", "--mode", "at_least", "--seed", "3"],
            PredictionConfig(epsilon=Fraction(1, 2), delta=2, mode="at_least", rng_seed=3),
        ),
        (
            ["--epsilon", "2/3", "--delta", "3", "--tie", "lowest"],
            PredictionConfig(epsilon=Fraction(2, 3), delta=3, tie_strategy="lowest"),
        ),
    ],
)
def test_evaluate_loo_prints_the_old_route_bytes(capsys, tmp_path, flags, config):
    path = tmp_path / "real.csv"
    path.write_text(LOO_TABLE, encoding="utf-8")
    want_json, want_csv = old_route_report(str(path), config, "dec")
    argv = ["evaluate-loo", str(path), "--decision", "dec", *flags]
    assert main(argv) == 0
    assert capsys.readouterr().out == want_json
    assert main(argv + ["--output", "csv"]) == 0
    assert capsys.readouterr().out == want_csv
