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


# The session counts touching sizes in byte lanes that hold the feature
# count F (one byte below 256, two from 256 on), and reads each agent's
# key, touching size * D + decision code, off lanes that hold (F + 1) * D.
# The tables below put the keys on either side of 255 through D at F = 4
# and at F = 255, and the count lanes on either side of their edge through
# F at D = 1, with signed zeros, one decision, copied rows with other
# decisions (ground F + 1), tied winners and all-VC-0 trials.


def key_table(features, decisions, seed, n, copies=3):
    """n rows, each a base row with a random set of its cells set to "c",
    so agreement counts span 0..features; the last copies rows copy the
    first ones, under another decision where the decisions, taken in turn,
    give one."""
    rng = random.Random(seed)
    base = [rng.choice("ab") for _ in range(features)]
    rows = []
    for _ in range(n):
        row = list(base)
        for j in rng.sample(range(features), rng.randint(0, features)):
            row[j] = "c"
        rows.append(tuple(row))
    for i in range(copies):
        rows[-1 - i] = rows[i]
    values = [decisions[i % len(decisions)] for i in range(len(rows))]
    return DecisionSystem.from_rows(tuple(f"f{j}" for j in range(features)), rows, values)


def codes_of(decisions):
    texts = list(dict.fromkeys(map(repr, decisions)))
    return [texts.index(repr(d)) for d in decisions], len(texts)


KEY_TABLES = {
    "F4_D51_keys_below_256": key_table(4, [i / 4 for i in range(51)], 1, 60),
    "F4_D52_keys_above_255": key_table(4, [i / 4 for i in range(52)], 2, 60),
    "F255_D1_one_byte_lanes": key_table(255, [1.5], 3, 12),
    "F256_D1_two_byte_lanes": key_table(256, [1.5], 4, 12),
    "F255_D3_keys_above_255": key_table(255, [0.0, -0.0, 2.5], 5, 12),
    "F3_signed_zeros": key_table(3, [0.0, -0.0, 0.5, -0.0, 1.0], 6, 14, copies=4),
    "F2_one_decision": key_table(2, [2.0], 7, 8),
    "F1_all_vc_0": DecisionSystem.from_rows(
        ("x",), [("a",), ("b",), ("c",), ("d",)], [0.0, -0.0, 0.5, 0.5]),
}


def test_key_tables_straddle_the_edges():
    for name in ("F4_D51_keys_below_256", "F4_D52_keys_above_255"):
        system = KEY_TABLES[name]
        assert len(system.features) + 1 == 5 and len(set(system.decisions.values())) in (51, 52)
    for name, system in KEY_TABLES.items():
        top = max(max(t.keys) for t in predict._session(system, PredictionConfig()))
        # with D = 1 a key is the touching size, which tops 255 only at F = 256
        assert (top > 255) == name.endswith(("_above_255", "_two_byte_lanes")), name
    # some trials are scored once per distinct key, others agent by agent
    grouped = {t.pick is not None for system in KEY_TABLES.values()
               for t in predict._session(system, PredictionConfig())}
    assert grouped == {True, False}
    grounds = {name: set(loo_ground_sizes(system)) for name, system in KEY_TABLES.items()}
    for name in ("F4_D52_keys_above_255", "F255_D3_keys_above_255"):
        assert len(KEY_TABLES[name].features) + 1 in grounds[name]
    assert len({repr(d) for d in KEY_TABLES["F2_one_decision"].decisions.values()}) == 1


@pytest.mark.parametrize("tie", ["random", "lowest_object_id"])
@pytest.mark.parametrize("name", list(KEY_TABLES))
def test_keyed_session_matches_the_rest_table_oracle(name, tie):
    system = KEY_TABLES[name]
    objects = system.objects
    rows = [system.rows[o] for o in objects]
    decisions = [system.decisions[o] for o in objects]
    codes, stride = codes_of(decisions)
    for epsilon in (Fraction(1, 2), Fraction(1)):
        config = PredictionConfig(epsilon=epsilon, delta=3, tie_strategy=tie, rng_seed=7)
        keyed = list(predict._session(system, config))
        trials, ledger = oracle(system, config)
        for i, (got, want) in enumerate(zip(keyed, trials)):
            rest = rows[:i] + rows[i + 1:]
            sizes = predict._agreement_counts(rest, rows[i])
            assert got.keys == [s * stride + c for s, c in zip(sizes, codes[:i] + codes[i + 1:])]
            assert sizes == want.touching_sizes
        assert repr(list(map(predict._result, keyed))) == repr(trials)
        assert repr(leave_one_out(system, config)) == repr(trials)
        assert count_mistakes(predict._session(system, config)) == ledger


def test_key_tables_reach_ties_zero_weights_and_both_zero_signs():
    ties = degenerate = 0
    for system in KEY_TABLES.values():
        for epsilon in (Fraction(1, 2), Fraction(1)):
            for trial in oracle(system, PredictionConfig(epsilon=epsilon, delta=3))[0]:
                degenerate += trial.weights_degenerate
                rewarded = list(compress(trial.losses, trial.rewards))
                ties += rewarded.count(min(rewarded, default=None)) > 1
    assert ties and degenerate
    zeros = [repr(d) for d in KEY_TABLES["F3_signed_zeros"].decisions.values()]
    assert "0.0" in zeros and "-0.0" in zeros


def by_hand(trial, ground, config):
    """A scored trial's VCs, radii, rewards, losses, winner, weighted value and
    regret, recomputed agent by agent from its touching sizes and forecasts
    as the protocol states them, sharing no code with the scorer."""
    vcs = [vc_count(ground, size, config.epsilon, config.mode) for size in trial.touching_sizes]
    vc_star = max(vcs)
    radii = [0 if vc_star == 0 else config.delta * vc // vc_star for vc in vcs]
    losses = [abs(trial.expert - f) for f in trial.forecasts]
    rewards = [1 if loss <= r else 0 for loss, r in zip(losses, radii)]
    rewarded = [(o, loss, f) for o, loss, f, w in
                zip(trial.objects, losses, trial.forecasts, rewards) if w]
    winner = None
    if rewarded:
        best = min(loss for _, loss, _ in rewarded)
        tied = sorted([c for c in rewarded if c[1] == best], key=lambda c: c[0])
        chosen = tied[0]
        if len(tied) > 1 and config.tie_strategy == "random":
            ids = ",".join(str(o) for o in sorted(o for o, _, _ in tied))
            chosen = random.Random(f"{config.rng_seed}:{trial.trial_index}:{ids}").choice(tied)
        winner = (chosen[0], chosen[2])
    total = sum(vcs)
    if total:
        weighted = sum([f * vc for f, vc in zip(trial.forecasts, vcs)]) / total
    else:
        weighted = fmean(trial.forecasts)
    return vcs, vc_star, radii, rewards, losses, winner, weighted, total == 0, (
        abs(trial.expert - weighted) - min(losses))


@pytest.mark.parametrize("tie", ["random", "lowest_object_id"])
def test_sessions_score_each_agent_as_the_protocol_states(tie):
    """Whether a trial is scored once per distinct key or agent by agent,
    every agent gets what the protocol gives it on its own."""
    grouped = per_agent = 0
    for system in [*tables(), *KEY_TABLES.values()]:
        for epsilon in (Fraction(1, 2), Fraction(1)):
            config = PredictionConfig(epsilon=epsilon, delta=3, tie_strategy=tie, rng_seed=7)
            keyed = list(predict._session(system, config))
            for trial, ground, item in zip(leave_one_out(system, config),
                                           loo_ground_sizes(system), keyed):
                grouped += item.pick is not None
                per_agent += item.pick is None
                got = (trial.vcs, trial.vc_star, trial.radii, trial.rewards, trial.losses,
                       trial.winner, trial.weighted, trial.weights_degenerate, trial.regret)
                assert repr(got) == repr(by_hand(trial, ground, config))
    assert grouped and per_agent


def test_a_nan_decision_scores_as_agent_by_agent():
    """Only the library route takes a nan decision; the command line refuses
    it. A nan forecast makes its loss nan, which no radius rewards, and the
    weighted prediction nan, so every trial's regret is nan too. Scored
    once per distinct key, the trials keep the agent-by-agent columns."""
    nan = float("nan")
    system = key_table(3, [0.5, nan, 1.0], 8, 30)
    assert repr(system.decisions[system.objects[1]]) == "nan"
    config = PredictionConfig(delta=3)
    assert all(t.pick is not None for t in predict._session(system, config))
    trials = leave_one_out(system, config)
    for trial, ground in zip(trials, loo_ground_sizes(system)):
        got = (trial.vcs, trial.vc_star, trial.radii, trial.rewards, trial.losses,
               trial.winner, trial.weighted, trial.weights_degenerate, trial.regret)
        assert repr(got) == repr(by_hand(trial, ground, config))
        assert repr(trial.regret) == "nan"
    assert repr(trials) == repr(oracle(system, config)[0])
    assert count_mistakes(predict._session(system, config)) == count_mistakes(trials)


def test_a_session_scores_agent_by_agent_after_a_trial_with_too_many_keys():
    """A session counts each trial's distinct keys until one trial has more
    than 3/8 of its agents', then scores every later trial agent by agent,
    including trials whose keys would have repeated enough."""
    system = key_table(2, [0.0, 0.5], 38, 16)
    config = PredictionConfig(delta=3)
    keyed = list(predict._session(system, config))
    grouped = [t.pick is not None for t in keyed]
    first = grouped.index(False)
    assert first > 0 and not any(grouped[first:])
    assert len(set(keyed[first].keys)) > 0.375 * len(keyed[first].keys)
    assert any(len(set(t.keys)) <= 0.375 * len(t.keys) for t in keyed[first + 1:])
    for tie in ("random", "lowest_object_id"):
        config = PredictionConfig(delta=3, tie_strategy=tie)
        assert repr(leave_one_out(system, config)) == repr(oracle(system, config)[0])
