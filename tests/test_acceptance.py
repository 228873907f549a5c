"""Acceptance suite: one verdict line per shipped guarantee.

Each test records ``ACCEPTANCE <n> <label>: PASS`` (or FAIL); the lines
are echoed in the terminal summary after the run, so the transcript keeps
a per-criterion record even while pytest captures output. Budgeted tests
also fail when they blow their wall-time allowance.
"""

import contextlib
import functools
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

import conftest

from mereovc.cli import main
from mereovc.laws import exhaustive_case, random_universe, run_law_suite, sampled_case
from mereovc.lukasiewicz import (
    Connective,
    check_t_norm,
    formula_identities,
    propagate,
    t_norm,
)
from mereovc.mereology import WeightedUniverse
from mereovc.mistakes import localize, round_bound
from mereovc.predict import (
    PredictionConfig,
    TrialResult,
    radius,
    score_trial,
)
from mereovc.syllogistic import (
    Mood,
    Premiss,
    enumerate_moods,
    evaluate_premiss,
    is_valid_mood,
)
from oracle import (
    ComponentFamily,
    component_size_bound,
    vc_dimension,
    vc_dimension_bruteforce,
)


def _verdict(number: int, label: str, ok: bool) -> None:
    line = f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_VERDICTS.append(line)


def criterion(number: int, label: str, seconds: float | None = None):
    """Print exactly one verdict line per test, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                _verdict(number, label, False)
                raise
            elapsed = time.perf_counter() - start
            if seconds is not None and elapsed > seconds:
                _verdict(number, label, False)
                raise AssertionError(
                    f"criterion {number} took {elapsed:.2f}s, budget {seconds}s")
            _verdict(number, label, True)

        return wrapper

    return deco


# The classical two-premiss catalog, keyed by name, written out here as an
# oracle independent of the package's own table. Tuples read: quantifier
# and term pattern of each premiss, then the conclusion's quantifier (the
# conclusion pattern is always "ab").
CATALOG = {
    "Barbara": ("A", "mb", "A", "am", "A"),
    "Barbari": ("A", "mb", "A", "am", "I"),
    "Darii": ("A", "mb", "I", "am", "I"),
    "Celarent": ("E", "mb", "A", "am", "E"),
    "Celaront": ("E", "mb", "A", "am", "O"),
    "Ferio": ("E", "mb", "I", "am", "O"),
    "Cesare": ("E", "bm", "A", "am", "E"),
    "Camestres": ("A", "bm", "E", "am", "E"),
    "Cesaro": ("E", "bm", "A", "am", "O"),
    "Camestrop": ("A", "bm", "E", "am", "O"),
    "Festino": ("E", "bm", "I", "am", "O"),
    "Baroco": ("A", "bm", "O", "am", "O"),
    "Darapti": ("A", "mb", "A", "ma", "I"),
    "Datisi": ("A", "mb", "I", "ma", "I"),
    "Disamis": ("I", "mb", "A", "ma", "I"),
    "Felapton": ("E", "mb", "A", "ma", "O"),
    "Bocardo": ("O", "mb", "A", "ma", "O"),
    "Ferison": ("E", "mb", "I", "ma", "O"),
    "Bamalip": ("A", "bm", "A", "ma", "I"),
    "Dimatis": ("I", "bm", "A", "ma", "I"),
    "Calemes": ("A", "bm", "E", "ma", "E"),
    "Camelop": ("A", "bm", "E", "ma", "O"),
    "Fesapo": ("E", "bm", "A", "ma", "O"),
    "Fresison": ("E", "bm", "I", "ma", "O"),
}


def _signature(entry):
    p1, p2 = entry.mood.premiss1, entry.mood.premiss2
    return (
        p1.quantifier, p1.subject + p1.predicate,
        p2.quantifier, p2.subject + p2.predicate,
        entry.mood.conclusion.quantifier,
    )


@criterion(1, "syllogistic catalog", seconds=60)
def test_syllogistic_catalog():
    entries = enumerate_moods()
    assert len(entries) == 256

    valid = {e.name: _signature(e) for e in entries if e.valid}
    assert len([e for e in entries if e.valid]) == 24
    assert valid == CATALOG
    assert all(e.name is None for e in entries if not e.valid)

    # the two tempting strengthenings are refuted, with witnesses
    for q in ("A", "E"):
        mood = Mood(Premiss(q, "b", "m"), Premiss(q, "a", "m"), Premiss("I", "a", "b"))
        verdict = is_valid_mood(mood)
        assert not verdict.valid
        model = verdict.countermodel
        assert model is not None
        assert evaluate_premiss(mood.premiss1, model)
        assert evaluate_premiss(mood.premiss2, model)
        assert not evaluate_premiss(mood.conclusion, model)


@criterion(2, "algebra law suite", seconds=30)
def test_algebra_law_suite():
    rng = random.Random(2)
    cases = [exhaustive_case(WeightedUniverse.uniform("abcd"))]
    for _ in range(1000):
        cases.append(sampled_case(random_universe(rng, max_atoms=10), rng))
    reports = run_law_suite(cases)

    names = {r.name for r in reports}
    assert {f"m{i}" for i in range(1, 15)} <= names
    assert {f"implication law {i}" for i in range(1, 8)} <= names
    assert {"class requirement 1", "class requirement 2", "component axiom"} <= names
    bad = [r.name for r in reports if not r.ok]
    assert not bad, f"law failures: {bad}"
    assert all(r.cases > 0 for r in reports)


def _random_family(rng, epsilon, mode="exact"):
    ground = frozenset(f"a{i}" for i in range(rng.randint(1, 8)))
    touching = frozenset(a for a in ground if rng.random() < 0.5)
    return ComponentFamily(ground, touching, epsilon, mode)


@criterion(3, "vc extremes", seconds=10)
def test_vc_extremes():
    rng = random.Random(3)
    for _ in range(200):
        family = _random_family(rng, Fraction(1))
        assert vc_dimension(family) == len(family.touching)
        zero = ComponentFamily(family.ground, family.touching, Fraction(0), "exact")
        assert vc_dimension(zero) == len(family.ground - family.touching)


@criterion(4, "vc oracle equivalence", seconds=60)
def test_vc_oracle_equivalence():
    rng = random.Random(4)
    levels = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    for _ in range(200):
        for epsilon in levels:
            family = _random_family(rng, epsilon)
            vc = vc_dimension(family)
            assert vc == vc_dimension_bruteforce(family)
            bound = component_size_bound(family)
            assert bound is not None
            assert vc <= bound
            atoms = sorted(family.ground)
            for mask in range(1, 1 << len(atoms)):
                member = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
                if family.admits(member):
                    assert len(member) <= bound


@criterion(5, "protocol fixture")
def test_protocol_fixture():
    config = PredictionConfig(delta=4)
    panel = TrialResult(objects=(0, 1), touching_sizes=[1, 1], vcs=[2, 1],
                        radii=[radius(2, 2, 4), radius(1, 2, 4)],
                        forecasts=[4.0, 7.0], vc_star=2)
    trial = score_trial(panel, 5.0, config)

    assert trial.radii == [4, 2]
    assert trial.rewards == [1, 1]
    assert trial.winner == (0, 4.0)
    assert abs(trial.weighted - 5.0) < 1e-9
    assert abs(trial.regret - (-1.0)) < 1e-9


def _twin_table() -> str:
    lines = ["f1,f2,d"]
    for i in range(10):
        row = f"{i},{chr(ord('a') + i)},{i}"
        lines += [row, row]
    return "\n".join(lines) + "\n"


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@criterion(6, "mistake bound", seconds=10)
def test_mistake_bound():
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "twins.csv"
        path.write_text(_twin_table(), encoding="utf-8")
        code, out = _run_cli(
            ["evaluate-loo", str(path), "--epsilon", "1", "--delta", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["object_count"] == 20

    reward_sums = []
    for trial in report["trials"]:
        rewards = [row["reward"] for row in trial["per_object"]]
        reward_sums.append(sum(rewards))
        if any(rewards):
            mistakes = sum(1 for r in rewards if r == 0)
            assert mistakes <= len(rewards) - 1
    assert report["approx_predicted"] == (min(reward_sums) >= 1)
    assert report["approx_predicted"] is True
    assert report["mistakes"]["per_trial"] == [
        sum(1 for row in t["per_object"] if row["reward"] == 0)
        for t in report["trials"]
    ]


def _panel(rows, vc_star=1):
    """Agents 0, 1, ... with VC 1 and the (forecast, radius) of each row."""
    forecasts, radii = map(list, zip(*rows))
    ones = [1] * len(rows)
    return TrialResult(tuple(range(len(rows))), ones, ones, radii, forecasts, vc_star)


@criterion(7, "localization")
def test_localization():
    config = PredictionConfig(eta=0.5, radius_tolerance=1e-6)
    trial = _panel([(4.0, 2), (5.0, 2), (7.0, 2)])
    result = localize(None, trial, 5.4, config)
    values = {trial.forecasts[i] for i in result.localization}
    assert values == {5.0}
    low, high = result.interval
    assert low <= 5.4 <= high

    rng = random.Random(7)
    for _ in range(100):
        rows = [(rng.uniform(0, 10), rng.randint(0, 4))
                for _ in range(rng.randint(2, 6))]
        eta = rng.choice([0.25, 0.5, 0.75])
        config = PredictionConfig(eta=eta, radius_tolerance=1e-6, rng_seed=rng.randint(0, 99))
        outcome = localize(None, _panel(rows), rng.uniform(0, 10), config)
        chain = [state.survivors for state in outcome.history]
        assert all(later <= earlier for earlier, later in zip(chain, chain[1:]))
        top = max(r for _, r in rows)
        assert len(outcome.history) <= round_bound(top, eta, 1e-6) + 1


@criterion(8, "t-norm suite")
def test_t_norm_suite():
    step = Fraction(1, 64)
    assert check_t_norm(t_norm, step).ok
    reports = formula_identities(step)
    bad = [r.name for r in reports if not r.ok]
    assert not bad, f"identity failures: {bad}"

    closed = {
        Connective.SUM: max,
        Connective.STRONG_SUM: lambda r, s: min(1.0, r + s),
        Connective.PRODUCT: min,
        Connective.STRONG_PRODUCT: lambda r, s: max(0.0, r + s - 1.0),
        Connective.IMPLICATION: lambda r, s: max(0.0, r + s - 1.0),
    }
    grid = [i / 16 for i in range(17)]
    for r in grid:
        assert abs(propagate(r, None, Connective.NEGATION) - (1.0 - r)) < 1e-9
        for s in grid:
            for connective, form in closed.items():
                assert abs(propagate(r, s, connective) - form(r, s)) < 1e-9


TIES = "f1,f2,d\np,x,4\np,x,4\nq,y,4\nq,y,4\n"


def _scrubbed(report):
    clean = json.loads(json.dumps(report))
    clean["config"]["seed"] = None
    for trial in clean["trials"]:
        trial["winner"] = None
    return clean


@criterion(9, "determinism")
def test_determinism():
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "ties.csv"
        path.write_text(TIES, encoding="utf-8")

        code, first = _run_cli(["evaluate-loo", str(path), "--seed", "7"])
        assert code == 0
        _, second = _run_cli(["evaluate-loo", str(path), "--seed", "7"])
        assert first == second

        outputs = []
        for seed in range(8):
            _, out = _run_cli(["evaluate-loo", str(path), "--seed", str(seed)])
            outputs.append(json.loads(out))

    baseline = _scrubbed(outputs[0])
    for report in outputs[1:]:
        assert _scrubbed(report) == baseline
    winner_rows = [
        tuple(tuple(t["winner"]) for t in report["trials"]) for report in outputs
    ]
    assert len(set(winner_rows)) > 1
