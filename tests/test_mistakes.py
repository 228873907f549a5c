import math
import random

import pytest

from conftest import load_csv
from mereovc.errors import DomainError
from mereovc.mistakes import count_mistakes, localize, round_bound
from mereovc.predict import PredictionConfig, TrialResult, score_trial


def panel(*rows, expert=None, **kwargs):
    objects, vcs, radii, forecasts = map(list, zip(*rows)) if rows else ([], [], [], [])
    trial = TrialResult(tuple(objects), vcs, vcs, radii, forecasts, max(vcs, default=0), **kwargs)
    return trial if expert is None else score_trial(trial, expert)


class TestMistakeLedger:
    def test_counts_by_object_and_trial(self):
        # trial 1 rewards only object 1, trial 2 rewards both
        t1 = panel((1, 1, 2, 4.0), (2, 1, 0, 9.0), expert=5.0)
        t2 = panel((1, 1, 2, 4.0), (2, 1, 2, 5.0), expert=5.0)
        ledger = count_mistakes([t1, t2])
        assert ledger.per_object_mistakes == {1: 0, 2: 1}
        assert ledger.per_trial == (1, 0)
        assert ledger.total == 1
        assert ledger.covered == (True, True)
        assert ledger.mistake_free_objects == {1}

    def test_all_rewarded(self):
        t = panel((1, 1, 3, 4.0), (2, 1, 3, 6.0), expert=5.0)
        ledger = count_mistakes([t])
        assert ledger.total == 0
        assert ledger.mistake_free_objects == {1, 2}

    def test_uncovered_trial(self):
        t = panel((1, 1, 0, 4.0), expert=9.0)
        ledger = count_mistakes([t])
        assert ledger.covered == (False,)
        assert ledger.mistake_free_objects == frozenset()

    def test_covered_trials_bound_mistakes(self):
        rng = random.Random(2)
        trials = []
        for _ in range(20):
            rows = [(i, 1, rng.randint(0, 3), float(rng.randint(3, 7)))
                     for i in range(rng.randint(1, 5))]
            trials.append(panel(*rows, expert=5.0))
        ledger = count_mistakes(trials)
        for trial, mist, covered in zip(trials, ledger.per_trial, ledger.covered):
            if covered:
                assert mist <= len(trial.forecasts) - 1

    def test_needs_scored_trials(self):
        with pytest.raises(DomainError):
            count_mistakes([])
        with pytest.raises(DomainError):
            count_mistakes([panel((1, 1, 1, 4.0))])


class TestLocalize:
    def fixture_trial(self):
        return panel((0, 1, 2, 4.0), (1, 1, 2, 5.0), (2, 1, 2, 7.0))

    def test_hand_traced_fixture(self):
        cfg = PredictionConfig(eta=0.5)
        history, localization, interval = localize(None, self.fixture_trial(), 5.4, cfg)
        assert localization == {1}
        lo, hi = interval
        assert lo == pytest.approx(4.5) and hi == pytest.approx(5.5)
        assert lo <= 5.4 <= hi
        chain = [s.survivors for s in history]
        assert chain[0] == {0, 1, 2}
        assert chain[1] == {1}
        assert chain[-1] == frozenset()
        # distinct non-empty survivor sets, in order
        seen = []
        for s in chain:
            if s and (not seen or seen[-1] != s):
                seen.append(s)
        assert seen == [{0, 1, 2}, {1}]

    def test_immediate_emptiness_keeps_initial_set(self):
        history, localization, interval = localize(None, self.fixture_trial(), 50.0)
        assert [s.survivors for s in history] == [frozenset()]
        assert localization == {0, 1, 2}
        assert interval == (2.0, 9.0)

    def test_exact_match_survivor_terminates_by_tolerance(self):
        cfg = PredictionConfig(eta=0.5, radius_tolerance=1e-3)
        history, localization, _ = localize(None, self.fixture_trial(), 5.0, cfg)
        assert localization == {1}
        assert history[-1].survivors == {1}
        assert all(s.survivors for s in history)

    def test_survivor_chain_is_monotone(self):
        rng = random.Random(9)
        for _ in range(60):
            rows = [(i, 1, rng.randint(0, 4), float(rng.randint(0, 10)))
                     for i in range(rng.randint(1, 6))]
            expert = rng.uniform(-2.0, 12.0)
            cfg = PredictionConfig(eta=rng.choice([0.3, 0.5, 0.8]))
            history, localization, _ = localize(None, panel(*rows), expert, cfg)
            sets = [s.survivors for s in history]
            for earlier, later in zip(sets, sets[1:]):
                assert later <= earlier
            assert localization

    def test_round_numbering_and_bound(self):
        rng = random.Random(13)
        for _ in range(40):
            rows = [(i, 1, rng.randint(0, 4), float(rng.randint(0, 10)))
                     for i in range(rng.randint(1, 5))]
            eta = rng.choice([0.3, 0.5, 0.7])
            cfg = PredictionConfig(eta=eta)
            trial = panel(*rows)
            history, _, _ = localize(None, trial, rng.uniform(0, 10), cfg)
            assert [s.round for s in history] == list(range(len(history)))
            top = max(trial.radii)
            bound = round_bound(top, eta, cfg.radius_tolerance)
            assert len(history) <= bound + 1

    def test_validation(self):
        with pytest.raises(DomainError):
            localize(None, panel(), 5.0)
        system = load_csv("f,d\nx,4\n")
        with pytest.raises(DomainError, match="not in the system"):
            localize(system, panel((9, 1, 1, 4.0)), 5.0)


class TestRoundBound:
    def test_zero_when_already_small(self):
        assert round_bound(1e-9, 0.5, 1e-6) == 0

    def test_matches_logarithm(self):
        assert round_bound(2.0, 0.5, 1e-6) == math.ceil(math.log(1e-6 / 2.0) / math.log(0.5))
