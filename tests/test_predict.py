import random
from fractions import Fraction

import pytest

from conftest import load_csv
from mereovc.errors import DegenerateWeightsError, DomainError
from mereovc.predict import (
    AgentForecast,
    PredictionConfig,
    TrialResult,
    approx_predicted,
    build_trial,
    forecast,
    max_rewarded_loss,
    radius,
    regret,
    reward,
    run_trial,
    score_trial,
    select_winner,
    weighted_prediction,
)
from mereovc.tables import NewObject


def panel(*rows, vc_star=None, expert=None, **kwargs):
    """Build a TrialResult from (object, vc, radius, forecast) tuples."""
    forecasts = tuple(
        AgentForecast(object=o, touching_size=vc, vc=vc, radius=r, forecast=f)
        for o, vc, r, f in rows
    )
    star = vc_star if vc_star is not None else max((f.vc for f in forecasts), default=0)
    omega = NewObject.from_mapping({"f": "x"})
    return TrialResult(omega=omega, forecasts=forecasts, vc_star=star, **kwargs)


class TestRadius:
    def test_fixture_values(self):
        assert radius(2, 2, 4) == 4
        assert radius(1, 3, 4) == 1
        assert radius(0, 3, 4) == 0
        assert radius(5, 0, 4) == 0

    def test_vc_cannot_exceed_star(self):
        with pytest.raises(DomainError):
            radius(3, 2, 4)

    def test_monotone_and_capped(self):
        for vc_star_ in range(1, 6):
            radii = [radius(v, vc_star_, 7) for v in range(vc_star_ + 1)]
            assert radii == sorted(radii)
            assert radii[-1] == 7


class TestForecastAndReward:
    def test_default_policy_is_the_decision(self):
        s = load_csv("f,d\nx,4\n")
        assert forecast(s, 0, 5) == 4.0
        assert forecast(s, 0, 0) == 4.0

    def test_policy_must_stay_in_neighborhood(self):
        s = load_csv("f,d\nx,4\n")
        assert forecast(s, 0, 1, lambda sys, o, r: 4.5) == 4.5
        with pytest.raises(DomainError):
            forecast(s, 0, 1, lambda sys, o, r: 5.5)

    def test_reward_is_a_closed_ball(self):
        assert reward(4.0, 1, 5.0) == 1
        assert reward(4.0, 1, 5.5) == 0
        assert reward(4.0, 0, 4.0) == 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            PredictionConfig(delta=0)
        with pytest.raises(DomainError):
            PredictionConfig(eta=1.0)
        with pytest.raises(DomainError):
            PredictionConfig(epsilon=Fraction(5, 4))
        with pytest.raises(DomainError):
            PredictionConfig(mode="fuzzy")
        with pytest.raises(DomainError):
            PredictionConfig(radius_tolerance=0)

    def test_lowest_alias(self):
        assert PredictionConfig(tie_strategy="lowest").tie_strategy == "lowest_object_id"


class TestScoring:
    def test_protocol_fixture(self):
        cfg = PredictionConfig(delta=4)
        trial = panel((1, 2, radius(2, 2, 4), 4.0), (2, 1, radius(1, 2, 4), 7.0))
        scored = score_trial(trial, 5.0, cfg)
        assert [f.radius for f in scored.forecasts] == [4, 2]
        assert [f.reward for f in scored.forecasts] == [1, 1]
        assert scored.winner == (1, 4.0)
        assert scored.weighted == pytest.approx(5.0)
        assert scored.regret == pytest.approx(-1.0)

    def test_no_reward_means_no_winner(self):
        trial = panel((1, 1, 0, 4.0), (2, 1, 0, 7.0))
        scored = score_trial(trial, 100.0)
        assert scored.winner is None
        assert all(f.reward == 0 for f in scored.forecasts)
        assert max_rewarded_loss(scored) is None

    def test_winner_needs_scored_trial(self):
        with pytest.raises(DomainError):
            select_winner(panel((1, 1, 1, 4.0)), PredictionConfig())

    def test_tie_by_lowest_object_id(self):
        cfg = PredictionConfig(tie_strategy="lowest")
        trial = panel((7, 1, 2, 4.0), (3, 1, 2, 6.0))
        assert score_trial(trial, 5.0, cfg).winner[0] == 3

    def test_random_tie_is_seeded(self):
        cfg = PredictionConfig(tie_strategy="random", rng_seed=42)
        trial = panel((7, 1, 2, 4.0), (3, 1, 2, 6.0))
        first = score_trial(trial, 5.0, cfg).winner
        again = score_trial(trial, 5.0, cfg).winner
        assert first == again
        assert first[0] in {3, 7}
        winners = {
            score_trial(panel((7, 1, 2, 4.0), (3, 1, 2, 6.0), trial_index=i), 5.0, cfg).winner[0]
            for i in range(30)
        }
        assert winners == {3, 7}, "both tied agents should win across trial indices"

    def test_winner_invariant_under_vc_rescaling(self):
        cfg = PredictionConfig(delta=5, tie_strategy="lowest")
        base = panel((1, 1, radius(1, 2, 5), 4.0), (2, 2, radius(2, 2, 5), 6.5))
        scaled = panel((1, 3, radius(3, 6, 5), 4.0), (2, 6, radius(6, 6, 5), 6.5))
        a = score_trial(base, 5.0, cfg)
        b = score_trial(scaled, 5.0, cfg)
        assert [f.radius for f in a.forecasts] == [f.radius for f in b.forecasts]
        assert [f.reward for f in a.forecasts] == [f.reward for f in b.forecasts]
        assert a.winner == b.winner


class TestWeightedPrediction:
    def test_single_object(self):
        assert weighted_prediction(panel((1, 3, 2, 6.0))) == 6.0

    def test_constant_forecasts(self):
        assert weighted_prediction(panel((1, 1, 0, 5.0), (2, 9, 0, 5.0))) == 5.0

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeightsError):
            weighted_prediction(panel((1, 0, 0, 4.0), (2, 0, 0, 8.0)))

    def test_convexity(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [
                (i, rng.randint(0, 4), 0, rng.uniform(-10, 10))
                for i in range(rng.randint(1, 6))
            ]
            trial = panel(*rows)
            if sum(f.vc for f in trial.forecasts) == 0:
                continue
            w = weighted_prediction(trial)
            values = [f.forecast for f in trial.forecasts]
            assert min(values) - 1e-9 <= w <= max(values) + 1e-9

    def test_regret_single_object_is_zero(self):
        scored = score_trial(panel((1, 1, 3, 6.0)), 5.0)
        assert scored.regret == 0.0
        assert regret(scored) == 0.0


class TestRunTrial:
    def test_radii_follow_touching_sizes(self, toy_system):
        omega = NewObject.from_mapping({"color": "red", "shape": "round", "size": "small"})
        cfg = PredictionConfig(epsilon=Fraction(1), delta=3)
        trial = run_trial(toy_system, omega, expert=5.0, config=cfg)
        assert [f.touching_size for f in trial.forecasts] == [3, 2, 1]
        assert [f.vc for f in trial.forecasts] == [3, 2, 1]
        assert [f.radius for f in trial.forecasts] == [3, 2, 1]
        assert trial.winner == (1, 5.0)

    def test_omega_equal_to_a_row_gets_radius_delta(self, toy_system):
        omega = toy_system.as_new_object(0)
        cfg = PredictionConfig(epsilon=Fraction(1), delta=5)
        trial = run_trial(toy_system, omega, config=cfg)
        assert trial.forecasts[0].radius == 5

    def test_empty_system(self, toy_system):
        empty = toy_system.without_object(0).without_object(1).without_object(2)
        with pytest.raises(DomainError, match="no objects"):
            run_trial(empty, NewObject.from_mapping({"color": "x", "shape": "y", "size": "z"}))

    def test_feature_mismatch(self, toy_system):
        with pytest.raises(DomainError, match="missing.*shape"):
            run_trial(toy_system, NewObject.from_mapping({"color": "red", "size": "small"}))

    def test_inconsistent_system_is_repaired(self, inconsistent_system):
        omega = NewObject.from_mapping({"f1": "1", "f2": "a"})
        cfg = PredictionConfig(epsilon=Fraction(0))
        trial = run_trial(inconsistent_system, omega, expert=4.0, config=cfg)
        # the repair adds one ground descriptor per row that omega never
        # touches: at epsilon 0 the exact-mode VC is ground minus touching,
        # so ground F+1 = 3 gives 1, 1, 3 where ground F = 2 would give 0, 0, 2
        assert [f.touching_size for f in trial.forecasts] == [2, 2, 0]
        assert [f.vc for f in trial.forecasts] == [1, 1, 3]
        assert trial.omega is omega

    def test_unscored_without_expert(self, toy_system):
        omega = toy_system.as_new_object(2)
        trial = run_trial(toy_system, omega)
        assert trial.expert is None
        assert not trial.scored
        assert trial.weighted is not None

    def test_degenerate_weights_fall_back_to_mean(self):
        s = load_csv("f,d\nx,4\ny,8\n")
        omega = NewObject.from_mapping({"f": "z"})
        trial = run_trial(s, omega, config=PredictionConfig(epsilon=Fraction(1)))
        assert trial.weights_degenerate
        assert trial.weighted == pytest.approx(6.0)


class TestApproxPredicted:
    def test_all_trials_covered(self):
        t1 = score_trial(panel((1, 1, 2, 4.0), (2, 1, 2, 6.0)), 5.0)
        t2 = score_trial(panel((1, 1, 1, 5.0)), 5.0)
        assert approx_predicted([t1, t2])

    def test_one_uncovered_trial(self):
        good = score_trial(panel((1, 1, 2, 4.0)), 5.0)
        bad = score_trial(panel((1, 1, 0, 4.0)), 9.0)
        assert not approx_predicted([good, bad])

    def test_needs_input(self):
        with pytest.raises(DomainError):
            approx_predicted([])
        with pytest.raises(DomainError):
            approx_predicted([panel((1, 1, 1, 4.0))])
