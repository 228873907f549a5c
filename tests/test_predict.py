import random
from fractions import Fraction
from itertools import compress
from types import MappingProxyType

import pytest

from conftest import load_csv
from mereovc.errors import DomainError
from mereovc.mistakes import count_mistakes
from mereovc.predict import (
    PredictionConfig,
    TrialResult,
    max_rewarded_loss,
    radius,
    reward,
    run_trial,
    score_trial,
)
from mereovc.tables import DecisionSystem, is_consistent


def panel(*rows, vc_star=None, **kwargs):
    """Build a TrialResult from (object, vc, radius, forecast) tuples."""
    objects, vcs, radii, forecasts = map(list, zip(*rows)) if rows else ([], [], [], [])
    star = vc_star if vc_star is not None else max(vcs, default=0)
    return TrialResult(tuple(objects), vcs, vcs, radii, forecasts, star, **kwargs)


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
        cfg = PredictionConfig(delta=5)
        near = run_trial(s, {"f": "x"}, config=cfg)
        far = run_trial(s, {"f": "y"}, config=cfg)
        assert list(zip(near.radii, near.forecasts)) == [(5, 4.0)]
        assert list(zip(far.radii, far.forecasts)) == [(0, 4.0)]

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

    def test_bool_delta_rejected(self):
        # bool is an int subclass; a report would echo "delta": true
        with pytest.raises(DomainError, match="delta"):
            PredictionConfig(delta=True)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", True), ("epsilon", "x"), ("epsilon", "1/0"), ("epsilon", None),
        ("eta", True), ("eta", "x"), ("eta", 0.5j),
        ("radius_tolerance", True), ("radius_tolerance", "x"),
        ("rng_seed", True), ("rng_seed", "x"), ("rng_seed", 1.5),
    ])
    def test_wrong_types_are_domain_errors(self, field, value):
        # a bool is an int: epsilon=True would read as 1 and rng_seed=True
        # would key the tie draws on "True", not on 1
        with pytest.raises(DomainError, match=field):
            PredictionConfig(**{field: value})

    @pytest.mark.parametrize("epsilon", [1, Fraction(1, 3), 0.25, "2/3"])
    def test_epsilon_accepts_numbers_and_ratio_strings(self, epsilon):
        assert PredictionConfig(epsilon=epsilon).epsilon == Fraction(epsilon)

    def test_lowest_alias(self):
        assert PredictionConfig(tie_strategy="lowest").tie_strategy == "lowest_object_id"


class TestScoring:
    def test_protocol_fixture(self):
        cfg = PredictionConfig(delta=4)
        trial = panel((1, 2, radius(2, 2, 4), 4.0), (2, 1, radius(1, 2, 4), 7.0))
        scored = score_trial(trial, 5.0, cfg)
        assert scored.radii == [4, 2]
        assert scored.rewards == [1, 1]
        assert scored.winner == (1, 4.0)
        assert scored.weighted == pytest.approx(5.0)
        assert scored.regret == pytest.approx(-1.0)

    def test_no_reward_means_no_winner(self):
        trial = panel((1, 1, 0, 4.0), (2, 1, 0, 7.0))
        scored = score_trial(trial, 100.0)
        assert scored.winner is None
        assert all(w == 0 for w in scored.rewards)
        assert max_rewarded_loss(scored) is None

    def test_empty_panel_is_a_domain_error(self):
        with pytest.raises(DomainError, match="at least one agent"):
            score_trial(panel(), 5.0)

    def test_stale_weighted_value_is_recomputed(self):
        # a panel carrying a weighted value gets the one its VCs give, and
        # the regret is measured from that value
        trial = panel((1, 1, 2, 4.0), (2, 3, 2, 8.0), weighted=100.0, weights_degenerate=True)
        scored = score_trial(trial, 5.0)
        assert scored.weighted == 7.0
        assert not scored.weights_degenerate
        assert scored.regret == 1.0

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
        assert a.radii == b.radii
        assert a.rewards == b.rewards
        assert a.winner == b.winner


class TestWeightedPrediction:
    def test_single_object(self):
        assert score_trial(panel((1, 3, 2, 6.0)), 5.0).weighted == 6.0

    def test_constant_forecasts(self):
        assert score_trial(panel((1, 1, 0, 5.0), (2, 9, 0, 5.0)), 1.0).weighted == 5.0

    def test_all_vc_0_falls_back_to_the_plain_mean(self):
        scored = score_trial(panel((1, 0, 0, 4.0), (2, 0, 0, 8.0)), 5.0)
        assert scored.weights_degenerate
        assert scored.weighted == 6.0

    def test_convexity(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [
                (i, rng.randint(0, 4), 0, rng.uniform(-10, 10))
                for i in range(rng.randint(1, 6))
            ]
            trial = score_trial(panel(*rows), 0.0)
            assert trial.weights_degenerate == all(vc == 0 for _, vc, _, _ in rows)
            values = trial.forecasts
            assert min(values) - 1e-9 <= trial.weighted <= max(values) + 1e-9

    def test_regret_single_object_is_zero(self):
        scored = score_trial(panel((1, 1, 3, 6.0)), 5.0)
        assert scored.regret == 0.0


class TestRunTrial:
    def test_radii_follow_touching_sizes(self, toy_system):
        omega = {"color": "red", "shape": "round", "size": "small"}
        cfg = PredictionConfig(epsilon=Fraction(1), delta=3)
        trial = run_trial(toy_system, omega, expert=5.0, config=cfg)
        assert trial.touching_sizes == [3, 2, 1]
        assert trial.vcs == [3, 2, 1]
        assert trial.radii == [3, 2, 1]
        # every agent forecasts its own decision value, whatever its radius
        assert trial.forecasts == [4.0, 5.0, 7.0]
        assert trial.winner == (1, 5.0)

    def test_omega_equal_to_a_row_gets_radius_delta(self, toy_system):
        omega = toy_system.row(0)
        cfg = PredictionConfig(epsilon=Fraction(1), delta=5)
        trial = run_trial(toy_system, omega, config=cfg)
        assert trial.radii[0] == 5

    def test_empty_system(self, toy_system):
        empty = toy_system.without_object(0).without_object(1).without_object(2)
        with pytest.raises(DomainError, match="no objects"):
            run_trial(empty, {"color": "x", "shape": "y", "size": "z"})

    def test_feature_mismatch(self, toy_system):
        with pytest.raises(DomainError, match="missing.*shape"):
            run_trial(toy_system, {"color": "red", "size": "small"})
        omega = {**toy_system.row(0), "weight": "light"}
        with pytest.raises(DomainError, match="extra.*weight"):
            run_trial(toy_system, omega)

    def test_omega_is_read_by_feature_name(self, toy_system):
        omega = {"color": "red", "shape": "round", "size": "large"}
        cfg = PredictionConfig(delta=3)
        want = run_trial(toy_system, omega, expert=5.0, config=cfg)
        backwards = dict(reversed(omega.items()))
        assert list(backwards) != list(toy_system.features)
        assert run_trial(toy_system, backwards, expert=5.0, config=cfg) == want
        assert run_trial(toy_system, MappingProxyType(omega), expert=5.0, config=cfg) == want

    def test_inconsistent_system_is_repaired(self, inconsistent_system):
        omega = {"f1": "1", "f2": "a"}
        cfg = PredictionConfig(epsilon=Fraction(0))
        trial = run_trial(inconsistent_system, omega, expert=4.0, config=cfg)
        # the repair adds one ground descriptor per row that omega never
        # touches: at epsilon 0 the exact-mode VC is ground minus touching,
        # so ground F+1 = 3 gives 1, 1, 3 where ground F = 2 would give 0, 0, 2
        assert trial.touching_sizes == [2, 2, 0]
        assert trial.vcs == [1, 1, 3]

    def test_unscored_without_expert(self, toy_system):
        omega = toy_system.row(2)
        trial = run_trial(toy_system, omega)
        assert trial.expert is None
        assert trial.rewards is None
        assert trial.weighted is not None

    def test_degenerate_weights_fall_back_to_mean(self):
        s = load_csv("f,d\nx,4\ny,8\n")
        omega = {"f": "z"}
        trial = run_trial(s, omega, config=PredictionConfig(epsilon=Fraction(1)))
        assert trial.weights_degenerate
        assert trial.weighted == pytest.approx(6.0)


class TestApproxPredicted:
    """Approximate prediction, every trial rewarding some agent, is read
    off the mistake ledger as all(count_mistakes(trials).covered)."""

    def test_all_trials_covered(self):
        t1 = score_trial(panel((1, 1, 2, 4.0), (2, 1, 2, 6.0)), 5.0)
        t2 = score_trial(panel((1, 1, 1, 5.0)), 5.0)
        assert all(count_mistakes([t1, t2]).covered)

    def test_one_uncovered_trial(self):
        good = score_trial(panel((1, 1, 2, 4.0)), 5.0)
        bad = score_trial(panel((1, 1, 0, 4.0)), 9.0)
        assert count_mistakes([good, bad]).covered == (True, False)

    def test_needs_input(self):
        with pytest.raises(DomainError):
            count_mistakes([])
        with pytest.raises(DomainError):
            count_mistakes([panel((1, 1, 1, 4.0))])


def entry_point_cases():
    """(name, system, omega, expert, epsilon): random tables, consistent and
    not, plus a tied winner and a panel whose every VC is 0."""
    rng = random.Random(6)
    cases = []
    for index in range(12):
        features = tuple(f"f{i}" for i in range(rng.randint(1, 4)))
        rows = [tuple(rng.choice("ab") for _ in features) for _ in range(rng.randint(1, 5))]
        rows += [rng.choice(rows) for _ in range(index % 3)]
        decisions = [rng.randint(0, 4) for _ in rows]
        system = DecisionSystem.from_rows(features, rows, decisions)
        omega = {f: rng.choice("abz") for f in features}
        epsilon = rng.choice([Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1)])
        cases.append((f"random{index}", system, omega, float(rng.randint(-1, 5)), epsilon))
    tied = load_csv("f,d\nx,4\nx,6\ny,9\n")
    cases.append(("tied", tied, {"f": "x"}, 5.0, Fraction(1)))
    flat = load_csv("f,d\nx,4\ny,8\n")
    cases.append(("all_vc_0", flat, {"f": "z"}, 5.0, Fraction(1)))
    return cases


ENTRY_POINT_CASES = entry_point_cases()


def test_entry_point_cases_cover_every_kind():
    trials = {
        name: run_trial(system, omega, expert, PredictionConfig(epsilon=epsilon))
        for name, system, omega, expert, epsilon in ENTRY_POINT_CASES
    }
    kinds = [is_consistent(system) for _, system, *_ in ENTRY_POINT_CASES]
    assert any(kinds) and not all(kinds)
    rewarded = list(compress(trials["tied"].losses, trials["tied"].rewards))
    assert rewarded == [1.0, 1.0]
    assert trials["all_vc_0"].weights_degenerate


@pytest.mark.parametrize("tie_strategy", ["random", "lowest_object_id"])
@pytest.mark.parametrize(
    "name, system, omega, expert, epsilon", ENTRY_POINT_CASES, ids=[c[0] for c in ENTRY_POINT_CASES]
)
def test_run_trial_equals_scoring_its_unscored_trial(name, system, omega, expert, epsilon,
                                                     tie_strategy):
    cfg = PredictionConfig(epsilon=epsilon, delta=3, tie_strategy=tie_strategy, rng_seed=11)
    for index in range(3):
        direct = run_trial(system, omega, expert, cfg, trial_index=index)
        later = score_trial(run_trial(system, omega, config=cfg, trial_index=index), expert, cfg)
        assert direct.rewards is not None
        for field in TrialResult._fields:
            assert getattr(direct, field) == getattr(later, field), field
        top = max_rewarded_loss(direct)
        assert top is None or top <= cfg.delta
