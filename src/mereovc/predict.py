"""Decision prediction by a panel of row-agents with VC-scaled trust.

Every row of a decision table acts as an agent. Against a new object the
agent's competence is the VC dimension of its epsilon-component family,
and its forecast, its own decision value, is trusted inside a
neighborhood whose radius scales with that competence: radius(o) equals
floor(delta * VC(o) / VC*), with VC* the panel maximum. An expert value
rewards exactly the agents whose neighborhood covers it (closed balls);
the winner is the rewarded agent with the smallest absolute loss; the
weighted prediction averages all forecasts with VC weights.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress, repeat
from operator import eq, itemgetter, mul, not_
from statistics import fmean
from typing import NamedTuple, Optional, Sequence

from .errors import DegenerateWeightsError, DomainError
from .tables import DecisionSystem, NewObject, ObjectId, ground_size, loo_ground_sizes
from .vc import vc_count

# Not called here; imported only because perfbench/spans.py rebinds them to time them.
from .tables import consistentize, is_consistent  # noqa: F401
from .vc import touching_set, vc_of_object  # noqa: F401

_TIE_STRATEGIES = ("random", "lowest_object_id")


@dataclass(frozen=True)
class PredictionConfig:
    """Protocol parameters shared by single trials and whole sessions."""

    epsilon: Fraction = Fraction(1)
    delta: int = 1
    mode: str = "exact"
    tie_strategy: str = "random"
    rng_seed: int = 0
    eta: float = 0.5
    radius_tolerance: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.tie_strategy == "lowest":
            object.__setattr__(self, "tie_strategy", "lowest_object_id")
        if not 0 <= self.epsilon <= 1:
            raise DomainError("epsilon must lie in [0, 1]")
        if not (isinstance(self.delta, int) and self.delta >= 1):
            raise DomainError("delta must be a positive integer")
        if self.mode not in ("exact", "at_least"):
            raise DomainError("mode must be 'exact' or 'at_least'")
        if self.tie_strategy not in _TIE_STRATEGIES:
            raise DomainError(f"tie_strategy must be one of {_TIE_STRATEGIES}")
        if not 0 < self.eta < 1:
            raise DomainError("eta must lie strictly between 0 and 1")
        if not self.radius_tolerance > 0:
            raise DomainError("radius_tolerance must be positive")


@dataclass(frozen=True)
class AgentForecast:
    """One agent's stake in a trial.

    reward and loss stay None until an expert value has been scored.
    """

    object: ObjectId
    touching_size: int
    vc: int
    radius: int
    forecast: float
    reward: Optional[int] = None
    loss: Optional[float] = None


@dataclass(frozen=True)
class TrialResult:
    """Everything one reference object elicited from the panel."""

    omega: NewObject
    forecasts: tuple[AgentForecast, ...]
    vc_star: int
    expert: Optional[float] = None
    winner: Optional[tuple[ObjectId, float]] = None
    weighted: Optional[float] = None
    regret: Optional[float] = None
    weights_degenerate: bool = False
    trial_index: int = 0

    @property
    def scored(self) -> bool:
        return self.expert is not None and all(
            f.reward is not None for f in self.forecasts
        )


def radius(vc: int, vc_star: int, delta: int) -> int:
    """floor(delta * vc / vc_star) in exact integers; 0 when vc_star is 0."""
    if vc_star == 0:
        return 0
    if vc > vc_star:
        raise DomainError("an agent's vc cannot exceed the panel maximum")
    return delta * vc // vc_star


def reward(center: float, r: float, expert: float) -> int:
    """1 when the expert value lands in the closed ball around center."""
    return 1 if abs(expert - center) <= r else 0


def _tie_rng(seed: int, trial_index: int, candidate_ids: Sequence[ObjectId]) -> random.Random:
    # string-keyed so the stream is stable across platforms and runs
    key = f"{seed}:{trial_index}:{','.join(str(i) for i in sorted(candidate_ids))}"
    return random.Random(key)


def _pick_winner(
    rewarded: Sequence[tuple[ObjectId, float, float]], config: PredictionConfig, trial_index: int
) -> Optional[tuple[ObjectId, float]]:
    """(object, forecast) of the rewarded agent with minimal loss, given
    each rewarded agent's (object, loss, forecast); None when there is none.

    Equal losses fall to the tie strategy: a seeded draw keyed by the
    trial, or the lowest object id.
    """
    if not rewarded:
        return None
    best_loss = min(loss for _, loss, _ in rewarded)
    tied = sorted((c for c in rewarded if c[1] == best_loss), key=itemgetter(0))
    if len(tied) == 1 or config.tie_strategy == "lowest_object_id":
        pick = tied[0]
    else:
        rng = _tie_rng(config.rng_seed, trial_index, [c[0] for c in tied])
        pick = rng.choice(tied)
    return (pick[0], pick[2])


def select_winner(
    trial: TrialResult, config: PredictionConfig
) -> Optional[tuple[ObjectId, float]]:
    """The rewarded agent with minimal loss, or None when nobody scored.

    Equal losses fall to the tie strategy: a seeded draw keyed by the
    trial, or the lowest object id.
    """
    if trial.expert is None or any(f.reward is None for f in trial.forecasts):
        raise DomainError("select_winner needs a scored trial")
    rewarded = [(f.object, f.loss, f.forecast) for f in trial.forecasts if f.reward == 1]
    return _pick_winner(rewarded, config, trial.trial_index)


def _weighted(forecasts: Sequence[float], vcs: Sequence[int]) -> tuple[float, bool]:
    """The VC-weighted mean and whether every weight is 0, in which case
    the plain mean of the forecasts stands in for it.

    The products are summed by sum() in object order, never by a running
    total: from Python 3.12 on, sum() adds floats with compensation, so
    a loop would give different last digits.
    """
    total = sum(vcs)
    if total == 0:
        return fmean(forecasts), True
    return sum(map(mul, forecasts, vcs)) / total, False


def weighted_prediction(trial: TrialResult) -> float:
    """VC-weighted average of the forecasts; the panel maximum cancels."""
    if all(f.vc == 0 for f in trial.forecasts):
        raise DegenerateWeightsError(
            "every agent has vc 0, so the weighted prediction is undefined"
        )
    return _weighted([f.forecast for f in trial.forecasts], [f.vc for f in trial.forecasts])[0]


def _losses(forecasts: Sequence[float], expert: float) -> list[float]:
    """Each forecast's absolute distance from the expert value."""
    return [abs(expert - f) for f in forecasts]


def _regret(expert: float, weighted: float, losses: Sequence[float]) -> float:
    return abs(expert - weighted) - min(losses)


def regret(trial: TrialResult) -> float:
    """Weighted-prediction loss minus the best single forecast's loss."""
    if trial.expert is None or trial.weighted is None:
        raise DomainError("regret needs an expert value and a weighted prediction")
    if not trial.forecasts:
        raise DomainError("regret over an empty panel is undefined")
    losses = _losses([f.forecast for f in trial.forecasts], trial.expert)
    return _regret(trial.expert, trial.weighted, losses)


def max_rewarded_loss(trial: TrialResult) -> Optional[float]:
    """Largest loss among rewarded agents; a cheap sanity diagnostic.

    Always strictly below 2*delta, because a rewarded loss is capped by
    the agent's radius, which is capped by delta.
    """
    losses = [f.loss for f in trial.forecasts if f.reward == 1]
    return max(losses) if losses else None


def _agreement_counts(rows: Sequence[tuple], reference: tuple) -> list[int]:
    """Each row's touching size: how many of its cells equal the reference's."""
    return [sum(map(eq, row, reference)) for row in rows]


def _competence(
    sizes: Sequence[int], ground: int, config: PredictionConfig
) -> tuple[list[int], list[int], int]:
    """Each agent's VC and radius from its touching size, and the panel
    maximum VC*; vc_count and radius run once per distinct size."""
    vc_of_size = {t: vc_count(ground, t, config.epsilon, config.mode) for t in set(sizes)}
    vc_star = max(vc_of_size.values())
    radius_of_size = {t: radius(vc, vc_star, config.delta) for t, vc in vc_of_size.items()}
    return (
        list(map(vc_of_size.__getitem__, sizes)),
        list(map(radius_of_size.__getitem__, sizes)),
        vc_star,
    )


def _rewards(forecasts: Sequence[float], radii: Sequence[int], expert: float) -> list[int]:
    return list(map(reward, forecasts, radii, repeat(expert)))


def _conclude(trial: TrialResult, config: PredictionConfig) -> TrialResult:
    """Fill in the weighted prediction unless the trial already has one,
    then the winner and regret when the trial carries an expert value."""
    if trial.weighted is None:
        weighted, degenerate = _weighted(
            [f.forecast for f in trial.forecasts], [f.vc for f in trial.forecasts]
        )
        trial = replace(trial, weighted=weighted, weights_degenerate=degenerate)
    if trial.expert is None:
        return trial
    return replace(trial, winner=select_winner(trial, config), regret=regret(trial))


def run_trial(
    system: DecisionSystem,
    omega: NewObject,
    expert: Optional[float] = None,
    config: PredictionConfig = PredictionConfig(),
    trial_index: int = 0,
) -> TrialResult:
    """One protocol round: forecasts, radii and the weighted prediction,
    then rewards, losses, winner and regret when an expert value is given.

    Touching sizes are agreement counts with omega. An inconsistent system
    counts as repaired by a decision copy column that omega never matches,
    so its ground size is one more than its feature count; that rule is
    tables.ground_size, which vc_of_object reads too.
    """
    if not system.objects:
        raise DomainError("the system has no objects to act as agents")
    if omega.features != frozenset(system.features):
        missing = sorted(frozenset(system.features) - omega.features)
        extra = sorted(omega.features - frozenset(system.features))
        raise DomainError(
            f"the reference object must assign exactly the system's features "
            f"(missing {missing}, extra {extra})"
        )
    values = omega.as_mapping()
    reference = tuple(values[f] for f in system.features)
    objects = system.objects
    sizes = _agreement_counts([system.rows[o] for o in objects], reference)
    vcs, radii, vc_star = _competence(sizes, ground_size(system), config)
    forecasts = [system.decisions[o] for o in objects]
    columns = [objects, sizes, vcs, radii, forecasts]
    if expert is not None:
        columns += [_rewards(forecasts, radii, expert), _losses(forecasts, expert)]
    agents = tuple(map(AgentForecast, *columns))
    trial = TrialResult(omega, agents, vc_star, expert=expert, trial_index=trial_index)
    return _conclude(trial, config)


def score_trial(
    trial: TrialResult, expert: float, config: PredictionConfig = PredictionConfig()
) -> TrialResult:
    """Rewards, losses, winner and regret for a hand-assembled panel.

    A panel without a weighted prediction gets one filled in; one it
    already carries is kept.
    """
    forecasts = [f.forecast for f in trial.forecasts]
    rewards = _rewards(forecasts, [f.radius for f in trial.forecasts], expert)
    scored = tuple(
        replace(f, reward=w, loss=loss)
        for f, w, loss in zip(trial.forecasts, rewards, _losses(forecasts, expert))
    )
    return _conclude(replace(trial, expert=expert, forecasts=scored), config)


class LooTrial(NamedTuple):
    """One leave-one-out trial in plain columns.

    The agents are every object but the holdout, in object order. The
    i-th entry of each column from objects to losses belongs to agent i,
    as the fields of one scored AgentForecast would; mistakes counts the
    agents left unrewarded.
    """

    holdout: ObjectId
    expert: float
    vc_star: int
    objects: tuple[ObjectId, ...]
    touching_sizes: list[int]
    vcs: list[int]
    radii: list[int]
    forecasts: list[float]
    rewards: list[int]
    losses: list[float]
    winner: Optional[tuple[ObjectId, float]]
    weighted: float
    weights_degenerate: bool
    regret: float
    mistakes: int


class LooSession(NamedTuple):
    """A leave-one-out pass: one trial per object, in object order, and the
    per-object reward misses (every object, by id) and covered-trial count
    that count_mistakes gives over the same trials."""

    trials: list[LooTrial]
    per_object_mistakes: dict[ObjectId, int]
    covered_trials: int


def leave_one_out(
    system: DecisionSystem, config: PredictionConfig = PredictionConfig()
) -> LooSession:
    """Each object in turn as the new object, scored against its own
    decision by the panel of all the others.

    Trial i equals run_trial(system.without_object(o), system.as_new_object(o),
    system.decisions[o], config, i) for the i-th object o, and the ledger
    equals count_mistakes over those trials, but no rest table, TrialResult
    or AgentForecast is built: each rest table's ground size comes from
    the full-feature classes once per session, and each trial is one pass
    over the other rows.
    """
    objects = system.objects
    if len(objects) < 2:
        raise DomainError("leave-one-out needs at least two objects")
    rows = [system.rows[o] for o in objects]
    decisions = [system.decisions[o] for o in objects]
    missed: Counter = Counter()
    trials = []
    for i, ground in enumerate(loo_ground_sizes(system)):
        expert = decisions[i]
        agents = objects[:i] + objects[i + 1:]
        forecasts = decisions[:i] + decisions[i + 1:]
        sizes = _agreement_counts(rows[:i] + rows[i + 1:], rows[i])
        vcs, radii, vc_star = _competence(sizes, ground, config)
        rewards = _rewards(forecasts, radii, expert)
        losses = _losses(forecasts, expert)
        weighted, degenerate = _weighted(forecasts, vcs)
        rewarded = list(compress(zip(agents, losses, forecasts), rewards))
        missed.update(compress(agents, map(not_, rewards)))
        trials.append(LooTrial(
            objects[i], expert, vc_star, agents, sizes, vcs, radii, forecasts, rewards, losses,
            _pick_winner(rewarded, config, i), weighted, degenerate,
            _regret(expert, weighted, losses), len(agents) - len(rewarded),
        ))
    covered = sum(t.mistakes < len(t.objects) for t in trials)
    return LooSession(trials, {o: missed[o] for o in sorted(objects)}, covered)


def approx_predicted(trials: Sequence[TrialResult]) -> bool:
    """Whether every trial rewarded at least one agent.

    Equivalent to requiring the minimum over trials of the reward sum to
    be at least 1.
    """
    if not trials:
        raise DomainError("approximate prediction needs at least one trial")
    for trial in trials:
        if not trial.scored:
            raise DomainError("approximate prediction needs scored trials")
    return all(sum(f.reward for f in t.forecasts) >= 1 for t in trials)
