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
import sys
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import compress, repeat
from numbers import Real
from operator import add, eq, itemgetter, le, mul, sub
from statistics import fmean
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import DomainError
from .tables import DecisionSystem, ObjectId, Value, ground_size, loo_ground_sizes
from .vc import _read_epsilon, vc_count

# Not called here; imported only because perfbench/spans.py rebinds them to time them.
from .tables import consistentize, is_consistent  # noqa: F401
from .vc import touching_set, vc_of_object  # noqa: F401

_TIE_STRATEGIES = ("random", "lowest_object_id")
# (bytes, memoryview format) of the byte lanes _lane_counts counts in
_LANES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


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
        for field in fields(self):
            if isinstance(getattr(self, field.name), bool):
                raise DomainError(f"{field.name} must not be a bool")
        object.__setattr__(self, "epsilon", _read_epsilon(self.epsilon))
        if self.tie_strategy == "lowest":
            object.__setattr__(self, "tie_strategy", "lowest_object_id")
        if not 0 <= self.epsilon <= 1:
            raise DomainError("epsilon must lie in [0, 1]")
        if not (isinstance(self.delta, int) and self.delta >= 1):
            raise DomainError("delta must be a positive integer")
        if not isinstance(self.rng_seed, int):
            raise DomainError("rng_seed must be an integer")
        if self.mode not in ("exact", "at_least"):
            raise DomainError("mode must be 'exact' or 'at_least'")
        if self.tie_strategy not in _TIE_STRATEGIES:
            raise DomainError(f"tie_strategy must be one of {_TIE_STRATEGIES}")
        if not (isinstance(self.eta, Real) and 0 < self.eta < 1):
            raise DomainError("eta must be a real number strictly between 0 and 1")
        if not (isinstance(self.radius_tolerance, Real) and self.radius_tolerance > 0):
            raise DomainError("radius_tolerance must be a positive real number")


class TrialResult(NamedTuple):
    """Everything one new object elicited from a panel, in columns.

    The i-th entry of each column from objects to forecasts, and of rewards
    and losses once scored, belongs to agent i. A hand-assembled panel
    needs only the columns and vc_star; expert, rewards, losses, winner
    and regret stay None until the trial is scored against an expert value.
    """

    objects: tuple[ObjectId, ...]
    touching_sizes: Sequence[int]
    vcs: Sequence[int]
    radii: Sequence[int]
    forecasts: Sequence[float]
    vc_star: int
    weighted: Optional[float] = None
    weights_degenerate: bool = False
    trial_index: int = 0
    expert: Optional[float] = None
    rewards: Optional[list[int]] = None
    losses: Optional[list[float]] = None
    winner: Optional[tuple[ObjectId, float]] = None
    regret: Optional[float] = None


def radius(vc: int, vc_star: int, delta: int) -> int:
    """floor(delta * vc / vc_star) in exact integers; 0 when vc_star is 0."""
    if vc_star == 0:
        return 0
    if vc > vc_star:
        raise DomainError("an agent's vc cannot exceed the panel maximum")
    return delta * vc // vc_star


def _scores(expert: float, centers: Sequence[float], radii: Sequence) -> tuple[list, list[int]]:
    """The losses |expert - center|, and the rewards: 1 within the radius."""
    losses = list(map(abs, map(sub, repeat(expert), centers)))
    return losses, list(map(int, map(le, losses, radii)))


def reward(center: float, r: float, expert: float) -> int:
    """1 when the expert value lands in the closed ball around center."""
    return _scores(expert, (center,), (r,))[1][0]


def _tie_rng(seed: int, trial_index: int, candidate_ids: Sequence[ObjectId]) -> random.Random:
    # string-keyed so the stream is stable across platforms and runs
    key = f"{seed}:{trial_index}:{','.join(map(str, sorted(candidate_ids)))}"
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
    best_loss = min(map(itemgetter(1), rewarded))
    tied = sorted([c for c in rewarded if c[1] == best_loss], key=itemgetter(0))
    if len(tied) == 1 or config.tie_strategy == "lowest_object_id":
        pick = tied[0]
    else:
        rng = _tie_rng(config.rng_seed, trial_index, [c[0] for c in tied])
        pick = rng.choice(tied)
    return (pick[0], pick[2])


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


def max_rewarded_loss(trial: TrialResult) -> Optional[float]:
    """Largest loss among rewarded agents, None when nobody is rewarded or
    the trial is unscored; a cheap sanity diagnostic.

    Never above delta: an agent is rewarded only when its loss is at most
    its radius, and no radius exceeds delta.
    """
    return max(compress(trial.losses or (), trial.rewards or ()), default=None)


def _agreement_counts(rows: Sequence[tuple], reference: tuple) -> list[int]:
    """Each row's touching size: how many of its cells equal the reference's."""
    return [sum(map(eq, row, reference)) for row in rows]


def _panel(
    objects: tuple[ObjectId, ...],
    sizes: list[int],
    forecasts: list[float],
    ground: int,
    vc_of_size: dict[int, int],
    config: PredictionConfig,
    trial_index: int,
) -> tuple[TrialResult, dict[int, int]]:
    """The agents' columns from their touching sizes: each VC and radius,
    and the panel maximum VC*; with the panel, its touching size -> radius
    map. vc_of_size, the caller's touching size -> VC map on this ground
    size, gains only the sizes it lacks, so vc_count runs once per (ground,
    size) per call; radius once per distinct size."""
    present = set(sizes)
    for t in present.difference(vc_of_size):
        vc_of_size[t] = vc_count(ground, t, config.epsilon, config.mode)
    vc_star = max(map(vc_of_size.__getitem__, present))
    radius_of_size = {t: radius(vc_of_size[t], vc_star, config.delta) for t in present}
    panel = TrialResult(
        objects,
        sizes,
        list(map(vc_of_size.__getitem__, sizes)),
        list(map(radius_of_size.__getitem__, sizes)),
        forecasts,
        vc_star,
        trial_index=trial_index,
    )
    return panel, radius_of_size


def _finish(panel: TrialResult, expert: Optional[float], config: PredictionConfig) -> TrialResult:
    """The panel with its weighted prediction from its own VCs and, given
    an expert value, its rewards, losses, winner and regret.

    The regret is the weighted prediction's loss minus the best single
    forecast's loss.
    """
    weighted, degenerate = _weighted(panel.forecasts, panel.vcs)
    if expert is None:
        return panel._replace(weighted=weighted, weights_degenerate=degenerate)
    losses, rewards = _scores(expert, panel.forecasts, panel.radii)
    rewarded = list(compress(zip(panel.objects, losses, panel.forecasts), rewards))
    return panel._replace(
        weighted=weighted,
        weights_degenerate=degenerate,
        expert=expert,
        rewards=rewards,
        losses=losses,
        winner=_pick_winner(rewarded, config, panel.trial_index),
        regret=abs(expert - weighted) - min(losses),
    )


def run_trial(
    system: DecisionSystem,
    omega: Mapping[str, Value],
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
    return _run_trial(system, omega, expert, config, trial_index)[0]


# A trial as a session gives it: the trial, its ground size, the session's
# touching size -> VC map on that ground and the trial's size -> radius map.
_SessionTrial = tuple[TrialResult, int, dict[int, int], dict[int, int]]


def _run_trial(
    system: DecisionSystem,
    omega: Mapping[str, Value],
    expert: Optional[float],
    config: PredictionConfig,
    trial_index: int = 0,
) -> _SessionTrial:
    """run_trial as a one-trial session."""
    if not system.objects:
        raise DomainError("the system has no objects to act as agents")
    if omega.keys() != set(system.features):
        missing = sorted(set(system.features) - omega.keys())
        extra = sorted(omega.keys() - set(system.features))
        raise DomainError(
            f"the reference object must assign exactly the system's features "
            f"(missing {missing}, extra {extra})"
        )
    reference = tuple(omega[f] for f in system.features)
    objects = system.objects
    sizes = _agreement_counts([system.rows[o] for o in objects], reference)
    forecasts = [system.decisions[o] for o in objects]
    ground, vc_of_size = ground_size(system), {}
    panel, radius_of_size = _panel(objects, sizes, forecasts, ground, vc_of_size, config, trial_index)
    return _finish(panel, expert, config), ground, vc_of_size, radius_of_size


def score_trial(
    trial: TrialResult, expert: float, config: PredictionConfig = PredictionConfig()
) -> TrialResult:
    """Rewards, losses, winner, weighted prediction and regret for a
    hand-assembled panel of columns; the weighted prediction always comes
    from the panel's VCs, whatever value the panel carries."""
    if not trial.objects:
        raise DomainError("scoring needs a panel of at least one agent")
    return _finish(trial, expert, config)


def _lane_counts(rows: Sequence[tuple]) -> Iterator[list[int]]:
    """_agreement_counts(rows[:i] + rows[i + 1:], rows[i]) for each i in turn.

    Per feature, a value v that two or more rows hold gets a mask, an int
    whose byte lane j holds eq(rows[j][f], v). A lane holds the feature count,
    so row i's total, the sum of its masks, never carries between lanes, and
    its lane j is row j's agreement count (H. S. Warren, Hacker's Delight,
    2nd ed., 2012, ch. 5). A value held by row i alone would set only lane
    i, which is dropped. One feature's masks are kept at a time."""
    n = len(rows)
    features = max(map(len, rows), default=0)
    width, code = next((w, c) for w, c in _LANES if features < 256 ** w)
    # lanes in native byte order, so that memoryview.cast reads them off
    low = (width - 1) * (sys.byteorder == "big")
    lanes = bytearray(n * width)
    totals = [0] * n
    for column in zip(*rows):
        mask = {}
        for v, count in Counter(column).items():
            if count > 1:
                lanes[low::width] = bytes(map(eq, column, repeat(v)))
                mask[v] = int.from_bytes(lanes, sys.byteorder)
        totals = list(map(add, totals, map(mask.get, column, repeat(0))))
    for i, total in enumerate(totals):
        sizes = memoryview(total.to_bytes(n * width, sys.byteorder)).cast(code).tolist()
        del sizes[i]
        yield sizes


def leave_one_out(
    system: DecisionSystem, config: PredictionConfig = PredictionConfig()
) -> list[TrialResult]:
    """Each object in turn as the new object, scored against its own
    decision by the panel of all the others; trial i holds out
    system.objects[i].

    Trial i equals run_trial(system.without_object(o), system.row(o),
    system.decisions[o], config, i) for the i-th object o, but no rest table
    is built: each rest table's ground size comes from the full-feature
    classes once per session, the touching sizes from byte-lane masks built
    once per session (_lane_counts), and each (ground, touching size) VC is
    computed once per session.
    """
    return [trial for trial, *_ in _session(system, config)]


def _session(system: DecisionSystem, config: PredictionConfig) -> Iterator[_SessionTrial]:
    """leave_one_out's trials one at a time, as the session gives them."""
    objects = system.objects
    if len(objects) < 2:
        raise DomainError("leave-one-out needs at least two objects")
    rows = [system.rows[o] for o in objects]
    decisions = [system.decisions[o] for o in objects]
    vc_by_ground: dict[int, dict[int, int]] = {}
    for i, (ground, sizes) in enumerate(zip(loo_ground_sizes(system), _lane_counts(rows))):
        vc_of_size = vc_by_ground.setdefault(ground, {})
        panel, radius_of_size = _panel(
            objects[:i] + objects[i + 1:], sizes, decisions[:i] + decisions[i + 1:], ground,
            vc_of_size, config, i,
        )
        yield _finish(panel, decisions[i], config), ground, vc_of_size, radius_of_size
