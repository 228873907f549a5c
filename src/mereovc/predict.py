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
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import compress, repeat
from numbers import Real
from operator import add, eq, floordiv, index, itemgetter, le, mod, mul, sub
from statistics import fmean
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import DomainError
from .tables import DecisionSystem, ObjectId, Value, ground_size, loo_ground_sizes
from .vc import _read_epsilon, vc_count

# Not called here; imported only because perfbench/spans.py rebinds them to time them.
from .tables import consistentize, is_consistent  # noqa: F401
from .vc import touching_set, vc_of_object  # noqa: F401

_TIE_STRATEGIES = ("random", "lowest_object_id")
# (bytes, memoryview format) of the byte lanes _lane_counts counts in
_LANES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
# a trial is scored per distinct key when they number at most this share of its agents
_GROUPED_SHARE = 0.375


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


def _judge(expert: float, forecasts: Sequence[float], radii: Sequence) -> tuple[list, list[int]]:
    """The losses |expert - forecast|, and the rewards: 1 within the radius."""
    losses = list(map(abs, map(sub, repeat(expert), forecasts)))
    return losses, list(map(index, map(le, losses, radii)))


def reward(center: float, r: float, expert: float) -> int:
    """1 when the expert value lands in the closed ball around center."""
    return _judge(expert, (center,), (r,))[1][0]


def _tie_rng(seed: int, trial_index: int, candidate_ids: Sequence[ObjectId]) -> random.Random:
    # string-keyed so the stream is stable across platforms and runs
    key = f"{seed}:{trial_index}:{','.join(map(str, sorted(candidate_ids)))}"
    return random.Random(key)


def _winner(
    losses: list, rewards: list[int], pick: Optional[itemgetter], objects: Sequence[ObjectId],
    forecasts: Sequence[float], config: PredictionConfig, trial_index: int,
) -> Optional[tuple[ObjectId, float]]:
    """(object, forecast) of the rewarded agent with minimal loss; None when
    nobody is rewarded. losses and rewards are those of the trial's distinct
    keys, and pick gives each agent's entry of such a column; without pick
    they are the agents' own.

    Equal losses fall to the tie strategy: a seeded draw keyed by the
    trial, or the lowest object id.
    """
    rewarded = list(compress(losses, rewards))
    if not rewarded:
        return None
    best = min(rewarded)
    ties = list(compress(compress(range(len(losses)), rewards), map(eq, rewarded, repeat(best))))
    if pick is not None:  # the agents that hold the tied keys
        flags = [0] * len(losses)
        for entry in ties:
            flags[entry] = 1
        ties = list(compress(range(len(objects)), pick(flags)))
    ties.sort(key=objects.__getitem__)
    if len(ties) == 1 or config.tie_strategy == "lowest_object_id":
        chosen = ties[0]
    else:
        chosen = _tie_rng(config.rng_seed, trial_index, [objects[j] for j in ties]).choice(ties)
    return objects[chosen], forecasts[chosen]


def _weighted(
    forecasts: Sequence[float], products: Iterable[float], total: int
) -> tuple[float, bool]:
    """The VC-weighted mean, from each agent's product forecast * VC and the
    total VC, and whether every weight is 0, in which case the plain mean
    of the forecasts stands in for it.

    The products are summed by sum() in object order, never by a running
    total: from Python 3.12 on, sum() adds floats with compensation, so
    a loop would give different last digits.
    """
    if total == 0:
        return fmean(forecasts), True
    return sum(products) / total, False


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


def _codes(decisions: Sequence[float]) -> tuple[list[int], list[float]]:
    """Each decision's code, and the decision of each code: decisions share
    a code when their reprs are equal, so -0.0 and 0.0 do not."""
    first: dict[str, float] = {}
    texts = list(map(repr, decisions))
    for text, d in zip(texts, decisions):
        first.setdefault(text, d)
    code_of = dict(zip(first, range(len(first))))
    return list(map(code_of.__getitem__, texts)), list(first.values())


class _Memo(dict):
    """key -> fn(key), each computed on its first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Maps:
    """A session's maps on one ground size: each touching size's VC, and per
    VC* each touching size's radius, each computed on its first lookup.
    Keys are touching size * stride + decision code."""

    def __init__(self, ground: int, stride: int, decision_of_code: Sequence[float],
                 config: PredictionConfig):
        vc = _Memo(lambda size: vc_count(ground, size, config.epsilon, config.mode))
        self.ground, self.stride, self.decision_of_code = ground, stride, decision_of_code
        self.vc = vc
        self.radius = _Memo(
            lambda vc_star: _Memo(lambda size: radius(vc[size], vc_star, config.delta)))

    def sizes(self, keys: Iterable[int]) -> list[int]:
        return list(map(floordiv, keys, repeat(self.stride)))


class _Keyed(NamedTuple):
    """A trial as the scorer gives it: each agent's key (touching size *
    stride + decision code) and, per distinct key, its loss and reward.

    Agents of one key share their VC, radius, forecast, loss and reward, so
    a trial whose keys repeat is scored once per distinct key, and pick
    gives each agent's entry of a column of distinct keys. When the keys
    repeat too little (_grouping), distinct is keys itself, pick is None
    and the trial is scored agent by agent. key_losses and key_rewards are
    None when the trial is unscored. _result expands the trial into a
    TrialResult's columns.
    """

    objects: tuple[ObjectId, ...]
    forecasts: list[float]
    keys: list[int]
    distinct: list[int]
    pick: Optional[itemgetter]
    maps: _Maps
    vc_star: int
    trial_index: int
    expert: Optional[float]
    weighted: float
    weights_degenerate: bool
    key_losses: Optional[list[float]]
    key_rewards: Optional[list[int]]
    winner: Optional[tuple[ObjectId, float]]
    regret: Optional[float]

    def per_agent(self, column: list) -> list:
        """A column of the distinct keys as one entry per agent."""
        return column if self.pick is None else list(self.pick(column))

    @property
    def rewards(self) -> Optional[list[int]]:
        """Each agent's reward, None when the trial is unscored."""
        return None if self.key_rewards is None else self.per_agent(self.key_rewards)


def _grouping(keys: list[int]) -> tuple[list[int], Optional[itemgetter]]:
    """The keys a trial is scored by, and pick: the distinct keys in order
    of first appearance, with an itemgetter that gives each agent's entry
    of a column over them; or, when they number more than _GROUPED_SHARE
    of the agents, keys itself and None. Grouping pays only below about
    that share (BENCH_keyed_trials.json, "crossover")."""
    slot = dict.fromkeys(keys)
    if len(slot) <= _GROUPED_SHARE * len(keys):
        distinct = list(slot)
        slot = dict(zip(distinct, range(len(distinct))))
        return distinct, itemgetter(*map(slot.__getitem__, keys))
    return keys, None


def _finish(
    objects: tuple[ObjectId, ...],
    forecasts: Sequence[float],
    products: Iterable[float],
    total: int,
    expert: Optional[float],
    key_forecasts: Iterable[float],
    key_radii: Iterable[int],
    pick: Optional[itemgetter],
    config: PredictionConfig,
    trial_index: int,
) -> tuple:
    """(weighted, weights_degenerate, losses, rewards, winner, regret) of a
    trial, from the agents' forecasts, their products forecast * VC and
    their total VC; and, given an expert value, from the forecasts and
    radii per distinct key, pick giving each agent's entry (see _winner).
    The regret is the weighted prediction's loss minus the best single
    forecast's loss. Unscored, the last four are None.
    """
    weighted, degenerate = _weighted(forecasts, products, total)
    if expert is None:
        return weighted, degenerate, None, None, None, None
    losses, rewards = _judge(expert, key_forecasts, key_radii)
    winner = _winner(losses, rewards, pick, objects, forecasts, config, trial_index)
    return weighted, degenerate, losses, rewards, winner, abs(expert - weighted) - min(losses)


def _score(
    objects: tuple[ObjectId, ...],
    forecasts: list[float],
    keys: list[int],
    maps: _Maps,
    expert: Optional[float],
    config: PredictionConfig,
    trial_index: int,
    count: bool = True,
) -> _Keyed:
    """A trial from its agents' keys, scored once per distinct key when
    count is set and the keys repeat (_grouping), else agent by agent; the
    VCs, products and radii come from the session's maps by touching size."""
    distinct, pick = _grouping(keys) if count else (keys, None)
    sizes = maps.sizes(distinct)
    key_vcs = list(map(maps.vc.__getitem__, sizes))
    if pick is None:
        products, total, key_forecasts = map(mul, forecasts, key_vcs), sum(key_vcs), forecasts
    else:
        codes = map(mod, distinct, repeat(maps.stride))
        key_forecasts = list(map(maps.decision_of_code.__getitem__, codes))
        products = pick(list(map(mul, key_forecasts, key_vcs)))
        total = sum(pick(key_vcs))
    vc_star = max(key_vcs)
    return _Keyed(objects, forecasts, keys, distinct, pick, maps, vc_star, trial_index, expert,
                  *_finish(objects, forecasts, products, total, expert, key_forecasts,
                           map(maps.radius[vc_star].__getitem__, sizes), pick, config,
                           trial_index))


def _result(trial: _Keyed) -> TrialResult:
    """The trial's columns, one entry per agent."""
    maps = trial.maps
    scored = trial.expert is not None
    sizes = maps.sizes(trial.keys)
    return TrialResult(
        trial.objects,
        sizes,
        list(map(maps.vc.__getitem__, sizes)),
        list(map(maps.radius[trial.vc_star].__getitem__, sizes)),
        trial.forecasts,
        trial.vc_star,
        trial.weighted,
        trial.weights_degenerate,
        trial.trial_index,
        trial.expert,
        trial.rewards,
        trial.per_agent(trial.key_losses) if scored else None,
        trial.winner,
        trial.regret,
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
    return _result(_run_trial(system, omega, expert, config, trial_index))


def _run_trial(
    system: DecisionSystem,
    omega: Mapping[str, Value],
    expert: Optional[float],
    config: PredictionConfig,
    trial_index: int = 0,
) -> _Keyed:
    """run_trial, keyed."""
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
    forecasts = [system.decisions[o] for o in objects]
    codes, decision_of_code = _codes(forecasts)
    stride = len(decision_of_code)
    sizes = _agreement_counts([system.rows[o] for o in objects], reference)
    keys = list(map(add, map(mul, sizes, repeat(stride)), codes))
    maps = _Maps(ground_size(system), stride, decision_of_code, config)
    return _score(objects, forecasts, keys, maps, expert, config, trial_index)


def score_trial(
    trial: TrialResult, expert: float, config: PredictionConfig = PredictionConfig()
) -> TrialResult:
    """Rewards, losses, winner, weighted prediction and regret for a
    hand-assembled panel of columns; the weighted prediction always comes
    from the panel's VCs, whatever value the panel carries."""
    if not trial.objects:
        raise DomainError("scoring needs a panel of at least one agent")
    weighted, degenerate, losses, rewards, winner, regret = _finish(
        trial.objects, trial.forecasts, map(mul, trial.forecasts, trial.vcs), sum(trial.vcs),
        expert, trial.forecasts, trial.radii, None, config, trial.trial_index)
    return trial._replace(weighted=weighted, weights_degenerate=degenerate, expert=expert,
                          rewards=rewards, losses=losses, winner=winner, regret=regret)


def _lane_counts(rows: Sequence[tuple], codes: Sequence[int], stride: int) -> Iterator[list[int]]:
    """For each i in turn, the rows other than row i, each as its key:
    stride * its agreement count with row i + codes[j] for row j. With
    stride 1 and every code 0 that is _agreement_counts(rows[:i] +
    rows[i + 1:], rows[i]).

    Per feature, a value v that two or more rows hold gets a mask, an int
    whose byte lane j holds eq(rows[j][f], v). A lane holds the feature count,
    so row i's total, the sum of its masks, never carries between lanes, and
    its lane j is row j's agreement count (H. S. Warren, Hacker's Delight,
    2nd ed., 2012, ch. 5). A value held by row i alone would set only lane
    i, which is dropped. One feature's masks are kept at a time.

    The keys take lanes that hold (F + 1) * stride: one total at a time is
    copied into them, times stride, plus the codes, so the n totals keep
    the counts' lanes whatever the number of decisions."""
    n = len(rows)
    features = max(map(len, rows), default=0)
    width, code = next((w, c) for w, c in _LANES if features < 256 ** w)
    wide, wide_code = next((w, c) for w, c in _LANES if (features + 1) * stride <= 256 ** w)
    # lanes in native byte order, so that memoryview.cast reads them off
    big = sys.byteorder == "big"
    low = (width - 1) * big
    lanes = bytearray(n * width)
    totals = [0] * n
    for column in zip(*rows):
        mask = {}
        for v, count in Counter(column).items():
            if count > 1:
                lanes[low::width] = bytes(map(eq, column, repeat(v)))
                mask[v] = int.from_bytes(lanes, sys.byteorder)
        totals = list(map(add, totals, map(mask.get, column, repeat(0))))
    at = (wide - width) * big  # where a count's bytes sit in a key's lane
    base = int.from_bytes(array(wide_code, codes).tobytes(), sys.byteorder)
    for i, total in enumerate(totals):
        counts = total.to_bytes(n * width, sys.byteorder)
        spread = bytearray(n * wide)
        for b in range(width):
            spread[at + b::wide] = counts[b::width]
        keys = int.from_bytes(spread, sys.byteorder) * stride + base
        keys = memoryview(keys.to_bytes(n * wide, sys.byteorder)).cast(wide_code).tolist()
        del keys[i]
        yield keys


def leave_one_out(
    system: DecisionSystem, config: PredictionConfig = PredictionConfig()
) -> list[TrialResult]:
    """Each object in turn as the new object, scored against its own
    decision by the panel of all the others; trial i holds out
    system.objects[i].

    Trial i equals run_trial(system.without_object(o), system.row(o),
    system.decisions[o], config, i) for the i-th object o, but no rest table
    is built: each rest table's ground size comes from the full-feature
    classes once per session, the agents' keys (touching size and decision
    code) from byte-lane masks built once per session (_lane_counts), and
    each (ground, touching size) VC is computed once per session.
    """
    return list(map(_result, _session(system, config)))


def _session(system: DecisionSystem, config: PredictionConfig) -> Iterator[_Keyed]:
    """leave_one_out's trials one at a time, keyed, as the session gives them.

    The session counts its trials' distinct keys until one trial has too
    many to group (_grouping), and scores every later trial agent by agent.
    The trials of one session hold about the same share of distinct keys
    (BENCH_keyed_trials.json, "key_spread"), so the later trials would
    mostly be scored agent by agent anyway, and the rest lie near the
    crossover, where the two ways take about the same time.
    """
    objects = system.objects
    if len(objects) < 2:
        raise DomainError("leave-one-out needs at least two objects")
    rows = [system.rows[o] for o in objects]
    decisions = [system.decisions[o] for o in objects]
    codes, decision_of_code = _codes(decisions)
    stride = len(decision_of_code)
    maps = _Memo(lambda ground: _Maps(ground, stride, decision_of_code, config))
    keyed = _lane_counts(rows, codes, stride)
    count = True
    for i, (ground, keys) in enumerate(zip(loo_ground_sizes(system), keyed)):
        trial = _score(objects[:i] + objects[i + 1:], decisions[:i] + decisions[i + 1:], keys,
                       maps[ground], decisions[i], config, i, count)
        count = trial.pick is not None
        yield trial
