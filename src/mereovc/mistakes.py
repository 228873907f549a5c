"""Mistake accounting and expert-supervised panel localization.

A mistake is a trial in which an agent's neighborhood misses the expert
value. The localization loop replays one trial round by round: agents
whose neighborhood misses the expert are dismissed, surviving radii are
shrunk by a learning rate, and the loop stops when nobody survives or
every surviving radius has fallen under a tolerance. The answer is the
fore-last survivor set: the last one seen non-empty, together with the
neighborhoods it was checked at.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress
from operator import not_
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import DomainError
from .predict import PredictionConfig, TrialResult
from .tables import DecisionSystem, ObjectId


class MistakeLedger(NamedTuple):
    """Reward misses per agent and per trial across a session."""

    per_object_mistakes: Mapping[ObjectId, int]
    per_trial: tuple[int, ...]
    total: int
    covered: tuple[bool, ...]
    mistake_free_objects: frozenset[ObjectId]


def count_mistakes(trials: Iterable[TrialResult]) -> MistakeLedger:
    """Tally reward misses over scored trials, in one pass; a trial gives
    its agents as objects and a reward per agent as rewards.

    covered[i] says whether trial i rewarded anyone; the mistake-free set
    collects agents that never missed in any trial they took part in.
    """
    agents: set[ObjectId] = set()
    missed: Counter = Counter()
    per_trial = []
    covered = []
    for trial in trials:
        rewards = trial.rewards
        if rewards is None:
            raise DomainError("mistake counting needs scored trials")
        agents.update(trial.objects)
        misses = list(compress(trial.objects, map(not_, rewards)))
        missed.update(misses)
        per_trial.append(len(misses))
        covered.append(len(misses) < len(trial.objects))
    if not per_trial:
        raise DomainError("mistake counting needs at least one trial")
    per_object = {o: missed[o] for o in sorted(agents)}
    return MistakeLedger(
        per_object_mistakes=per_object,
        per_trial=tuple(per_trial),
        total=sum(per_trial),
        covered=tuple(covered),
        mistake_free_objects=frozenset(o for o, n in per_object.items() if n == 0),
    )


class LocalizationState(NamedTuple):
    """One round's outcome: who survived, checked at which radii."""

    round: int
    survivors: frozenset[ObjectId]
    radii: Mapping[ObjectId, float]


class LocalizationResult(NamedTuple):
    history: list[LocalizationState]
    localization: frozenset[ObjectId]
    interval: tuple[float, float]


def round_bound(max_radius: float, eta: float, tolerance: float) -> int:
    """Rounds until every radius sinks under tolerance by pure shrinking."""
    if max_radius < tolerance:
        return 0
    return max(0, math.ceil(math.log(tolerance / max_radius) / math.log(eta)))


def localize(
    system: Optional[DecisionSystem],
    trial: TrialResult,
    expert: float,
    config: PredictionConfig = PredictionConfig(),
) -> LocalizationResult:
    """Shrink-and-dismiss localization of the expert value.

    Survivor sets only ever lose members, so the history is a descending
    chain. The returned interval is the hull of the fore-last survivors'
    neighborhoods; it contains the expert value whenever the fore-last
    check itself passed.

    Every center stays at the agent's forecast; only the radii shrink.
    The system argument is only used to cross-check agent ids and may be
    None for hand-built trials.
    """
    if not trial.objects:
        raise DomainError("localization needs at least one agent")
    if system is not None:
        stray = set(trial.objects) - set(system.objects)
        if stray:
            raise DomainError(f"trial agents {sorted(stray, key=repr)} are not in the system")
    centers = dict(zip(trial.objects, map(float, trial.forecasts)))
    survivors = frozenset(centers)
    radii = dict(zip(trial.objects, map(float, trial.radii)))
    fore_last = (survivors, radii)
    history: list[LocalizationState] = []
    while True:
        keep = frozenset(o for o in survivors if abs(expert - centers[o]) <= radii[o])
        checked = {o: radii[o] for o in keep}
        history.append(LocalizationState(len(history), keep, checked))
        if not keep:
            break
        fore_last = (keep, checked)
        survivors = keep
        radii = {o: r * config.eta for o, r in checked.items()}
        if all(r < config.radius_tolerance for r in radii.values()):
            break
    last_set, last_radii = fore_last
    lo = min(centers[o] - last_radii[o] for o in last_set)
    hi = max(centers[o] + last_radii[o] for o in last_set)
    return LocalizationResult(history, last_set, (lo, hi))
