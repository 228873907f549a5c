"""In-memory span tracer for the benchmark's traced mode.

The tracer times calls into the program's layers from outside the
program: it rebinds the module and class attributes that callers look up
(for example `predict.vc_of_object`, which `build_trial` reads from its
module globals) to wrappers that record a span per call. Nothing under
`src/` changes, and untraced runs never install the wrappers.

A span is `(name, start, end, parent)`, with `parent` the index of the
enclosing span or -1. Spans stay in memory until the pass ends; `summarize`
then turns them into per-name self times and call counts. A layer's self
time is its span's duration minus the durations of its direct children;
the calls are sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
import types
from collections import Counter
from typing import Callable, Iterator, Optional

Span = tuple[str, float, float, int]
ResultHook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._vc_keys: set = set()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._vc_keys.clear()

    def wrap(self, name: str, fn: Callable, hook: Optional[ResultHook] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, -1))
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, mereovc) -> Iterator[None]:
        """Rebind every traced name for the duration of the block."""
        saved = []

        def patch(owner, attr: str, name: str, hook: Optional[ResultHook] = None) -> None:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

        cli, predict, tables = mereovc.cli, mereovc.predict, mereovc.tables
        laws, lukasiewicz, syllogistic = mereovc.laws, mereovc.lukasiewicz, mereovc.syllogistic
        mereology = mereovc.mereology

        patch(cli, "main", "cli.main")
        patch(cli, "load_decision_system", "tables.load", _count_rows)
        patch(cli, "run_trial", "predict.run_trial", self._count_trial)
        patch(cli, "_trial_digest", "cli.digest")
        patch(cli, "count_mistakes", "mistakes.count_mistakes")
        patch(cli, "full_selftest", "laws.full_selftest")
        patch(cli, "enumerate_moods", "syllogistic.enumerate_moods")
        patch(predict, "touching_set", "vc.touching_set")
        patch(predict, "vc_of_object", "vc.vc_of_object")
        patch(predict, "is_consistent", "tables.is_consistent")
        patch(predict, "consistentize", "tables.consistentize")
        patch(predict, "score_trial", "predict.score_trial")
        patch(tables.DecisionSystem, "without_object", "tables.without_object")
        patch(tables.DecisionSystem, "as_new_object", "tables.as_new_object")
        patch(laws, "run_law_suite", "laws.run_law_suite", _count_cases)
        patch(lukasiewicz, "check_t_norm", "lukasiewicz.check_t_norm")
        patch(lukasiewicz, "formula_identities", "lukasiewicz.formula_identities")
        patch(syllogistic, "find_model", "syllogistic.find_model")
        for attr, value in list(vars(laws).items()):
            if (
                isinstance(value, types.FunctionType)
                and getattr(mereology, attr, None) is value
            ):
                patch(laws, attr, "mereology")
        # cli reaches the serializer as `json.dumps`; give it a json whose
        # dumps is traced and leave the real module alone.
        traced_json = types.SimpleNamespace(**vars(json))
        traced_json.dumps = self.wrap("cli.serialize", json.dumps)
        saved.append((cli, "json", cli.json))
        cli.json = traced_json
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _count_trial(self, counters: Counter, args: tuple, kwargs: dict, trial) -> None:
        config = kwargs["config"]
        ground = len(trial.omega)
        counters["predict.trials"] += 1
        counters["predict.agents"] += len(trial.forecasts)
        counters["predict.degenerate_trials"] += trial.weights_degenerate
        rewarded = [f.loss for f in trial.forecasts if f.reward == 1]
        if rewarded and rewarded.count(min(rewarded)) > 1:
            counters["predict.tie_trials"] += 1
        for f in trial.forecasts:
            self._vc_keys.add((ground, f.touching_size, config.epsilon, config.mode))
        counters["vc.distinct_keys"] = len(self._vc_keys)


def _count_rows(counters: Counter, args: tuple, kwargs: dict, system) -> None:
    counters["tables.rows_loaded"] += len(system.objects)


def _count_cases(counters: Counter, args: tuple, kwargs: dict, reports) -> None:
    counters["laws.cases"] += sum(r.cases for r in reports)


def summarize(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-name self time (`<name>_s`) and call count (`<name>_calls`).

    `trace.unattributed_s` is the part of `wall` that no top-level span
    covers, so the self times plus that remainder add up to `wall`.
    """
    child_time = [0.0] * len(spans)
    covered = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            covered += end - start
    out: dict[str, float] = Counter()
    for (name, start, end, _), children in zip(spans, child_time):
        out[f"{name}_s"] += end - start - children
        out[f"{name}_calls"] += 1
    out["trace.unattributed_s"] = wall - covered
    return dict(out)
