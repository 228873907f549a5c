"""Command-line front end: single trials, leave-one-out sessions, the
syllogistic mood catalog, and the algebra self-test.

Exit codes: 0 success, 1 for input and file problems, 2 for usage and
validation problems, 3 for domain errors raised by the engine. Reports
are UTF-8 JSON with stable key order, so identical inputs and flags give
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from statistics import fmean
from typing import Optional, Sequence

from .errors import DomainError, InputError, UsageError
from .laws import MAX_REPORTED_FAILURES, full_selftest
from .mistakes import count_mistakes
from .predict import (
    AgentForecast,
    PredictionConfig,
    TrialResult,
    approx_predicted,
    max_rewarded_loss,
    run_trial,
)
from .syllogistic import (
    enumerate_moods,
    find_model,
    is_valid_mood,
    lookup_mood,
    parse_mood,
)
from .tables import DecisionSystem, NewObject, load_decision_system


def parse_rational(text: str) -> Fraction:
    """A rational literal: "p/q" or a plain integer. Floats are rejected."""
    stripped = text.strip()
    if "." in stripped:
        raise UsageError(
            f"epsilon must be a rational literal like 1/2, not a float: {text!r}"
        )
    try:
        value = Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse {text!r} as a rational p/q") from None
    return value


def _finite_float(text: str) -> float:
    """A float flag value; nan and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite real number")
    return value


def _add_protocol_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", default="1", help="degree threshold, rational p/q")
    sub.add_argument("--delta", type=int, default=1, help="radius scale, positive integer")
    sub.add_argument("--eta", type=_finite_float, default=0.5,
                     help="localization learning rate in (0,1)")
    sub.add_argument("--mode", choices=["exact", "at_least"], default="exact")
    sub.add_argument("--tie", choices=["random", "lowest"], default="random")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tolerance", type=_finite_float, default=1e-6,
                     help="radius stopping tolerance")
    sub.add_argument("--decision", default=None, metavar="COLUMN",
                     help="decision column name (default: last column)")
    sub.add_argument("--output", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mereovc",
        description="decision prediction over rough-set tables, with a "
        "mereological algebra, syllogistic and t-norm toolbox",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    predict = commands.add_parser("predict", help="run one trial against a new object")
    predict.add_argument("table", help="CSV decision table")
    predict.add_argument("--omega", required=True,
                         help='new object: inline "f1=1,f2=2" or a one-row CSV file')
    predict.add_argument("--expert", type=_finite_float, default=None,
                         help="expert decision value; enables rewards and regret")
    _add_protocol_flags(predict)

    loo = commands.add_parser("evaluate-loo", help="leave-one-out session over a table")
    loo.add_argument("table", help="CSV decision table")
    _add_protocol_flags(loo)

    moods = commands.add_parser("moods", help="syllogistic mood catalog")
    moods_sub = moods.add_subparsers(dest="moods_command", required=True)
    moods_list = moods_sub.add_parser("list", help="all 256 moods with validity verdicts")
    moods_list.add_argument("--output", choices=["csv", "json"], default="csv")
    moods_check = moods_sub.add_parser("check", help="decide one mood")
    moods_check.add_argument("expression",
                             help='a mood "Amb & Aam -> Aab" or a catalog name like Barbara')

    algebra = commands.add_parser("algebra", help="algebra and t-norm law suites")
    algebra_sub = algebra.add_subparsers(dest="algebra_command", required=True)
    selftest = algebra_sub.add_parser("selftest", help="run every law suite")
    selftest.add_argument("--atoms", type=int, default=4,
                          help="atom count for the exhaustive universe (2..5)")
    selftest.add_argument("--random", type=int, default=100, dest="random_universes",
                          help="number of random sampled universes")
    selftest.add_argument("--max-atoms", type=int, default=10,
                          help="largest random universe size")
    selftest.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args: argparse.Namespace) -> PredictionConfig:
    """The protocol config; an out-of-range flag value is a usage error."""
    try:
        return PredictionConfig(
            epsilon=parse_rational(args.epsilon),
            delta=args.delta,
            mode=args.mode,
            tie_strategy=args.tie,
            rng_seed=args.seed,
            eta=args.eta,
            radius_tolerance=args.tolerance,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _config_echo(args: argparse.Namespace, config: PredictionConfig) -> dict:
    return {
        "epsilon": str(config.epsilon),
        "delta": config.delta,
        "mode": config.mode,
        "tie": config.tie_strategy,
        "seed": config.rng_seed,
        "eta": config.eta,
        "tolerance": config.radius_tolerance,
        "decision": args.decision,
    }


def _load_table(path: str, decision: Optional[str]) -> DecisionSystem:
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return load_decision_system(handle, decision_column=decision)


def _parse_omega(source: str, system: DecisionSystem) -> tuple[NewObject, dict]:
    """Inline "f=v" pairs when the source contains "=", else a one-row CSV."""
    if "=" in source:
        mapping: dict[str, str] = {}
        for part in source.split(","):
            name, eq, value = part.partition("=")
            if not eq or not name:
                raise UsageError(f"cannot parse omega assignment {part!r}; expected feature=value")
            if name.strip() in mapping:
                raise UsageError(f"feature {name.strip()!r} is assigned twice in --omega")
            mapping[name.strip()] = value
    else:
        with open(source, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
        rows = [r for r in rows if r]
        if len(rows) != 2:
            raise UsageError(
                f"omega file {source!r} must hold a header and exactly one row"
            )
        header, cells = rows
        if len(cells) != len(header):
            raise UsageError(
                f"omega file {source!r} row has {len(cells)} cells but the header has {len(header)}"
            )
        mapping = dict(zip(header, cells))
    missing = sorted(set(system.features) - mapping.keys())
    extra = sorted(mapping.keys() - set(system.features))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing feature(s): {', '.join(missing)}")
        if extra:
            parts.append(f"unknown feature(s): {', '.join(extra)}")
        raise UsageError("; ".join(parts))
    ordered = {f: mapping[f] for f in system.features}
    return NewObject.from_mapping(ordered), ordered


def _dumps(report) -> str:
    """The report as strict JSON; a non-finite number is a domain error."""
    try:
        return json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise DomainError(
            "the report holds a number outside the float range, so it is not valid JSON"
        ) from None


def _forecast_dict(f: AgentForecast, scored: bool) -> dict:
    entry = {
        "id": f.object,
        "touching_size": f.touching_size,
        "vc": f.vc,
        "radius": f.radius,
        "forecast": f.forecast,
    }
    if scored:
        entry["reward"] = f.reward
        entry["loss"] = f.loss
    return entry


def _winner_json(trial: TrialResult):
    return list(trial.winner) if trial.winner is not None else None


def cmd_predict(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    system = _load_table(args.table, args.decision)
    omega, omega_mapping = _parse_omega(args.omega, system)
    trial = run_trial(system, omega, expert=args.expert, config=config)
    scored = args.expert is not None
    report = {"config": _config_echo(args, config), "omega": omega_mapping}
    if scored:
        report["expert"] = trial.expert
    report["vc_star"] = trial.vc_star
    report["per_object"] = [_forecast_dict(f, scored) for f in trial.forecasts]
    if scored:
        report["winner"] = _winner_json(trial)
    report["weighted"] = trial.weighted
    report["weights_degenerate"] = trial.weights_degenerate
    if scored:
        report["regret"] = trial.regret
        report["max_rewarded_loss"] = max_rewarded_loss(trial)
    report["seed"] = config.rng_seed
    if args.output == "csv":
        out = io.StringIO()
        fields = ["id", "touching_size", "vc", "radius", "forecast"]
        if scored:
            fields += ["reward", "loss"]
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for f in trial.forecasts:
            writer.writerow(_forecast_dict(f, scored))
        print(out.getvalue(), end="")
    else:
        print(_dumps(report))
    return 0


def _trial_digest(index: int, holdout, omega_mapping: dict, trial: TrialResult) -> dict:
    return {
        "trial": index,
        "holdout": holdout,
        "omega": omega_mapping,
        "expert": trial.expert,
        "vc_star": trial.vc_star,
        "per_object": [_forecast_dict(f, True) for f in trial.forecasts],
        "winner": _winner_json(trial),
        "weighted": trial.weighted,
        "weights_degenerate": trial.weights_degenerate,
        "regret": trial.regret,
    }


def cmd_evaluate_loo(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    system = _load_table(args.table, args.decision)
    if len(system.objects) < 2:
        raise DomainError("leave-one-out needs at least two objects")
    trials = []
    digests = []
    for index, holdout in enumerate(system.objects):
        rest = system.without_object(holdout)
        omega = system.as_new_object(holdout)
        expert = system.decisions[holdout]
        trial = run_trial(rest, omega, expert=expert, config=config, trial_index=index)
        trials.append(trial)
        digests.append(_trial_digest(index, holdout, system.row(holdout), trial))
    ledger = count_mistakes(trials)
    regrets = [t.regret for t in trials]
    report = {
        "config": _config_echo(args, config),
        "object_count": len(system.objects),
        "trials": digests,
        "approx_predicted": approx_predicted(trials),
        "mistakes": {
            "per_object": {str(o): n for o, n in ledger.per_object_mistakes.items()},
            "per_trial": list(ledger.per_trial),
            "total": ledger.total,
            "covered_trials": sum(ledger.covered),
            "mistake_free_objects": sorted(ledger.mistake_free_objects),
        },
        "regret_stats": {"mean": fmean(regrets), "max": max(regrets)},
    }
    if args.output == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["trial", "holdout", "expert", "vc_star", "winner_id",
                         "winner_forecast", "weighted", "regret", "mistakes"])
        for digest, mist in zip(digests, ledger.per_trial):
            winner = digest["winner"] or [None, None]
            writer.writerow([digest["trial"], digest["holdout"], digest["expert"],
                             digest["vc_star"], winner[0], winner[1],
                             digest["weighted"], digest["regret"], mist])
        print(out.getvalue(), end="")
    else:
        print(_dumps(report))
    return 0


def _model_text(model) -> str:
    parts = []
    for term in sorted(model.assignment):
        cells = ",".join(str(c) for c in sorted(model.assignment[term]))
        parts.append(f"{term} = {{{cells}}}")
    return "; ".join(parts)


def cmd_moods(args: argparse.Namespace) -> int:
    if args.moods_command == "list":
        entries = enumerate_moods()
        if args.output == "json":
            payload = [
                {
                    "figure": e.figure,
                    "premiss1": e.mood.premiss1.as_text(),
                    "premiss2": e.mood.premiss2.as_text(),
                    "conclusion": e.mood.conclusion.as_text(),
                    "valid": e.valid,
                    "name": e.name,
                }
                for e in entries
            ]
            print(_dumps(payload))
        else:
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["figure", "premiss1", "premiss2", "conclusion", "valid", "name"])
            for e in entries:
                writer.writerow([
                    e.figure,
                    e.mood.premiss1.as_text(),
                    e.mood.premiss2.as_text(),
                    e.mood.conclusion.as_text(),
                    "true" if e.valid else "false",
                    e.name or "",
                ])
            print(out.getvalue(), end="")
        return 0
    expression = args.expression
    mood = lookup_mood(expression) if "->" not in expression.replace("⊃", "->") else parse_mood(expression)
    verdict = is_valid_mood(mood)
    if verdict.valid:
        print(f"valid: {mood.as_text()}")
    else:
        print(f"invalid: {mood.as_text()}")
        print(f"countermodel: {_model_text(verdict.countermodel)}")
    return 0


def cmd_algebra_selftest(args: argparse.Namespace) -> int:
    reports = full_selftest(
        atoms=args.atoms,
        random_universes=args.random_universes,
        max_atoms=args.max_atoms,
        seed=args.seed,
    )
    failed = 0
    for report in reports:
        if report.ok:
            print(f"PASS {report.name} ({report.cases} cases)")
        else:
            failed += 1
            print(f"FAIL {report.name} ({report.cases} cases)")
            for context in report.failures[:MAX_REPORTED_FAILURES]:
                print(f"  counterexample: {context}")
    total = len(reports)
    if failed:
        print(f"{failed} of {total} law suites failed")
        return 1
    print(f"all {total} law suites passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        if args.command == "predict":
            return cmd_predict(args)
        if args.command == "evaluate-loo":
            return cmd_evaluate_loo(args)
        if args.command == "moods":
            return cmd_moods(args)
        return cmd_algebra_selftest(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
