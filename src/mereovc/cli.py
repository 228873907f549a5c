"""Command-line front end: single trials, leave-one-out sessions, the
syllogistic mood catalog, and the algebra self-test.

Exit codes: 0 success, 1 for input and file problems, 2 for usage and
validation problems, 3 for domain errors raised by the engine. Reports
are UTF-8 JSON with stable key order, so identical inputs and flags give
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from statistics import fmean
from typing import Iterator, NamedTuple, Optional, Sequence, TextIO

from .errors import DomainError, InputError, UsageError
from .laws import MAX_REPORTED_FAILURES, full_selftest
from .mistakes import count_mistakes
from .predict import (
    PredictionConfig,
    TrialResult,
    leave_one_out,
    max_rewarded_loss,
    run_trial,
)
from .syllogistic import (
    enumerate_moods,
    is_valid_mood,
    lookup_mood,
    parse_mood,
)
from .tables import DecisionSystem, load_decision_system, read_records


def parse_rational(text: str) -> Fraction:
    """A rational literal: "p/q" or a plain integer, optionally signed, in
    ASCII digits. Decimals, exponents, underscores and inner spaces are
    rejected on every Python version."""
    stripped = text.strip()
    if "." in stripped:
        raise UsageError(
            f"epsilon must be a rational literal like 1/2, not a float: {text!r}"
        )
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", stripped):
        raise UsageError(f"cannot parse {text!r} as a rational p/q")
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise UsageError(f"cannot parse {text!r} as a rational p/q") from None


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
                          help="number of random sampled universes (0 or more)")
    selftest.add_argument("--max-atoms", type=int, default=10,
                          help="largest random universe size (2 or more)")
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


@contextlib.contextmanager
def _input_file(path: str) -> Iterator[TextIO]:
    """A CSV input opened as UTF-8 text; its input errors name the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_table(path: str, decision: Optional[str]) -> DecisionSystem:
    with _input_file(path) as handle:
        return load_decision_system(handle, decision_column=decision)


def _parse_omega(source: str, system: DecisionSystem) -> dict[str, str]:
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
        with _input_file(source) as handle:
            rows = [cells for _, cells in read_records(handle) if cells]
        if len(rows) != 2:
            raise UsageError(
                f"omega file {source!r} must hold a header and exactly one row"
            )
        header, cells = rows
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise UsageError(
                f"feature {repeated[0]!r} is assigned twice in omega file {source!r}"
            )
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
    return {f: mapping[f] for f in system.features}


_CONTAINERS = (dict, list, tuple)
_NON_FINITE = "the report holds a number outside the float range"


def _is_flat(members) -> bool:
    return not any(map(isinstance, members, repeat(_CONTAINERS)))


class Columns(NamedTuple):
    """Records held as columns: record i maps keys[j] to columns[j][i].

    Each column holds only ints or only floats, so the report writer can
    fill every record of the list from one template.
    """

    keys: tuple[str, ...]
    columns: tuple[Sequence, ...]


def _dumps(report) -> str:
    """The report as strict JSON; a non-finite number is a domain error.

    The text is byte for byte json.dumps(report, indent=2, allow_nan=False),
    with a Columns value written as its list of records. Each container of
    scalars is one call of the C encoder, with the newline and indent of
    its depth as the member separator; each Columns is one %-format of a
    record template, since json writes an int or a finite float as its
    repr. Only containers that hold containers are laid out in Python.
    """
    encoders = {}

    def encode(obj, pad: str) -> str:
        # obj by the C encoder, members separated by a newline and pad
        if pad not in encoders:
            encoders[pad] = json.JSONEncoder(
                allow_nan=False, separators=(",\n" + pad, ": ")
            ).encode
        return encoders[pad](obj)

    def key(name, pad: str) -> str:
        if isinstance(name, str):
            return encode(name, pad)
        # json writes a non-string key as a string; let the C encoder say how
        return encode({name: None}, pad)[1:-len(": null}")]

    def records(table: Columns, pad: str) -> str:
        rows = len(table.columns[0])
        if not rows:
            return "[]"
        for name, column in zip(table.keys, table.columns):
            kinds = set(map(type, column))
            if kinds == {float}:
                if not all(map(math.isfinite, column)):
                    raise ValueError(name)  # as the C encoder does for nan/inf
            elif kinds != {int}:
                # a bool or an int subclass has another repr than json's
                raise TypeError(
                    f"report column {name!r} holds {sorted(k.__name__ for k in kinds)}, "
                    "not only int or only float"
                )
        inner = pad + "  "
        deep = inner + "  "
        fields = (",\n" + deep).join(
            f"{key(k, deep).replace('%', '%%')}: %r" for k in table.keys
        )
        record = f"{{\n{deep}{fields}\n{inner}}}"
        body = (",\n" + inner).join(repeat(record, rows))
        cells = tuple(chain.from_iterable(zip(*table.columns)))
        return f"[\n{inner}{body % cells}\n{pad}]"

    def write(obj, pad: str) -> str:
        if isinstance(obj, Columns):
            return records(obj, pad)
        if not isinstance(obj, _CONTAINERS) or not obj:
            return encode(obj, pad)
        inner = pad + "  "
        is_dict = isinstance(obj, dict)
        if _is_flat(obj.values() if is_dict else obj):
            body = encode(obj, inner)[1:-1]
        elif is_dict:
            body = (",\n" + inner).join(
                f"{key(k, inner)}: {write(v, inner)}" for k, v in obj.items()
            )
        else:
            body = (",\n" + inner).join(write(m, inner) for m in obj)
        opening, closing = "{}" if is_dict else "[]"
        return f"{opening}\n{inner}{body}\n{pad}{closing}"

    try:
        return write(report, "")
    except ValueError:
        raise DomainError(f"{_NON_FINITE}, so it is not valid JSON") from None


def _csv_text(header: Sequence[str], rows) -> str:
    """The header and rows as CSV text; a non-finite number is a domain
    error, as it is in a JSON report."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if not all(map(_finite_cell, row)):
            raise DomainError(f"{_NON_FINITE}, so no CSV is written")
        writer.writerow(row)
    return out.getvalue()


def _finite_cell(cell) -> bool:
    return not isinstance(cell, float) or math.isfinite(cell)


_AGENT_KEYS = ("id", "touching_size", "vc", "radius", "forecast")


def _trial_fields(trial: TrialResult) -> dict:
    """A trial's report entries from the expert value to the regret, with
    the agent records as columns; an unscored trial has no expert, reward,
    loss, winner or regret."""
    columns = (trial.objects, trial.touching_sizes, trial.vcs, trial.radii, trial.forecasts)
    if trial.rewards is None:
        return {
            "vc_star": trial.vc_star,
            "per_object": Columns(_AGENT_KEYS, columns),
            "weighted": trial.weighted,
            "weights_degenerate": trial.weights_degenerate,
        }
    return {
        "expert": trial.expert,
        "vc_star": trial.vc_star,
        "per_object": Columns(
            (*_AGENT_KEYS, "reward", "loss"), (*columns, trial.rewards, trial.losses)
        ),
        "winner": list(trial.winner) if trial.winner is not None else None,
        "weighted": trial.weighted,
        "weights_degenerate": trial.weights_degenerate,
        "regret": trial.regret,
    }


def cmd_predict(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    system = _load_table(args.table, args.decision)
    omega = _parse_omega(args.omega, system)
    trial = run_trial(system, omega, expert=args.expert, config=config)
    report = {"config": _config_echo(args, config), "omega": omega, **_trial_fields(trial)}
    if args.expert is not None:
        report["max_rewarded_loss"] = max_rewarded_loss(trial)
    report["seed"] = config.rng_seed
    if args.output == "csv":
        records = report["per_object"]
        print(_csv_text(records.keys, zip(*records.columns)), end="")
    else:
        print(_dumps(report))
    return 0


def _trial_digest(system: DecisionSystem, trial: TrialResult) -> dict:
    holdout = system.objects[trial.trial_index]
    return {
        "trial": trial.trial_index,
        "holdout": holdout,
        "omega": system.row(holdout),
        **_trial_fields(trial),
    }


def cmd_evaluate_loo(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    system = _load_table(args.table, args.decision)
    trials = leave_one_out(system, config)
    ledger = count_mistakes(trials)
    if args.output == "csv":
        header = ["trial", "holdout", "expert", "vc_star", "winner_id",
                  "winner_forecast", "weighted", "regret", "mistakes"]
        rows = (
            [t.trial_index, o, t.expert, t.vc_star, *(t.winner or (None, None)),
             t.weighted, t.regret, misses]
            for o, t, misses in zip(system.objects, trials, ledger.per_trial)
        )
        print(_csv_text(header, rows), end="")
        return 0
    regrets = [t.regret for t in trials]
    report = {
        "config": _config_echo(args, config),
        "object_count": len(system.objects),
        "trials": [_trial_digest(system, t) for t in trials],
        "approx_predicted": all(ledger.covered),
        "mistakes": {
            "per_object": {str(o): n for o, n in ledger.per_object_mistakes.items()},
            "per_trial": ledger.per_trial,
            "total": ledger.total,
            "covered_trials": sum(ledger.covered),
            "mistake_free_objects": sorted(ledger.mistake_free_objects),
        },
        "regret_stats": {"mean": fmean(regrets), "max": max(regrets)},
    }
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
            header = ["figure", "premiss1", "premiss2", "conclusion", "valid", "name"]
            rows = (
                [
                    e.figure,
                    e.mood.premiss1.as_text(),
                    e.mood.premiss2.as_text(),
                    e.mood.conclusion.as_text(),
                    "true" if e.valid else "false",
                    e.name or "",
                ]
                for e in entries
            )
            print(_csv_text(header, rows), end="")
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
    except OverflowError:
        # fmean of finite numbers whose sum leaves the float range
        print("error: an intermediate sum overflows the float range", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
