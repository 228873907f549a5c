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
from itertools import repeat
from operator import add, mul
from typing import Iterator, Mapping, Optional, Sequence, TextIO

from .errors import DomainError, InputError, UsageError
from .laws import MAX_REPORTED_FAILURES, full_selftest
from .mistakes import MistakeLedger, count_mistakes
from .predict import (
    PredictionConfig,
    _codes,
    _Keyed,
    _mean,
    _result,
    _run_trial,
    _session,
    max_rewarded_loss,
)
# Not called here; imported only because perfbench/spans.py rebinds it to time it.
from .predict import run_trial  # noqa: F401
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


class _Text(list):
    """A report value already written as JSON, in pieces: one trial's agent
    records. The writer refuses it unless finite, as the C encoder refuses
    nan and inf."""

    finite = True


class _Writer:
    """A report's JSON text in pieces (see _dumps); it holds no reference cycle."""

    def __init__(self):
        self.out: list = []  # strs, and each _Text as itself
        self.cuts: list[int] = []  # where each _Text sits in out
        self.encoders = {}
        self.keys: dict[str, str] = {}

    def encode(self, obj, pad: str) -> str:
        # obj by the C encoder, members separated by a newline and pad
        if pad not in self.encoders:
            self.encoders[pad] = json.JSONEncoder(
                allow_nan=False, separators=(",\n" + pad, ": ")
            ).encode
        return self.encoders[pad](obj)

    def key(self, name, pad: str) -> str:
        if type(name) is str:
            if name not in self.keys:
                self.keys[name] = self.encode(name, pad)
            return self.keys[name]
        # json writes a non-string key as a string; let the C encoder say how
        return self.encode({name: None}, pad)[1:-len(": null}")]

    def write(self, obj, pad: str) -> None:
        if isinstance(obj, _Text):
            if not obj.finite:
                raise ValueError("a non-finite number")
            self.cuts.append(len(self.out))
            return self.out.append(obj)
        if type(obj) is int or type(obj) is float and math.isfinite(obj):
            return self.out.append(repr(obj))  # json writes these as their repr
        if not isinstance(obj, _CONTAINERS) or not obj:
            return self.out.append(self.encode(obj, pad))
        inner = pad + "  "
        is_dict = isinstance(obj, dict)
        opening, closing = "{}" if is_dict else "[]"
        if _is_flat(obj.values() if is_dict else obj):
            body = self.encode(obj, inner)[1:-1]
            return self.out.append(f"{opening}\n{inner}{body}\n{pad}{closing}")
        lead = f"{opening}\n{inner}"
        for name, member in obj.items() if is_dict else zip(repeat(None), obj):
            self.out.append(f"{lead}{self.key(name, inner)}: " if is_dict else lead)
            self.write(member, inner)
            lead = f",\n{inner}"
        self.out.append(f"\n{pad}{closing}")

    def chunks(self) -> Iterator[str]:
        """The text, one _Text and what precedes it at a time."""
        out, start = self.out, 0
        for cut in self.cuts:
            yield "".join(out[start:cut])
            yield "".join(out[cut])
            start = cut + 1
        yield "".join(out[start:])


def _written(report) -> _Writer:
    writer = _Writer()
    try:
        writer.write(report, "")
    except ValueError:
        raise DomainError(f"{_NON_FINITE}, so it is not valid JSON") from None
    return writer


def _dumps(report) -> str:
    """The report as strict JSON; a non-finite number is a domain error.

    The text is byte for byte json.dumps(report, indent=2, allow_nan=False),
    with a _Text value written as its pieces. Each container of scalars is
    one call of the C encoder, with the newline and indent of its depth as
    the member separator. The writer keeps each _Text as itself, so its
    pieces are joined only here.
    """
    return "".join(_written(report).chunks())


def _print_json(report) -> None:
    """Print _dumps(report) and a newline, one _Text and what precedes it at
    a time. Every piece is built and checked before the first is written,
    so a report that is not valid JSON leaves stdout empty."""
    write = sys.stdout.write
    for chunk in _written(report).chunks():
        write(chunk)
    write("\n")


class _Losses(dict):
    """loss -> its text and its record's end. A loss is a float from abs, so
    its value is an exact key (no -0.0); each is checked on its first format,
    and finite turns False for good on one outside the float range."""

    finite = True

    def __init__(self, end: str):
        self.end = end

    def __missing__(self, loss):
        if not math.isfinite(loss):
            self.finite = False
            return ""
        text = self[loss] = f"{loss!r}{self.end}"
        return text


class _Middles(dict):
    """A record's text from its touching size through "loss": (to its end when
    unscored) for one (ground size, VC*), by 2 * key + reward, with key =
    size * D + decision code; VC and radius come from the session's maps
    by touching size (predict._Maps)."""

    def __init__(self, template: str, forecasts: list[str], vc: Mapping[int, int],
                 radius: Mapping[int, int]):
        self.template = template
        self.forecasts = forecasts
        self.vc = vc
        self.radius = radius

    def __missing__(self, key: int) -> str:
        rest, reward = divmod(key, 2)
        size, code = divmod(rest, len(self.forecasts))
        text = self[key] = self.template.format(
            size=size, vc=self.vc[size], radius=self.radius[size],
            forecast=self.forecasts[code], reward=reward,
        )
        return text


class _Records:
    """A session's agent records as JSON text at the indent of a per_object
    list at pad, three cached texts per record: a head per object id, a
    middle per (ground size, VC*, key, reward) and a loss text per distinct
    loss.

    Ids and decisions are checked and formatted once per session; decisions
    are coded as the session codes them (predict._codes), by their text, so
    -0.0 and 0.0 stay apart.
    """

    def __init__(self, system: DecisionSystem, pad: str):
        inner, deep = pad + "  ", pad + "    "
        encode = json.JSONEncoder().encode
        self.heads = [
            f',\n{inner}{{\n{deep}"id": {encode(o)},\n{deep}"touching_size": '
            for o in system.objects
        ]
        decisions = [system.decisions[o] for o in system.objects]
        for o, d in zip(system.objects, decisions):
            if type(d) is not float:
                raise TypeError(f"decision {d!r} of object {o!r} is not a float")
            if not math.isfinite(d):
                raise DomainError(f"{_NON_FINITE}, so it is not valid JSON")
        self.forecasts = list(map(repr, _codes(decisions)[1]))
        fields = f',\n{deep}"vc": {{vc}},\n{deep}"radius": {{radius}},\n{deep}"forecast": {{forecast}}'
        self.templates = {
            True: "{size}" + fields + f',\n{deep}"reward": {{reward}},\n{deep}"loss": ',
            False: "{size}" + fields + f"\n{inner}}}}}",
        }
        self.middles: dict[tuple, _Middles] = {}
        self.losses = _Losses(f"\n{inner}}}")
        self.close = f"\n{pad}]"

    def trial(self, trial: _Keyed, holdout: Optional[int]) -> _Text:
        """The trial's per_object list; holdout is the index of the object
        the trial holds out, None when every object is an agent. Each
        distinct key's texts are looked up once, then each agent's by its
        key."""
        heads = self.heads
        if holdout is not None:
            heads = heads[:holdout] + heads[holdout + 1:]
        scored = trial.expert is not None
        distinct, maps = trial.distinct, trial.maps
        columns = (trial.key_rewards, trial.key_losses) if scored else ()
        if len(trial.keys) != len(heads) or any(len(c) != len(distinct) for c in columns):
            raise TypeError("a trial needs a key per agent, and a reward and a loss "
                            "per distinct key once scored")
        middles = self.middles.get((maps.ground, trial.vc_star, scored))
        if middles is None:
            middles = self.middles[maps.ground, trial.vc_star, scored] = _Middles(
                self.templates[scored], self.forecasts, maps.vc, maps.radius[trial.vc_star])
        doubled = map(mul, distinct, repeat(2))
        texts = [heads, trial.per_agent(list(map(middles.__getitem__, map(
            add, doubled, trial.key_rewards) if scored else doubled)))]
        if scored:
            texts.append(trial.per_agent(list(map(self.losses.__getitem__, trial.key_losses))))
        pieces = _Text(repeat(None, len(texts) * len(heads)))
        for j, column in enumerate(texts):
            pieces[j::len(texts)] = column
        pieces[0] = "[" + pieces[0][1:]
        pieces.append(self.close)
        pieces.finite = self.losses.finite
        return pieces


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
# the indent of a per_object list in a predict report and in an evaluate-loo trial
_PREDICT_RECORDS_PAD = " " * 2
_LOO_RECORDS_PAD = " " * 6


def _trial_fields(trial: _Keyed, records: _Text) -> dict:
    """A trial's report entries from the expert value to the regret, with
    its agent records as written; an unscored trial has no expert, reward,
    loss, winner or regret."""
    if trial.expert is None:
        return {
            "vc_star": trial.vc_star,
            "per_object": records,
            "weighted": trial.weighted,
            "weights_degenerate": trial.weights_degenerate,
        }
    return {
        "expert": trial.expert,
        "vc_star": trial.vc_star,
        "per_object": records,
        "winner": list(trial.winner) if trial.winner is not None else None,
        "weighted": trial.weighted,
        "weights_degenerate": trial.weights_degenerate,
        "regret": trial.regret,
    }


def cmd_predict(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    system = _load_table(args.table, args.decision)
    omega = _parse_omega(args.omega, system)
    item = _run_trial(system, omega, args.expert, config)
    trial = _result(item)
    if args.output == "csv":
        keys, columns = _AGENT_KEYS, [
            trial.objects, trial.touching_sizes, trial.vcs, trial.radii, trial.forecasts]
        if trial.rewards is not None:
            keys, columns = (*keys, "reward", "loss"), [*columns, trial.rewards, trial.losses]
        print(_csv_text(keys, zip(*columns)), end="")
        return 0
    records = _Records(system, _PREDICT_RECORDS_PAD).trial(item, None)
    report = {"config": _config_echo(args, config), "omega": omega, **_trial_fields(item, records)}
    if args.expert is not None:
        report["max_rewarded_loss"] = max_rewarded_loss(trial)
    report["seed"] = config.rng_seed
    _print_json(report)
    return 0


def _trial_digest(system: DecisionSystem, records: _Records, trial: _Keyed) -> dict:
    holdout = system.objects[trial.trial_index]
    return {
        "trial": trial.trial_index,
        "holdout": holdout,
        "omega": system.row(holdout),
        **_trial_fields(trial, records.trial(trial, trial.trial_index)),
    }


def _fold(system: DecisionSystem, config: PredictionConfig, entry) -> tuple[list, MistakeLedger]:
    """entry(trial) for each trial of the leave-one-out session, and the
    session's ledger, folded as the trials go by; no trial is kept."""
    entries = []

    def keep(trial: _Keyed) -> _Keyed:
        entries.append(entry(trial))
        return trial

    return entries, count_mistakes(map(keep, _session(system, config)))


def _summary_row(system: DecisionSystem, trial: _Keyed) -> list:
    """A trial's CSV row up to its mistakes."""
    return [trial.trial_index, system.objects[trial.trial_index], trial.expert, trial.vc_star,
            *(trial.winner or (None, None)), trial.weighted, trial.regret]


def cmd_evaluate_loo(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    system = _load_table(args.table, args.decision)
    if args.output == "csv":
        header = ["trial", "holdout", "expert", "vc_star", "winner_id",
                  "winner_forecast", "weighted", "regret", "mistakes"]
        rows, ledger = _fold(system, config, lambda trial: _summary_row(system, trial))
        print(_csv_text(header, (row + [n] for row, n in zip(rows, ledger.per_trial))), end="")
        return 0
    records = _Records(system, _LOO_RECORDS_PAD)
    digests, ledger = _fold(system, config, lambda trial: _trial_digest(system, records, trial))
    regrets = [d["regret"] for d in digests]
    report = {
        "config": _config_echo(args, config),
        "object_count": len(system.objects),
        "trials": digests,
        "approx_predicted": all(ledger.covered),
        "mistakes": {
            "per_object": {str(o): n for o, n in ledger.per_object_mistakes.items()},
            "per_trial": ledger.per_trial,
            "total": ledger.total,
            "covered_trials": sum(ledger.covered),
            "mistake_free_objects": sorted(ledger.mistake_free_objects),
        },
        "regret_stats": {"mean": _mean(regrets), "max": max(regrets)},
    }
    _print_json(report)
    return 0


def _model_text(model) -> str:
    parts = []
    for term in sorted(model.assignment):
        cells = ",".join(str(c) for c in sorted(model.assignment[term]))
        parts.append(f"{term} = {{{cells}}}")
    return "; ".join(parts)


def cmd_moods(args: argparse.Namespace) -> int:
    if args.moods_command == "list":
        header = ["figure", "premiss1", "premiss2", "conclusion", "valid", "name"]
        rows = [
            [
                e.figure,
                e.mood.premiss1.as_text(),
                e.mood.premiss2.as_text(),
                e.mood.conclusion.as_text(),
                e.valid,
                e.name,
            ]
            for e in enumerate_moods()
        ]
        if args.output == "json":
            _print_json([dict(zip(header, row)) for row in rows])
        else:
            text_rows = (
                [*head, "true" if valid else "false", name or ""] for *head, valid, name in rows
            )
            print(_csv_text(header, text_rows), end="")
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
        # the mean of finite numbers whose sum leaves the float range
        print("error: an intermediate sum overflows the float range", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
