"""The benchmark's workloads: what each one runs, and how its outputs are checked.

A workload is a list of `mereovc` command lines run in-process through
`mereovc.cli.main`. One pass runs every command once, in order. The
program sees only the CSV files the generator writes.

Inputs come from `seed % POOL`, so every seed maps onto one of POOL
input sets whose report sha256s are recorded in `references.json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import make_table

POOL = 32

Argv = list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: list[Argv]
    # Work units done by one pass, from the pass's outputs in command order.
    evals: Callable[[list[str]], int]
    # Raises ValueError when an output is well-formed but wrong.
    validate: Callable[[Argv, str], None]


def _strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity literals Python allows."""

    def reject(literal: str):
        raise ValueError(f"non-standard JSON literal {literal}")

    return json.loads(text, parse_constant=reject)


def _validate_report(rows: int) -> Callable[[Argv, str], None]:
    def validate(argv: Argv, text: str) -> None:
        report = _strict_json(text)
        if report["object_count"] != rows or len(report["trials"]) != rows:
            raise ValueError("leave-one-out report does not cover every row")
        mistakes = report["mistakes"]
        if mistakes["total"] != sum(mistakes["per_trial"]):
            raise ValueError("mistake total differs from the per-trial sum")

    return validate


def _validate_algebra(argv: Argv, text: str) -> None:
    if argv[0] == "moods":
        moods = _strict_json(text)
        if len(moods) != 256 or sum(m["valid"] for m in moods) != 24:
            raise ValueError("mood catalog is not 256 moods with 24 valid")
        return
    lines = text.splitlines()
    if not lines or lines[-1] != f"all {len(lines) - 1} law suites passed":
        raise ValueError("law suite summary line missing")
    if not all(line.startswith("PASS ") for line in lines[:-1]):
        raise ValueError("a law suite failed")


def _law_cases_and_moods(outputs: list[str]) -> int:
    """Law-suite cases checked plus moods decided in one algebra pass."""
    cases = sum(
        int(line.rsplit("(", 1)[1].split()[0])
        for line in outputs[0].splitlines()
        if line.startswith("PASS ")
    )
    return cases + len(_strict_json(outputs[1]))


def _loo(name: str, seed: int, data: Path, features: int, values: int,
         dup_frac: float, epsilon: str) -> Workload:
    rows = 200
    table = data / f"{name}.csv"
    table.write_text(make_table(seed, rows, features, values, dup_frac))
    argv = ["evaluate-loo", str(table), "--epsilon", epsilon, "--delta", "3"]
    return Workload(name, [argv], lambda _: rows * (rows - 1), _validate_report(rows))


def _algebra_selftest(seed: int) -> Workload:
    commands = [
        ["algebra", "selftest", "--atoms", "4", "--random", "300", "--seed", str(seed)],
        ["moods", "list", "--output", "json"],
    ]
    return Workload("algebra_selftest", commands, _law_cases_and_moods, _validate_algebra)


WHY = {
    "loo_dense": "consistent n=200, F=10 table: the main O(n^2) leave-one-out load, "
    "dominated by VC and touching-set work, then report serialization",
    "loo_dup": "n=200, F=6 binary table with ~30% copied rows: every rest table is "
    "inconsistent, so all trials go through consistentize with a ground size of F+1",
    "algebra_selftest": "law suite, t-norm checks and the mood catalog: the only "
    "load on laws, mereology, lukasiewicz and syllogistic; control for pipeline changes",
}


def build(name: str, seed: int, data: Path) -> Workload:
    """The workload `name` on the input set that `seed` selects."""
    seed %= POOL
    if name == "loo_dense":
        return _loo(name, seed, data, features=10, values=3, dup_frac=0.0, epsilon="1")
    if name == "loo_dup":
        return _loo(name, seed, data, features=6, values=2, dup_frac=0.3, epsilon="1/2")
    if name == "algebra_selftest":
        return _algebra_selftest(seed)
    raise KeyError(name)
