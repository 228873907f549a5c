"""Record the benchmark's reference sha256s and its baseline.

    python3 perfbench/record.py references
    python3 perfbench/record.py baseline [--repeat]

`references` runs one pass of every workload on each of the POOL input
sets, validates the outputs, and writes the sha256 of every command's
stdout to perfbench/references.json. Run it only when the program's
reports are meant to change; a speedup must leave them alone.

`baseline` runs `run.py` in a fresh process RUNS times per workload,
with seeds 0 to RUNS - 1, plus one traced run, and writes the median,
quartiles, sample count and spread of every metric to
perfbench/baseline.json, with the Python version and `nproc`. It prints
each end-to-end spread next to its bound from BENCHMARK.json. With
`--repeat` it measures a second set, stores it beside the first, and
compares the two sets' medians in both directions: by what share the
second is worse than the first, and the first worse than the second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads

REFERENCES = run.BENCH / "references.json"
BASELINE = run.BENCH / "baseline.json"
RUNS = 10


def record_references() -> None:
    mereovc = run.import_program()
    table: dict[str, dict[str, list[str]]] = {}
    data_root = run.ROOT / ".bench_data"
    data_root.mkdir(exist_ok=True)
    for name in workloads.WHY:
        table[name] = {}
        for seed in range(workloads.POOL):
            with tempfile.TemporaryDirectory(dir=data_root) as data:
                workload = workloads.build(name, seed, Path(data))
                outcome = run.Outcome(workload, None, Path(data))
                digests = run.run_pass(mereovc.cli.main, workload, outcome)[2]
                outcome.validate()
            if outcome.failed:
                raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
            table[name][str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} reports", flush=True)
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=run.ROOT, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} seed {seed}: outputs failed the checks")
    print(f"# {name} seed {seed} trace {trace}: run took {time.perf_counter() - start:.1f} s",
          flush=True)
    return {m: e["value"] for m, e in result["metrics"].items()}


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread,
            "values": values}


def _worse(reference: float, other: float, better: str) -> float:
    """By what share `other` is worse than `reference` (negative: better)."""
    if not reference:
        return 0.0
    change = (other - reference) / reference
    return -change if better == "higher" else change


def record_baseline(repeat: bool) -> None:
    """Measure every workload; with `repeat`, store a second set and compare."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"workloads": {}}
    baseline.update(python=platform.python_version(), nproc=os.cpu_count(), run_seconds=seconds)
    for name in workloads.WHY:
        samples = [_run_once(name, seed, seconds, 0) for seed in range(RUNS)]
        stats = {m: _stats([s[m] for s in samples]) for m in samples[0]}
        entry = baseline["workloads"].setdefault(name, {})
        if repeat:
            entry["end_to_end_repeat"] = stats
            entry["sets_compared"] = {}
        else:
            entry.clear()
            entry["seeds"] = [0, RUNS - 1]
            entry["end_to_end"] = stats
            entry["per_layer"] = _run_once(name, 0, seconds, 1)
        for metric, st in stats.items():
            bound, better = bounds[metric]
            line = (f"{name} {metric}: median {st['median']:.6g} spread {st['spread']:.4f} "
                    f"(bound {bound})")
            if repeat:
                first = entry["end_to_end"][metric]["median"]
                compared = {
                    "second_worse_than_first": _worse(first, st["median"], better),
                    "first_worse_than_second": _worse(st["median"], first, better),
                }
                entry["sets_compared"][metric] = compared
                line += (f"; second worse than first by {compared['second_worse_than_first']:+.4f}, "
                         f"first worse than second by {compared['first_worse_than_second']:+.4f}")
            print(line, flush=True)
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    base = sub.add_parser("baseline")
    base.add_argument("--repeat", action="store_true",
                      help="measure a second set and compare it with the stored one")
    args = parser.parse_args()
    if args.what == "references":
        record_references()
    else:
        record_baseline(args.repeat)


if __name__ == "__main__":
    main()
