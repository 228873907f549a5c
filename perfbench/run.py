"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload loo_dense --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Run from the root of a checkout: the program is imported from `src/`
there. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it print each
metric with its unit. `--trace 0` gives the end-to-end metrics, measured
with no tracing installed; `--trace 1` gives the per-layer metrics from
a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

# setup_s is the median of SETUP_SAMPLES fresh interpreters, taken
# SETUP_PER_PASS before each pass until there are enough, and the rest
# after the last pass.
SETUP_SAMPLES = 31
SETUP_PER_PASS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "evals_per_s": "1/s",
    "report_bytes": "bytes",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per-layer metrics, all from the traced run. Self times end in _s or .s;
# mereology is one span name, so its summary keys are mereology_s/_calls.
PER_LAYER = [
    "vc.vc_of_object_s",
    "vc.vc_of_object_calls",
    "vc.touching_set_s",
    "vc.touching_set_calls",
    "vc.distinct_keys",
    "vc.repeat_ratio",
    "tables.as_new_object_s",
    "tables.as_new_object_calls",
    "tables.without_object_s",
    "tables.without_object_calls",
    "tables.is_consistent_s",
    "tables.consistentize_s",
    "tables.consistentize_calls",
    "tables.load_s",
    "tables.load_calls",
    "tables.rows_loaded",
    "predict.run_trial_s",
    "predict.score_trial_s",
    "predict.trials",
    "predict.agents",
    "predict.tie_trials",
    "predict.degenerate_trials",
    "mistakes.count_mistakes_s",
    "cli.main_s",
    "cli.serialize_s",
    "cli.digest_s",
    "laws.full_selftest_s",
    "laws.run_law_suite_s",
    "laws.cases",
    "mereology.s",
    "mereology.calls",
    "lukasiewicz.check_t_norm_s",
    "lukasiewicz.formula_identities_s",
    "syllogistic.enumerate_moods_s",
    "syllogistic.find_model_calls",
    "syllogistic.find_model_s",
    "trace.overhead_s",
    "trace.unattributed_s",
]
SUMMARY_KEY = {"mereology.s": "mereology_s", "mereology.calls": "mereology_calls"}


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def import_program():
    """Import mereovc from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import mereovc.cli  # noqa: F401  (loads every module the traced names live in)
    import mereovc.laws
    import mereovc.lukasiewicz
    import mereovc.mereology

    origin = Path(mereovc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"mereovc was imported from {origin}, not from {SRC}")
    return mereovc


def setup_sample() -> float:
    """Wall time for a fresh interpreter to start and import mereovc.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mereovc.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


class Capture:
    """A stdout/stderr stand-in that keeps the strings the program writes.

    It holds references, not copies, so the harness adds next to nothing
    to the program's peak memory while a command runs.
    """

    def __init__(self) -> None:
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class Outcome:
    """Checks every command's result; keeps each command's first output on disk."""

    def __init__(self, workload: workloads.Workload, references: list[str] | None, data: Path):
        self.workload = workload
        self.references = references
        self.data = data
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _first_output(self, index: int) -> Path:
        return self.data / f"output-{index}.txt"

    def record(self, index: int, argv, code: int, out: list[str], err: str) -> tuple[str, int]:
        """Check one command's result. Returns its stdout sha256 and byte count.

        Each chunk is encoded once, for both the digest and the count; the
        first output of each command is written to a file for `validate`.
        """
        self.attempted += 1
        digest, size = hashlib.sha256(), 0
        path = self._first_output(index)
        keep = None if path.exists() else path.open("wb")
        try:
            for chunk in out:
                data = chunk.encode("utf-8")
                digest.update(data)
                size += len(data)
                if keep is not None:
                    keep.write(data)
        finally:
            if keep is not None:
                keep.close()
        hexdigest = digest.hexdigest()
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif err:
            problem = f"stderr: {err.strip()[:200]}"
        elif self.references is not None and hexdigest != self.references[index]:
            problem = f"report sha256 {hexdigest} differs from the reference"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(argv[:2])}: {problem}")
        return hexdigest, size

    def first_outputs(self) -> list[str]:
        return [self._first_output(i).read_text("utf-8")
                for i in range(len(self.workload.commands))]

    def validate(self) -> None:
        """Strict-parse and check the first output of each command."""
        for argv, out in zip(self.workload.commands, self.first_outputs()):
            try:
                self.workload.validate(argv, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.failed += 1
                self.problems.append(f"{' '.join(argv[:2])}: invalid report: {exc}")


def run_pass(main, workload: workloads.Workload, outcome: Outcome):
    """Run every command once.

    Returns wall and cpu time, the stdout sha256 of each command, and the
    stdout bytes of the pass.
    """
    digests = []
    wall = cpu = 0.0
    size = 0
    for index, argv in enumerate(workload.commands):
        out, err = Capture(), Capture()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0 = time.process_time()
            t0 = time.perf_counter()
            code = main(argv)
            t1 = time.perf_counter()
            c1 = time.process_time()
        wall += t1 - t0
        cpu += c1 - c0
        digest, nbytes = outcome.record(index, argv, code, out.chunks, "".join(err.chunks))
        digests.append(digest)
        size += nbytes
    return wall, cpu, digests, size


def another_pass(durations: list[float], deadline: float) -> bool:
    """Whether a further pass, as long as the median one so far, ends by the deadline.

    The first pass always runs. Stopping before the deadline rather than
    after it keeps every run within its --seconds.
    """
    return not durations or time.perf_counter() + statistics.median(durations) <= deadline


def end_to_end(mereovc, workload, outcome, seconds: float) -> dict:
    walls, cpus, setups = [], [], []
    report_bytes = 0
    deadline = time.perf_counter() + seconds
    while another_pass(walls, deadline):
        # Set-up samples sit between passes, so they see the host as the
        # passes do; their time does not count against --seconds.
        start = time.perf_counter()
        more = min(SETUP_PER_PASS, SETUP_SAMPLES - len(setups))
        setups += [setup_sample() for _ in range(more)]
        deadline += time.perf_counter() - start
        wall, cpu, _, report_bytes = run_pass(mereovc.cli.main, workload, outcome)
        walls.append(wall)
        cpus.append(cpu)
    setups += [setup_sample() for _ in range(SETUP_SAMPLES - len(setups))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome.validate()
    evals = workload.evals(outcome.first_outputs())
    wall = statistics.median(walls)
    print(f"# {len(walls)} passes, {len(setups)} set-ups")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "evals_per_s": evals / wall,
        "report_bytes": report_bytes,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - outcome.failed / outcome.attempted,
    }


def per_layer(mereovc, workload, outcome, seconds: float) -> dict:
    """Alternate untraced and traced passes; medians of each traced figure."""
    tracer = Tracer()
    overheads, traced_walls, cycles, summaries = [], [], [], []
    deadline = time.perf_counter() + seconds
    while another_pass(cycles, deadline):
        cycle_start = time.perf_counter()
        plain = run_pass(mereovc.cli.main, workload, outcome)[0]
        tracer.reset()
        with tracer.installed(mereovc):
            start = time.perf_counter()
            run_pass(mereovc.cli.main, workload, outcome)
            traced = time.perf_counter() - start
        summary = summarize(tracer.spans, traced)
        summary.update(tracer.counters)
        calls = summary.get("vc.vc_of_object_calls", 0)
        summary["vc.repeat_ratio"] = 1 - summary.get("vc.distinct_keys", 0) / calls if calls else 0.0
        summaries.append(summary)
        traced_walls.append(traced)
        # The overhead is taken per cycle, against the untraced pass just
        # before, so a drift in host speed between cycles does not enter it.
        overheads.append(traced - plain)
        tracer.reset()
        cycles.append(time.perf_counter() - cycle_start)
    outcome.validate()
    overhead = statistics.median(overheads)
    attributed = 1 - statistics.median(s["trace.unattributed_s"] / w
                                       for s, w in zip(summaries, traced_walls))
    print(f"# {len(summaries)} traced passes; traced wall {statistics.median(traced_walls):.4f} s, "
          f"{100 * attributed:.2f}% attributed to named spans")
    if overhead < 0:
        print(f"# trace.overhead_s is below zero ({overhead:.4f} s): host noise between "
              "the paired passes exceeded the tracer's cost")
    metrics = {}
    for metric in PER_LAYER:
        key = SUMMARY_KEY.get(metric, metric)
        metrics[metric] = statistics.median(s.get(key, 0) for s in summaries)
    metrics["trace.overhead_s"] = overhead
    return metrics


def load_references(name: str, seed: int) -> list[str]:
    table = json.loads((BENCH / "references.json").read_text())
    return table[name][str(seed % workloads.POOL)]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    mereovc = import_program()
    data_root = ROOT / ".bench_data"
    data_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=data_root) as data:
        workload = workloads.build(name, seed, Path(data))
        outcome = Outcome(workload, load_references(name, seed), Path(data))
        if trace:
            metrics = per_layer(mereovc, workload, outcome, seconds)
        else:
            metrics = end_to_end(mereovc, workload, outcome, seconds)
    units = {m: _unit(m) for m in PER_LAYER} if trace else END_TO_END
    for problem in outcome.problems[:20]:
        print(f"# FAILED {problem}")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value} {units[metric]}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WHY:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, KeyError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
