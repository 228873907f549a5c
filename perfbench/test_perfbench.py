"""Tests of the benchmark's own parts: generator, tracer, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from gen import make_table
from spans import Tracer, summarize

mereovc = run.import_program()
from mereovc.tables import is_consistent, load_decision_system  # noqa: E402


def _load(text: str):
    return load_decision_system(io.StringIO(text))


def test_same_seed_gives_identical_csv_bytes():
    first = make_table(7, 200, 6, 2, 0.3).encode()
    assert make_table(7, 200, 6, 2, 0.3).encode() == first
    assert make_table(8, 200, 6, 2, 0.3).encode() != first


def test_same_seed_gives_identical_csv_across_processes():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from gen import make_table; "
        "sys.stdout.write(make_table(3, 50, 10, 3))"
    )
    texts = {
        subprocess.run(
            [sys.executable, "-c", code, str(run.BENCH)],
            env={"PYTHONHASHSEED": hash_seed}, stdout=subprocess.PIPE, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert texts == {make_table(3, 50, 10, 3).encode()}


def test_generated_header_and_decisions():
    lines = make_table(1, 30, 4, 3).splitlines()
    assert lines[0] == "f0,f1,f2,f3,dec"
    assert all(0 <= int(line.rsplit(",", 1)[1]) <= 9 for line in lines[1:])


def test_dense_tables_have_distinct_rows():
    system = _load(make_table(5, 200, 10, 3))
    rows = {tuple(system.row(o).values()) for o in system.objects}
    assert len(rows) == 200
    assert is_consistent(system)


def test_dup_tables_leave_every_rest_table_inconsistent():
    system = _load(make_table(5, 200, 6, 2, 0.3))
    assert not any(is_consistent(system.without_object(o)) for o in system.objects)


def test_seeds_a_pool_apart_give_the_same_inputs(tmp_path):
    a = workloads.build("loo_dup", 3, tmp_path)
    first = (tmp_path / "loo_dup.csv").read_bytes()
    b = workloads.build("loo_dup", 3 + workloads.POOL, tmp_path)
    assert (tmp_path / "loo_dup.csv").read_bytes() == first
    assert a.commands == b.commands


def test_self_times_plus_unattributed_equal_wall_on_synthetic_spans():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("inner", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("inner", 5.0, 6.5, 0),
        ("outer", 11.0, 12.0, -1),
    ]
    summary = summarize(spans, 13.0)
    assert summary["outer_s"] == pytest.approx(10.0 - 3.0 - 1.5 + 1.0)
    assert summary["inner_s"] == pytest.approx(2.0 + 1.5)
    assert summary["leaf_s"] == pytest.approx(1.0)
    assert summary["inner_calls"] == 2
    assert summary["trace.unattributed_s"] == pytest.approx(2.0)
    self_times = sum(v for k, v in summary.items() if k.endswith("_s"))
    assert self_times == pytest.approx(13.0)


def test_self_times_plus_unattributed_equal_wall_on_a_traced_pass(tmp_path):
    (tmp_path / "t.csv").write_text(make_table(2, 14, 6, 2, 0.3))
    workload = workloads.Workload(
        "tiny",
        [["evaluate-loo", str(tmp_path / "t.csv"), "--epsilon", "1/2", "--delta", "3"]],
        lambda _: 14 * 13,
        workloads._validate_report(14),
    )
    outcome = run.Outcome(workload, None, tmp_path)
    plain = run.run_pass(mereovc.cli.main, workload, outcome)[2]
    tracer = Tracer()
    with tracer.installed(mereovc):
        start = time.perf_counter()
        traced = run.run_pass(mereovc.cli.main, workload, outcome)[2]
        wall = time.perf_counter() - start
    outcome.validate()
    assert outcome.failed == 0 and traced == plain
    assert mereovc.cli.run_trial is mereovc.predict.run_trial  # wrappers removed
    summary = summarize(tracer.spans, wall)
    self_times = sum(v for k, v in summary.items() if k.endswith("_s"))
    assert math.isclose(self_times, wall, rel_tol=1e-9)
    assert summary["trace.unattributed_s"] >= 0
    assert summary["predict.run_trial_calls"] == 14
    assert summary["vc.vc_of_object_calls"] == 14 * 13
    assert summary["tables.as_new_object_calls"] == 14 + 3 * 14 * 13
    assert summary["tables.consistentize_calls"] == 14
    assert tracer.counters["predict.agents"] == 14 * 13


def test_strict_json_rejects_nan_and_infinity():
    with pytest.raises(ValueError):
        workloads._strict_json('{"x": NaN}')
    with pytest.raises(ValueError):
        workloads._strict_json("[Infinity]")
    assert workloads._strict_json('{"x": 1.5}') == {"x": 1.5}


def test_changed_report_counts_as_failed(tmp_path):
    workload = workloads.build("loo_dense", 0, tmp_path)
    outcome = run.Outcome(workload, ["0" * 64], tmp_path)
    outcome.record(0, workload.commands[0], 0, ["{}"], "")
    outcome.record(0, workload.commands[0], 0, [], "warning")
    outcome.record(0, workload.commands[0], 3, [], "")
    assert (outcome.attempted, outcome.failed) == (3, 3)


def test_record_digests_the_chunks_as_one_output_and_keeps_the_first(tmp_path):
    workload = workloads.build("loo_dense", 0, tmp_path)
    outcome = run.Outcome(workload, None, tmp_path)
    text = '{"a": "\u00e9"}\n'
    digest, size = outcome.record(0, workload.commands[0], 0, [text[:5], text[5:]], "")
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert size == len(text.encode("utf-8"))
    outcome.record(0, workload.commands[0], 0, ["later"], "")
    assert outcome.first_outputs() == [text]


def test_benchmark_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "references.json").write_bytes((run.BENCH / "references.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "loo_dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".bench_data").exists()


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
