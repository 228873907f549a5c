"""The package's public surface, and that it stands without the tests."""

import json
import subprocess
import sys
from pathlib import Path

import mereovc

SRC = Path(mereovc.__file__).resolve().parent.parent


def test_public_names_are_pinned():
    # a name added to or dropped from the package is an explicit API change
    assert sorted(mereovc.__all__) == [
        "DecisionParseError",
        "DecisionSystem",
        "DomainError",
        "EmptyTermError",
        "InputError",
        "LocalizationResult",
        "MereovcError",
        "MistakeLedger",
        "Mood",
        "PredictionConfig",
        "Premiss",
        "PremissSyntaxError",
        "SchemaError",
        "StructuralError",
        "Term",
        "TrialResult",
        "UndefinedDegreeError",
        "UniverseMismatchError",
        "UnknownMoodError",
        "UsageError",
        "WeightedUniverse",
        "check_t_norm",
        "consistentize",
        "count_mistakes",
        "degree_of_part",
        "enumerate_moods",
        "indiscernibility_class",
        "is_consistent",
        "is_valid_mood",
        "leave_one_out",
        "load_decision_system",
        "localize",
        "parse_mood",
        "propagate",
        "run_trial",
        "vc_of_object",
    ]


def test_the_package_imports_without_the_test_oracle(tmp_path):
    # -I drops PYTHONPATH, the user site and the working directory from
    # sys.path, so the script puts src/ there itself and nothing else
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import json, mereovc, mereovc.cli, mereovc.vc; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", script],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = json.loads(done.stdout)
    assert "mereovc.vc" in loaded
    assert not [m for m in loaded if m.split(".")[0] in ("oracle", "conftest")]


def test_the_cli_imports_without_dataclasses_inspect_or_statistics(tmp_path):
    # a command's start-up is its imports: these three and what they pull
    # in cost more than the rest of the package, which still loads whole
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import json, mereovc, mereovc.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", script],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(json.loads(done.stdout))
    assert not loaded & {"dataclasses", "inspect", "statistics"}
    modules = ("laws", "syllogistic", "lukasiewicz", "mereology", "predict", "mistakes",
               "tables", "vc")
    assert {f"mereovc.{m}" for m in modules} <= loaded
