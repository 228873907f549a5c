"""The benchmark's span tracer (perfbench/spans.py) times the program by
rebinding module and class attributes; every name it rebinds must exist."""

from pathlib import Path

import mereovc
import mereovc.cli
import mereovc.laws
import mereovc.lukasiewicz
import mereovc.mereology
import mereovc.syllogistic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_tracer_installs_and_restores_every_name(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    owners = [mereovc.cli, mereovc.predict, mereovc.laws, mereovc.lukasiewicz,
              mereovc.syllogistic, mereovc.tables.DecisionSystem]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    with tracer.installed(mereovc):
        assert mereovc.cli.run_trial is not before[0]["run_trial"]
        assert mereovc.cli.main(["moods", "check", "Barbara"]) == 0
    assert capsys.readouterr().out == "valid: Amb & Aam -> Aab\n"
    assert tracer.spans[0][0] == "cli.main"
    assert [dict(vars(owner)) for owner in owners] == before
