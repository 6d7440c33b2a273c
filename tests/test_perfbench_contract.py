"""The repository benchmark's exit contract (``perfbench/run.py``).

``run.py`` exits 2 when there is no program to import, and 1 when any
workload check fails, with the failure counted in its JSON line.  These
tests import the benchmark modules from ``perfbench/`` as they are and
replace only a workload module and a few module-level paths.
"""

import json
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``(common, run)`` imported fresh from ``perfbench/``, dropped afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    names = ("common", "run", "wl_ogss")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    import common
    import run

    yield common, run
    for name in names:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


def test_failed_check_counts_and_records_its_message(perfbench):
    common, _ = perfbench
    outcome = common.Outcome()
    assert outcome.check(True, "fine") is True
    assert outcome.check(False, "side drifted") is False
    assert outcome.failed == 1
    assert outcome.errors == ["side drifted"]


def test_missing_program_source_exits_2(perfbench, monkeypatch, tmp_path):
    _, run = perfbench
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "ogss_sweep", "--seconds", "1"]) == 2


def test_failed_workload_check_exits_1(perfbench, monkeypatch, tmp_path, capsys):
    common, run = perfbench

    def fake_run(seed, seconds, trace, workdir):
        assert workdir.parent == tmp_path / ".work"
        outcome = common.Outcome(attempted=3)
        outcome.end_to_end = dict.fromkeys(run.END_TO_END_UNITS, 1.0)
        outcome.check(False, "planted mismatch")
        return outcome

    monkeypatch.setitem(sys.modules, "wl_ogss", types.SimpleNamespace(run=fake_run))
    monkeypatch.setattr(run, "BENCH_DIR", tmp_path)
    assert run.main(["--workload", "ogss_sweep", "--seconds", "1"]) == 1
    output = capsys.readouterr().out
    last = output.strip().splitlines()[-1]
    assert '"failed":1' in last
    assert json.loads(last)["correct"] is False
    assert "CHECK FAILED: planted mismatch" in output
