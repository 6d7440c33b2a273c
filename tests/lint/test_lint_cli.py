"""The ``repro lint`` verb: exit codes, formats, and the repo-clean gate."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import DEFAULT_ROOTS, RULES_BY_ID, run_lint

ENGINE_PATH = "src/repro/dispatch/module_under_test.py"


def _write(root, relpath, source):
    target = Path(root) / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")


def test_clean_tree_exits_zero(tmp_path, capsys):
    _write(tmp_path, ENGINE_PATH, "def run():\n    return 0\n")
    assert repro_main(["lint", "--root", str(tmp_path)]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_findings_exit_one_with_location_lines(tmp_path, capsys):
    _write(tmp_path, ENGINE_PATH, "import time\n\ndef run():\n    return time.time()\n")
    assert repro_main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{ENGINE_PATH}:4:11: DET001" in out


def test_unknown_rule_exits_two(tmp_path, capsys):
    _write(tmp_path, ENGINE_PATH, "def run():\n    return 0\n")
    assert repro_main(["lint", "--root", str(tmp_path), "--rule", "NOPE"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_exits_two(tmp_path, capsys):
    assert repro_main(["lint", "--root", str(tmp_path), "no/such/dir"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_json_format_is_canonical(tmp_path, capsys):
    _write(tmp_path, ENGINE_PATH, "import time\n\ndef run():\n    return time.time()\n")
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
    raw = capsys.readouterr().out
    payload = json.loads(raw)
    assert payload["counts"]["new"] == 1
    assert payload["new"][0]["rule"] == "DET001"
    # Canonical encoding: byte-stable re-serialisation.
    assert raw.strip() == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_json_payload_key_set_is_pinned(tmp_path, capsys):
    _write(tmp_path, ENGINE_PATH, "import time\n\ndef run():\n    return time.time()\n")
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 2
    assert set(payload) == {
        "schema",
        "tool",
        "files_scanned",
        "rules",
        "new",
        "suppressed",
        "counts",
    }
    assert set(payload["counts"]) == {"new", "suppressed"}
    assert set(payload["new"][0]) == {"path", "line", "col", "rule", "message"}


def test_text_summary_counts_new_and_suppressed_only(tmp_path, capsys):
    _write(
        tmp_path,
        ENGINE_PATH,
        "import time\n\ndef run():\n"
        "    a = time.time()  # repro-lint: disable=DET001 -- test fixture\n"
        "    return time.time()\n",
    )
    assert repro_main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith(f"{ENGINE_PATH}:5:11: DET001 wall-clock read time.time()")
    assert out[1] == "repro lint: 1 new finding(s), 1 suppressed across 1 file(s)"


@pytest.mark.parametrize(
    "removed",
    [
        ["--baseline", "off"],
        ["--baseline", "regenerate"],
        ["--baseline-file", "lint-baseline.json"],
        ["--format", "github"],
    ],
    ids=["baseline-off", "baseline-regenerate", "baseline-file", "format-github"],
)
def test_removed_options_are_usage_errors(tmp_path, capsys, removed):
    _write(tmp_path, ENGINE_PATH, "def run():\n    return 0\n")
    with pytest.raises(SystemExit) as exc:
        repro_main(["lint", "--root", str(tmp_path), *removed])
    assert exc.value.code == 2
    assert removed[0] in capsys.readouterr().err


def test_leftover_baseline_file_grandfathers_nothing(tmp_path, capsys):
    """A stale ``lint-baseline.json`` in the tree is just a file: no finding passes."""
    _write(tmp_path, ENGINE_PATH, "import time\n\ndef run():\n    return time.time()\n")
    _write(
        tmp_path,
        "lint-baseline.json",
        json.dumps({"findings": [{"path": ENGINE_PATH, "rule": "DET001"}], "schema": 1}),
    )
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(f["path"], f["line"], f["rule"]) for f in payload["new"]] == [
        (ENGINE_PATH, 4, "DET001")
    ]


def test_report_order_is_path_line_col_rule(tmp_path):
    _write(tmp_path, "src/repro/dispatch/zeta.py", "import time\n_T = time.time()\n")
    _write(
        tmp_path,
        ENGINE_PATH,
        "import time\nimport random\n\ndef run():\n"
        "    return random.random(), time.time()\n"
        "\n_A = time.time()\n",
    )
    report = run_lint(tmp_path)
    keys = [(f.path, f.line, f.col, f.rule) for f in report.findings]
    assert len({path for path, *_ in keys}) == 2
    assert keys == sorted(keys)
    assert len(keys) >= 3


def test_repeated_runs_give_byte_identical_json(tmp_path, capsys):
    _tree_with_findings(tmp_path)
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json", "--jobs", "1"]) == 1
    first = capsys.readouterr().out
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json", "--jobs", "1"]) == 1
    assert first == capsys.readouterr().out


def test_list_rules_covers_every_registered_rule(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES_BY_ID:
        assert rule_id in out


def test_list_rules_is_exactly_the_rule_set(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        *(f"DET00{n}" for n in range(1, 8)),
        "CONC001",
        "CONC002",
        "API001",
    ]


def test_architecture_rule_table_matches_the_registry(repo_root):
    """Drift guard: docs/architecture.md documents exactly the registered rules."""
    doc = (repo_root / "docs" / "architecture.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `([A-Z]+\d{3})`(?: \*)? \|", doc, flags=re.MULTILINE)
    assert sorted(documented) == sorted(RULES_BY_ID)


def test_injected_wall_clock_read_fails_a_repo_copy(tmp_path, repo_root):
    """The CI negative test, in miniature: plant time.time() in the engine."""
    engine = repo_root / "src" / "repro" / "dispatch" / "engine.py"
    doctored = engine.read_text(encoding="utf-8") + "\nimport time\n_CANARY = time.time()\n"
    _write(tmp_path, "src/repro/dispatch/engine.py", doctored)
    assert repro_main(["lint", "--root", str(tmp_path)]) == 1


def test_unlocked_watermark_read_fails_a_repo_copy(tmp_path, repo_root, capsys):
    """The CI CONC001 canary: a bare read of scheduler state must fail the gate."""
    scheduler = repo_root / "src" / "repro" / "service" / "scheduler.py"
    anchor = "    def set_resolved(self, resolved: int) -> None:\n"
    source = scheduler.read_text(encoding="utf-8")
    assert anchor in source
    doctored = source.replace(
        anchor,
        "    def _lint_canary_peek(self) -> float:\n"
        "        return self._watermark\n\n" + anchor,
    )
    _write(tmp_path, "src/repro/service/scheduler.py", doctored)
    assert repro_main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "CONC001" in out
    assert "AdmissionScheduler._watermark" in out


def test_repo_is_lint_clean(repo_root):
    """The merge gate itself: zero unsuppressed findings."""
    report = run_lint(repo_root)
    assert [f.render() for f in report.findings] == []
    assert report.files_scanned > 100
    assert set(report.rules_run) == set(RULES_BY_ID)
    # Every in-tree suppression is live (API001 would flag stale ones).
    assert all(f.rule != "API001" for f in report.findings)


def test_default_roots_exist_in_repo(repo_root):
    for root in DEFAULT_ROOTS:
        assert (repo_root / root).is_dir()


# --------------------------------------------------------------------- #
# PARSE001 and discovery edges
# --------------------------------------------------------------------- #


def test_unparseable_file_in_nested_package_exits_one(tmp_path, capsys):
    _write(tmp_path, "src/repro/pkg/__init__.py", "")
    _write(tmp_path, "src/repro/pkg/inner/__init__.py", "")
    _write(tmp_path, "src/repro/pkg/inner/broken.py", "def f(:\n    pass\n")
    assert repro_main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/pkg/inner/broken.py" in out
    assert "PARSE001" in out
    assert "does not parse" in out


def test_empty_file_is_scanned_and_clean(tmp_path, capsys):
    _write(tmp_path, "src/repro/empty.py", "")
    assert repro_main(["lint", "--root", str(tmp_path)]) == 0
    assert "across 1 file(s)" in capsys.readouterr().out


def test_single_file_path_argument(tmp_path, capsys):
    _write(tmp_path, ENGINE_PATH, "import time\n\ndef run():\n    return time.time()\n")
    _write(tmp_path, "src/repro/other.py", "import time\n_T = time.time()\n")
    assert repro_main(["lint", "--root", str(tmp_path), ENGINE_PATH]) == 1
    out = capsys.readouterr().out
    # Only the requested file was scanned.
    assert "across 1 file(s)" in out
    assert "other.py" not in out


def test_symlinked_file_is_scanned_once(tmp_path, capsys):
    _write(tmp_path, ENGINE_PATH, "import time\n\ndef run():\n    return time.time()\n")
    link = tmp_path / "src/repro/dispatch/alias.py"
    try:
        link.symlink_to(tmp_path / ENGINE_PATH)
    except OSError:  # pragma: no cover - platform without symlinks
        pytest.skip("symlinks unavailable")
    assert repro_main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    # The resolved-path dedupe keeps one of the two spellings, so the
    # violation is reported exactly once.
    assert out.count("DET001") == 1
    assert "across 1 file(s)" in out


# --------------------------------------------------------------------- #
# --jobs
# --------------------------------------------------------------------- #


def _tree_with_findings(tmp_path):
    _write(tmp_path, ENGINE_PATH, "import time\n\ndef run():\n    return time.time()\n")
    _write(
        tmp_path,
        "src/repro/service/svc.py",
        (
            "import threading\n\n\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._count = 0\n\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n\n"
            "    def snapshot(self):\n"
            "        return self._count\n"
        ),
    )
    _write(tmp_path, "src/repro/clean.py", "def ok():\n    return 1\n")


def test_jobs_report_is_byte_identical_to_serial(tmp_path, capsys):
    _tree_with_findings(tmp_path)
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json", "--jobs", "1"]) == 1
    serial = capsys.readouterr().out
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json", "--jobs", "4"]) == 1
    pooled = capsys.readouterr().out
    assert serial == pooled
    assert json.loads(serial)["counts"]["new"] >= 2


def test_jobs_defaults_to_cpu_count_and_rejects_nothing(tmp_path, capsys):
    _tree_with_findings(tmp_path)
    # No --jobs: the CLI uses os.cpu_count(); report matches --jobs 1.
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
    default_run = capsys.readouterr().out
    assert repro_main(["lint", "--root", str(tmp_path), "--format", "json", "--jobs", "1"]) == 1
    assert default_run == capsys.readouterr().out
    assert (os.cpu_count() or 1) >= 1
