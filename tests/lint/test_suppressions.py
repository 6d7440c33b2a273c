"""The ``# repro-lint: disable=`` mechanism and its API001 hygiene rule."""

from __future__ import annotations

ENGINE_PATH = "src/repro/dispatch/module_under_test.py"

_VIOLATION = "import time\n\ndef run():\n    return time.time()"


def findings_by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


def test_trailing_suppression_silences_its_own_line(lint_tree):
    source = (
        "import time\n\ndef run():\n"
        "    return time.time()  # repro-lint: disable=DET001 -- latency probe by design\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "DET001"


def test_standalone_suppression_covers_next_code_line(lint_tree):
    source = (
        "import time\n\ndef run():\n"
        "    # repro-lint: disable=DET001 -- latency probe by design\n"
        "    return time.time()\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_suppression_covers_only_listed_rules(lint_tree):
    source = (
        "import time\nimport numpy as np\n\ndef run(v):\n"
        "    # repro-lint: disable=DET001 -- latency probe by design\n"
        "    return np.sort(v), time.time()\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    assert [f.rule for f in report.findings] == ["DET003"]
    assert [f.rule for f in report.suppressed] == ["DET001"]


def test_suppression_does_not_cover_a_new_violation_in_the_same_file(lint_tree):
    source = (
        "import time\n\ndef run():\n"
        "    a = time.time()  # repro-lint: disable=DET001 -- latency probe by design\n"
        "    return a, time.perf_counter()\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    assert [(f.line, f.rule) for f in report.findings] == [(5, "DET001")]
    assert "perf_counter" in report.findings[0].message
    assert [(f.line, f.rule) for f in report.suppressed] == [(4, "DET001")]


def test_multi_rule_suppression(lint_tree):
    source = (
        "import time\nimport numpy as np\n\ndef run(v):\n"
        "    # repro-lint: disable=DET001,DET003 -- measured introsort timing demo\n"
        "    return np.sort(v), time.time()\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    assert report.findings == []
    assert sorted(f.rule for f in report.suppressed) == ["DET001", "DET003"]


def test_unjustified_suppression_is_api001(lint_tree):
    source = (
        "import time\n\ndef run():\n"
        "    return time.time()  # repro-lint: disable=DET001\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    api = findings_by_rule(report, "API001")
    assert len(api) == 1
    assert "justification" in api[0].message
    # The violation itself is still silenced — hygiene and coverage are
    # independent failures, each visible on its own.
    assert findings_by_rule(report, "DET001") == []


def test_unknown_rule_in_suppression_is_api001(lint_tree):
    source = (
        "import time\n\ndef run():\n"
        "    return time.time()  # repro-lint: disable=DET999 -- because\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    rules = sorted(f.rule for f in report.findings)
    # The bogus rule id cannot silence anything, so DET001 survives too.
    assert rules == ["API001", "DET001"]


def test_malformed_directive_is_api001(lint_tree):
    source = (
        "import time\n\ndef run():\n"
        "    return time.time()  # repro-lint: ignore DET001 please\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    api = findings_by_rule(report, "API001")
    assert len(api) == 1
    assert "malformed" in api[0].message


def test_unused_suppression_is_api001(lint_tree):
    source = (
        "def run():\n"
        "    return 42  # repro-lint: disable=DET001 -- stale claim\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    api = findings_by_rule(report, "API001")
    assert len(api) == 1
    assert "unused" in api[0].message


def test_directive_inside_string_literal_is_ignored(lint_tree):
    # Only real comment tokens count — docs and fixtures may quote the
    # directive syntax without creating (unused) suppressions.
    source = (
        'EXAMPLE = "# repro-lint: disable=DET001 -- quoted example"\n'
        "def run():\n    return EXAMPLE\n"
    )
    report = lint_tree({ENGINE_PATH: source})
    assert report.findings == []
    assert report.suppressed == []
