"""``repro.prediction`` keeps no process-wide switches.

The predictor suite trains several networks at once on threads, so a module
global that selects a code path would flip every network in the process.
Reference pipelines are rebound per network instead (see
``benchmarks/seed_conv.py``).  A ``global`` statement is how such a switch
gets written, so no module of the package may contain one; the check has a
negative test on a planted switch.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

_PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro" / "prediction"


def _global_statements(source: str) -> List[str]:
    """``line: names`` of every ``global`` statement in ``source``."""
    return [
        f"{node.lineno}: {', '.join(node.names)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    ]


def test_no_module_in_the_prediction_package_rebinds_a_global():
    modules = sorted(_PACKAGE.rglob("*.py"))
    assert modules, _PACKAGE
    offenders = {
        path.name: found
        for path in modules
        if (found := _global_statements(path.read_text()))
    }
    assert offenders == {}


def test_a_planted_switch_is_found():
    planted = (
        "_SWITCH = False\n\n\n"
        "def set_switch(enabled):\n"
        "    global _SWITCH\n"
        "    _SWITCH = enabled\n"
    )
    assert _global_statements(planted) == ["5: _SWITCH"]
