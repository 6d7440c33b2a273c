"""Fixtures for the invariant-linter tests.

The rule tests lint throwaway source trees: ``lint_tree`` materialises a
``{relpath: source}`` mapping under a tmp root (so rule scopes like
``src/repro/dispatch/`` resolve exactly as they do against the real repo)
and runs :func:`repro.lint.run_lint` over it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence

import pytest

from repro.lint import LintReport, run_lint


@pytest.fixture
def lint_tree(tmp_path):
    """Factory: write sources under a tmp repo root and lint them."""

    def run(
        files: Dict[str, str],
        rules: Optional[Sequence[str]] = None,
        paths: Optional[Sequence[str]] = None,
    ) -> LintReport:
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        return run_lint(root=tmp_path, paths=paths, rules=rules)

    run.root = tmp_path
    return run


@pytest.fixture
def repo_root() -> Path:
    """The actual repository root (three levels up from this file)."""
    return Path(__file__).resolve().parents[2]
