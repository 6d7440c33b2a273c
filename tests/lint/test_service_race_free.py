"""The dispatch service is race-free by structure, not by suppression.

The match loop is the only owner of the service's mutable state, so the
concurrency rules need no escape hatch anywhere in ``src/repro/service/``;
a new ``disable=CONC...`` directive there means shared state crept back.
"""

from __future__ import annotations

import ast
import re

_CONC_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*disable=[^\n]*\bCONC\d+")
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def test_directive_pattern_matches_a_real_directive():
    line = "x = 1  # repro-lint: disable=DET001,CONC005 -- why\n"
    assert _CONC_DIRECTIVE.search(line)
    assert not _CONC_DIRECTIVE.search("# repro-lint: disable=DET001 -- why\n")


def test_service_has_no_concurrency_suppressions(repo_root):
    sources = sorted((repo_root / "src" / "repro" / "service").glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _CONC_DIRECTIVE.search(line)
    ]
    assert offenders == []


def test_dispatch_service_creates_no_lock(repo_root):
    source = (repo_root / "src" / "repro" / "service" / "server.py").read_text(
        encoding="utf-8"
    )
    service = next(
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "DispatchService"
    )
    factories = [
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(service)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
    ]
    assert not _LOCK_FACTORIES.intersection(factories)
