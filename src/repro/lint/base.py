"""Plugin base for the repo-specific invariant linter.

Every rule is an :class:`InvariantRule` subclass: a stdlib-``ast`` visitor
that inspects one parsed module and emits :class:`~repro.lint.findings.Finding`
records.  Rules declare *where* they apply as repo-relative path prefixes
(``scope``) and per-rule allowlists (``exclude``) — e.g. the wall-clock rule
covers ``src/repro/`` but exempts ``utils/timer.py``, the one sanctioned
measurement choke point.

The module also hosts the two shared resolution helpers every rule leans on:

* :class:`ImportMap` rebuilds the module's import aliases so a call like
  ``np.random.shuffle(...)`` (or ``from time import perf_counter`` followed
  by a bare ``perf_counter()``) resolves to its canonical dotted path;
* :func:`resolve_call` walks an ``ast.Call``'s function expression into that
  dotted form, returning ``None`` for anything rooted in a non-name
  expression (method calls on locals resolve to their literal spelling).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lint.findings import Finding


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule may inspect about one scanned file."""

    path: str
    """Repo-relative posix path."""


class ImportMap:
    """Local name → canonical dotted path, rebuilt from a module's imports."""

    def __init__(self) -> None:
        self._names: Dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        imports._names[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds only ``numpy``.
                        head = alias.name.split(".", 1)[0]
                        imports._names[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports._names[local] = f"{node.module}.{alias.name}"
        return imports

    def resolve(self, name: str) -> str:
        """Canonical path for a local name (the name itself when not imported)."""
        return self._names.get(name, name)


def resolve_call(func: ast.expr, imports: ImportMap) -> Optional[str]:
    """Dotted path of a call's function expression, or ``None``.

    ``np.random.shuffle`` → ``numpy.random.shuffle`` under ``import numpy as
    np``; a bare ``perf_counter`` → ``time.perf_counter`` under ``from time
    import perf_counter``.  Attribute chains rooted in anything but a plain
    name (``self.rng.choice``, subscripts, calls) return ``None`` — those are
    instance methods, which the determinism rules deliberately trust.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return ".".join([imports.resolve(parts[0])] + parts[1:])


#: Constructors whose result is treated as a lock for ``with self._x:``.
#: Shared by the CONC001 rule and the structural lock-inventory tests.
LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


def is_lock_factory(resolved: Optional[str]) -> bool:
    """True when a resolved call path constructs a threading lock/condition.

    Both the fully-qualified spelling (``threading.Condition``) and a
    from-imported bare one (``Condition`` → ``threading.Condition``) count.
    """
    if resolved is None:
        return False
    tail = resolved.rpartition(".")[2]
    return resolved in LOCK_FACTORIES or f"threading.{tail}" in LOCK_FACTORIES


def is_set_expression(node: ast.expr) -> bool:
    """True for expressions that are unambiguously ``set``-valued."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword ``name`` on ``call``, or ``None``."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_constant(node: Optional[ast.expr], value: object) -> bool:
    """True when ``node`` is the literal constant ``value``."""
    return isinstance(node, ast.Constant) and node.value == value


class InvariantRule:
    """Base class every lint rule subclasses.

    Class attributes
    ----------------
    rule_id:
        Stable identifier (``DET001`` ... ``API001``) used in findings and
        suppressions.
    title:
        One-line summary shown by ``repro lint --list-rules`` and the docs.
    scope:
        Repo-relative posix path prefixes the rule applies to.  Empty means
        every scanned file.
    exclude:
        Path prefixes exempted from the rule (the documented allowlist).
    """

    rule_id: str = ""
    title: str = ""
    scope: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule scans the repo-relative ``path`` at all."""
        if self.scope and not any(path.startswith(prefix) for prefix in self.scope):
            return False
        return not any(path.startswith(prefix) for prefix in self.exclude)

    def check(self, tree: ast.AST, context: ModuleContext) -> List[Finding]:
        """Return this rule's findings for one parsed module."""
        raise NotImplementedError

    def finding(self, context: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


class ProjectRule(InvariantRule):
    """Base class for project rules (DET006–007).

    A project rule sees the entire scanned tree at once — the
    :class:`~repro.lint.rngflow.ProjectIndex` built from every module's
    summary — instead of one parsed file, so it can follow RNG provenance
    through helper returns defined in other modules.

    ``scope``/``exclude`` still apply, but to the *findings*: the index is
    always built from every scanned file (cross-module propagation must see
    everything), and a rule's findings are dropped when their anchor file
    falls outside its scope.
    """

    def check(self, tree: ast.AST, context: ModuleContext) -> List[Finding]:
        return []  # project rules run in the project phase only

    def check_project(self, index) -> List[Finding]:
        """Return this rule's findings for the whole program.

        ``index`` is a :class:`repro.lint.rngflow.ProjectIndex` (typed
        loosely here to keep :mod:`base` import-cycle-free).
        """
        raise NotImplementedError

    def project_finding(self, path: str, line: int, col: int, message: str) -> Finding:
        """Build a finding anchored at a summary-recorded location."""
        return Finding(path=path, line=line, col=col, rule=self.rule_id, message=message)
