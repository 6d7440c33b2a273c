"""Concurrency rules: unlocked shared-state writes and swallowed exceptions.

========  ============================================================
CONC001   writes or reads of lock-guarded ``self._*`` attributes outside
          the lock
CONC002   bare/broad ``except`` without re-raise or supervisor capture
========  ============================================================

CONC001 is self-calibrating per class rather than annotation-driven.  It
audits every class whose ``__init__`` binds a ``self`` attribute to a
threading lock or condition.  Within such a class, any ``self._*``
attribute that is *ever* mutated inside a ``with self.<lock>:`` block is
lock-guarded, and every unlocked access to it in any method but
``__init__`` is a finding: an unlocked write is a lost update, and an
unlocked read can observe a torn or stale snapshot of state another thread
publishes under the lock.  Construction happens-before every thread that
can observe the object, so ``__init__`` is exempt.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.lint.base import (
    ImportMap,
    InvariantRule,
    ModuleContext,
    is_lock_factory,
    resolve_call,
)
from repro.lint.findings import Finding

#: Exception types considered "broad" for CONC002.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

#: Container methods that mutate their receiver in place — a
#: ``self._queue.append(...)`` is a shared-state write just like an
#: assignment, for both the guarded-set collection and the detection pass.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)


def _self_attr(node: ast.expr) -> str:
    """``attr`` when ``node`` is ``self.<attr>``, else ``""``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _assigned_self_attrs(stmt: ast.stmt) -> List[Tuple[str, ast.AST]]:
    """``(attr, anchor)`` for every ``self._*`` mutated by one statement.

    Covers rebinds (``self._x = ...``), augmented assignment, subscript
    stores (``self._x[i] = ...`` mutates the shared object just the same)
    and deletions — both ``del self._x`` and ``del self._x[i]`` remove
    shared state exactly like an assignment writes it.
    """
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = stmt.targets
    else:
        return []
    out: List[Tuple[str, ast.AST]] = []
    for target in targets:
        for element in ast.walk(target):
            attr = _self_attr(element)
            if attr.startswith("_"):
                out.append((attr, element))
    return out


def _mutated_self_attrs(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """All ``self._*`` writes performed directly by ``node``.

    Each anchor is the written ``self._*`` attribute node itself (for a
    mutator call, its receiver), so the scan can tell a write's attribute
    load apart from a read.  Node-local on purpose:
    :meth:`UnlockedSharedStateRule._scan` visits every node, so nested
    mutations are found when recursion reaches them.
    """
    out = _assigned_self_attrs(node) if isinstance(node, ast.stmt) else []
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        attr = _self_attr(node.func.value)
        if attr.startswith("_"):
            out.append((attr, node.func.value))
    return out


class UnlockedSharedStateRule(InvariantRule):
    """CONC001 — unlocked writes or reads of lock-guarded state."""

    rule_id = "CONC001"
    title = "write or read of a lock-guarded self._attr outside the lock"

    def check(self, tree: ast.AST, context: ModuleContext) -> List[Finding]:
        imports = ImportMap.from_tree(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(node, context, imports))
        return findings

    # -------------------------------------------------------------- #

    def _check_class(
        self, cls: ast.ClassDef, context: ModuleContext, imports: ImportMap
    ) -> List[Finding]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name != "__init__"
        ]
        lock_attrs = self._lock_attributes(cls, imports)
        if not lock_attrs:
            return []
        guarded: Set[str] = set()
        for method in methods:
            self._scan(method, lock_attrs, False, guarded, None, set())
        if not guarded:
            return []
        lock = f"`with self.{sorted(lock_attrs)[0]}`"
        findings: List[Finding] = []
        for method in methods:
            sink: List[Tuple[str, str, ast.AST]] = []
            self._scan(method, lock_attrs, False, guarded, sink, set())
            for verb, attr, anchor in sink:
                findings.append(
                    self.finding(
                        context,
                        anchor,
                        f"{cls.name}.{attr} is written under {lock} elsewhere "
                        f"but {verb} here without the lock; take the lock or "
                        "suppress with a justification",
                    )
                )
        return findings

    @staticmethod
    def _lock_attributes(cls: ast.ClassDef, imports: ImportMap) -> Set[str]:
        """``self._x`` attributes ``__init__`` binds to a lock/condition."""
        locks: Set[str] = set()
        init = next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            ),
            None,
        )
        if init is None:
            return locks
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
                continue
            # Both ``threading.Condition(...)`` and a from-imported bare
            # ``Condition(...)`` count as lock constructors.
            if is_lock_factory(resolve_call(stmt.value.func, imports)):
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr:
                        locks.add(attr)
        return locks

    def _scan(
        self,
        node: ast.AST,
        lock_attrs: Set[str],
        in_lock: bool,
        guarded: Set[str],
        sink,
        written: Set[int],
    ) -> None:
        """One recursive pass serving both collection and detection.

        With ``sink=None`` it *collects*: attributes mutated while a lock is
        held join ``guarded``.  With a sink list it *detects*: mutations and
        loads of guarded attributes outside any lock block are appended as
        ``(verb, attr, anchor)`` with verb ``mutated`` or ``read``.
        ``written`` holds the ids of attribute nodes already counted as
        writes, so a store target or a mutator's receiver is never reported
        a second time as a read.
        """
        for child in ast.iter_child_nodes(node):
            child_in_lock = in_lock
            if isinstance(child, (ast.With, ast.AsyncWith)):
                holds = any(
                    _self_attr(item.context_expr) in lock_attrs
                    for item in child.items
                )
                child_in_lock = in_lock or holds
            for attr, anchor in _mutated_self_attrs(child):
                written.add(id(anchor))
                if attr in lock_attrs:
                    continue
                if child_in_lock:
                    if sink is None:
                        guarded.add(attr)
                elif sink is not None and attr in guarded:
                    sink.append(("mutated", attr, anchor))
            if (
                sink is not None
                and not child_in_lock
                and isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load)
                and id(child) not in written
                and _self_attr(child) in guarded
            ):
                sink.append(("read", child.attr, child))
            self._scan(child, lock_attrs, child_in_lock, guarded, sink, written)


class SwallowedExceptionRule(InvariantRule):
    """CONC002 — broad ``except`` that neither re-raises nor supervises.

    In the service layer a silently swallowed exception is a dead match
    loop that looks healthy — the exact failure mode the PR 8 supervisor
    exists to prevent.  A broad handler must either ``raise`` (possibly a
    translated error) or capture the failure for the supervisor
    (``traceback.format_exc()`` reaching the health state machine).
    """

    rule_id = "CONC002"
    title = "bare/broad except without re-raise or supervisor capture"
    scope = ("src/repro/service/",)

    def check(self, tree: ast.AST, context: ModuleContext) -> List[Finding]:
        imports = ImportMap.from_tree(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles(node, imports):
                continue
            findings.append(
                self.finding(
                    context,
                    node,
                    "broad except swallows the failure; narrow the exception, "
                    "re-raise, or capture it for the supervisor "
                    "(traceback.format_exc() into the failure record)",
                )
            )
        return findings

    @staticmethod
    def _is_broad(type_node) -> bool:
        if type_node is None:
            return True
        names: List[ast.expr] = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for name in names:
            if isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTIONS:
                return True
        return False

    @staticmethod
    def _handles(handler: ast.ExceptHandler, imports: ImportMap) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                resolved = resolve_call(node.func, imports)
                if resolved == "traceback.format_exc" or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "format_exc"
                ):
                    return True
        return False
