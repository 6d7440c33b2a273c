"""The repo's locks are few, flat and never held across a blocking call.

The match loop is the only owner of the dispatch service's mutable state,
so the concurrency rules need no escape hatch anywhere in
``src/repro/service/``; a new ``disable=CONC...`` directive there means
shared state crept back.  The few locks that remain are pinned here by
structure instead of by a whole-program analysis:

* an exact inventory of every lock the linted roots create — a new lock
  anywhere fails the test until it is added on purpose;
* no ``with <lock>`` nested inside another lock's ``with``, so no two
  locks can be taken in opposite orders;
* no blocking call under a lock, except ``wait`` on that lock's own
  Condition (which releases the lock while parked).

Calls resolve through the linter's :class:`~repro.lint.ImportMap`, so
``from threading import Lock as L`` cannot dodge the inventory.  The
checks are lexical: a lock reached through ``getattr`` (the evaluator's
per-side guard in ``core/upper_bound.py``) is invisible to the nesting and
blocking checks, and calls made under a lock are not followed.  Every
check has a negative test on a planted violation.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from textwrap import dedent
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint import DEFAULT_ROOTS, ImportMap, module_name_for
from repro.lint.base import is_lock_factory, resolve_call

_CONC_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*disable=[^\n]*\bCONC\d+")
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Every lock the linted roots create, as ``(owner, construction)``.  An owner is
#: ``<module>.<Class>.<attr>`` for a lock bound to an attribute and
#: ``<module>.<Class>.<method>()`` for one a method creates and returns.
EXPECTED_LOCKS = [
    ("repro.service.faults.FaultController._http_lock", "threading.Lock()"),
    ("repro.service.scheduler.AdmissionScheduler._lock", "threading.Lock()"),
    (
        "repro.service.scheduler.AdmissionScheduler._ready",
        "threading.Condition(self._lock)",
    ),
    ("repro.sweep.runner.SingleFlightModelErrorCache._master", "threading.Lock()"),
    ("repro.sweep.runner.SingleFlightModelErrorCache.lock_for()", "threading.Lock()"),
]

#: Resolved calls that block the calling thread.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "open",
        "urllib.request.urlopen",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Method names that block whatever the receiver: ``Condition/Event.wait``,
#: ``Thread.join``, server and socket loops.
_BLOCKING_METHODS = frozenset(
    {"wait", "join", "serve_forever", "getresponse", "accept", "recv"}
)

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


# --------------------------------------------------------------------- #
# The checks


def _modules(root: Path) -> Iterator[Tuple[str, str, ast.Module, ImportMap]]:
    """``(relpath, module, tree, imports)`` for every file the linter scans."""
    for base in DEFAULT_ROOTS:
        for path in sorted((root / base).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            relpath = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            yield relpath, module_name_for(relpath), tree, ImportMap.from_tree(tree)


def _with_owner(node: ast.AST, owner: str, cls: str) -> Iterator[Tuple[ast.AST, str, str]]:
    """Pre-order ``(node, owner, cls)``: the enclosing def/class path and the
    enclosing class path (the module when there is none)."""
    for child in ast.iter_child_nodes(node):
        yield child, owner, cls
        if isinstance(child, ast.ClassDef):
            path = f"{owner}.{child.name}"
            yield from _with_owner(child, path, path)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _with_owner(child, f"{owner}.{child.name}", cls)
        else:
            yield from _with_owner(child, owner, cls)


def _construction(call: ast.Call, imports: ImportMap) -> Optional[str]:
    """``threading.Lock()``-style spelling when ``call`` creates a lock."""
    resolved = resolve_call(call.func, imports)
    if not is_lock_factory(resolved):
        return None
    args = ", ".join(ast.unparse(arg) for arg in call.args)
    return f"{resolved}({args})"


def lock_inventory(root: Path) -> List[Tuple[str, str]]:
    """Sorted ``(owner, construction)`` for every lock created under ``root``.

    A lock-factory *reference* passed to a call (``defaultdict(Lock)``,
    ``field(default_factory=Lock)``) counts as a creation too.
    """
    found: List[Tuple[str, str]] = []
    for _relpath, module, tree, imports in _modules(root):
        bound: Set[int] = set()
        for node, owner, cls in _with_owner(tree, module, module):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                made = _construction(node.value, imports)
                target = node.targets[0]
                if made is None or len(node.targets) != 1:
                    continue
                if isinstance(target, ast.Attribute):
                    found.append((f"{cls}.{target.attr}", made))
                elif isinstance(target, ast.Name):
                    found.append((f"{owner}.{target.id}", made))
                else:
                    continue
                bound.add(id(node.value))
            elif isinstance(node, ast.Call):
                made = _construction(node, imports)
                if made is not None and id(node) not in bound:
                    found.append((f"{owner}()", made))
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if not isinstance(arg, (ast.Name, ast.Attribute)):
                        continue
                    resolved = resolve_call(arg, imports)
                    if is_lock_factory(resolved):
                        found.append((f"{owner}()", f"{resolved} (factory)"))
    return sorted(found)


@dataclass(frozen=True)
class _LockNames:
    """What a lock looks like at a ``with`` site, derived from the inventory."""

    attrs: FrozenSet[str]
    """Attribute (or module-level) names bound to a lock."""
    makers: FrozenSet[str]
    """Functions that create and return a lock (``lock_for``)."""
    wraps: Dict[str, str]
    """Each Condition's wrapped lock (``_ready`` → ``_lock``)."""

    @classmethod
    def of(cls, inventory: List[Tuple[str, str]]) -> "_LockNames":
        attrs: Set[str] = set()
        makers: Set[str] = set()
        wraps: Dict[str, str] = {}
        for owner, made in inventory:
            name = owner.rpartition(".")[2]
            if name.endswith("()"):
                makers.add(name[:-2])
                continue
            attrs.add(name)
            wrapped = re.fullmatch(r"\S*Condition\((?:self\.)?(\w+)\)", made)
            if wrapped:
                wraps[name] = wrapped.group(1)
        return cls(frozenset(attrs), frozenset(makers), wraps)

    def lock_of(self, expr: ast.expr) -> str:
        """The lock an expression denotes (``""`` when it is no lock)."""
        if isinstance(expr, ast.Attribute) and expr.attr in self.attrs:
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in self.attrs:
            return expr.id
        if isinstance(expr, ast.Call):
            func = expr.func
            name = func.attr if isinstance(func, ast.Attribute) else ""
            name = func.id if isinstance(func, ast.Name) else name
            if name in self.makers:
                return f"{name}()"
        return ""


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``node`` that run in its scope (nested defs excluded)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            continue
        yield child
        yield from _walk_scope(child)


@dataclass(frozen=True)
class _LockedBlock:
    """One ``with`` statement that takes at least one lock."""

    relpath: str
    node: ast.stmt
    held: Tuple[str, ...]
    imports: ImportMap


def _locked_blocks(root: Path, names: _LockNames) -> Iterator[_LockedBlock]:
    for relpath, _module, tree, imports in _modules(root):
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                held = tuple(
                    lock
                    for lock in (names.lock_of(item.context_expr) for item in node.items)
                    if lock
                )
                if held:
                    yield _LockedBlock(relpath, node, held, imports)


def _under(block: _LockedBlock) -> Iterator[ast.AST]:
    """Every node that runs while ``block`` holds its locks."""
    for stmt in block.node.body:
        yield stmt
        yield from _walk_scope(stmt)


def nested_lock_withs(root: Path) -> List[str]:
    """``path:line`` of every lock taken while another lock is held."""
    names = _LockNames.of(lock_inventory(root))
    found: Set[str] = set()
    for block in _locked_blocks(root, names):
        if len(block.held) > 1:
            found.add(f"{block.relpath}:{block.node.lineno}")
        for inner in _under(block):
            if isinstance(inner, (ast.With, ast.AsyncWith)) and any(
                names.lock_of(item.context_expr) for item in inner.items
            ):
                found.add(f"{block.relpath}:{inner.lineno}")
    return sorted(found)


def blocking_under_locks(root: Path) -> List[str]:
    """``path:line call`` of every blocking call made while a lock is held.

    ``wait`` on the held lock's own Condition is exempt: it releases that
    lock while parked.
    """
    names = _LockNames.of(lock_inventory(root))
    found: Set[str] = set()
    for block in _locked_blocks(root, names):
        for call in _under(block):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if resolve_call(func, block.imports) not in _BLOCKING_CALLS:
                if not isinstance(func, ast.Attribute) or func.attr not in _BLOCKING_METHODS:
                    continue
                if isinstance(func.value, ast.Constant):
                    continue  # ``", ".join(...)``
                if func.attr == "wait":
                    lock = names.lock_of(func.value)
                    if lock and all(h in (lock, names.wraps.get(lock)) for h in block.held):
                        continue
            found.add(f"{block.relpath}:{call.lineno} {ast.unparse(func)}")
    return sorted(found)


# --------------------------------------------------------------------- #
# The repository passes every check


def test_directive_pattern_matches_a_real_directive():
    line = "x = 1  # repro-lint: disable=DET001,CONC001 -- why\n"
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


def test_lock_inventory_is_exact(repo_root):
    assert lock_inventory(repo_root) == EXPECTED_LOCKS


def test_no_lock_is_taken_under_another(repo_root):
    assert nested_lock_withs(repo_root) == []


def test_no_blocking_call_under_a_lock(repo_root):
    assert blocking_under_locks(repo_root) == []


def test_the_scheduler_wait_is_seen_and_exempt(repo_root):
    # Non-vacuity: the checks do see the repo's locked blocks, including
    # the one Condition wait they exempt.
    names = _LockNames.of(lock_inventory(repo_root))
    blocks = list(_locked_blocks(repo_root, names))
    assert {lock for block in blocks for lock in block.held} == {
        "_lock",
        "_ready",
        "_http_lock",
        "_master",
    }
    waits = [
        call
        for block in blocks
        if block.relpath.endswith("scheduler.py")
        for call in _under(block)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "wait"
    ]
    assert len(waits) == 1


# --------------------------------------------------------------------- #
# Each check fails on a planted violation

#: The CI canary: two locks taken in opposite orders by two methods.
_INVERSION_CANARY = """


class _LintCanaryInversion:
    def __init__(self) -> None:
        self._alpha = threading.Lock()
        self._beta = threading.Lock()

    def forward(self) -> None:
        with self._alpha:
            with self._beta:
                pass

    def backward(self) -> None:
        with self._beta:
            with self._alpha:
                pass
"""


def _plant(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(dedent(source), encoding="utf-8")
    return tmp_path


def _repo_copy_with(tmp_path: Path, repo_root: Path, relpath: str, extra: str) -> Path:
    """The linted roots of the repo, with ``extra`` appended to one file."""
    for base in DEFAULT_ROOTS:
        for path in (repo_root / base).rglob("*.py"):
            if "__pycache__" not in path.parts:
                rel = path.relative_to(repo_root).as_posix()
                _plant(tmp_path, rel, path.read_text(encoding="utf-8"))
    target = tmp_path / relpath
    target.write_text(target.read_text(encoding="utf-8") + extra, encoding="utf-8")
    return tmp_path


def test_inversion_canary_fails_inventory_and_nesting(tmp_path, repo_root):
    root = _repo_copy_with(
        tmp_path, repo_root, "src/repro/service/server.py", _INVERSION_CANARY
    )
    assert lock_inventory(root) != EXPECTED_LOCKS
    assert len(nested_lock_withs(root)) == 2


def test_inventory_sees_through_import_aliases(tmp_path):
    root = _plant(
        tmp_path,
        "src/repro/sweep/pool.py",
        """
        import threading as t
        from collections import defaultdict
        from threading import RLock as _Reentrant


        class Pool:
            def __init__(self):
                self._guard = _Reentrant()
                self._by_key = defaultdict(t.Lock)

            def fresh(self):
                return t.Semaphore(2)
        """,
    )
    assert lock_inventory(root) == [
        ("repro.sweep.pool.Pool.__init__()", "threading.Lock (factory)"),
        ("repro.sweep.pool.Pool._guard", "threading.RLock()"),
        ("repro.sweep.pool.Pool.fresh()", "threading.Semaphore(2)"),
    ]


def test_nesting_check_flags_a_second_lock_in_one_with(tmp_path):
    root = _plant(
        tmp_path,
        "src/repro/service/pair.py",
        """
        import threading


        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def both(self):
                with self._a, self._b:
                    pass
        """,
    )
    assert nested_lock_withs(root) == ["src/repro/service/pair.py:11"]


def test_nesting_check_follows_lock_returning_methods(tmp_path):
    root = _plant(
        tmp_path,
        "src/repro/sweep/sides.py",
        """
        import threading


        class Sides:
            def __init__(self):
                self._master = threading.Lock()

            def lock_for(self, side):
                return threading.Lock()

            def train(self, side):
                with self._master:
                    with self.lock_for(side):
                        pass
        """,
    )
    assert nested_lock_withs(root) == ["src/repro/sweep/sides.py:14"]


_BLOCKING_TEMPLATE = """
import threading
import time


class Gate:
    def __init__(self):
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._other = threading.Condition(threading.Lock())

    def step(self):
        with self._lock:
{body}
"""


def test_blocking_check_flags_sleep_and_a_foreign_wait(tmp_path):
    root = _plant(
        tmp_path,
        "src/repro/service/gate.py",
        _BLOCKING_TEMPLATE.format(
            body="            time.sleep(0.1)\n            self._other.wait()\n"
        ),
    )
    assert blocking_under_locks(root) == [
        "src/repro/service/gate.py:14 time.sleep",
        "src/repro/service/gate.py:15 self._other.wait",
    ]


def test_blocking_check_allows_wait_on_the_held_locks_condition(tmp_path):
    root = _plant(
        tmp_path,
        "src/repro/service/gate.py",
        _BLOCKING_TEMPLATE.format(
            body="            self._ready.wait(0.1)\n            ', '.join([])\n"
        ),
    )
    assert blocking_under_locks(root) == []
