"""RNG provenance dataflow: per-module summaries plus two project rules.

========  ============================================================
DET006    a Generator-receiving function touches a differently-rooted
          stream (or anything constructs an OS-entropy-seeded one)
========  ============================================================
DET007    a spawned child stream's consumption order depends on
          dict/set iteration
========  ============================================================

:func:`summarize_module` compresses one parsed file into a fully
*picklable* :class:`ModuleSummary`: per function, the RNG *events* with
their provenance roots — ``param:<name>`` for generators handed in by the
caller, ``fresh:<line>`` for streams seeded locally, ``fresh:unseeded`` for
OS-entropy roots, ``spawn:<parent>`` for child streams, and ``ret:<callee>``
for values returned by project helpers.  Because summaries carry no AST
nodes they cross process boundaries, which is what lets ``repro lint
--jobs N`` build them in worker processes and still run the project phase
in the parent.  A :class:`ProjectIndex` maps qualified names to function
summaries; the rules resolve the symbolic ``ret:``-roots over it (a helper
returning its parameter's spawn collapses to ``spawn``; one minting a fresh
stream collapses to ``fresh``) and then apply two policies:

* **DET006** — the reproduction contract threads *one* seeded root
  through every consumer (``repro.utils.rng.default_rng`` +
  ``spawn_rng``).  A function that *receives* a Generator and also
  creates-and-draws-from its own fresh root has two incompatible stream
  families in one scope; its output depends on which family each draw
  lands in.  Zero-argument ``numpy.random.default_rng()`` (and raw
  bit-generator constructions) are flagged unconditionally — an
  OS-entropy root is unreproducible wherever it appears.
* **DET007** — ``spawn`` order is the child stream's identity: spawning
  (or drawing from a spawn-rooted stream) inside iteration over a set,
  dict view, or dict literal assigns children in hash/insertion order,
  so two runs disagree about which child fed which consumer.

Soundness limits: attribute-held generators (``self._rng``) are trusted —
their provenance is an object-construction property the intra-function
environment cannot see — nested ``def``/``lambda`` bodies are skipped, and
a ``ret:`` root resolves only through a module-level function or a method
spelled with its full dotted path (``self.helper()`` stays opaque).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.base import (
    ImportMap,
    ModuleContext,
    ProjectRule,
    is_set_expression,
    resolve_call,
)
from repro.lint.findings import Finding

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProjectIndex",
    "RngEvent",
    "RngProvenanceRule",
    "SpawnOrderRule",
    "module_name_for",
    "resolve_return_kinds",
    "summarize_module",
]

#: Generator factories: the numpy entry point and the repo's seed-or-
#: generator wrapper (which passes an existing Generator through).
GENERATOR_FACTORIES = frozenset(
    {"numpy.random.default_rng", "repro.utils.rng.default_rng"}
)

#: Zero-argument constructions that seed from OS entropy — a
#: nondeterministic stream root, flagged unconditionally by DET006.
ENTROPY_SEEDED_ZERO_ARG = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
    }
)

#: Helper(s) that spawn child generators from a parent.
SPAWN_HELPERS = frozenset({"repro.utils.rng.spawn_rng"})


# --------------------------------------------------------------------- #
# Picklable summary records


@dataclass(frozen=True)
class RngEvent:
    """One RNG provenance event inside a function body."""

    kind: str
    """``create-unseeded`` | ``create-fresh`` | ``draw`` | ``spawn`` |
    ``spawn-unordered`` (a spawn/draw whose order follows dict/set
    iteration)."""
    root: str
    """Provenance root descriptor: ``param:<name>``, ``fresh:<line>``,
    ``fresh:unseeded``, ``spawn:<parent-root>``, ``ret:<callee>``."""
    line: int
    col: int
    text: str


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the RNG rules need to know about one function."""

    qualname: str
    path: str
    name: str
    line: int
    rng_events: Tuple[RngEvent, ...] = ()
    rng_params: Tuple[str, ...] = ()
    """Parameters that receive a ``numpy.random.Generator``."""
    rng_return: str = ""
    """Root descriptor of a returned generator (``""`` when none)."""


@dataclass(frozen=True)
class ModuleSummary:
    """One file's contribution to the project index."""

    path: str
    functions: Tuple[FunctionSummary, ...] = ()


class ProjectIndex:
    """Every module's function summaries, by qualified name."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.functions: Dict[str, FunctionSummary] = {}
        for summary in sorted(summaries, key=lambda s: s.path):
            for fn in summary.functions:
                self.functions[fn.qualname] = fn


# --------------------------------------------------------------------- #
# Module summarisation


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/service/server.py`` → ``repro.service.server``;
    ``benchmarks/gatelib.py`` → ``benchmarks.gatelib``; a package
    ``__init__.py`` maps to the package itself.
    """
    parts = list(PurePosixPath(relpath).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_mentions_generator(ann: Optional[ast.expr], imports: ImportMap) -> bool:
    """True when an annotation names ``numpy.random.Generator``.

    ``RandomState`` (the repo's seed-or-generator union) is deliberately
    *not* a generator annotation: functions taking it are the sanctioned
    conversion boundary, not generator consumers.
    """
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return "Generator" in ann.value and "RandomState" not in ann.value
    for node in ast.walk(ann):
        if isinstance(node, ast.Name) and imports.resolve(node.id).endswith(
            "RandomState"
        ):
            return False
    for node in ast.walk(ann):
        if isinstance(node, (ast.Attribute, ast.Name)):
            resolved = resolve_call(node, imports)
            if resolved is not None and resolved.endswith("Generator"):
                return True
    return False


def _is_unordered_iterable(node: ast.expr) -> bool:
    """True for expressions whose iteration order is hash/insertion-driven.

    ``set``-valued expressions are genuinely unordered; ``dict`` views
    (``.keys()/.values()/.items()``, dict literals/``dict()``) iterate in
    insertion order, which itself routinely derives from unordered sources —
    DET007 treats both as unordered, with suppression as the escape hatch.
    """
    if is_set_expression(node) or isinstance(node, ast.Dict):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "dict":
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "keys",
            "values",
            "items",
        ):
            return True
    return False


class _FunctionScanner:
    """One pass over a function body collecting its RNG events.

    ``unordered`` counts the dict/set iterations enclosing the current
    node; a spawn (or a draw from a spawned stream) under one is
    ``spawn-unordered``.
    """

    def __init__(self, module: str, context: ModuleContext, imports: ImportMap) -> None:
        self.module = module
        self.context = context
        self.imports = imports
        self.rng: List[RngEvent] = []
        self.rng_env: Dict[str, str] = {}
        self.rng_params: Tuple[str, ...] = ()
        self.rng_return = ""

    def _event(self, kind: str, root: str, call: ast.Call) -> None:
        self.rng.append(
            RngEvent(
                kind=kind,
                root=root,
                line=call.lineno,
                col=call.col_offset,
                text=self.context.line_text(call.lineno),
            )
        )

    # -- statement walk ------------------------------------------------ #

    def scan(self, fn: ast.FunctionDef) -> None:
        args = fn.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        self.rng_params = tuple(
            p.arg
            for p in params
            if p.arg != "self"
            and (
                _annotation_mentions_generator(p.annotation, self.imports)
                or (p.annotation is None and p.arg == "rng")
            )
        )
        for name in self.rng_params:
            self.rng_env[name] = f"param:{name}"
        self._stmts(fn.body, unordered=0)

    def _stmts(self, body: Sequence[ast.stmt], unordered: int) -> None:
        for stmt in body:
            self._stmt(stmt, unordered)

    def _stmt(self, stmt: ast.stmt, unordered: int) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested callables are a documented soundness limit
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr, unordered)
                if item.optional_vars is not None:
                    self._expr(item.optional_vars, unordered)
            self._stmts(stmt.body, unordered)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, unordered)
            inner = unordered + 1 if _is_unordered_iterable(stmt.iter) else unordered
            self._expr(stmt.target, unordered)
            self._stmts(stmt.body, inner)
            self._stmts(stmt.orelse, unordered)
            return
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value, unordered)
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                root = self._root_of(stmt.value)
                if root is not None:
                    self.rng_env[name] = root
                else:
                    self.rng_env.pop(name, None)
            return
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                self._expr(stmt.value, unordered)
            return
        if isinstance(stmt, ast.Delete):
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, unordered)
                root = self._root_of(stmt.value)
                if root is not None:
                    self.rng_return = root
            return
        # Generic statements: recurse expressions and nested bodies with
        # the current context.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child, unordered)
            elif isinstance(child, ast.expr):
                self._expr(child, unordered)
            elif isinstance(child, ast.ExceptHandler):
                self._stmts(child.body, unordered)

    # -- expression walk ----------------------------------------------- #

    def _expr(self, node: ast.expr, unordered: int) -> None:
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            inner = unordered
            for gen in node.generators:
                self._expr(gen.iter, unordered)
                if _is_unordered_iterable(gen.iter):
                    inner += 1
                for cond in gen.ifs:
                    self._expr(cond, inner)
            if isinstance(node, ast.DictComp):
                self._expr(node.key, inner)
                self._expr(node.value, inner)
            else:
                self._expr(node.elt, inner)
            return
        if isinstance(node, ast.Call):
            self._classify(node, unordered)
            self._expr(node.func, unordered)
            for arg in node.args:
                self._expr(arg, unordered)
            for kw in node.keywords:
                self._expr(kw.value, unordered)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, unordered)

    # -- call classification ------------------------------------------- #

    def _classify(self, call: ast.Call, unordered: int) -> None:
        func = call.func
        resolved = resolve_call(func, self.imports)
        if resolved in ENTROPY_SEEDED_ZERO_ARG and not call.args and not call.keywords:
            self._event("create-unseeded", "fresh:unseeded", call)
            return
        if resolved in GENERATOR_FACTORIES and call.args:
            root = self._root_of(call)
            if root is not None and root.startswith("fresh:"):
                self._event("create-fresh", root, call)
            return
        if resolved in SPAWN_HELPERS and call.args:
            parent = self._root_of(call.args[0]) or "opaque"
            kind = "spawn-unordered" if unordered > 0 else "spawn"
            self._event(kind, f"spawn:{parent}", call)
            return
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            root = self.rng_env.get(func.value.id)
            if root is None:
                return
            if func.attr == "spawn":
                kind = "spawn-unordered" if unordered > 0 else "spawn"
                self._event(kind, f"spawn:{root}", call)
            else:
                kind = (
                    "spawn-unordered"
                    if unordered > 0 and root.startswith("spawn:")
                    else "draw"
                )
                self._event(kind, root, call)

    def _root_of(self, value: ast.expr) -> Optional[str]:
        """RNG provenance root of an expression, or None."""
        if isinstance(value, ast.Name):
            return self.rng_env.get(value.id)
        if isinstance(value, (ast.Subscript, ast.Starred)):
            return self._root_of(value.value)
        if not isinstance(value, ast.Call):
            return None
        resolved = resolve_call(value.func, self.imports)
        if resolved in ENTROPY_SEEDED_ZERO_ARG and not value.args and not value.keywords:
            return "fresh:unseeded"
        if resolved in GENERATOR_FACTORIES:
            if value.args:
                arg = value.args[0]
                if isinstance(arg, ast.Name):
                    inner = self.rng_env.get(arg.id)
                    if inner is not None:
                        return inner
                    if arg.id in self.rng_params:
                        return f"param:{arg.id}"
                    # A seed-ish parameter or local: fresh, deterministically
                    # seeded by the caller's value.
                    return f"fresh:{value.lineno}"
                return f"fresh:{value.lineno}"
            return "fresh:unseeded"
        if resolved in SPAWN_HELPERS and value.args:
            parent = self._root_of(value.args[0]) or "opaque"
            return f"spawn:{parent}"
        if isinstance(value.func, ast.Attribute):
            if value.func.attr == "spawn":
                parent = self._root_of(value.func.value)
                if parent is not None:
                    return f"spawn:{parent}"
        if resolved is not None:
            # A project helper may return a generator; record symbolically
            # and let the project pass resolve it (unresolvable callees —
            # builtins, third-party — collapse to an opaque root there).
            dotted = resolved if "." in resolved else f"{self.module}.{resolved}"
            return f"ret:{dotted}"
        return None


def summarize_module(tree: ast.AST, context: ModuleContext) -> ModuleSummary:
    """Compress one parsed module into its picklable summary."""
    imports = ImportMap.from_tree(tree)
    module = module_name_for(context.path)
    functions: List[FunctionSummary] = []

    def scan_function(fn: ast.FunctionDef, qualname: str) -> None:
        scanner = _FunctionScanner(module, context, imports)
        scanner.scan(fn)
        functions.append(
            FunctionSummary(
                qualname=qualname,
                path=context.path,
                name=fn.name,
                line=fn.lineno,
                rng_events=tuple(scanner.rng),
                rng_params=scanner.rng_params,
                rng_return=scanner.rng_return,
            )
        )

    assert isinstance(tree, ast.Module)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_function(stmt, f"{module}.{node.name}.{stmt.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(node, f"{module}.{node.name}")
    return ModuleSummary(path=context.path, functions=tuple(functions))


# --------------------------------------------------------------------- #
# Project rules


def _kind_of(root: str) -> str:
    """Collapse a provenance root to its family kind."""
    base = root
    while base.startswith("spawn:"):
        base = base[len("spawn:") :]
    if base.startswith("param:"):
        return "param"
    if base == "fresh:unseeded":
        return "unseeded"
    if base.startswith("fresh:"):
        return "fresh"
    if base.startswith("ret:"):
        return "ret"
    return "opaque"


def resolve_return_kinds(index: ProjectIndex) -> Dict[str, str]:
    """Function → family kind of its returned generator, via fixpoint.

    Helpers that pass a parameter (or its spawn) back return ``param``;
    ones minting a stream return ``fresh``/``unseeded``.  Unresolvable
    returns are ``opaque`` and never produce findings.
    """
    kinds: Dict[str, str] = {}
    for qualname, fn in index.functions.items():
        if fn.rng_return:
            kinds[qualname] = _kind_of(fn.rng_return)
    changed = True
    while changed:
        changed = False
        for qualname, kind in list(kinds.items()):
            if kind != "ret":
                continue
            fn = index.functions[qualname]
            target = fn.rng_return
            while target.startswith("spawn:"):
                target = target[len("spawn:") :]
            callee = target[len("ret:") :]
            resolved = kinds.get(callee, "opaque") if callee in index.functions else "opaque"
            if resolved not in ("ret", kind):
                kinds[qualname] = resolved
                changed = True
    return {q: ("opaque" if k == "ret" else k) for q, k in kinds.items()}


def _resolve_root_kind(root: str, kinds: Dict[str, str], index: ProjectIndex) -> str:
    """Family kind of an event root, resolving ``ret:`` through helpers."""
    base = root
    while base.startswith("spawn:"):
        base = base[len("spawn:") :]
    if base.startswith("ret:"):
        callee = base[len("ret:") :]
        if callee in index.functions:
            return kinds.get(callee, "opaque")
        return "opaque"
    return _kind_of(root)


class RngProvenanceRule(ProjectRule):
    """DET006 — mixed stream provenance / OS-entropy generator roots."""

    rule_id = "DET006"
    title = "Generator-receiving function touches a differently-rooted stream"
    scope = ("src/repro/",)

    def check_project(self, index: ProjectIndex) -> List[Finding]:
        kinds = resolve_return_kinds(index)
        findings: List[Finding] = []
        for fn in sorted(index.functions.values(), key=lambda f: (f.path, f.line)):
            if not self.applies_to(fn.path):
                continue
            seen: Set[Tuple[int, int]] = set()
            for event in fn.rng_events:
                if event.kind != "create-unseeded":
                    continue
                key = (event.line, event.col)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    self.project_finding(
                        fn.path,
                        event.line,
                        event.col,
                        "OS-entropy-seeded generator: a zero-argument "
                        "default_rng()/bit-generator root is unreproducible; "
                        "derive the stream from the run seed "
                        "(repro.utils.rng.default_rng / spawn_rng)",
                        text=event.text,
                    )
                )
            if not fn.rng_params:
                continue
            # The function was handed a caller-rooted stream; any fresh
            # family it *also* touches is a second, unrelated stream.
            mixed_seen: Set[Tuple[int, str]] = set()
            for event in fn.rng_events:
                if event.kind not in ("create-fresh", "draw"):
                    continue
                kind = _resolve_root_kind(event.root, kinds, index)
                if kind not in ("fresh", "unseeded"):
                    continue
                if event.kind == "draw" and kind == "unseeded":
                    # The creation site already carries the finding.
                    continue
                key = (event.line, event.root)
                if key in mixed_seen:
                    continue
                mixed_seen.add(key)
                findings.append(
                    self.project_finding(
                        fn.path,
                        event.line,
                        event.col,
                        f"mixed stream provenance: {fn.name}() receives a "
                        f"Generator ({', '.join(fn.rng_params)}) but also "
                        "roots a separate stream here; spawn from the "
                        "incoming generator instead (spawn_rng)",
                        text=event.text,
                    )
                )
        return findings


class SpawnOrderRule(ProjectRule):
    """DET007 — spawn order tied to dict/set iteration."""

    rule_id = "DET007"
    title = "spawned child stream order depends on dict/set iteration"
    scope = ("src/repro/",)

    def check_project(self, index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        for fn in sorted(index.functions.values(), key=lambda f: (f.path, f.line)):
            if not self.applies_to(fn.path):
                continue
            seen: Set[Tuple[int, int]] = set()
            for event in fn.rng_events:
                if event.kind != "spawn-unordered":
                    continue
                key = (event.line, event.col)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    self.project_finding(
                        fn.path,
                        event.line,
                        event.col,
                        "child-stream order follows dict/set iteration: which "
                        "spawned generator feeds which consumer varies across "
                        "runs; iterate a sorted/explicitly-ordered sequence "
                        "when spawning or drawing from spawned streams",
                        text=event.text,
                    )
                )
        return findings
