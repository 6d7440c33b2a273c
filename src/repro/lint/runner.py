"""File discovery, rule execution, suppression plumbing and output.

:func:`run_lint` is the programmatic entry point; :func:`main` the argv-level
one backing both ``repro lint`` and ``python -m repro.lint``.  Exit codes
follow the repo convention: ``0`` clean, ``1`` new findings, ``2`` usage or
environment errors.

The run is two-phase.  Phase one scans files independently — parse, run the
per-module rules, extract suppression directives, and (when a project rule
is active) build the file's picklable
:class:`~repro.lint.rngflow.ModuleSummary`.  Because a file scan shares no
state with any other, ``--jobs N`` fans phase one across a process pool;
results are merged back in input order, so the report is byte-identical to a
serial run.  Phase two runs in the parent: the summaries become a
:class:`~repro.lint.rngflow.ProjectIndex`, the :class:`ProjectRule`\\ s
(DET006–007) run over it, and suppressions apply to the combined
module+project findings so ``# repro-lint: disable=DET006`` works exactly
like it does for the per-module rules.
"""

from __future__ import annotations

import argparse
import ast
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.concurrency import SwallowedExceptionRule, UnlockedSharedStateRule
from repro.lint.determinism import (
    CanonicalJsonRule,
    GlobalRngRule,
    SetIterationRule,
    UnstableSortRule,
    WallClockRule,
)
from repro.lint.base import InvariantRule, ModuleContext, ProjectRule
from repro.lint.findings import Finding
from repro.lint.rngflow import (
    ModuleSummary,
    ProjectIndex,
    RngProvenanceRule,
    SpawnOrderRule,
    summarize_module,
)
from repro.lint.suppressions import (
    API_RULE_ID,
    Suppression,
    apply_suppressions,
    parse_suppressions,
)
from repro.utils.cache import canonical_json

#: Default repo-relative roots the linter scans.  Tests are deliberately out:
#: they assert non-canonical behaviour (torn WALs, doctored JSON) on purpose.
DEFAULT_ROOTS = ("src/repro", "benchmarks", "examples")

#: Rule id attached to files that fail to parse.
PARSE_RULE_ID = "PARSE001"


class _SuppressionHygieneRule(InvariantRule):
    """API001 — suppression hygiene (implemented in the runner's pipeline).

    The class exists so the rule is listable/selectable like the visitors;
    its findings are produced by :mod:`repro.lint.suppressions` during the
    suppression pass, not by :meth:`check`.
    """

    rule_id = API_RULE_ID
    title = "malformed, unknown, unjustified or unused repro-lint suppression"

    def check(self, tree, context):  # pragma: no cover - pipeline-implemented
        return []


#: Registry of every rule, in documentation order.
ALL_RULES: Tuple[InvariantRule, ...] = (
    WallClockRule(),
    GlobalRngRule(),
    UnstableSortRule(),
    CanonicalJsonRule(),
    SetIterationRule(),
    RngProvenanceRule(),
    SpawnOrderRule(),
    UnlockedSharedStateRule(),
    SwallowedExceptionRule(),
    _SuppressionHygieneRule(),
)

RULES_BY_ID: Dict[str, InvariantRule] = {rule.rule_id: rule for rule in ALL_RULES}


class LintUsageError(ValueError):
    """Bad invocation (unknown rule, missing path)."""


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    """New findings: every unsuppressed one — these fail the gate."""
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return bool(self.findings)

    def to_payload(self) -> dict:
        return {
            "schema": 2,
            "tool": "repro-lint",
            "files_scanned": self.files_scanned,
            "rules": list(self.rules_run),
            "new": [finding.to_payload() for finding in self.findings],
            "suppressed": [finding.to_payload() for finding in self.suppressed],
            "counts": {
                "new": len(self.findings),
                "suppressed": len(self.suppressed),
            },
        }


def _discover_files(root: Path, paths: Optional[Sequence[str]]) -> List[Path]:
    """Python files under the requested repo-relative paths, sorted.

    Deduplication is by *resolved* path, so a symlink next to its target (or
    a path requested twice through different spellings) is scanned once.
    """
    requested = list(paths) if paths else list(DEFAULT_ROOTS)
    files: List[Path] = []
    seen = set()
    for entry in requested:
        target = (root / entry).resolve()
        if target.is_file():
            candidates = [target]
        elif target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        elif paths:
            raise LintUsageError(f"no such file or directory: {entry}")
        else:
            continue  # a default root may be absent in pruned checkouts
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            files.append(candidate)
    return sorted(files)


def _select_rules(rule_ids: Optional[Sequence[str]]) -> List[InvariantRule]:
    if not rule_ids:
        return list(ALL_RULES)
    selected: List[InvariantRule] = []
    for raw in rule_ids:
        for rule_id in raw.split(","):
            rule_id = rule_id.strip().upper()
            if not rule_id:
                continue
            if rule_id not in RULES_BY_ID:
                raise LintUsageError(
                    f"unknown rule {rule_id!r}; known: {', '.join(sorted(RULES_BY_ID))}"
                )
            if RULES_BY_ID[rule_id] not in selected:
                selected.append(RULES_BY_ID[rule_id])
    return selected


@dataclass
class _FileScan:
    """Phase-one result for one file — everything is picklable."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    """Per-module rule findings (pre-suppression); PARSE001 on syntax error."""
    api_findings: List[Finding] = field(default_factory=list)
    """Malformed/unknown/unjustified directives (never suppressible)."""
    directives: List[Suppression] = field(default_factory=list)
    summary: Optional[ModuleSummary] = None


def _scan_file(
    root_str: str,
    relpath: str,
    module_rule_ids: Tuple[str, ...],
    need_summary: bool,
) -> _FileScan:
    """Phase one for one file.  Top-level so process pools can pickle it."""
    file_path = Path(root_str) / relpath
    source = file_path.read_text(encoding="utf-8")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(file_path))
    except SyntaxError as exc:
        return _FileScan(
            path=relpath,
            findings=[
                Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=PARSE_RULE_ID,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
        )
    context = ModuleContext(path=relpath)
    findings: List[Finding] = []
    for rule_id in module_rule_ids:
        rule = RULES_BY_ID[rule_id]
        if rule.applies_to(relpath):
            findings.extend(rule.check(tree, context))
    directives, api_findings = parse_suppressions(relpath, source, lines, RULES_BY_ID)
    summary = summarize_module(tree, context) if need_summary else None
    return _FileScan(
        path=relpath,
        findings=findings,
        api_findings=api_findings,
        directives=directives,
        summary=summary,
    )


def _run_scans(
    root: Path,
    files: Sequence[Path],
    module_rule_ids: Tuple[str, ...],
    need_summary: bool,
    jobs: int,
) -> List[_FileScan]:
    """Phase one over every file, serial or pooled, in input order."""
    relpaths = [file_path.relative_to(root).as_posix() for file_path in files]
    jobs = max(1, min(jobs, len(relpaths) or 1))
    if jobs == 1:
        return [
            _scan_file(str(root), relpath, module_rule_ids, need_summary)
            for relpath in relpaths
        ]
    try:
        context = multiprocessing.get_context("fork")
        executor = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    except ValueError:
        # No fork on this platform; threads still overlap the file I/O and
        # keep the merge order identical.
        executor = ThreadPoolExecutor(max_workers=jobs)
    with executor:
        return list(
            executor.map(
                _scan_file,
                [str(root)] * len(relpaths),
                relpaths,
                [module_rule_ids] * len(relpaths),
                [need_summary] * len(relpaths),
            )
        )


def run_lint(
    root: Path,
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> LintReport:
    """Lint the repo rooted at ``root`` and return a :class:`LintReport`.

    Every unsuppressed finding is new and fails the gate.  ``jobs`` fans the
    per-file phase across processes; the report is byte-identical for any
    value.
    """
    root = Path(root).resolve()
    active = _select_rules(rules)

    files = _discover_files(root, paths)
    check_api = any(rule.rule_id == API_RULE_ID for rule in active)
    module_rule_ids = tuple(
        rule.rule_id
        for rule in active
        if not isinstance(rule, ProjectRule) and rule.rule_id != API_RULE_ID
    )
    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]

    scans = _run_scans(root, files, module_rule_ids, bool(project_rules), jobs)

    rule_findings: List[Finding] = []
    api_parse_findings: List[Finding] = []
    directives: List[Suppression] = []
    summaries: List[ModuleSummary] = []
    for scan in scans:
        rule_findings.extend(scan.findings)
        api_parse_findings.extend(scan.api_findings)
        directives.extend(scan.directives)
        if scan.summary is not None:
            summaries.append(scan.summary)

    if project_rules:
        index = ProjectIndex(summaries)
        for rule in project_rules:
            rule_findings.extend(
                finding
                for finding in rule.check_project(index)
                if rule.applies_to(finding.path)
            )

    kept, silenced, unused = apply_suppressions(rule_findings, directives)
    if check_api:
        kept = kept + api_parse_findings + unused

    source_order = attrgetter("path", "line", "col", "rule")
    return LintReport(
        findings=sorted(kept, key=source_order),
        suppressed=sorted(silenced, key=source_order),
        files_scanned=len(files),
        rules_run=tuple(rule.rule_id for rule in active),
    )


def render_text(report: LintReport) -> str:
    """Human-readable multi-line report (one ``path:line:col`` line each)."""
    out: List[str] = [finding.render() for finding in report.findings]
    summary = (
        f"repro lint: {len(report.findings)} new finding(s), "
        f"{len(report.suppressed)} suppressed across {report.files_scanned} file(s)"
    )
    out.append(summary)
    return "\n".join(out)


def list_rules() -> str:
    """The rule table for ``--list-rules``."""
    lines = []
    for rule in ALL_RULES:
        scope = ", ".join(rule.scope) if rule.scope else "all scanned files"
        lines.append(f"{rule.rule_id}  {rule.title}  [{scope}]")
    return "\n".join(lines)


def build_arg_parser(parser: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    """Arguments of the ``lint`` verb (shared by the CLI and ``__main__``)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description="AST-based determinism & concurrency invariant checker",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "repo-relative files/directories to lint "
            f"(default: {' '.join(DEFAULT_ROOTS)})"
        ),
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE[,RULE]",
        help="run only these rules (repeatable; default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human text or canonical machine-readable json",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "scan files with N worker processes (default: os.cpu_count(); "
            "the report is byte-identical for any value)"
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="repository root the scopes and default paths resolve against",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.lint`` and the ``repro lint`` verb."""
    args = build_arg_parser().parse_args(argv)
    return run_from_args(args)


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        print(list_rules())
        return 0
    jobs = args.jobs if args.jobs and args.jobs > 0 else (os.cpu_count() or 1)
    try:
        report = run_lint(
            root=Path(args.root),
            paths=args.paths or None,
            rules=args.rule,
            jobs=jobs,
        )
    except (LintUsageError, OSError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(canonical_json(report.to_payload()))
    else:
        print(render_text(report))
    return 1 if report.failed else 0
