"""AST-based determinism & concurrency invariant checker (``repro lint``).

Static enforcement of the contracts the test suite can only sample:
bit-identical engine equivalence, byte-stable canonical-JSON caches and
WALs, RNG-stream-position equality, and the service layer's lock and
supervision discipline.  Ten plugin rules (stdlib ``ast`` only — no new
dependencies) walk the source and emit ``path:line:col RULE-ID message``
findings.  A finding is either fixed or silenced in place by a justified
``# repro-lint: disable=RULE -- reason`` suppression; there is no other way
past the gate.

Per-module rules see one parsed file; the project rules (marked *) run over
the per-function RNG provenance summaries built by :mod:`repro.lint.rngflow`
and follow generator returns across helper functions.  The lock inventory,
lock nesting and blocking-under-lock guarantees are structural tests
(``tests/lint/test_service_race_free.py``), not rules.

Rules
-----
DET001   wall-clock reads outside the sanctioned timing seams
DET002   global-stream RNG calls instead of a passed Generator
DET003   unstable sorts in order-sensitive paths (the PR 2 bug class)
DET004   non-canonical ``json.dump(s)``
DET005   set-order iteration in engine/metrics paths
DET006 * mixed RNG stream provenance / OS-entropy generator roots
DET007 * spawned child-stream order tied to dict/set iteration
CONC001  unlocked writes or reads of lock-guarded ``self._*`` state
CONC002  bare/broad ``except`` without re-raise or supervisor capture
API001   malformed / unknown / unjustified / unused suppressions

Use ``repro lint`` or ``python -m repro.lint`` from the command line, or
:func:`run_lint` programmatically.
"""

from repro.lint.base import ImportMap, InvariantRule, ModuleContext, ProjectRule
from repro.lint.findings import Finding
from repro.lint.rngflow import (
    ModuleSummary,
    ProjectIndex,
    module_name_for,
    summarize_module,
)
from repro.lint.runner import (
    ALL_RULES,
    DEFAULT_ROOTS,
    PARSE_RULE_ID,
    RULES_BY_ID,
    LintReport,
    LintUsageError,
    build_arg_parser,
    list_rules,
    main,
    render_text,
    run_from_args,
    run_lint,
)
from repro.lint.suppressions import (
    API_RULE_ID,
    Suppression,
    apply_suppressions,
    parse_suppressions,
)

__all__ = [
    "ALL_RULES",
    "API_RULE_ID",
    "DEFAULT_ROOTS",
    "Finding",
    "ImportMap",
    "InvariantRule",
    "LintReport",
    "LintUsageError",
    "ModuleContext",
    "ModuleSummary",
    "PARSE_RULE_ID",
    "ProjectIndex",
    "ProjectRule",
    "RULES_BY_ID",
    "Suppression",
    "apply_suppressions",
    "build_arg_parser",
    "list_rules",
    "main",
    "module_name_for",
    "parse_suppressions",
    "render_text",
    "run_from_args",
    "run_lint",
    "summarize_module",
]
