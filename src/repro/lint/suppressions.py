"""``# repro-lint: disable=RULE`` suppression comments and the API001 rule.

A finding is silenced in place with a justified suppression comment::

    deadline = time.monotonic() + budget  # repro-lint: disable=DET001 -- wall budgets are wall-clock by definition

    # repro-lint: disable=DET003 -- values-only sort; order never leaks
    weights = np.sort(weights)

A trailing comment covers its own line; a standalone comment covers the next
line that carries code.  The justification — any text after the rule list —
is *mandatory*: a suppression is a documented decision, not an off switch.

API001 polices the mechanism itself.  It fires on

* a malformed directive (anything after ``repro-lint:`` that is not
  ``disable=<RULES>``),
* an unknown rule id,
* a missing justification,
* an *unused* suppression — one that silenced nothing, which would otherwise
  rot into a blanket exemption for code that long since stopped violating
  the rule.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.lint.findings import Finding

#: Matches the directive inside a real ``COMMENT`` token (extraction goes
#: through ``tokenize``, so docstrings and string literals that merely quote
#: the directive syntax are never parsed as suppressions).
_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")
_DISABLE = re.compile(r"disable=(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)(?P<rest>.*)$")

#: Rule id of the suppression-hygiene rule itself.
API_RULE_ID = "API001"


@dataclass
class Suppression:
    """One parsed ``disable=`` directive."""

    path: str
    line: int
    """Line the comment sits on."""
    target_line: int
    """Line whose findings it silences."""
    rules: Tuple[str, ...]
    justification: str
    used: Set[str] = field(default_factory=set)
    """Rule ids this suppression actually silenced."""


def _has_code(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """``(line, comment_text)`` for every real comment token in ``source``."""
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable tail: whatever comments tokenize got through are kept;
        # the runner reports the syntax error separately.
        pass
    return comments


def parse_suppressions(
    path: str, source: str, lines: Sequence[str], known_rules: Iterable[str]
) -> Tuple[List[Suppression], List[Finding]]:
    """Extract directives from one file; malformed ones become API001 findings."""
    known = set(known_rules)
    suppressions: List[Suppression] = []
    findings: List[Finding] = []

    def api_finding(lineno: int, message: str) -> Finding:
        return Finding(path=path, line=lineno, col=0, rule=API_RULE_ID, message=message)

    for index, comment in _comment_tokens(source):
        directive = _DIRECTIVE.search(comment)
        if directive is None:
            continue
        body = directive.group("body").strip()
        disable = _DISABLE.match(body)
        if disable is None:
            findings.append(
                api_finding(
                    index,
                    f"malformed repro-lint directive {body!r}; expected "
                    "`# repro-lint: disable=RULE[,RULE] -- justification`",
                )
            )
            continue
        rules = tuple(
            rule.strip().upper() for rule in disable.group("rules").split(",")
        )
        for rule in rules:
            if rule not in known:
                findings.append(
                    api_finding(index, f"suppression names unknown rule {rule!r}")
                )
        justification = disable.group("rest").strip().lstrip("-—:;, ").strip()
        if not justification:
            findings.append(
                api_finding(
                    index,
                    "suppression without a justification; append `-- why this "
                    "violation is intended` after the rule list",
                )
            )
        line = lines[index - 1] if index <= len(lines) else ""
        if line.strip().startswith("#"):
            # Standalone comment: cover the next line carrying code.
            target = index
            for forward in range(index + 1, len(lines) + 1):
                if _has_code(lines[forward - 1]):
                    target = forward
                    break
        else:
            # Trailing comment: cover its own line.
            target = index
        suppressions.append(
            Suppression(
                path=path,
                line=index,
                target_line=target,
                rules=tuple(rule for rule in rules if rule in known),
                justification=justification,
            )
        )
    return suppressions, findings


def apply_suppressions(
    findings: List[Finding], suppressions: List[Suppression]
) -> Tuple[List[Finding], List[Finding], List[Finding]]:
    """Split findings into (kept, suppressed) and emit unused-suppression API001s.

    Returns ``(kept, suppressed, api_findings)``.
    """
    by_line: Dict[Tuple[str, int], List[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault((suppression.path, suppression.target_line), []).append(
            suppression
        )
    kept: List[Finding] = []
    silenced: List[Finding] = []
    for finding in findings:
        matched = False
        for suppression in by_line.get((finding.path, finding.line), []):
            if finding.rule in suppression.rules:
                suppression.used.add(finding.rule)
                matched = True
        if matched:
            silenced.append(finding)
        else:
            kept.append(finding)
    unused: List[Finding] = []
    for suppression in suppressions:
        for rule in suppression.rules:
            if rule not in suppression.used:
                unused.append(
                    Finding(
                        path=suppression.path,
                        line=suppression.line,
                        col=0,
                        rule=API_RULE_ID,
                        message=(
                            f"unused suppression of {rule}: line "
                            f"{suppression.target_line} no longer violates it; "
                            "remove the directive"
                        ),
                    )
                )
    return kept, silenced, unused
