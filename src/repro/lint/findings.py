"""Finding record for the invariant linter.

A :class:`Finding` is one rule violation at one source location, rendered as
``path:line:col: RULE-ID message``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    """Repo-relative posix path of the offending file."""
    line: int
    """1-based line number."""
    col: int
    """0-based column offset (``ast`` convention)."""
    rule: str
    """Rule identifier, e.g. ``DET001``."""
    message: str
    """Human-readable description of the violation."""

    def render(self) -> str:
        """The canonical one-line text form of this finding."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form (canonical key order is the encoder's job)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
