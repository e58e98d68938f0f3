"""Diagnostic framework for the S-Net static analyzer.

The analyzer reports findings as :class:`Diagnostic` values carrying a
stable code (``SNET-Exxx`` for errors, ``SNET-Wxxx`` for warnings), a
severity, a human-readable message, the *entity path* of the offending
network component (``root/serial3/merger``) and — when the network came
from parsed DSL source — a :class:`SourceSpan` pointing at the offending
line, rendered as a caret excerpt exactly like
:class:`~repro.snet.errors.SNetSyntaxError`.

This module deliberately imports nothing from the rest of the ``snet``
package so that the language front-end (:mod:`repro.snet.lang`) can attach
spans to tokens and AST nodes without creating an import cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "Severity",
    "SourceSpan",
    "Diagnostic",
    "AnalysisReport",
    "CODES",
    "severity_of",
    "title_of",
]


class Severity(enum.IntEnum):
    """Finding severity; ``ERROR`` findings fail ``check="error"`` runs."""

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


#: The check catalog: code -> (severity, short kebab-case title).
#: Codes are stable across releases; tests pin them by value.
CODES: Dict[str, Tuple[Severity, str]] = {
    "SNET-E001": (Severity.ERROR, "synchrocell-deadlock"),
    "SNET-E002": (Severity.ERROR, "star-never-exits"),
    "SNET-E003": (Severity.ERROR, "constant-false-guard"),
    "SNET-E004": (Severity.ERROR, "template-label-missing"),
    "SNET-E005": (Severity.ERROR, "unroutable-record"),
    "SNET-E006": (Severity.ERROR, "split-tag-never-present"),
    "SNET-E007": (Severity.ERROR, "invalid-split-tag"),
    "SNET-E008": (Severity.ERROR, "syntax-error"),
    "SNET-W101": (Severity.WARNING, "possibly-unroutable"),
    "SNET-W102": (Severity.WARNING, "dead-parallel-branch"),
    "SNET-W103": (Severity.WARNING, "ambiguous-parallel"),
    "SNET-W104": (Severity.WARNING, "template-inherited-label"),
    "SNET-W105": (Severity.WARNING, "placement-node-wraps"),
}


def severity_of(code: str) -> Severity:
    """Severity of a catalog code (unknown codes default to WARNING)."""
    return CODES.get(code, (Severity.WARNING, ""))[0]


def title_of(code: str) -> str:
    """Short title of a catalog code (empty for unknown codes)."""
    return CODES.get(code, (Severity.WARNING, ""))[1]


@dataclass(frozen=True)
class SourceSpan:
    """A (1-based) source location: start line/column, optional end."""

    line: int
    column: int
    end_line: Optional[int] = None
    end_column: Optional[int] = None

    def excerpt(self, source: str) -> str:
        """The offending source line plus a caret line underneath it."""
        lines = source.splitlines()
        if not (1 <= self.line <= len(lines)):
            return ""
        text = lines[self.line - 1]
        col = max(self.column, 1)
        width = 1
        if (
            self.end_column is not None
            and (self.end_line is None or self.end_line == self.line)
            and self.end_column > self.column
        ):
            width = self.end_column - self.column
        return f"{text}\n{' ' * (col - 1)}{'^' * width}"

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    path: str = ""
    span: Optional[SourceSpan] = None

    def format(self, source: Optional[str] = None) -> str:
        """Render as ``CODE severity [title] path: message`` plus excerpt."""
        parts = [self.code, str(self.severity)]
        title = title_of(self.code)
        if title:
            parts.append(f"[{title}]")
        head = " ".join(parts)
        where = f" {self.path}:" if self.path else ""
        line = f"{head}{where} {self.message}"
        if self.span is not None:
            line += f" ({self.span})"
            if source:
                excerpt = self.span.excerpt(source)
                if excerpt:
                    line += "\n" + "\n".join(
                        f"    {l}" for l in excerpt.splitlines()
                    )
        return line

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "code": self.code,
            "severity": str(self.severity),
            "title": title_of(self.code),
            "message": self.message,
            "path": self.path,
        }
        if self.span is not None:
            data["line"] = self.span.line
            data["column"] = self.span.column
        return data


class AnalysisReport:
    """An ordered, de-duplicated collection of diagnostics.

    Duplicate findings (same code, path and message — e.g. from shared
    subtrees reached along several routes) are collapsed into one.
    """

    def __init__(self, source: Optional[str] = None):
        self.source = source
        self.diagnostics: List[Diagnostic] = []
        #: False when the dataflow pass crashed or failed to converge;
        #: definite (flow-based) findings are suppressed in that case.
        self.dataflow_ok = True
        self._seen: Set[Tuple[str, str, str]] = set()

    def add(
        self,
        code: str,
        message: str,
        *,
        path: str = "",
        span: Optional[SourceSpan] = None,
        severity: Optional[Severity] = None,
    ) -> Optional[Diagnostic]:
        """Append a finding unless an identical one is already recorded."""
        key = (code, path, message)
        if key in self._seen:
            return None
        self._seen.add(key)
        diag = Diagnostic(
            code=code,
            severity=severity if severity is not None else severity_of(code),
            message=message,
            path=path,
            span=span,
        )
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "AnalysisReport") -> None:
        for diag in other.diagnostics:
            self.add(
                diag.code,
                diag.message,
                path=diag.path,
                span=diag.span,
                severity=diag.severity,
            )
        self.dataflow_ok = self.dataflow_ok and other.dataflow_ok

    # -- views -------------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity < Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when there are no ERROR-severity findings."""
        return not self.errors

    def codes(self) -> Set[str]:
        return {d.code for d in self.diagnostics}

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def format(self) -> str:
        if not self.diagnostics:
            return "no findings"
        return "\n".join(d.format(self.source) for d in self.diagnostics)

    def to_json(self) -> List[Dict[str, Any]]:
        return [d.to_dict() for d in self.diagnostics]

    def __repr__(self) -> str:
        return (
            f"<AnalysisReport {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)>"
        )
