"""Source locations and diagnostics shared by all pipeline phases."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple


class Location(NamedTuple):
    """An immutable, hashable source span; `str` gives `file:line:col`."""

    file: str = "<unknown>"
    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


UNKNOWN_LOC = Location()


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning" | "note"
    location: Location
    message: str
    notes: list["Diagnostic"] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.location}: {self.severity}: {self.message}"


def error(loc: Location, message: str) -> Diagnostic:
    return Diagnostic("error", loc, message)


def warning(loc: Location, message: str) -> Diagnostic:
    return Diagnostic("warning", loc, message)


_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m", "note": "\x1b[36m"}


def _use_color(stream) -> bool:
    mode = os.environ.get("EKLC_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def render_diagnostic(diag: Diagnostic, source: str | None = None) -> str:
    """Format one diagnostic, with a source-line caret when text is available."""
    lines = [str(diag)]
    if source is not None and diag.location.line > 0:
        src_lines = source.splitlines()
        if diag.location.line <= len(src_lines):
            text = src_lines[diag.location.line - 1]
            lines.append(text)
            lines.append(" " * max(diag.location.col - 1, 0) + "^")
    for note in diag.notes:
        where = f"{note.location}: " if note.location.line > 0 else ""
        lines.append(f"  note: {where}{note.message}")
    return "\n".join(lines)


def print_diagnostics(
    diags: list[Diagnostic], source: str | None = None, stream=None
) -> None:
    stream = stream if stream is not None else sys.stderr
    color = _use_color(stream)
    for d in diags:
        text = render_diagnostic(d, source)
        if color:
            text = _COLORS.get(d.severity, "") + text + "\x1b[0m"
        print(text, file=stream)
