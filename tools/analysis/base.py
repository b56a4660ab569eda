"""Shared infrastructure of the invariant checkers.

A :class:`ModuleSource` couples a parsed AST with the inline *markers*
extracted from comments:

``# guarded-by: <lock>``
    Declares that the attribute assigned on this line may only be accessed
    while holding ``self.<lock>`` (consumed by lock-discipline).

``# lock-ok: <reason>`` / ``# schur-ok: <reason>``
    Waive findings of the corresponding checker on this line.  A reason is
    mandatory — a waiver without justification is itself reported.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

_MARKER_RE = re.compile(
    r"#\s*(?P<kind>guarded-by|lock-ok|schur-ok)"
    r"\s*(?::\s*(?P<value>.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One invariant violation at a source location."""

    checker: str
    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


class ModuleSource:
    """A parsed module plus its comment markers."""

    def __init__(self, path: Path, text: str):
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        #: lineno -> list of (kind, value) markers on that line
        self.markers: Dict[int, List[Tuple[int, str, str]]] = {}
        self._collect_markers(text)

    def _collect_markers(self, text: str) -> None:
        lines = text.splitlines()
        for tok in tokenize.generate_tokens(StringIO(text).readline):
            if tok.type != tokenize.COMMENT:
                continue
            m = _MARKER_RE.search(tok.string)
            if m is None:
                continue
            line = tok.start[0]
            entry = (line, m.group("kind"), (m.group("value") or "").strip())
            self.markers.setdefault(line, []).append(entry)
            # a standalone comment line also annotates the next line, so
            # markers need not blow the line-length budget
            if (line <= len(lines)
                    and lines[line - 1].lstrip().startswith("#")):
                self.markers.setdefault(line + 1, []).append(entry)

    def marker_value(self, line: int, kind: str) -> Optional[str]:
        """The value of a ``kind`` marker on ``line`` (None when absent)."""
        for _, k, v in self.markers.get(line, ()):
            if k == kind:
                return v
        return None

    def waived(self, line: int, kind: str) -> bool:
        """True when a non-empty ``kind`` waiver sits on ``line``."""
        value = self.marker_value(line, kind)
        return value is not None and value != ""

    def posix(self) -> str:
        return self.path.as_posix()


class Checker:
    """Base class: one invariant, checked module by module."""

    #: Short name used in reports and ``--checker`` selection.
    name: str = ""
    #: Marker kind that waives this checker's findings.
    waiver: str = ""

    def check(self, mod: ModuleSource) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, mod: ModuleSource, code: str, line: int,
                message: str) -> Optional[Finding]:
        """Build a finding unless a waiver marker covers ``line``."""
        if self.waiver and mod.waived(line, self.waiver):
            return None
        return Finding(self.name, code, mod.posix(), line, message)

    def check_waivers(self, mod: ModuleSource) -> List[Finding]:
        """Report waivers of this checker's kind that carry no reason."""
        out = []
        for line, entries in sorted(mod.markers.items()):
            for orig, kind, value in entries:
                # a standalone-comment marker registers on two lines;
                # report it once, at its own line
                if orig == line and kind == self.waiver and value == "":
                    out.append(Finding(
                        self.name, "WAIVE000", mod.posix(), line,
                        f"'# {kind}:' waiver requires a reason",
                    ))
        return out


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """All ``*.py`` files under the given files/directories, sorted."""
    seen = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file() and p.suffix == ".py":
            files = [p]
        elif p.is_dir():
            files = sorted(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        else:
            files = []
        for f in files:
            if f not in seen:
                seen.add(f)
                yield f


def load_source(path: Path) -> "Tuple[Optional[ModuleSource], Optional[Finding]]":
    """Parse one file: ``(source, None)`` on success, ``(None, E000)`` not.

    Anything that prevents analysis — a syntax error, an undecodable
    encoding, an unreadable file — is reported as a regular ``E000``
    finding with a location instead of aborting the run.
    """
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        line = 1
        detail = getattr(exc, "strerror", None) or str(exc)
        return None, Finding(
            "runner", "E000", path.as_posix(), line,
            f"cannot read file: {detail}",
        )
    try:
        return ModuleSource(path, text), None
    except SyntaxError as exc:
        return None, Finding(
            "runner", "E000", path.as_posix(), exc.lineno or 1,
            f"syntax error: {exc.msg}",
        )
    except (ValueError, tokenize.TokenizeError) as exc:
        return None, Finding(
            "runner", "E000", path.as_posix(), 1,
            f"cannot tokenize file: {exc}",
        )


def receiver_root(node: ast.AST) -> Optional[str]:
    """Leftmost ``Name`` of an attribute/subscript chain (``a.b.c`` -> a)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def attribute_chain(node: ast.AST) -> List[str]:
    """All attribute names along a chain (``a.b.c()`` -> [b, c])."""
    out = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            out.append(node.attr)
        node = node.value
    out.reverse()
    return out
