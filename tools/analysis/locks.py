"""lock-discipline: guarded attributes and the declared lock hierarchy.

Convention: an attribute initialised in ``__init__`` may carry a trailing

    ``self._in_use = 0  # guarded-by: _cond``

comment.  From then on, every read or write of ``self._in_use`` anywhere
in the class must happen while ``self._cond`` is held (LOCK001/LOCK002).
``__init__`` itself is exempt — construction happens before the object is
shared.  A method may opt out wholesale with a ``# lock-ok: <reason>``
marker on its ``def`` line (e.g. a documented benign racy read), or per
line.

Additionally, nested ``with self.<lock>:`` acquisitions must follow the
global hierarchy declared in :data:`tools.analysis.config.LOCK_HIERARCHY`
— acquiring an outer-ranked lock while holding an inner-ranked one is an
ordering inversion (LOCK003) that can deadlock against a thread acquiring
in the declared order.

The codebase takes its locks only through ``with self.<lock>:``, so the
locks held at a statement are exactly the ``with`` blocks that enclose it
in its function: a ``return`` or an exception leaves the block and
releases the lock, a nested ``def`` starts with nothing held (it runs
later), a lambda runs with the locks of the code that defines it.
Cross-function nesting is covered at runtime by
:mod:`tools.analysis.watchdog`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.analysis.base import Checker, Finding, ModuleSource
from tools.analysis.config import LOCK_EXEMPT_METHODS, LOCK_HIERARCHY

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.ClassDef,)


def self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> attr, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _guarded_map(mod: ModuleSource, cls: ast.ClassDef) -> Dict[str, str]:
    """attr -> lock attr, from ``# guarded-by:`` markers in the class."""
    guarded: Dict[str, str] = {}
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            lock = mod.marker_value(node.lineno, "guarded-by")
            if not lock:
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = self_attr(target)
                if attr is not None:
                    guarded[attr] = lock
    return guarded


def _functions(tree: ast.Module) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Every (possibly nested) function with its innermost enclosing class."""
    stack: List[Tuple[ast.AST, Optional[ast.ClassDef]]] = [(tree, None)]
    while stack:
        node, klass = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                yield child, klass
            stack.append((child, child if isinstance(child, ast.ClassDef)
                          else klass))


def _expression_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and everything under it, lambdas included, nested
    ``def``/``class`` bodies excluded."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node)
                     if not isinstance(c, _SCOPES))


class _FunctionWalk:
    """One function body, statement by statement, with the held locks."""

    def __init__(self, guarded: Dict[str, str], label: str):
        self.guarded = guarded
        self.label = label
        self.tracked = set(LOCK_HIERARCHY) | set(guarded.values())
        self.found: List[Tuple[str, int, str]] = []

    def stmt(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, _SCOPES):
            return  # a nested scope runs later, with its own locks
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.expr(item.context_expr, held)
            for item in node.items:
                lock = self_attr(item.context_expr)
                if lock in self.tracked:
                    self.acquire(node.lineno, lock, held)
                    held = held + (lock,)
            for child in node.body:
                self.stmt(child, held)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                self.stmt(child, held)
            elif isinstance(child, ast.match_case):
                for sub in child.body:
                    self.stmt(sub, held)
            elif not isinstance(child, ast.pattern):
                self.expr(child, held)

    def acquire(self, line: int, lock: str, held: Tuple[str, ...]) -> None:
        if lock not in LOCK_HIERARCHY:
            return
        rank = LOCK_HIERARCHY.index(lock)
        for other in held:
            if other in LOCK_HIERARCHY and LOCK_HIERARCHY.index(other) >= rank:
                self.found.append((
                    "LOCK003", line,
                    f"acquiring '{lock}' while holding '{other}' inverts "
                    f"the declared lock hierarchy "
                    f"({' -> '.join(LOCK_HIERARCHY)})",
                ))

    def expr(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        for sub in _expression_nodes(node):
            attr = self_attr(sub)
            lock = self.guarded.get(attr) if attr is not None else None
            if lock is None or lock in held:
                continue
            access = ("write" if isinstance(sub.ctx, (ast.Store, ast.Del))
                      else "read")
            self.found.append((
                "LOCK001" if access == "write" else "LOCK002", sub.lineno,
                f"{access} of self.{attr} (guarded by '{lock}') "
                f"outside 'with self.{lock}:' in {self.label}",
            ))


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    waiver = "lock-ok"

    def check(self, mod: ModuleSource) -> List[Finding]:
        findings = list(self.check_waivers(mod))
        seen: Set[Tuple[str, int, str]] = set()
        guarded_by_class: Dict[ast.ClassDef, Dict[str, str]] = {}
        for fn, klass in _functions(mod.tree):
            if fn.name in LOCK_EXEMPT_METHODS or mod.waived(fn.lineno,
                                                            "lock-ok"):
                continue
            guarded = {}
            if klass is not None:
                if klass not in guarded_by_class:
                    guarded_by_class[klass] = _guarded_map(mod, klass)
                guarded = guarded_by_class[klass]
            label = fn.name if klass is None else f"{klass.name}.{fn.name}"
            walk = _FunctionWalk(guarded, label)
            for child in fn.body:
                walk.stmt(child, ())
            for key in walk.found:
                if key in seen:
                    continue
                seen.add(key)
                f = self.finding(mod, *key)
                if f is not None:
                    findings.append(f)
        return findings
