"""determinism: nothing order-unstable may feed the ordered commits.

The thread/process byte-identity guarantee (results identical for any
worker count and either backend) holds because every fold into the Schur
container happens in task-index order over deterministic inputs.  Three
sources of hidden nondeterminism would break it silently:

* DET001 — iterating a ``set`` (literal, ``set(...)`` call, set
  comprehension or set operators): Python set order depends on hash
  seeding and insertion history, so any fold/commit driven by it varies
  between runs.  ``sorted(...)`` the set first (dicts are
  insertion-ordered and exempt);
* DET002 — global-state randomness: ``random.*`` and the legacy
  ``np.random.*`` functions draw from a process-wide generator whose
  sequence depends on import order and thread interleaving, and
  ``default_rng()`` *without a seed* reseeds from the OS.  Use
  ``np.random.default_rng(seed)`` with an explicit seed;
* DET003 — wall-clock values (``time.time()``, ``datetime.now()``, …)
  flowing into computations.  ``perf_counter``/``monotonic`` timing of
  phases is fine — it only feeds reports.

Waive with ``# det-ok: <reason>`` (e.g. an order-insensitive reduction
over a set, with a comment arguing the insensitivity).
"""

from __future__ import annotations

import ast
from typing import List

from tools.analysis.base import Checker, Finding, ModuleSource, \
    attribute_chain, receiver_root
from tools.analysis.config import (
    DET_GLOBAL_RANDOM_MODULES,
    DET_LEGACY_NP_RANDOM_FUNCS,
    DET_WALLCLOCK_FUNCS,
)

_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


def _set_expr(node: ast.AST) -> bool:
    """An expression that definitely evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("intersection", "union", "difference",
                                   "symmetric_difference")):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
        # set algebra spelled with operators on set-typed operands
        return _set_expr(node.left) or _set_expr(node.right)
    return False


class DeterminismChecker(Checker):
    name = "determinism"
    waiver = "det-ok"

    def check(self, mod: ModuleSource) -> List[Finding]:
        findings = list(self.check_waivers(mod))

        def emit(code: str, line: int, message: str) -> None:
            f = self.finding(mod, code, line, message)
            if f is not None:
                findings.append(f)

        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _set_expr(node.iter):
                    emit("DET001", node.iter.lineno,
                         "iterating a set: element order depends on hash "
                         "seeding — sort it first (sorted(...)) so ordered "
                         "commits see a stable sequence")
            elif isinstance(node, ast.comprehension):
                if _set_expr(node.iter):
                    emit("DET001", node.iter.lineno,
                         "comprehension over a set: element order depends "
                         "on hash seeding — iterate sorted(...) instead")
            elif isinstance(node, ast.Call):
                self._check_call(node, emit)
        return findings

    def _check_call(self, call: ast.Call, emit) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        root = receiver_root(func)
        chain = attribute_chain(func)  # e.g. np.random.rand -> [random, rand]
        # random.<fn>(...) — the stdlib global generator
        if (root in DET_GLOBAL_RANDOM_MODULES and len(chain) == 1):
            emit("DET002", call.lineno,
                 f"'{root}.{func.attr}()' draws from the process-global "
                 f"generator — sequence depends on import order and "
                 f"threads; use np.random.default_rng(seed)")
            return
        # np.random.<legacy fn>(...)
        if (root in ("np", "numpy") and chain[:1] == ["random"]
                and len(chain) == 2
                and chain[1] in DET_LEGACY_NP_RANDOM_FUNCS):
            emit("DET002", call.lineno,
                 f"legacy 'np.random.{chain[1]}()' uses the global NumPy "
                 f"state — use np.random.default_rng(seed)")
            return
        # default_rng() with no seed reseeds from the OS on every call
        if func.attr == "default_rng" and not call.args and not call.keywords:
            emit("DET002", call.lineno,
                 "default_rng() without a seed draws OS entropy — pass an "
                 "explicit seed so runs are reproducible")
            return
        # wall-clock reads
        if root == "time" and len(chain) == 1 \
                and func.attr in DET_WALLCLOCK_FUNCS:
            emit("DET003", call.lineno,
                 f"wall-clock 'time.{func.attr}()' is not reproducible — "
                 f"use perf_counter() for timing, pass timestamps in "
                 f"explicitly otherwise")
            return
        if (func.attr in _DATETIME_FUNCS and root in ("datetime", "date")):
            emit("DET003", call.lineno,
                 f"wall-clock '{root}.{func.attr}()' is not reproducible — "
                 f"pass timestamps in explicitly")
