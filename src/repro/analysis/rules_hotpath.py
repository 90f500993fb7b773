"""(H) Hot-path hygiene rules.

The engine's per-round cost story (207 -> 7.9k rounds/s) depends on two
disciplines: the progress fan-out only dispatches to observers that
*override* ``on_progress`` (so observers that don't, cost nothing -- H101
keeps it that way), and the innermost accounting functions stay free of
logging/telemetry emission (H102).  Hot functions are marked either with a
``# hot-path`` comment on (or immediately above) the ``def`` line, or by
listing ``<file>::<Qual.name>`` in the manifest's ``HOT_PATH_FUNCTIONS``;
H103 keeps those listings pointing at functions that exist.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.core import (
    FileContext,
    Finding,
    ProjectState,
    Rule,
    dotted_name,
    parent_of,
)

#: Call patterns banned inside hot functions: stdout, logging, warnings,
#: and telemetry emission (``*.emit(...)`` is the TraceRecorder hot call).
BANNED_CALL_NAMES: FrozenSet[str] = frozenset({"print"})
BANNED_CALL_PREFIXES = ("logging.", "logger.", "log.", "warnings.")
BANNED_METHOD_NAMES: FrozenSet[str] = frozenset(
    {"emit", "debug", "info", "warning", "error", "critical", "exception", "log"}
)
#: Receivers whose methods above count as emission (``self.logger.info``,
#: ``self.recorder.emit``, bare ``logger.debug`` ...).
EMITTER_RECEIVER_HINTS = ("logger", "logging", "log", "recorder", "warnings")


def _qualname(fn: ast.AST) -> str:
    parts: List[str] = [getattr(fn, "name", "<lambda>")]
    cur: Optional[ast.AST] = parent_of(fn)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parts.append(cur.name)
        cur = parent_of(cur)
    return ".".join(reversed(parts))


def _has_hot_marker(ctx: FileContext, fn: ast.AST) -> bool:
    line = getattr(fn, "lineno", 0)
    for candidate in (line, line - 1):
        if "# hot-path" in ctx.line_text(candidate):
            return True
    # Decorated defs: lineno points at the def, markers may sit above the
    # first decorator.
    decorators = getattr(fn, "decorator_list", [])
    if decorators:
        first = min(d.lineno for d in decorators)
        if "# hot-path" in ctx.line_text(first - 1):
            return True
    return False


class OnProgressOverrideRule(Rule):
    """H101: ``on_progress`` overrides outside the documented exceptions.

    ``JobState``'s registry fans progress writes out *only* to observers
    that override ``on_progress``; every override therefore re-adds two
    dispatches per running job per round to the hottest loop in the system.
    New overrides must be a reviewed manifest change, not a drive-by.
    """

    rule_id = "H101"
    description = (
        "on_progress override outside the documented exceptions re-enters "
        "the per-round hot path"
    )
    hint = (
        "consume job lifecycle events (on_status_change) instead, or add "
        "the file to ON_PROGRESS_ALLOWED with a rationale"
    )

    def visit_FunctionDef(self, ctx: FileContext, node: ast.FunctionDef) -> None:
        if node.name != "on_progress":
            return
        if ctx.module is None:
            return
        if not isinstance(parent_of(node), ast.ClassDef):
            return
        if ctx.manifest.on_progress_override_allowed(ctx.rel):
            return
        ctx.report(
            self,
            node,
            f"`{_qualname(node)}` overrides on_progress outside the "
            "documented exceptions",
        )


class HotPathEmitRule(Rule):
    """H102: logging/telemetry emission inside hot functions.

    A single ``logger.debug`` in ``ExecutionModel.advance`` costs a frame
    plus string formatting per running job per round even when the handler
    is disabled.  Telemetry for hot events belongs at the round-record
    choke point, not inside the accounting itself.
    """

    rule_id = "H102"
    description = (
        "logging/telemetry emit call inside a function marked # hot-path "
        "or listed in the hot-path manifest"
    )
    hint = (
        "move the emission to the round-record choke point (outside the "
        "hot function)"
    )

    def visit_FunctionDef(self, ctx: FileContext, node: ast.FunctionDef) -> None:
        self._check(ctx, node)

    def visit_AsyncFunctionDef(
        self, ctx: FileContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._check(ctx, node)

    def _check(self, ctx: FileContext, fn: ast.AST) -> None:
        if ctx.module is None:
            return
        qual = _qualname(fn)
        hot = _has_hot_marker(ctx, fn) or ctx.manifest.is_hot_path_function(
            ctx.rel, qual
        )
        if not hot:
            return
        for sub in ast.walk(fn):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not fn:
                # Nested defs are usually deferred work; they get their own
                # marker if they are hot.
                continue
            if isinstance(sub, ast.Call) and self._is_emission(sub):
                name = dotted_name(sub.func) or "<call>"
                ctx.report(
                    self,
                    sub,
                    f"`{name}()` inside hot-path function `{qual}`",
                )

    @staticmethod
    def _is_emission(call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is None:
            return False
        if name in BANNED_CALL_NAMES:
            return True
        if any(name.startswith(prefix) for prefix in BANNED_CALL_PREFIXES):
            return True
        if isinstance(call.func, ast.Attribute) and call.func.attr in BANNED_METHOD_NAMES:
            parts = name.split(".")
            receiver = parts[-2] if len(parts) >= 2 else ""
            receiver = receiver.lstrip("_")
            if receiver in EMITTER_RECEIVER_HINTS or (
                len(parts) >= 3 and parts[-2].lstrip("_") in EMITTER_RECEIVER_HINTS
            ):
                return True
            if call.func.attr == "emit":
                # Any ``x.emit(...)`` counts: the only emit in the codebase
                # is the TraceRecorder's, and that must stay off hot paths.
                return True
        return False


class StaleHotPathEntryRule(Rule):
    """H103: a hot-path manifest entry names a function its file lacks.

    H102 protects manifest-listed functions by qualified name, so renaming
    or deleting one silently drops that protection.  Every entry whose file
    was linted must name a function defined in it.
    """

    rule_id = "H103"
    description = (
        "hot-path manifest entry names a function that its linted file "
        "does not define"
    )
    hint = (
        "rename or remove the entry in HOT_PATH_FUNCTIONS "
        "(repro/analysis/manifest.py)"
    )

    def __init__(self) -> None:
        #: linted file -> qualified names of the functions it defines
        self._defined: Dict[str, Set[str]] = {}

    def begin_file(self, ctx: FileContext) -> None:
        self._defined[ctx.rel] = set()

    def visit_FunctionDef(self, ctx: FileContext, node: ast.FunctionDef) -> None:
        self._defined[ctx.rel].add(_qualname(node))

    def visit_AsyncFunctionDef(
        self, ctx: FileContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._defined[ctx.rel].add(_qualname(node))

    def finalize(self, project: ProjectState) -> List[Finding]:
        findings: List[Finding] = []
        for entry in sorted(project.manifest.hot_path_functions):
            suffix, qual = entry.split("::", 1)
            for rel, defined in sorted(self._defined.items()):
                if rel.replace("\\", "/").endswith(suffix) and qual not in defined:
                    findings.append(
                        Finding(
                            rule=self.rule_id,
                            severity=self.severity,
                            path=rel,
                            line=1,
                            col=1,
                            message=(
                                f"hot-path manifest entry `{entry}` names no "
                                "function in this file"
                            ),
                            hint=self.hint,
                        )
                    )
        return findings


HOTPATH_RULES = (OnProgressOverrideRule, HotPathEmitRule, StaleHotPathEntryRule)
