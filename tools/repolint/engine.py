"""repolint engine: module loading, suppression comments, class index, rule driver.

The engine is deliberately *whole-run* scoped: rules receive every parsed
module plus a cross-module class index, because the invariants they encode
span files ("is this an index class?" is a question about the transitive
base-class chain).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding, iter_rules

_DISABLE_RE = re.compile(
    r"#\s*repolint:\s*(disable-file|disable)\s*=\s*([A-Za-z0-9*,\s]+?)\s*(?:--|$)"
)


def _parse_disable_codes(raw: str) -> Set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


class Module:
    """One parsed source file plus everything rules need to reason about it."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line number -> set of rule codes disabled on that line ("*" = all)
        self.line_suppressions: Dict[int, Set[str]] = {}
        #: rule codes disabled for the whole file
        self.file_suppressions: Set[str] = set()
        self._collect_suppressions()
        #: child AST node -> parent AST node, for ancestor walks
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    # ------------------------------------------------------------------ #
    def _collect_suppressions(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _DISABLE_RE.search(tok.string)
                if not match:
                    continue
                codes = _parse_disable_codes(match.group(2))
                if match.group(1) == "disable-file":
                    self.file_suppressions |= codes
                else:
                    line = tok.start[0]
                    self.line_suppressions.setdefault(line, set()).update(codes)
        except tokenize.TokenError:  # pragma: no cover — ast.parse caught it first
            pass

    # ------------------------------------------------------------------ #
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def is_suppressed(self, code: str, node: ast.AST) -> bool:
        """Whether ``code`` is disabled at ``node``.

        A ``# repolint: disable=RLxxx`` comment suppresses on its own line,
        on the line directly above the offending statement, or — when placed
        on a ``def``/``class`` line — throughout that definition's body.
        """

        if code in self.file_suppressions or "*" in self.file_suppressions:
            return True
        line = getattr(node, "lineno", None)
        if line is None:
            return False
        for candidate in (line, line - 1):
            codes = self.line_suppressions.get(candidate, set())
            if code in codes or "*" in codes:
                return True
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                codes = self.line_suppressions.get(anc.lineno, set())
                if code in codes or "*" in codes:
                    return True
        return False


@dataclass
class ClassInfo:
    """A class definition plus where it came from."""

    name: str
    module: "Module"
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)

    def methods(self) -> Dict[str, ast.FunctionDef]:
        found: Dict[str, ast.FunctionDef] = {}
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(stmt.name, stmt)  # type: ignore[arg-type]
        return found


def _base_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):  # Generic[...] style bases
        return _base_name(expr.value)
    return None


class ClassIndex:
    """Cross-module class table with transitive base-chain resolution by name.

    Name-based resolution (rather than import-graph resolution) is the
    pragmatic choice for a repo-local linter: class names here are unique
    enough, and a false merge only ever makes rules *apply more broadly*.
    """

    def __init__(self, modules: Sequence[Module]) -> None:
        self.by_name: Dict[str, List[ClassInfo]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    bases = [b for b in (_base_name(e) for e in node.bases) if b]
                    info = ClassInfo(node.name, module, node, bases)
                    self.by_name.setdefault(node.name, []).append(info)

    def mro_infos(self, info: ClassInfo) -> List[ClassInfo]:
        """``info`` plus every transitively reachable base-class definition."""

        seen: Set[Tuple[str, int]] = set()
        order: List[ClassInfo] = []
        stack = [info]
        while stack:
            current = stack.pop()
            key = (current.name, id(current.node))
            if key in seen:
                continue
            seen.add(key)
            order.append(current)
            for base in current.base_names:
                stack.extend(self.by_name.get(base, []))
        return order

    def assigns_self_attr(self, info: ClassInfo, attr: str) -> bool:
        """Whether the class (or a base) ever writes ``self.<attr>``."""

        for cls in self.mro_infos(info):
            for node in ast.walk(cls.node):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == attr
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False


class LintRun:
    """All modules of one invocation plus the shared class index."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules = list(modules)
        self.classes = ClassIndex(self.modules)

    def run(self, select: Iterable[str] | None = None) -> List[Finding]:
        # Importing registers the rules; deferred to break the import cycle.
        from . import rules  # noqa: F401

        findings: List[Finding] = []
        node_of: Dict[Finding, ast.AST] = {}
        for module in self.modules:
            for rule_obj in iter_rules(select):
                for finding, node in rule_obj.check(module, self):  # type: ignore[misc]
                    if not module.is_suppressed(finding.code, node):
                        findings.append(finding)
                        node_of[finding] = node
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings


# ---------------------------------------------------------------------- #
# public entry points
# ---------------------------------------------------------------------- #
def collect_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
    return files


def lint_sources(
    sources: Dict[str, str], select: Iterable[str] | None = None
) -> List[Finding]:
    """Lint in-memory ``{path: source}`` pairs (the unit-test entry point)."""

    modules = [Module(path, text) for path, text in sorted(sources.items())]
    return LintRun(modules).run(select)


def lint_paths(
    paths: Sequence[str], select: Iterable[str] | None = None
) -> List[Finding]:
    sources = {str(p): p.read_text(encoding="utf-8") for p in collect_files(paths)}
    return lint_sources(sources, select)
