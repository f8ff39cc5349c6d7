"""Local approximation of the repo's ruff gate (see pyproject.toml).

The CI lint job runs real ``ruff check``; this module re-implements the
subset of its findings that matter most — long lines, import placement and
ordering, unused imports/locals, comparison and except-clause lints — so the
test suite can enforce the same bar on machines where ruff is not installed
(the dev container bakes in only the runtime toolchain).  It intentionally
over-approximates nothing: every check here is also a ruff check, so a clean
``stylecheck`` run is necessary-but-not-sufficient for a clean ruff run.

Run as ``python -m tools.stylecheck src/repro tests benchmarks tools``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

LINE_LENGTH = 120  # keep in sync with [tool.ruff] line-length

#: import-section ranks:
#: __future__ < stdlib < third-party < first-party < local-folder
_FIRST_PARTY = {"repro", "tools"}
_LOCAL_FOLDER = {"_bench_utils"}  # keep in sync with [tool.ruff.lint.isort]
_THIRD_PARTY = {"numpy", "pytest", "hypothesis", "scipy", "pandas"}


def _member_sort_key(name: str) -> Tuple[int, str]:
    """isort ``order-by-type`` member key: CONSTANTS < Classes < functions."""

    if name.replace("_", "").isupper():
        kind = 0
    elif name[:1].isupper():
        kind = 1
    else:
        kind = 2
    return (kind, name.lower())


def _module_rank(module: str, level: int) -> int:
    if level > 0:
        return 3  # relative imports sort with first-party
    root = module.split(".")[0]
    if root == "__future__":
        return 0
    if root in _FIRST_PARTY:
        return 3
    if root in _LOCAL_FOLDER:
        return 4
    if root in _THIRD_PARTY:
        return 2
    in_stdlib = root in sys.stdlib_module_names
    return 1 if in_stdlib else 2


class Checker:
    def __init__(self, path: Path) -> None:
        self.path = path
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self.problems: List[Tuple[int, str, str]] = []

    def note(self, line: int, code: str, message: str) -> None:
        self.problems.append((line, code, message))

    # ------------------------------------------------------------------ #
    def run(self) -> List[Tuple[int, str, str]]:
        self.check_line_lengths()
        self.check_import_style()
        self.check_unused_imports()
        self.check_comparisons()
        self.check_excepts()
        self.check_ambiguous_names()
        self.check_unused_locals()
        return sorted(self.problems)

    # E501 ------------------------------------------------------------- #
    def check_line_lengths(self) -> None:
        for number, line in enumerate(self.lines, 1):
            if len(line) > LINE_LENGTH:
                self.note(number, "E501", f"line too long ({len(line)} > {LINE_LENGTH})")

    # E401 / E402 / I001 ------------------------------------------------ #
    def check_import_style(self) -> None:
        seen_code = False
        # isort default order: within a section, plain ``import x`` lines come
        # before ``from x import y`` lines, each run alphabetical — i.e. each
        # import's (section, form, module) tuple must be non-decreasing.
        last_order: Tuple[int, int, str] = (-1, -1, "")
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                if len(node.names) > 1:
                    self.note(node.lineno, "E401", "multiple imports on one line")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if seen_code:
                    self.note(node.lineno, "E402", "module-level import not at top of file")
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    order = (
                        _module_rank(module, node.level),
                        1,
                        "." * node.level + module,
                    )
                else:
                    order = (_module_rank(node.names[0].name, 0), 0, node.names[0].name)
                if order < last_order:
                    self.note(
                        node.lineno,
                        "I001",
                        f"import {order[2]!r} out of order (sections: __future__ "
                        "< stdlib < third-party < first-party < local)",
                    )
                last_order = order
                if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    keys = [_member_sort_key(a.name) for a in node.names]
                    if keys != sorted(keys):
                        self.note(
                            node.lineno,
                            "I001",
                            "imported names not in isort order "
                            "(CONSTANTS, Classes, then others)",
                        )
            elif not isinstance(node, (ast.Expr, ast.If, ast.Try)):
                # docstrings (Expr) and guarded imports don't end the prologue
                seen_code = True
            elif isinstance(node, ast.Expr) and not isinstance(
                node.value, ast.Constant
            ):
                seen_code = True

    # F401 -------------------------------------------------------------- #
    def check_unused_imports(self) -> None:
        exported: set = set()
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            exported = {
                                element.value
                                for element in node.value.elts
                                if isinstance(element, ast.Constant)
                            }
        used = {
            node.id for node in ast.walk(self.tree) if isinstance(node, ast.Name)
        }
        used |= {
            node.attr for node in ast.walk(self.tree) if isinstance(node, ast.Attribute)
        }
        for text in (
            n.value for n in ast.walk(self.tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        ):
            # names referenced from string annotations
            for token in text.replace("[", " ").replace("]", " ").replace(",", " ").split():
                used.add(token.strip('"').strip("'").split(".")[0])
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa" in self.lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if alias.asname == alias.name:
                    continue  # redundant alias marks an intentional re-export
                if bound not in used and bound not in exported:
                    self.note(node.lineno, "F401", f"{bound!r} imported but unused")

    # E711 / E712 -------------------------------------------------------- #
    def check_comparisons(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if isinstance(comparator, ast.Constant):
                    if comparator.value is None:
                        self.note(node.lineno, "E711", "comparison to None (use `is`)")
                    elif comparator.value is True or comparator.value is False:
                        self.note(node.lineno, "E712", "comparison to bool (use `is`)")

    # E722 --------------------------------------------------------------- #
    def check_excepts(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                self.note(node.lineno, "E722", "bare `except:`")

    # E741 --------------------------------------------------------------- #
    def check_ambiguous_names(self) -> None:
        ambiguous = {"l", "O", "I"}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in ambiguous:
                    self.note(node.lineno, "E741", f"ambiguous variable name {node.id!r}")
            elif isinstance(node, ast.arg) and node.arg in ambiguous:
                self.note(node.lineno, "E741", f"ambiguous argument name {node.arg!r}")

    # F841 (approximation: plain locals assigned once and never read) ---- #
    def check_unused_locals(self) -> None:
        for func in ast.walk(self.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loads = {
                n.id
                for n in ast.walk(func)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
            }
            nested_scopes = [
                n for n in ast.walk(func)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not func
            ]
            for n in nested_scopes:
                loads |= {
                    m.id for m in ast.walk(n) if isinstance(m, ast.Name)
                }
            for node in func.body:
                if not isinstance(node, ast.Assign):
                    continue
                if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                    continue
                name = node.targets[0].id
                if name.startswith("_") or name in loads:
                    continue
                self.note(node.lineno, "F841", f"local variable {name!r} never used")


def iter_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: Sequence[str]) -> int:
    total = 0
    for path in iter_files(argv or ["src/repro", "tests", "benchmarks", "tools"]):
        for line, code, message in Checker(path).run():
            print(f"{path}:{line}: {code} {message}")
            total += 1
    print(f"stylecheck: {total} finding(s)" if total else "stylecheck: clean")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
