"""The seven serving-stack invariant rules (RL001–RL008; RL002 is retired).

Each rule encodes one convention the serving stack depends on for
correctness; the module docstring of :mod:`tools.repolint` and the README's
"Static analysis & invariants" section give the history.  Checks yield
``(Finding, node)`` pairs — the node anchors suppression-comment lookup.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from .cfg import clean_unbumped_exits
from .engine import LintRun, Module
from .findings import Finding, rule

Hit = Tuple[Finding, ast.AST]

# ---------------------------------------------------------------------- #
# shared AST helpers
# ---------------------------------------------------------------------- #


def _root_name(expr: ast.expr) -> Optional[str]:
    """Base ``Name`` id of an attribute/subscript chain (``a.b[0].c`` -> ``a``)."""

    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _is_self_attr(expr: ast.expr, attr: Optional[str] = None) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and (attr is None or expr.attr == attr)
    )


def _flat_targets(targets: List[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat_targets(list(target.elts))
        elif isinstance(target, ast.Starred):
            yield target.value
        else:
            yield target


def _assign_targets(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(_flat_targets(stmt.targets))
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def _src(expr: ast.AST) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover — unparse covers all real nodes
        return ""


# ---------------------------------------------------------------------- #
# RL001 — epoch-bump
# ---------------------------------------------------------------------- #

#: Methods on an index class that (directly or transitively) write rows.
INDEX_MUTATORS = ("build", "add", "update", "update_batch", "retrain")

#: Method names whose *call on a self attribute* counts as writing rows.
_MUTATING_CALLS = {
    "append",
    "extend",
    "insert",
    "remove",
    "clear",
    "reset",
    "set_rows",
    "fill",
    "update",
    "pop",
}


def _stmt_bumps_epoch(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(_is_self_attr(t, "epoch") for t in targets):
                return True
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in INDEX_MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                return True  # delegation to a method that itself must bump
    return False


def _stmt_mutates_index(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in _flat_targets(list(targets)):
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if _root_name(target) == "self" and not _is_self_attr(
                        target, "epoch"
                    ):
                        return True
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_CALLS
                and _root_name(func.value) == "self"
            ):
                return True
    return False


@rule(
    "RL001",
    "epoch-bump",
    "index-mutating methods must bump self.epoch on every non-raising path",
)
def check_epoch_bump(module: Module, run: LintRun) -> Iterator[Hit]:
    for infos in run.classes.by_name.values():
        for info in infos:
            if info.module is not module:
                continue
            if not run.classes.assigns_self_attr(info, "epoch"):
                continue  # not an index class
            for method_name in INDEX_MUTATORS:
                method = info.methods().get(method_name)
                if method is None:
                    continue
                offenders = clean_unbumped_exits(
                    method.body, _stmt_bumps_epoch, _stmt_mutates_index
                )
                for path_exit in offenders:
                    yield (
                        Finding(
                            path=module.path,
                            line=path_exit.line,
                            col=method.col_offset,
                            code="RL001",
                            message=(
                                f"{info.name}.{method_name} has a non-raising "
                                "path that writes index state without bumping "
                                "self.epoch"
                            ),
                            fixit=(
                                "bump self.epoch before every clean exit (or "
                                "delegate to a method that does); stale-epoch "
                                "caches serve old rows forever"
                            ),
                        ),
                        method,
                    )


# ---------------------------------------------------------------------- #
# RL003 — batch-of-one
# ---------------------------------------------------------------------- #

#: single-item wrapper -> its batch canonical
BATCH_WRAPPERS = {
    "search": "search_batch",
    "observe": "observe_batch",
    "update_user": "update_users",
    "score_items": "score_items_batch",
    "recommend": "recommend_batch",
    "score_for_user": "score_for_users",
}

_WRAPPER_FORBIDDEN = (ast.For, ast.AsyncFor, ast.While, ast.Try, ast.With)


def _self_method_calls(func_node: ast.FunctionDef) -> Set[str]:
    calls: Set[str] = set()
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _held_delegate_calls(func_node: ast.FunctionDef) -> Set[Tuple[str, str]]:
    """Calls of the form ``self.<held>.<method>(...)`` as ``(held, method)`` pairs."""

    calls: Set[Tuple[str, str]] = set()
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "self"
        ):
            calls.add((node.func.value.attr, node.func.attr))
    return calls


@rule(
    "RL003",
    "batch-of-one",
    "single-item wrappers may only delegate to their batch canonical",
)
def check_batch_of_one(module: Module, run: LintRun) -> Iterator[Hit]:
    for infos in run.classes.by_name.values():
        for info in infos:
            if info.module is not module:
                continue
            for wrapper_name, canonical in BATCH_WRAPPERS.items():
                wrapper = info.methods().get(wrapper_name)
                if wrapper is None:
                    continue
                calls = _self_method_calls(wrapper)
                # The rule applies when the wrapper delegates, or when the
                # class itself defines both halves of the pair.  The offline
                # model zoo runs the *inverse* pattern — an abstract
                # ``score_items`` with a default ``score_items_batch`` that
                # loops over it — which is a fallback, not a wrapper, so a
                # canonical that calls back into the single method exempts
                # the pair.
                direct_canonical = info.methods().get(canonical)
                if canonical not in calls:
                    if direct_canonical is None:
                        continue  # not a batch-of-one pair on this class
                    if wrapper_name in _self_method_calls(direct_canonical):
                        continue  # batch derived from single (fallback dir.)
                problems: List[str] = []
                if canonical not in calls:
                    problems.append(f"never calls self.{canonical}")
                extra_calls = calls - {canonical}
                if extra_calls:
                    problems.append(
                        "calls other self methods: "
                        + ", ".join(sorted(extra_calls))
                    )
                for stmt in ast.walk(wrapper):
                    if isinstance(stmt, _WRAPPER_FORBIDDEN):
                        problems.append(
                            f"contains a {type(stmt).__name__.lower()} block"
                        )
                        break
                if problems:
                    yield (
                        Finding(
                            path=module.path,
                            line=wrapper.lineno,
                            col=wrapper.col_offset,
                            code="RL003",
                            message=(
                                f"{info.name}.{wrapper_name} is not a pure "
                                f"batch-of-one wrapper ({'; '.join(problems)})"
                            ),
                            fixit=(
                                f"reduce the body to delegation into "
                                f"self.{canonical} so the single and batch "
                                "paths cannot drift"
                            ),
                        ),
                        wrapper,
                    )
            # Front-end clause: a class that routes an operation through a
            # *held* object's batch canonical (``self.server.observe_batch``,
            # ``self.sccf.score_items_batch``, ...) must never also call that
            # object's single-item wrapper.  A per-request helper that
            # "simplifies" into the single path silently forfeits coalescing
            # for every request it serves — the front-end's helpers must stay
            # batch-of-one consumers of the window machinery.
            held_calls = {
                name: _held_delegate_calls(fn) for name, fn in info.methods().items()
            }
            batch_held: Set[Tuple[str, str, str]] = set()
            for calls_pairs in held_calls.values():
                for held, method in calls_pairs:
                    for wrapper_name, canonical in BATCH_WRAPPERS.items():
                        if method == canonical:
                            batch_held.add((held, wrapper_name, canonical))
            for name, fn in info.methods().items():
                for held, wrapper_name, canonical in sorted(batch_held):
                    if (held, wrapper_name) in held_calls[name]:
                        yield (
                            Finding(
                                path=module.path,
                                line=fn.lineno,
                                col=fn.col_offset,
                                code="RL003",
                                message=(
                                    f"{info.name}.{name} calls "
                                    f"self.{held}.{wrapper_name} although the "
                                    f"class routes through "
                                    f"self.{held}.{canonical} — single-path "
                                    "bypass of the batched window"
                                ),
                                fixit=(
                                    f"call self.{held}.{canonical} with a "
                                    "batch of one instead, so every request "
                                    "stays on the coalesced path"
                                ),
                            ),
                            fn,
                        )


# ---------------------------------------------------------------------- #
# RL004 — degraded-not-cached
# ---------------------------------------------------------------------- #

_CACHE_RECEIVER_RE = re.compile(
    r"cache|layer|recommendations|neighbors|scores|embeddings", re.I
)
_GUARD_RE = re.compile(r"degraded|cacheable", re.I)


def _guard_mentions(
    module: Module, func: Optional[ast.AST], test: ast.expr
) -> bool:
    if _GUARD_RE.search(_src(test)):
        return True
    if func is None:
        return False
    names = {n.id for n in ast.walk(test) if isinstance(n, ast.Name)}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in _flat_targets(list(node.targets)):
                if isinstance(target, ast.Name) and target.id in names:
                    if _GUARD_RE.search(_src(node.value)):
                        return True
    return False


@rule(
    "RL004",
    "degraded-not-cached",
    "cache writes must be dominated by a cacheable/degraded guard",
)
def check_degraded_not_cached(module: Module, run: LintRun) -> Iterator[Hit]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # serve_batch(...) without an explicit cacheable= decision
        callee = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if callee == "serve_batch":
            if not any(kw.arg == "cacheable" for kw in node.keywords):
                yield (
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="RL004",
                        message=(
                            "serve_batch call without cacheable=; degraded "
                            "results would be cached"
                        ),
                        fixit=(
                            "pass cacheable=<guard> capturing whether this "
                            "batch may be degraded (PR 6 invariant)"
                        ),
                    ),
                    node,
                )
            continue
        # <cache layer>.put(...) outside a degraded/cacheable guard
        if callee == "put" and isinstance(func, ast.Attribute):
            receiver_src = _src(func.value)
            if not _CACHE_RECEIVER_RE.search(receiver_src):
                continue
            enclosing = module.enclosing_function(node)
            guarded = False
            for anc in module.ancestors(node):
                if isinstance(anc, ast.If) and _guard_mentions(
                    module, enclosing, anc.test
                ):
                    guarded = True
                    break
            if not guarded:
                yield (
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="RL004",
                        message=(
                            f"unguarded cache write {receiver_src}.put(...); "
                            "a degraded result could be stored"
                        ),
                        fixit=(
                            "dominate the put with an `if not degraded:` / "
                            "cacheable check, or route it through "
                            "serve_batch(cacheable=...)"
                        ),
                    ),
                    node,
                )


# ---------------------------------------------------------------------- #
# RL005 — unbounded-telemetry
# ---------------------------------------------------------------------- #

_TELEMETRY_RE = re.compile(r"latenc|timing|metric|telemetr|report|recent|sample", re.I)


def _unbounded_accumulator(value: ast.expr) -> bool:
    if isinstance(value, ast.List):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name == "list":
            return True
        if name == "deque":
            bounded = len(value.args) >= 2 or any(
                kw.arg == "maxlen" for kw in value.keywords
            )
            return not bounded
    return False


@rule(
    "RL005",
    "unbounded-telemetry",
    "telemetry accumulators must be bounded (deque(maxlen=...))",
)
def check_unbounded_telemetry(module: Module, run: LintRun) -> Iterator[Hit]:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        if node.value is None:
            continue
        for target in _assign_targets(node):
            if not isinstance(target, ast.Attribute):
                continue
            if not _is_self_attr(target):
                continue
            if not _TELEMETRY_RE.search(target.attr):
                continue
            if _unbounded_accumulator(node.value):
                yield (
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="RL005",
                        message=(
                            f"telemetry accumulator self.{target.attr} is "
                            "unbounded; hot-path appends grow it forever"
                        ),
                        fixit=(
                            "use collections.deque(maxlen=...) (or another "
                            "windowed structure) so memory stays O(window)"
                        ),
                    ),
                    node,
                )


# ---------------------------------------------------------------------- #
# RL006 — base-exception-swallow
# ---------------------------------------------------------------------- #


def _names_base_exception(expr: Optional[ast.expr]) -> bool:
    if expr is None:
        return True  # bare except:
    if isinstance(expr, ast.Name):
        return expr.id == "BaseException"
    if isinstance(expr, ast.Attribute):
        return expr.attr == "BaseException"
    if isinstance(expr, ast.Tuple):
        return any(_names_base_exception(e) for e in expr.elts)
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            callee = _src(node.func)
            if callee in ("os._exit", "sys.exit"):
                return True
    return False


@rule(
    "RL006",
    "base-exception-swallow",
    "except must not swallow BaseException without re-raising",
)
def check_base_exception_swallow(module: Module, run: LintRun) -> Iterator[Hit]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and _names_base_exception(node.type):
            if not _reraises(node):
                yield (
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="RL006",
                        message=(
                            "except clause swallows BaseException without "
                            "re-raising; KeyboardInterrupt/SystemExit die here"
                        ),
                        fixit=(
                            "catch Exception instead, or re-raise after "
                            "recording the failure"
                        ),
                    ),
                    node,
                )


# ---------------------------------------------------------------------- #
# RL007 — atomic-snapshot-publish
# ---------------------------------------------------------------------- #

#: function names (and the snapshot module itself) whose file writes must go
#: through the crash-safe helper
_SNAPSHOT_SCOPE_RE = re.compile(r"snapshot", re.I)
#: function names in which an index reference swap must be atomic.  NOTE:
#: "maintain" alone would miss "maintenance" helpers — "mainten" covers both.
_PUBLISH_SCOPE_RE = re.compile(r"maintain|mainten|retrain|publish|swap", re.I)
_WRITE_MODE_RE = re.compile(r"[wax+]")


def _open_write_mode(call: ast.Call) -> bool:
    """True when an ``open(...)`` call's mode makes the file writable."""

    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_RE.search(mode.value))
    return True  # dynamic mode expression: fail closed


@rule(
    "RL007",
    "atomic-snapshot-publish",
    "snapshot files go through the atomic-write helper; index publish is one reference swap",
)
def check_atomic_snapshot_publish(module: Module, run: LintRun) -> Iterator[Hit]:
    """Two crash-safety invariants of the blue/green serving stack.

    **Clause A** — inside snapshot code (any function whose name mentions
    "snapshot", or any function in a ``snapshot.py`` module, except the
    sanctioned ``_atomic_write`` helper), no bare write-mode ``open()`` and
    no ``write_text``/``write_bytes``: a crash mid-write would leave a
    half-written file that looks committed.  All snapshot bytes reach disk
    through tmp-file + fsync + atomic rename.

    **Clause B** — inside maintenance/publish code (function names matching
    maintain/mainten/retrain/publish/swap), an assignment to an ``.index``
    attribute must be a *single* plain ``target.index = <name>`` swap — no
    tuple unpacking, no chained targets, no inline construction — so readers
    can never observe a half-retrained index.
    """

    in_snapshot_module = str(module.path).endswith("snapshot.py")
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        snapshot_scope = (
            in_snapshot_module or bool(_SNAPSHOT_SCOPE_RE.search(func.name))
        ) and func.name != "_atomic_write"
        publish_scope = bool(_PUBLISH_SCOPE_RE.search(func.name))
        if not snapshot_scope and not publish_scope:
            continue
        for node in ast.walk(func):
            if node is func or module.enclosing_function(node) is not func:
                continue  # nested defs get their own pass
            if snapshot_scope and isinstance(node, ast.Call):
                callee = node.func
                name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute)
                    else None
                )
                is_os_open = (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "os"
                )  # os.open takes int flags, not a mode string
                if name == "open" and not is_os_open and _open_write_mode(node):
                    yield (
                        Finding(
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="RL007",
                            message=(
                                f"write-mode open() inside snapshot path "
                                f"{func.name}; a crash mid-write leaves a "
                                "corrupt-but-present file"
                            ),
                            fixit=(
                                "route the bytes through the snapshot "
                                "module's _atomic_write (tmp + fsync + "
                                "atomic rename)"
                            ),
                        ),
                        node,
                    )
                elif name in ("write_text", "write_bytes") and isinstance(
                    callee, ast.Attribute
                ):
                    yield (
                        Finding(
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="RL007",
                            message=(
                                f"direct .{name}() inside snapshot path "
                                f"{func.name}; a crash mid-write leaves a "
                                "corrupt-but-present file"
                            ),
                            fixit=(
                                "route the bytes through the snapshot "
                                "module's _atomic_write (tmp + fsync + "
                                "atomic rename)"
                            ),
                        ),
                        node,
                    )
            if publish_scope and isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                hits_index = any(
                    isinstance(target, ast.Attribute) and target.attr == "index"
                    for target in _flat_targets(list(targets))
                )
                if not hits_index:
                    continue
                compliant = (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.value, ast.Name)
                )
                if not compliant:
                    yield (
                        Finding(
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="RL007",
                            message=(
                                f"index publish in {func.name} is not a "
                                "single atomic reference swap"
                            ),
                            fixit=(
                                "bind the fully built index to a local name "
                                "first, then publish with one plain "
                                "`<target>.index = <name>` assignment"
                            ),
                        ),
                        node,
                    )


# ---------------------------------------------------------------------- #
# RL008 — wal-record-codec
# ---------------------------------------------------------------------- #

#: function names (and the WAL module itself) whose journal writes must go
#: through the record codec and whose append paths must reach group commit
_WAL_SCOPE_RE = re.compile(r"wal", re.I)
#: append-path entry points: ``append``, ``append_batch``, ``_append*``
_WAL_APPEND_RE = re.compile(r"^_?append")
#: calls that count as reaching the fsync-policy decision
_WAL_SYNC_CALLEES = ("_maybe_sync", "sync")


@rule(
    "RL008",
    "wal-record-codec",
    "journal bytes go through the record codec; every append path reaches the fsync policy",
)
def check_wal_record_codec(module: Module, run: LintRun) -> Iterator[Hit]:
    """Two durability invariants of the write-ahead log.

    **Clause A** — inside WAL code (any function whose name mentions "wal",
    or any function in a ``wal.py`` module, except the sanctioned
    ``_write_encoded`` sink), no direct ``.write()`` /
    ``.write_bytes()`` / ``.write_text()`` of payload bytes: an unframed
    write has no length prefix or CRC, so recovery cannot tell it from a
    torn tail and must discard everything after it.  Journal bytes reach
    disk only as ``encode_record(...)`` output (passing the codec call
    directly to a write is tolerated; anything else is not).

    **Clause B** — every append-path entry point (``append``,
    ``append_batch``, ``_append*``) in WAL scope must call ``_maybe_sync``
    or ``sync`` before returning: a record that never reaches the
    group-commit decision is acknowledged without ever being scheduled for
    durability, silently widening the loss window past what the configured
    fsync policy promises.
    """

    in_wal_module = str(module.path).endswith("wal.py")
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        wal_scope = (
            in_wal_module or bool(_WAL_SCOPE_RE.search(func.name))
        ) and func.name != "_write_encoded"
        if not wal_scope:
            continue
        reaches_sync = False
        for node in ast.walk(func):
            if node is func or module.enclosing_function(node) is not func:
                continue  # nested defs get their own pass
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if name in _WAL_SYNC_CALLEES:
                reaches_sync = True
            if name in ("write", "write_bytes", "write_text") and isinstance(
                callee, ast.Attribute
            ):
                framed = bool(node.args) and (
                    isinstance(node.args[-1], ast.Call)
                    and isinstance(node.args[-1].func, ast.Name)
                    and node.args[-1].func.id == "encode_record"
                )
                if not framed:
                    yield (
                        Finding(
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="RL008",
                            message=(
                                f"raw .{name}() inside WAL path {func.name}; "
                                "unframed journal bytes are indistinguishable "
                                "from a torn tail at recovery"
                            ),
                            fixit=(
                                "frame the payload with encode_record(seq, "
                                "payload) and write it through the module's "
                                "_write_encoded sink"
                            ),
                        ),
                        node,
                    )
        if _WAL_APPEND_RE.match(func.name) and not reaches_sync:
            yield (
                Finding(
                    path=module.path,
                    line=func.lineno,
                    col=func.col_offset,
                    code="RL008",
                    message=(
                        f"append path {func.name} never reaches the fsync "
                        "policy; acknowledged records are not scheduled for "
                        "durability"
                    ),
                    fixit=(
                        "end the append path with _maybe_sync() (or sync()) "
                        "so every record passes the group-commit decision"
                    ),
                ),
                func,
            )
