"""repolint — AST-based invariant linter for the serving stack.

The serving stack rests on conventions that ordinary tests only probe
pointwise: epoch bumps on every index mutation, batch-of-one wrappers,
never caching degraded results, bounded telemetry windows, no swallowed
``BaseException``, crash-safe snapshot publishes, and codec-framed journal
writes.  repolint encodes each as a named rule over the AST so every future
diff is checked *before the code runs* (codes are stable: RL002,
``shm-lifecycle``, was retired with the shared-memory backend it guarded):

========  =======================  =====================================================
code      name                     invariant
========  =======================  =====================================================
RL001     epoch-bump               index mutators bump ``self.epoch`` on non-raising paths
RL003     batch-of-one             single wrappers only delegate to their batch canonical
RL004     degraded-not-cached      cache writes sit behind a cacheable/degraded guard
RL005     unbounded-telemetry      telemetry accumulators are bounded windows
RL006     base-exception-swallow   no ``except`` swallows BaseException without re-raising
RL007     atomic-snapshot-publish  snapshot writes are atomic; index publish is one swap
RL008     wal-record-codec         journal writes are codec-framed and reach fsync policy
========  =======================  =====================================================

Suppress with ``# repolint: disable=RL00X`` on (or directly above) the
offending line, or on the enclosing ``def``/``class`` line for the whole
body; ``# repolint: disable-file=RL00X`` silences a file.  Run as
``python -m tools.repolint src/repro [--format=json|human] [--select=...]``.
"""

from __future__ import annotations

from .engine import LintRun, Module, collect_files, lint_paths, lint_sources
from .findings import RULES, Finding, Rule

__all__ = [
    "Finding",
    "LintRun",
    "Module",
    "RULES",
    "Rule",
    "collect_files",
    "lint_paths",
    "lint_sources",
]
